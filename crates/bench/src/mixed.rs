//! Mixed-traffic serving benchmark: the `JobServer` versus a naive
//! per-request client on one heterogeneous request stream.
//!
//! Three scenarios over the *same* deterministic traffic
//! ([`quape_workloads::traffic::mixed_traffic`]):
//!
//! * **naive** — no service layer: each request assembles its source
//!   text, compiles a fresh job, and runs its shots sequentially;
//! * **server_cold** — a fresh [`JobServer`]: every distinct program
//!   compiles once (content-hash cache misses), repeats hit;
//! * **server_warm** — the same server again: the whole stream is served
//!   from the compiled-job cache.
//!
//! Every request's latency is measured from one common arrival epoch
//! (the queue is handed over at t=0 in all three scenarios), so p50/p95
//! compare the *tenant experience*, and the per-request aggregates are
//! asserted bit-identical across all scenarios — the benchmark doubles
//! as a differential test of the serving layer.

use crate::support::{assert_balanced, factory, percentile, priority_of};
use quape_core::{CompiledJob, QuapeConfig, ShotEngine};
use quape_obs::{ObsScope, Recorder};
use quape_router::{ShardSnapshot, ShardStatus};
use quape_server::{
    CacheStats, JobRequest, JobServer, JobSource, PackerConfig, PackerStats, ServerConfig,
};
use quape_workloads::traffic::{mixed_traffic, small_job_traffic, TrafficRequest};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Host-side measurements of one serving scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// `naive`, `server_cold` or `server_warm`.
    pub scenario: String,
    /// Requests served.
    pub requests: u64,
    /// Total shots executed across all requests.
    pub total_shots: u64,
    /// Wall time for the whole stream, milliseconds.
    pub wall_ms: f64,
    /// Requests per second.
    pub jobs_per_sec: f64,
    /// Median request latency (arrival → completion), microseconds.
    pub p50_latency_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_latency_us: u64,
    /// Compile-cache hits in this scenario (0 for naive).
    pub cache_hits: u64,
    /// Compile-cache misses in this scenario (= requests for naive).
    pub cache_misses: u64,
    /// Compile-cache evictions in this scenario.
    pub cache_evictions: u64,
    /// Compilations actually performed.
    pub compiles: u64,
}

fn scenario_row(
    scenario: &str,
    traffic: &[TrafficRequest],
    mut latencies_us: Vec<u64>,
    wall_ms: f64,
    cache: (u64, u64, u64, u64),
) -> ScenarioResult {
    latencies_us.sort_unstable();
    ScenarioResult {
        scenario: scenario.to_string(),
        requests: traffic.len() as u64,
        total_shots: traffic.iter().map(|r| r.shots).sum(),
        wall_ms,
        jobs_per_sec: traffic.len() as f64 / (wall_ms / 1000.0),
        p50_latency_us: percentile(&latencies_us, 50),
        p95_latency_us: percentile(&latencies_us, 95),
        cache_hits: cache.0,
        cache_misses: cache.1,
        cache_evictions: cache.2,
        compiles: cache.3,
    }
}

/// Per-request latencies (µs), per-request aggregates, and total wall
/// time (ms) of one scenario pass.
type PassMeasurement = (Vec<u64>, Vec<quape_core::BatchAggregate>, f64);

/// Cache-counter delta over one pass: (hits, misses, evictions,
/// compiles).
type CacheDelta = (u64, u64, u64, u64);

/// A server pass: latencies, aggregates, wall ms, cache delta.
type ServerPass = (Vec<u64>, Vec<quape_core::BatchAggregate>, f64, CacheDelta);

/// The naive client: per request, parse + compile + run, sequentially on
/// one thread. Returns (latencies µs, per-request aggregates).
fn run_naive(cfg: &QuapeConfig, traffic: &[TrafficRequest], base_seed: u64) -> PassMeasurement {
    let epoch = Instant::now();
    let mut latencies = Vec::with_capacity(traffic.len());
    let mut aggregates = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        let program = quape_isa::assemble(&r.source).expect("traffic source assembles");
        let job = CompiledJob::compile(cfg.clone(), program).expect("traffic job compiles");
        let report = ShotEngine::new(job, factory(cfg))
            .base_seed(base_seed + i as u64)
            .threads(1)
            .run(r.shots);
        latencies.push(epoch.elapsed().as_micros() as u64);
        aggregates.push(report.aggregate);
    }
    let wall_ms = epoch.elapsed().as_secs_f64() * 1000.0;
    (latencies, aggregates, wall_ms)
}

/// One server pass over the traffic. Returns (latencies µs, aggregates,
/// wall ms, cache-stat delta).
///
/// # Panics
///
/// Panics when the drained server's counters violate a conservation law
/// (see [`ShardSnapshot::check`]).
fn run_server_pass(
    server: &JobServer,
    cfg: &QuapeConfig,
    traffic: &[TrafficRequest],
    base_seed: u64,
) -> ServerPass {
    let before = server.cache_stats();
    let epoch = Instant::now();
    // Per-request offset of its submission from the common arrival
    // epoch: added to the server-measured submit→completion latency so
    // all scenarios report arrival-epoch latencies (a request queued
    // behind earlier submissions' compiles pays that wait too, exactly
    // as the naive client's sequential queue does).
    let mut submit_offsets = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        submit_offsets.push(epoch.elapsed());
        let req = JobRequest::new(
            r.name.clone(),
            JobSource::Text(r.source.clone()),
            cfg.clone(),
            factory(cfg),
            r.shots,
        )
        .base_seed(base_seed + i as u64)
        .priority(priority_of(r.priority_class))
        .tenant(r.tenant.clone());
        let _ = server.submit(req).expect("traffic request submits");
    }
    let results = server.run();
    let wall_ms = epoch.elapsed().as_secs_f64() * 1000.0;
    assert_balanced(
        "server pass",
        ShardSnapshot::of(0, ShardStatus::Up, server).check(),
    );
    let after = server.cache_stats();
    assert_eq!(results.len(), traffic.len());
    let latencies = results
        .iter()
        .zip(&submit_offsets)
        .map(|(r, off)| (*off + r.latency).as_micros() as u64)
        .collect();
    let aggregates = results.into_iter().map(|r| r.aggregate).collect();
    let delta = (
        after.hits - before.hits,
        after.misses - before.misses,
        after.evictions - before.evictions,
        after.compiles - before.compiles,
    );
    (latencies, aggregates, wall_ms, delta)
}

/// Runs the three scenarios on one deterministic traffic stream and
/// asserts every request's aggregate is bit-identical across them.
/// Returns the scenario rows plus the kept server's per-tenant cache
/// accounting.
///
/// `threads = 0` means `available_parallelism` for the server pool (the
/// naive client is always sequential — it models a tenant with no
/// service layer in front of the stack). Each scenario executes
/// `repeats` passes and reports its fastest pass: the simulated work is
/// deterministic, so repeat variance is pure host noise (scheduler,
/// frequency scaling) and the minimum is the honest estimate for every
/// scenario alike.
pub fn run_mixed_traffic(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
) -> (Vec<ScenarioResult>, Vec<(String, CacheStats)>) {
    run_mixed_traffic_on(None, seed, requests, threads, repeats)
}

/// [`run_mixed_traffic`] on a declarative machine description instead of
/// the baseline: every scenario (naive, cache-cold, cache-warm) runs the
/// stream on `machine`'s lowered config. `None` is the paper's
/// uniprocessor baseline.
///
/// # Panics
///
/// Panics if `machine` does not lower to a valid config — resolve and
/// validate it first (e.g. with [`crate::sweep::resolve_machine`]).
pub fn run_mixed_traffic_on(
    machine: Option<&quape_core::MachineDescription>,
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
) -> (Vec<ScenarioResult>, Vec<(String, CacheStats)>) {
    run_mixed_traffic_observed(machine, seed, requests, threads, repeats, &Recorder::off())
}

/// [`run_mixed_traffic_on`] with lifecycle tracing: every server pass
/// records into `recorder`. Each server instance gets its own trace
/// scope (`server-0`, `server-1`, …) because server job ids restart per
/// instance and the lifecycle audit keys on (scope, job); the last
/// scope also carries the warm passes, which re-drive the kept server.
/// Telemetry observes the schedule without steering it, so the
/// naive/cold/warm bit-identity asserts run unchanged with tracing on.
pub fn run_mixed_traffic_observed(
    machine: Option<&quape_core::MachineDescription>,
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
    recorder: &Recorder,
) -> (Vec<ScenarioResult>, Vec<(String, CacheStats)>) {
    let repeats = repeats.max(1);
    let traffic = mixed_traffic(seed, requests);
    let cfg = machine
        .map(|m| m.to_config().expect("machine description validates"))
        .unwrap_or_else(QuapeConfig::uniprocessor)
        .with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);

    /// Runs `repeats` passes and keeps the one with the smallest wall
    /// time (as projected by `wall_of`) — one selection rule for all
    /// three scenarios.
    fn best_of<T>(repeats: usize, wall_of: impl Fn(&T) -> f64, mut run: impl FnMut() -> T) -> T {
        let mut best = run();
        for _ in 1..repeats {
            let pass = run();
            if wall_of(&pass) < wall_of(&best) {
                best = pass;
            }
        }
        best
    }

    let (naive_lat, naive_aggs, naive_wall) = best_of(
        repeats,
        |p: &PassMeasurement| p.2,
        || run_naive(&cfg, &traffic, base_seed),
    );

    // Cold passes each use a fresh server (an empty cache is the
    // scenario); the last server is kept and re-driven for the warm
    // passes, which all hit its populated cache.
    let mut instance = 0u32;
    let mut new_server = || {
        let scope = recorder.labeled_scope(instance, &format!("server-{instance}"));
        instance += 1;
        JobServer::new(ServerConfig {
            threads,
            shot_quantum: 8,
            cache_capacity: 16,
            machine: machine.cloned(),
            packer: None,
            obs: scope,
        })
    };
    let mut server = None;
    let (cold_lat, cold_aggs, cold_wall, cold_cache) = best_of(
        repeats,
        |p: &ServerPass| p.2,
        || {
            let s = server.insert(new_server());
            run_server_pass(s, &cfg, &traffic, base_seed)
        },
    );
    let server = server.expect("at least one cold pass ran");

    let (warm_lat, warm_aggs, warm_wall, warm_cache) = best_of(
        repeats,
        |p: &ServerPass| p.2,
        || run_server_pass(&server, &cfg, &traffic, base_seed),
    );
    assert_eq!(warm_cache.1, 0, "warm passes must not miss the cache");

    for (i, naive) in naive_aggs.iter().enumerate() {
        assert_eq!(
            naive, &cold_aggs[i],
            "request {i}: cold server diverged from the naive client"
        );
        assert_eq!(
            naive, &warm_aggs[i],
            "request {i}: warm server diverged from the naive client"
        );
    }

    let n = traffic.len() as u64;
    let rows = vec![
        scenario_row("naive", &traffic, naive_lat, naive_wall, (0, n, 0, n)),
        scenario_row("server_cold", &traffic, cold_lat, cold_wall, cold_cache),
        scenario_row("server_warm", &traffic, warm_lat, warm_wall, warm_cache),
    ];
    // Per-tenant attribution over the kept server's whole life (the
    // final cold pass plus every warm pass).
    (rows, server.tenant_stats())
}

/// The headline ratio: cache-warm server throughput over the naive
/// client's, on the matching rows of a [`run_mixed_traffic`] result.
pub fn warm_speedup(rows: &[ScenarioResult]) -> f64 {
    let rate = |name: &str| {
        rows.iter()
            .find(|r| r.scenario == name)
            .map(|r| r.jobs_per_sec)
            .unwrap_or(f64::NAN)
    };
    rate("server_warm") / rate("naive")
}

/// Outcome of the packed-vs-interleaved comparison
/// ([`run_packed_traffic`]).
#[derive(Debug, Clone)]
pub struct PackedOutcome {
    /// The `interleaved` and `packed` scenario rows.
    pub rows: Vec<ScenarioResult>,
    /// The packed server's packer counters over all measured passes.
    pub packer: PackerStats,
    /// Packed jobs/sec over interleaved jobs/sec (the CI gate ratio).
    pub pack_ratio: f64,
}

/// The §3.1.2 space-multiplexing comparison: one small-job-heavy stream
/// ([`small_job_traffic`] — uniform shots and priority, narrow
/// programs) served twice by the same `JobServer` machinery, once
/// interleaving jobs in time only and once with the multiprogramming
/// packer merging compatible jobs into combined shot streams.
///
/// Every request's aggregate is asserted **bit-identical** across the
/// two passes — the interleaved pass is the packed pass's oracle, so
/// the throughput ratio compares equal work. Each scenario keeps one
/// server across `repeats` measured passes (after one unmeasured
/// warm-up pass), so both run compile-cache-warm and the packed pass
/// re-uses its combined compilations; the measured passes alternate
/// between the two servers (adjacent pairs see the same host-speed
/// drift) and each side reports its fastest pass.
///
/// # Panics
///
/// Panics when any packed aggregate diverges from its interleaved
/// oracle, or when the packed passes never form a pack (the comparison
/// would be vacuous).
pub fn run_packed_traffic(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
) -> PackedOutcome {
    run_packed_traffic_observed(seed, requests, threads, repeats, &Recorder::off())
}

/// [`run_packed_traffic`] with lifecycle tracing: the interleaved
/// server records into scope 0 (`interleaved`) and the packed server
/// into scope 1 (`packed`), so an exported trace shows the same stream
/// served both ways side by side — packed quanta covering whole packs
/// ([`Packed`](quape_obs::TraceKind::Packed) events tie members to
/// their combined entry) against one-member-per-quantum interleaving.
pub fn run_packed_traffic_observed(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
    recorder: &Recorder,
) -> PackedOutcome {
    let repeats = repeats.max(1);
    let traffic = small_job_traffic(seed, requests);
    let cfg = QuapeConfig::uniprocessor().with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let server_cfg = |packer: Option<PackerConfig>, obs: ObsScope| ServerConfig {
        threads,
        // A fine preemption quantum — the latency-fairness setting a
        // multi-tenant server actually runs — is where packing pays:
        // every claimed quantum covers all co-resident members at once,
        // so the packed side takes one scheduler round-trip where the
        // interleaved side takes one *per member*.
        shot_quantum: 1,
        cache_capacity: 16,
        machine: None,
        packer,
        obs,
    };

    let warm = |packer: Option<PackerConfig>, obs: ObsScope| {
        let server = JobServer::new(server_cfg(packer, obs));
        // Warm-up pass: populate the compile cache (including the
        // packed pass's combined programs) so the measured passes
        // compare steady-state serving, not first-contact compiles.
        let _ = run_server_pass(&server, &cfg, &traffic, base_seed);
        server
    };
    let interleaved = warm(None, recorder.labeled_scope(0, "interleaved"));
    let packed = warm(
        Some(PackerConfig::default()),
        recorder.labeled_scope(1, "packed"),
    );

    // The measured passes alternate between the two servers. Host
    // throughput drifts on timescales comparable to a scenario's whole
    // repeat loop, so running one scenario's repeats back-to-back and
    // then the other's hands whichever ran during a slow window a
    // phantom loss; adjacent pairs expose both sides to the same drift
    // and best-of-K then compares like against like.
    let mut best_i: Option<ServerPass> = None;
    let mut best_p: Option<ServerPass> = None;
    let mut pair_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let pass_i = run_server_pass(&interleaved, &cfg, &traffic, base_seed);
        let pass_p = run_server_pass(&packed, &cfg, &traffic, base_seed);
        // Jobs/sec ratio of this adjacent pair (equal job counts, so
        // the wall ratio is the throughput ratio).
        pair_ratios.push(pass_i.2 / pass_p.2);
        if best_i.as_ref().is_none_or(|b| pass_i.2 < b.2) {
            best_i = Some(pass_i);
        }
        if best_p.as_ref().is_none_or(|b| pass_p.2 < b.2) {
            best_p = Some(pass_p);
        }
    }
    // The gate ratio is the *median pair ratio*, not the ratio of the
    // per-side minima: a noise spike lengthens whichever pass it lands
    // on, so per-pair ratios scatter symmetrically around the true
    // value and the median sheds both tails — while two independent
    // minima can sample different drift windows and compare a lucky
    // pass against an unlucky one.
    pair_ratios.sort_by(f64::total_cmp);
    let pack_ratio = pair_ratios[pair_ratios.len() / 2];
    let packer = packed.packer_stats();
    let (lat, oracle, wall, cache) = best_i.expect("at least one pass");
    let interleaved_row = scenario_row("interleaved", &traffic, lat, wall, cache);
    let (lat, packed_aggs, wall, cache) = best_p.expect("at least one pass");
    let packed_row = scenario_row("packed", &traffic, lat, wall, cache);

    for (i, oracle_agg) in oracle.iter().enumerate() {
        assert_eq!(
            oracle_agg, &packed_aggs[i],
            "request {i}: packed run diverged from its interleaved oracle"
        );
    }
    assert!(
        packer.packs_formed > 0,
        "the packed passes never formed a pack — the comparison is vacuous"
    );

    PackedOutcome {
        rows: vec![interleaved_row, packed_row],
        packer,
        pack_ratio,
    }
}

/// Outcome of the obs-overhead comparison ([`run_obs_overhead`]).
#[derive(Debug)]
pub struct ObsOverheadOutcome {
    /// The `obs_off` and `obs_on` scenario rows.
    pub rows: Vec<ScenarioResult>,
    /// Obs-on jobs/sec over obs-off jobs/sec (the CI gate ratio; 1.0
    /// means tracing is free, the gate requires ≥ the configured floor).
    pub obs_ratio: f64,
    /// Trace events the observed side recorded across all its passes.
    pub trace_events: usize,
    /// The observed side's recorder, for trace/metrics export.
    pub recorder: Recorder,
}

/// The zero-cost-when-on check: the same mixed stream served by two
/// cache-warm servers, one with telemetry off (the compile-time-inert
/// no-op recorder) and one recording full metrics + lifecycle traces.
/// Every request's aggregate is asserted **bit-identical** between the
/// two sides on every pass — telemetry observes, it never steers — and
/// the throughput ratio is the CI gate for its runtime cost.
///
/// Measured passes alternate between the two servers and the gate ratio
/// is the median per-pair ratio, the same noise discipline as
/// [`run_packed_traffic`]'s pack gate: adjacent pairs see the same
/// host-speed drift and the median sheds both noise tails.
///
/// # Panics
///
/// Panics when an observed aggregate diverges from its unobserved
/// oracle, or when the observed side recorded no events (the comparison
/// would be vacuous).
pub fn run_obs_overhead(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
) -> ObsOverheadOutcome {
    let repeats = repeats.max(1);
    let traffic = mixed_traffic(seed, requests);
    let cfg = QuapeConfig::uniprocessor().with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let recorder = Recorder::new();
    let warm = |obs: ObsScope| {
        let server = JobServer::new(ServerConfig {
            threads,
            shot_quantum: 8,
            cache_capacity: 16,
            machine: None,
            packer: None,
            obs,
        });
        // Warm-up pass: both sides measure steady-state cache-warm
        // serving, where per-quantum recording is the largest fraction
        // of the work — the most obs-hostile regime.
        let _ = run_server_pass(&server, &cfg, &traffic, base_seed);
        server
    };
    let off = warm(ObsScope::off());
    let on = warm(recorder.labeled_scope(0, "observed"));

    let mut best_off: Option<ServerPass> = None;
    let mut best_on: Option<ServerPass> = None;
    let mut pair_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let pass_off = run_server_pass(&off, &cfg, &traffic, base_seed);
        let pass_on = run_server_pass(&on, &cfg, &traffic, base_seed);
        for (i, agg) in pass_off.1.iter().enumerate() {
            assert_eq!(
                agg, &pass_on.1[i],
                "request {i}: tracing steered the schedule — aggregates diverged"
            );
        }
        pair_ratios.push(pass_off.2 / pass_on.2);
        if best_off.as_ref().is_none_or(|b| pass_off.2 < b.2) {
            best_off = Some(pass_off);
        }
        if best_on.as_ref().is_none_or(|b| pass_on.2 < b.2) {
            best_on = Some(pass_on);
        }
    }
    pair_ratios.sort_by(f64::total_cmp);
    let obs_ratio = pair_ratios[pair_ratios.len() / 2];
    let trace_events = recorder.events().len() + recorder.dropped_events() as usize;
    assert!(
        trace_events > 0,
        "the observed side recorded nothing — the comparison is vacuous"
    );
    let (lat, _, wall, cache) = best_off.expect("at least one pass");
    let off_row = scenario_row("obs_off", &traffic, lat, wall, cache);
    let (lat, _, wall, cache) = best_on.expect("at least one pass");
    let on_row = scenario_row("obs_on", &traffic, lat, wall, cache);
    ObsOverheadOutcome {
        rows: vec![off_row, on_row],
        obs_ratio,
        trace_events,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_agree_and_cache_behaves() {
        // Small stream: the differential asserts inside run_mixed_traffic
        // are the test; here we also pin the cache-behavior shape.
        let (rows, tenants) = run_mixed_traffic(1, 8, 1, 1);
        assert_eq!(rows.len(), 3);
        // Every request named one of the four stream tenants, and the
        // per-tenant rows account for every lookup of both server passes.
        assert!(!tenants.is_empty());
        let attributed: u64 = tenants.iter().map(|(_, s)| s.hits + s.misses).sum();
        assert_eq!(attributed, 16);
        let by = |name: &str| rows.iter().find(|r| r.scenario == name).unwrap();
        let cold = by("server_cold");
        let warm = by("server_warm");
        assert_eq!(cold.cache_hits + cold.cache_misses, 8);
        let pool_len = quape_workloads::traffic::program_pool().len() as u64;
        assert!(
            cold.compiles <= pool_len,
            "at most one compile per distinct program"
        );
        assert_eq!(warm.cache_misses, 0, "second pass is fully cache-warm");
        assert_eq!(warm.compiles, 0);
        assert_eq!(warm.cache_hits, 8);
    }

    #[test]
    fn packed_scenario_packs_and_matches_its_oracle() {
        // The bit-identity asserts inside run_packed_traffic are the
        // differential test; here we pin the comparison's shape.
        let outcome = run_packed_traffic(3, 12, 1, 1);
        assert_eq!(outcome.rows.len(), 2);
        assert_eq!(outcome.rows[0].scenario, "interleaved");
        assert_eq!(outcome.rows[1].scenario, "packed");
        assert!(outcome.packer.packs_formed > 0);
        assert!(outcome.packer.jobs_packed >= 2);
        assert!(outcome.pack_ratio.is_finite() && outcome.pack_ratio > 0.0);
        // Same stream, equal work on both sides.
        assert_eq!(outcome.rows[0].total_shots, outcome.rows[1].total_shots);
    }

    #[test]
    fn packed_trace_covers_every_lifecycle() {
        let recorder = Recorder::new();
        let outcome = run_packed_traffic_observed(3, 12, 1, 1, &recorder);
        assert!(outcome.packer.packs_formed > 0);
        // Both servers ran a warm-up plus one measured pass: 12 jobs
        // each per pass, every one with a complete traced lifecycle.
        let audit = quape_obs::audit_complete(&recorder.events(), 48).unwrap_or_else(|e| {
            panic!(
                "packed trace failed its audit: {e}\n{}",
                quape_obs::flight_recorder(&recorder)
            )
        });
        assert!(audit.quanta > 0);
        // Scope 1 is the packed server; its trace must show packs.
        assert!(recorder
            .events()
            .iter()
            .any(|ev| ev.shard == 1 && ev.kind == quape_obs::TraceKind::Packed));
    }

    #[test]
    fn obs_overhead_is_bit_identical_and_measured() {
        // The off-vs-on bit-identity asserts run inside; pin the shape.
        let o = run_obs_overhead(5, 8, 1, 1);
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.rows[0].scenario, "obs_off");
        assert_eq!(o.rows[1].scenario, "obs_on");
        assert!(o.obs_ratio.is_finite() && o.obs_ratio > 0.0);
        assert!(o.trace_events > 0);
        // The observed server served 2 passes of 8 jobs, all complete.
        quape_obs::audit_complete(&o.recorder.events(), 16).unwrap();
    }
}
