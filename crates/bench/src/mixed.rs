//! Mixed-traffic serving benchmark: the `JobServer` versus a naive
//! per-request client on one heterogeneous request stream.
//!
//! Three scenarios over the *same* deterministic traffic
//! ([`quape_workloads::traffic::mixed_traffic`]):
//!
//! * **naive** — no service layer: each request assembles its source
//!   text, compiles a fresh job, and runs its shots sequentially;
//! * **server_cold** — a fresh [`JobServer`] per pass: every distinct
//!   program compiles once (content-hash cache misses), repeats hit;
//! * **server_warm** — one server whose warm-up pass filled its
//!   compiled-job cache: the whole stream is served from the cache.
//!
//! Every comparison in this module (and the packing and obs-overhead
//! gates beside it) is timed by [`crate::measure::measure`]: a warm-up
//! round, then alternating measured rounds, each scenario's median wall
//! time with its spread, and every pass's per-request aggregates
//! asserted bit-identical to the first pass's — the benchmark doubles
//! as a differential test of the serving layer. Every request's latency
//! is measured from its pass's common arrival epoch (the queue is
//! handed over at t=0 in all scenarios), so p50/p95 compare the
//! *tenant experience*.

use crate::measure::{measure, Pass};
use crate::support::{
    assert_balanced, cache_delta, factory, job_request, server_config, Served, ServingPass,
    ServingRow,
};
use quape_core::{CompiledJob, MachineDescription, QuapeConfig, ShotEngine};
use quape_obs::{ObsScope, Recorder};
use quape_router::{ShardSnapshot, ShardStatus};
use quape_server::{CacheStats, JobServer, PackerConfig, PackerStats, ServerConfig};
use quape_workloads::traffic::{mixed_traffic, small_job_traffic, TrafficRequest};
use std::time::Instant;

/// The naive client: per request, parse + compile + run, sequentially on
/// one thread.
fn run_naive(cfg: &QuapeConfig, traffic: &[TrafficRequest], base_seed: u64) -> ServingPass {
    let epoch = Instant::now();
    let mut latencies_us = Vec::with_capacity(traffic.len());
    let mut aggregates = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        let program = quape_isa::assemble(&r.source).expect("traffic source assembles");
        let job = CompiledJob::compile(cfg.clone(), program).expect("traffic job compiles");
        let report = ShotEngine::new(job, factory(cfg))
            .base_seed(base_seed + i as u64)
            .threads(1)
            .run(r.shots);
        latencies_us.push(epoch.elapsed().as_micros() as u64);
        aggregates.push(report.aggregate);
    }
    let n = traffic.len() as u64;
    Pass {
        wall: epoch.elapsed(),
        aggregate: aggregates,
        output: Served {
            latencies_us,
            cache: CacheStats {
                misses: n,
                compiles: n,
                ..CacheStats::default()
            },
        },
    }
}

/// One server pass over the traffic.
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
) -> ServingPass {
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
        let _ = server
            .submit(job_request(r, i, cfg, base_seed))
            .expect("traffic request submits");
    }
    let results = server.run();
    let wall = epoch.elapsed();
    assert_balanced(
        "server pass",
        ShardSnapshot::of(0, ShardStatus::Up, server).check(),
    );
    assert_eq!(results.len(), traffic.len());
    let latencies_us = results
        .iter()
        .zip(&submit_offsets)
        .map(|(r, off)| (*off + r.latency).as_micros() as u64)
        .collect();
    Pass {
        wall,
        aggregate: results.into_iter().map(|r| r.aggregate).collect(),
        output: Served {
            latencies_us,
            cache: cache_delta(before, server.cache_stats()),
        },
    }
}

/// Outcome of the naive / cache-cold / cache-warm comparison
/// ([`run_mixed_traffic_observed`]).
#[derive(Debug)]
pub struct MixedOutcome {
    /// The `naive`, `server_cold` and `server_warm` rows.
    pub rows: Vec<ServingRow>,
    /// Per-tenant cache accounting over the warm server's whole life
    /// (its warm-up pass plus every measured pass).
    pub tenants: Vec<(String, CacheStats)>,
    /// Cache-warm server throughput over the naive client's, as a
    /// [`crate::measure::Measurement::ratio`] (the CI gate statistic).
    pub warm_speedup: f64,
}

/// Runs the three scenarios on one deterministic traffic stream through
/// [`measure`]: one warm-up round, then `repeats` alternating measured
/// rounds. Every pass's per-request aggregates are asserted
/// bit-identical to the naive client's first pass.
///
/// `machine` runs every scenario on a declarative machine description's
/// lowered config (`None` is the paper's uniprocessor baseline); it must
/// lower to a valid config — resolve and validate it first (e.g. with
/// [`crate::sweep::resolve_machine`]). `threads = 0` means
/// `available_parallelism` for the server pool (the naive client is
/// always sequential — it models a tenant with no service layer in front
/// of the stack). Cold passes each get a fresh server (an empty cache is
/// the scenario); warm passes re-drive one server that its warm-up pass
/// filled.
///
/// Every server records into `recorder` under its own trace scope
/// (`server-warm` = 0, `server-cold-<k>` = k), because server job ids
/// restart per instance and the lifecycle audit keys on (scope, job).
/// Telemetry observes the schedule without steering it, so the
/// bit-identity asserts run unchanged with tracing on.
pub fn run_mixed_traffic_observed(
    machine: Option<&MachineDescription>,
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
    recorder: &Recorder,
) -> MixedOutcome {
    let traffic = mixed_traffic(seed, requests);
    let cfg = machine
        .map(|m| m.to_config().expect("machine description validates"))
        .unwrap_or_else(QuapeConfig::uniprocessor)
        .with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let new_server = |instance: u32, label: &str| {
        JobServer::new(ServerConfig {
            obs: recorder.labeled_scope(instance, label),
            ..server_config(threads, 16, machine.cloned())
        })
    };
    let warm = new_server(0, "server-warm");
    let mut cold_instances = 0u32;
    let names = ["naive", "server_cold", "server_warm"];
    let m = measure(&names, 1, repeats, |variant| match variant {
        0 => run_naive(&cfg, &traffic, base_seed),
        1 => {
            cold_instances += 1;
            let cold = new_server(cold_instances, &format!("server-cold-{cold_instances}"));
            run_server_pass(&cold, &cfg, &traffic, base_seed)
        }
        _ => run_server_pass(&warm, &cfg, &traffic, base_seed),
    });
    let shards = [0, 1, 1];
    let rows: Vec<ServingRow> = (0..names.len())
        .map(|v| ServingRow::of(&m, v, names[v], shards[v], &traffic))
        .collect();
    assert_eq!(
        rows[2].cache_misses, 0,
        "warm passes must not miss the cache"
    );
    MixedOutcome {
        rows,
        tenants: warm.tenant_stats(),
        warm_speedup: m.ratio(0, 2),
    }
}

/// Outcome of the packed-vs-interleaved comparison
/// ([`run_packed_traffic_observed`]).
#[derive(Debug, Clone)]
pub struct PackedOutcome {
    /// The `interleaved` and `packed` scenario rows.
    pub rows: Vec<ServingRow>,
    /// The packed server's packer counters over all its passes.
    pub packer: PackerStats,
    /// Packed jobs/sec over interleaved jobs/sec, as a
    /// [`crate::measure::Measurement::ratio`] (the CI gate statistic).
    pub pack_ratio: f64,
}

/// The §3.1.2 space-multiplexing comparison: one small-job-heavy stream
/// ([`small_job_traffic`] — uniform shots and priority, narrow
/// programs) served by two `JobServer`s, one interleaving jobs in time
/// only and one with the multiprogramming packer merging compatible
/// jobs into combined shot streams.
///
/// Both servers are measured through [`measure`]: one warm-up round
/// fills each compile cache (including the packed side's combined
/// compilations), so the `repeats` alternating measured rounds compare
/// steady-state serving. Every packed pass's aggregates are asserted
/// **bit-identical** to the interleaved oracle, so the throughput ratio
/// compares equal work. The interleaved server records into trace scope
/// 0 (`interleaved`) and the packed server into scope 1 (`packed`), so
/// an exported trace shows the same stream served both ways side by
/// side — packed quanta covering whole packs
/// ([`Packed`](quape_obs::TraceKind::Packed) events tie members to their
/// combined entry) against one-member-per-quantum interleaving.
///
/// # Panics
///
/// Panics when any packed aggregate diverges from its interleaved
/// oracle, or when the packed passes never form a pack (the comparison
/// would be vacuous).
pub fn run_packed_traffic_observed(
    seed: u64,
    requests: usize,
    threads: usize,
    repeats: usize,
    recorder: &Recorder,
) -> PackedOutcome {
    let traffic = small_job_traffic(seed, requests);
    let cfg = QuapeConfig::uniprocessor().with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let server = |packer: Option<PackerConfig>, obs: ObsScope| {
        JobServer::new(ServerConfig {
            // A fine preemption quantum — the latency-fairness setting a
            // multi-tenant server actually runs — is where packing pays:
            // every claimed quantum covers all co-resident members at
            // once, so the packed side takes one scheduler round-trip
            // where the interleaved side takes one *per member*.
            shot_quantum: 1,
            packer,
            obs,
            ..server_config(threads, 16, None)
        })
    };
    let servers = [
        server(None, recorder.labeled_scope(0, "interleaved")),
        server(
            Some(PackerConfig::default()),
            recorder.labeled_scope(1, "packed"),
        ),
    ];
    let names = ["interleaved", "packed"];
    let m = measure(&names, 1, repeats, |v| {
        run_server_pass(&servers[v], &cfg, &traffic, base_seed)
    });
    let packer = servers[1].packer_stats();
    assert!(
        packer.packs_formed > 0,
        "the packed passes never formed a pack — the comparison is vacuous"
    );
    PackedOutcome {
        rows: (0..2)
            .map(|v| ServingRow::of(&m, v, names[v], 1, &traffic))
            .collect(),
        packer,
        pack_ratio: m.ratio(0, 1),
    }
}

/// Outcome of the obs-overhead comparison ([`run_obs_overhead`]).
#[derive(Debug)]
pub struct ObsOverheadOutcome {
    /// The `obs_off` and `obs_on` scenario rows.
    pub rows: Vec<ServingRow>,
    /// Obs-on jobs/sec over obs-off jobs/sec, as a
    /// [`crate::measure::Measurement::ratio`] (the CI gate statistic;
    /// 1.0 means tracing is free).
    pub obs_ratio: f64,
    /// Trace events the observed side recorded across all its passes.
    pub trace_events: usize,
    /// The observed side's recorder, for trace/metrics export.
    pub recorder: Recorder,
}

/// The zero-cost-when-on check: the same mixed stream served by two
/// servers, one untraced and one recording full lifecycle traces and
/// histograms, measured through [`measure`]. One warm-up round makes
/// both caches warm, so the `repeats` alternating measured rounds time
/// steady-state serving, where per-quantum recording is the largest
/// fraction of the work — the most obs-hostile regime. Every observed
/// pass's aggregates are asserted **bit-identical** to the unobserved
/// oracle — telemetry observes, it never steers.
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
    let traffic = mixed_traffic(seed, requests);
    let cfg = QuapeConfig::uniprocessor().with_seed(seed);
    let base_seed = seed.wrapping_mul(1000);
    let recorder = Recorder::new();
    let servers = [ObsScope::off(), recorder.labeled_scope(0, "observed")].map(|obs| {
        JobServer::new(ServerConfig {
            obs,
            ..server_config(threads, 16, None)
        })
    });
    let names = ["obs_off", "obs_on"];
    let m = measure(&names, 1, repeats, |v| {
        run_server_pass(&servers[v], &cfg, &traffic, base_seed)
    });
    let trace_events = recorder.events().len() + recorder.dropped_events() as usize;
    assert!(
        trace_events > 0,
        "the observed side recorded nothing — the comparison is vacuous"
    );
    ObsOverheadOutcome {
        rows: (0..2)
            .map(|v| ServingRow::of(&m, v, names[v], 1, &traffic))
            .collect(),
        obs_ratio: m.ratio(0, 1),
        trace_events,
        recorder,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_agree_and_cache_behaves() {
        // Small stream: the differential asserts inside
        // run_mixed_traffic_observed are the test; here we also pin the
        // cache-behavior shape.
        let o = run_mixed_traffic_observed(None, 1, 8, 1, 1, &Recorder::off());
        assert_eq!(o.rows.len(), 3);
        assert!(o.warm_speedup.is_finite() && o.warm_speedup > 0.0);
        // Every request named one of the four stream tenants, and the
        // per-tenant rows account for every lookup of the warm server's
        // warm-up and measured pass.
        assert!(!o.tenants.is_empty());
        let attributed: u64 = o.tenants.iter().map(|(_, s)| s.hits + s.misses).sum();
        assert_eq!(attributed, 16);
        let by = |name: &str| o.rows.iter().find(|r| r.scenario == name).unwrap();
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
        // The bit-identity asserts inside run_packed_traffic_observed are
        // the differential test; here we pin the comparison's shape.
        let outcome = run_packed_traffic_observed(3, 12, 1, 1, &Recorder::off());
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
