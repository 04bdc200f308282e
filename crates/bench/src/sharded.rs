//! Sharded-router serving benchmark: shard-count scaling and placement
//! policy on one deterministic multi-program traffic stream.
//!
//! Every configuration (shard count × [`Placement`]) serves the *same*
//! stream ([`quape_workloads::traffic::sharded_traffic`]): a catalog of
//! more distinct programs than any one shard's compile cache holds, at
//! probe-sized shot counts — the calibration-dominated regime where
//! per-request compilation is the cost that placement policy decides:
//!
//! * **round-robin** spreads each program over every shard, so every
//!   shard's small LRU cache churns through the whole catalog;
//! * **sticky-by-digest** partitions the catalog — each program always
//!   lands on the shard that already holds it, so a *warm* fleet serves
//!   the stream without compiling at all.
//!
//! The whole grid is timed by [`crate::measure::measure`]: one priming
//! round pays each configuration's cold compiles, then `repeats`
//! alternating measured rounds run every configuration once each on its
//! now cache-steady fleet; rows report the median wall time with its
//! spread. Every pass's per-request aggregates are asserted
//! bit-identical to the 1-shard oracle's first pass — the benchmark
//! doubles as the router's cross-shard differential test.
//!
//! Two fault/fairness scenarios ride along (CI runs both):
//! [`run_kill_shard`] re-serves the stream while a [`FaultPlan`] kills
//! a shard mid-submission (every job must complete bit-identically on a
//! survivor), and [`run_hot_tenant`] floods a [`FrontDoor`] from one
//! hog tenant and proves the mouse tenants' starvation bound in
//! dispatched shots.

use crate::measure::{measure, Pass};
use crate::support::{
    assert_balanced, cache_delta, job_request, server_config, Served, ServingPass, ServingRow,
};
use quape_core::QuapeConfig;
use quape_obs::{audit_complete, flight_recorder, Recorder};
use quape_router::{
    AdmissionConfig, FaultPlan, FleetSnapshot, FrontDoor, Placement, RoutedJob, Router,
    RouterConfig,
};
use quape_server::CacheStats;
use quape_workloads::traffic::{hot_tenant_traffic, sharded_traffic, TrafficRequest};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The benchmark's knobs.
#[derive(Debug, Clone)]
pub struct ShardedTrafficConfig {
    /// Stream seed.
    pub seed: u64,
    /// Requests per pass.
    pub requests: usize,
    /// Distinct programs in the catalog.
    pub distinct_programs: usize,
    /// Worker threads per shard.
    pub threads_per_shard: usize,
    /// Per-shard compile-cache capacity — deliberately smaller than the
    /// catalog, so placement decides whether caches thrash.
    pub cache_capacity: usize,
    /// Measured rounds; each runs every grid configuration once.
    pub repeats: usize,
    /// Largest shard count (the scaling rows run 1, 2, .., this).
    pub max_shards: usize,
    /// Declarative machine description every shard serves (`None` = the
    /// paper's uniprocessor baseline). Must lower to a valid config —
    /// resolve and validate it first (e.g. with
    /// [`crate::sweep::resolve_machine`]).
    pub machine: Option<quape_core::MachineDescription>,
}

impl Default for ShardedTrafficConfig {
    fn default() -> Self {
        ShardedTrafficConfig {
            seed: 7,
            requests: 48,
            distinct_programs: 12,
            threads_per_shard: 1,
            cache_capacity: 4,
            repeats: 3,
            max_shards: 4,
            machine: None,
        }
    }
}

/// The benchmark's base config: the machine description's lowering when
/// one is set, the uniprocessor baseline otherwise.
fn base_config(bench: &ShardedTrafficConfig) -> QuapeConfig {
    bench
        .machine
        .as_ref()
        .map(|m| m.to_config().expect("machine description validates"))
        .unwrap_or_else(QuapeConfig::uniprocessor)
        .with_seed(bench.seed)
}

fn placement_name(p: Placement) -> &'static str {
    match p {
        Placement::RoundRobin => "round_robin",
        Placement::LeastLoadedShots => "least_loaded",
        Placement::StickyByDigest => "sticky",
    }
}

/// A fleet of `shards` identical benchmark shards placed by `placement`.
fn fleet_config(bench: &ShardedTrafficConfig, shards: usize, placement: Placement) -> RouterConfig {
    RouterConfig {
        shards,
        placement,
        shard: server_config(
            bench.threads_per_shard,
            bench.cache_capacity,
            bench.machine.clone(),
        ),
        ..RouterConfig::default()
    }
}

/// Fleet-wide compile-cache counters.
fn fleet_cache(router: &Router) -> CacheStats {
    let mut total = CacheStats::default();
    for s in router.cache_stats() {
        total.merge(&s);
    }
    total
}

/// One pass: submit the whole stream, wait every handle. Panics when
/// the settled fleet's counters do not balance.
fn run_pass(
    router: &Router,
    cfg: &QuapeConfig,
    traffic: &[TrafficRequest],
    base_seed: u64,
) -> ServingPass {
    let before = fleet_cache(router);
    let epoch = Instant::now();
    let mut jobs: Vec<(std::time::Duration, RoutedJob)> = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        let offset = epoch.elapsed();
        let job = router
            .submit(job_request(r, i, cfg, base_seed))
            .expect("traffic request submits");
        jobs.push((offset, job));
    }
    let mut latencies_us = Vec::with_capacity(jobs.len());
    let mut aggregates = Vec::with_capacity(jobs.len());
    for (offset, job) in jobs {
        let result = job
            .handle
            .wait()
            .expect("no shard fails in a measured pass");
        latencies_us.push((offset + result.latency).as_micros() as u64);
        aggregates.push(result.aggregate);
    }
    let wall = epoch.elapsed();
    assert_balanced("router pass", router.fleet_snapshot().check());
    Pass {
        wall,
        aggregate: aggregates,
        output: Served {
            latencies_us,
            cache: cache_delta(before, fleet_cache(router)),
        },
    }
}

/// Outcome of the placement/scaling grid ([`run_sharded_traffic`]).
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// One row per grid configuration, named `<placement>_<n>shard`;
    /// cache counters cover the measured (cache-steady) passes.
    pub rows: Vec<ServingRow>,
    /// Warm sticky-placement throughput over warm round-robin at the
    /// maximum shard count, as a
    /// [`crate::measure::Measurement::ratio`] (the CI gate statistic).
    pub sticky_ratio: f64,
}

/// Runs the full grid: round-robin at doubling shard counts 1, 2, …
/// up to and always including `max_shards` (the scaling rows) plus
/// sticky and least-loaded at `max_shards`, all over one deterministic
/// stream, asserting every request's aggregate is bit-identical across
/// configurations and passes.
pub fn run_sharded_traffic(bench: &ShardedTrafficConfig) -> ShardedOutcome {
    let traffic = sharded_traffic(bench.seed, bench.requests, bench.distinct_programs);
    let cfg = base_config(bench);
    let base_seed = bench.seed.wrapping_mul(1000);
    let mut grid: Vec<(usize, Placement)> = Vec::new();
    let mut shards = 1;
    while shards < bench.max_shards {
        grid.push((shards, Placement::RoundRobin));
        shards *= 2;
    }
    // Round-robin at max_shards always runs — it is the denominator of
    // the sticky ratio — even when max_shards is not a power of two.
    let round_robin = grid.len();
    grid.push((bench.max_shards, Placement::RoundRobin));
    grid.push((bench.max_shards, Placement::StickyByDigest));
    grid.push((bench.max_shards, Placement::LeastLoadedShots));

    let names: Vec<String> = grid
        .iter()
        .map(|&(shards, p)| format!("{}_{shards}shard", placement_name(p)))
        .collect();
    let routers: Vec<Router> = grid
        .iter()
        .map(|&(shards, p)| Router::new(fleet_config(bench, shards, p)))
        .collect();
    let m = measure(&names, 1, bench.repeats, |v| {
        run_pass(&routers[v], &cfg, &traffic, base_seed)
    });
    for router in routers {
        router.drain().expect("fleet drains cleanly");
    }
    ShardedOutcome {
        rows: grid
            .iter()
            .enumerate()
            .map(|(v, &(shards, _))| ServingRow::of(&m, v, &names[v], shards as u64, &traffic))
            .collect(),
        sticky_ratio: m.ratio(round_robin, round_robin + 1),
    }
}

/// Outcome of the kill-a-shard failover scenario: the same stream as
/// the grid, but one shard is killed mid-submission and every stranded
/// job must complete on a survivor with aggregates bit-identical to the
/// zero-failure run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailoverScenarioResult {
    /// Scenario tag (`kill_shard`).
    pub scenario: String,
    /// Shards in the fleet before the kill.
    pub shards: u64,
    /// Index of the killed shard.
    pub victim: u64,
    /// Accepted submissions before the kill fired.
    pub kill_after_submits: u64,
    /// Jobs submitted over the whole stream.
    pub submitted: u64,
    /// Jobs that completed with an `Ok` result.
    pub completed: u64,
    /// Recoveries the router began for jobs displaced by the kill
    /// ([`Router::recovered_jobs`]).
    pub recovered_jobs: u64,
    /// Whether every aggregate matched the zero-failure oracle run.
    pub aggregates_match: bool,
    /// Wall time of the faulted pass, ms.
    pub wall_ms: f64,
}

/// Kill-a-shard failover scenario: runs the grid's stream once on a
/// healthy fleet (the oracle), then again with [`FaultPlan`] killing
/// shard 0 a third of the way through submission. Every job must still
/// complete — re-routed jobs recompile on a survivor and, because shot
/// streams restart from shot 0 under the same base seed, their
/// aggregates are bit-identical to the oracle's.
///
/// # Panics
///
/// Panics when a job is lost, an aggregate diverges, or the settled
/// fleet's counters do not balance — this scenario
/// *is* the failover differential test, run at bench scale.
pub fn run_kill_shard(bench: &ShardedTrafficConfig) -> FailoverScenarioResult {
    let mut traffic = sharded_traffic(bench.seed, bench.requests, bench.distinct_programs);
    // The grid's probe-sized requests finish faster than the submit
    // loop compiles, so a mid-stream kill would strand nothing; bulk
    // them up so the victim dies with a real backlog to re-route.
    for r in &mut traffic {
        r.shots = r.shots.max(32);
    }
    let cfg = base_config(bench);
    let base_seed = bench.seed.wrapping_mul(1000);
    let shards = bench.max_shards.max(2);
    // Oracle: the same stream on a healthy fleet.
    let healthy = Router::new(fleet_config(bench, shards, Placement::RoundRobin));
    let oracle = run_pass(&healthy, &cfg, &traffic, base_seed).aggregate;
    healthy.drain().expect("healthy fleet drains");

    // Faulted pass: kill shard 0 a third of the way through submission.
    let router = Router::new(fleet_config(bench, shards, Placement::RoundRobin));
    let plan = FaultPlan {
        victim: 0,
        after_submits: (traffic.len() / 3).max(1),
    };
    let epoch = Instant::now();
    let mut jobs = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        let req = job_request(r, i, &cfg, base_seed);
        jobs.push(router.submit(req).expect("a capable shard survives"));
        plan.fire_if_due(i + 1, &router);
    }
    let mut aggregates = Vec::with_capacity(jobs.len());
    for job in jobs {
        let result = job
            .handle
            .wait()
            .expect("every job survives a single shard loss");
        aggregates.push(result.aggregate);
    }
    let wall_ms = epoch.elapsed().as_secs_f64() * 1000.0;
    let completed = aggregates.len() as u64;
    let aggregates_match = oracle == aggregates;
    assert!(
        aggregates_match,
        "kill-a-shard aggregates diverged from the zero-failure oracle"
    );
    assert_balanced("kill-shard fleet", router.fleet_snapshot().check());
    let recovered_jobs = router.recovered_jobs();
    router.drain().expect("survivors drain cleanly");
    FailoverScenarioResult {
        scenario: "kill_shard".to_string(),
        shards: shards as u64,
        victim: plan.victim as u64,
        kill_after_submits: plan.after_submits as u64,
        submitted: traffic.len() as u64,
        completed,
        recovered_jobs,
        aggregates_match,
        wall_ms,
    }
}

/// Outcome of the hot-tenant admission scenario: a hog floods the
/// front door, interactive mice arrive behind the flood, and the DRR
/// front door must dispatch every mouse within the documented
/// starvation bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionScenarioResult {
    /// Scenario tag (`hot_tenant`).
    pub scenario: String,
    /// Hog jobs admitted.
    pub hog_jobs: u64,
    /// Mouse probes admitted.
    pub mouse_jobs: u64,
    /// Submissions shed with `OverBudget`.
    pub shed_jobs: u64,
    /// Worst shots dispatched between any mouse's admission and its
    /// dispatch.
    pub max_mouse_wait_shots: u64,
    /// The gate: the documented per-tenant bound summed over the
    /// mouse's competitors.
    pub starvation_bound_shots: u64,
    /// `max_mouse_wait_shots <= starvation_bound_shots`.
    pub within_bound: bool,
    /// Wall time of the whole scenario, ms.
    pub wall_ms: f64,
}

/// Hot-tenant admission scenario: a hog submits `requests` bulk jobs
/// through a [`FrontDoor`], then three mouse tenants submit single-shot
/// probes. The fairness claim — a mouse's queue wait is bounded by the
/// competitors' quanta, **not** the hog's backlog — is measured in
/// dispatched shots off the dispatch log, deterministically.
///
/// # Panics
///
/// Panics when a mouse waits past the documented starvation bound, or
/// when the settled fleet's counters do not balance.
pub fn run_hot_tenant(bench: &ShardedTrafficConfig) -> AdmissionScenarioResult {
    let hog_jobs = bench.requests.max(8);
    let mouse_jobs = 9;
    let traffic = hot_tenant_traffic(bench.seed, hog_jobs, mouse_jobs);
    let cfg = base_config(bench);
    let base_seed = bench.seed.wrapping_mul(2000);
    let admission = AdmissionConfig {
        tenant_budget_shots: 1 << 20,
        quantum_shots: 32,
        fleet_window_shots: 64,
        weights: Vec::new(),
    };
    let quantum = admission.quantum_shots;
    let door = FrontDoor::new(
        fleet_config(bench, bench.max_shards.max(2), Placement::RoundRobin),
        admission,
    );
    let epoch = Instant::now();
    let mut admitted = Vec::with_capacity(traffic.len());
    let max_hog_shots = traffic.iter().map(|r| r.shots).max().unwrap_or(0);
    for (i, r) in traffic.iter().enumerate() {
        let req = job_request(r, i, &cfg, base_seed);
        admitted.push((r.tenant.clone(), door.submit(req).expect("budget is ample")));
    }
    let mut max_mouse_wait_shots = 0u64;
    for (tenant, job) in &admitted {
        let _ = job.wait().expect("admitted jobs complete");
        if tenant.starts_with("mouse") {
            let waited = job.dispatch_seq().expect("dispatched") - job.arrival_seq();
            max_mouse_wait_shots = max_mouse_wait_shots.max(waited);
        }
    }
    let shed_jobs = door.shed_count();
    let wall_ms = epoch.elapsed().as_secs_f64() * 1000.0;
    assert_balanced("hot-tenant fleet", door.router().fleet_snapshot().check());
    door.drain().expect("front door drains cleanly");
    // Documented bound, summed over a mouse's competitors: the hog and
    // the two other mouse tenants each dispatch at most
    // 2 × (quantum + their largest job) shots while the mouse waits.
    let starvation_bound_shots = 2 * (quantum + max_hog_shots) + 2 * 2 * (quantum + 1);
    let within_bound = max_mouse_wait_shots <= starvation_bound_shots;
    assert!(
        within_bound,
        "a mouse waited {max_mouse_wait_shots} dispatched shots \
         (> starvation bound {starvation_bound_shots})"
    );
    AdmissionScenarioResult {
        scenario: "hot_tenant".to_string(),
        hog_jobs: hog_jobs as u64,
        mouse_jobs: mouse_jobs as u64,
        shed_jobs,
        max_mouse_wait_shots,
        starvation_bound_shots,
        within_bound,
        wall_ms,
    }
}

/// Outcome of one fully observed fleet pass ([`run_observed_fleet`]).
#[derive(Debug)]
pub struct ObservedFleetOutcome {
    /// Per-shard and fleet-level metrics merged after the pass.
    pub snapshot: FleetSnapshot,
    /// Job lifecycles the trace audit verified complete.
    pub audited_jobs: usize,
    /// The fleet's recorder, for trace/metrics export.
    pub recorder: Recorder,
}

/// Serves the grid's stream once with full telemetry on: every request
/// goes through a [`FrontDoor`] (admission + DRR dispatch events) into
/// a traced fleet, optionally losing a shard a third of the way through
/// submission (`kill`, the re-route path in the trace). After every job
/// completes, the trace is audited — accepted-before-quantum, exactly
/// one terminal, re-routed jobs placed on both their shards — and the
/// fleet's counters are merged into one [`FleetSnapshot`] whose
/// conservation laws must hold.
///
/// # Panics
///
/// Panics when a job is lost, the counters do not balance, or the trace
/// violates a lifecycle invariant — the audit failure message includes
/// the flight-recorder dump.
pub fn run_observed_fleet(bench: &ShardedTrafficConfig, kill: bool) -> ObservedFleetOutcome {
    let mut traffic = sharded_traffic(bench.seed, bench.requests, bench.distinct_programs);
    if kill {
        // Same bulking as run_kill_shard: the victim must die holding a
        // real backlog or the trace would show nothing re-routed.
        for r in &mut traffic {
            r.shots = r.shots.max(32);
        }
    }
    let cfg = base_config(bench);
    let base_seed = bench.seed.wrapping_mul(3000);
    let recorder = Recorder::new();
    let shards = bench.max_shards.max(2);
    let door = FrontDoor::new(
        RouterConfig {
            obs: recorder.clone(),
            ..fleet_config(bench, shards, Placement::RoundRobin)
        },
        AdmissionConfig {
            tenant_budget_shots: 1 << 30,
            quantum_shots: 32,
            fleet_window_shots: 64,
            weights: Vec::new(),
        },
    );
    let plan = FaultPlan {
        victim: 0,
        after_submits: (traffic.len() / 3).max(1),
    };
    let mut admitted = Vec::with_capacity(traffic.len());
    for (i, r) in traffic.iter().enumerate() {
        admitted.push(
            door.submit(job_request(r, i, &cfg, base_seed))
                .expect("budget is ample"),
        );
        if kill {
            plan.fire_if_due(i + 1, door.router());
        }
    }
    for job in &admitted {
        let _ = job.wait().expect("every observed job completes");
    }
    let snapshot = door.router().fleet_snapshot();
    assert_balanced("observed fleet", snapshot.check());
    let audit = audit_complete(&recorder.events(), traffic.len()).unwrap_or_else(|e| {
        panic!(
            "lifecycle audit failed: {e}\n{}",
            flight_recorder(&recorder)
        )
    });
    door.drain().expect("observed fleet drains cleanly");
    ObservedFleetOutcome {
        snapshot,
        audited_jobs: audit.jobs,
        recorder,
    }
}

/// Everything the `sharded_traffic` binary can measure in one committed
/// baseline: the placement/scaling grid plus (when requested) the
/// failover and admission scenarios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RouterBenchReport {
    /// Placement × shard-count grid rows.
    pub grid: Vec<ServingRow>,
    /// Kill-a-shard failover scenario (with `--kill-shard`).
    pub failover: Option<FailoverScenarioResult>,
    /// Hot-tenant admission scenario (with `--hot-tenant`).
    pub admission: Option<AdmissionScenarioResult>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_agrees_and_sticky_stays_cache_steady() {
        let bench = ShardedTrafficConfig {
            requests: 10,
            distinct_programs: 6,
            cache_capacity: 2,
            repeats: 1,
            max_shards: 2,
            ..ShardedTrafficConfig::default()
        };
        // The cross-configuration differential assert lives inside
        // run_sharded_traffic; this exercises it on a small grid.
        let o = run_sharded_traffic(&bench);
        let rows = &o.rows;
        assert_eq!(rows.len(), 4); // rr@1, rr@2, sticky@2, least_loaded@2
        let sticky = rows
            .iter()
            .find(|r| r.scenario == "sticky_2shard")
            .expect("sticky row");
        // Sticky partitions 6 programs over 2 shards of capacity 2 —
        // not necessarily thrash-free, but strictly warmer than
        // round-robin, which cycles all 6 through both shards.
        let rr = rows
            .iter()
            .find(|r| r.scenario == "round_robin_2shard")
            .expect("round-robin row");
        assert!(sticky.cache_misses <= rr.cache_misses);
        assert!(o.sticky_ratio.is_finite() && o.sticky_ratio > 0.0);
    }

    #[test]
    fn kill_shard_scenario_recovers_everything() {
        let bench = ShardedTrafficConfig {
            requests: 8,
            distinct_programs: 4,
            cache_capacity: 2,
            repeats: 1,
            max_shards: 2,
            ..ShardedTrafficConfig::default()
        };
        // The aggregate differential is asserted inside run_kill_shard.
        let r = run_kill_shard(&bench);
        assert_eq!(r.completed, r.submitted);
        assert!(r.aggregates_match);
        assert_eq!(r.shards, 2);
    }

    #[test]
    fn observed_fleet_audits_clean_under_a_kill() {
        let bench = ShardedTrafficConfig {
            requests: 8,
            distinct_programs: 4,
            cache_capacity: 2,
            repeats: 1,
            max_shards: 2,
            ..ShardedTrafficConfig::default()
        };
        // The lifecycle audit is asserted inside run_observed_fleet.
        let o = run_observed_fleet(&bench, true);
        assert!(o.audited_jobs >= 8);
        assert_eq!(o.snapshot.shards.len(), 2);
        assert!(o.snapshot.shards.iter().any(|s| s.status == "down"));
        assert!(!o.snapshot.tenants.is_empty());
        // The fleet scope registered its placement counters.
        assert!(o
            .snapshot
            .fleet_metrics
            .counters
            .iter()
            .any(|c| c.name == "router.jobs_placed" && c.value >= 8));
    }

    #[test]
    fn hot_tenant_scenario_meets_the_bound() {
        let bench = ShardedTrafficConfig {
            requests: 12,
            repeats: 1,
            max_shards: 2,
            ..ShardedTrafficConfig::default()
        };
        // The starvation bound is asserted inside run_hot_tenant.
        let r = run_hot_tenant(&bench);
        assert!(r.within_bound);
        assert_eq!(r.mouse_jobs, 9);
        assert_eq!(r.shed_jobs, 0);
    }
}
