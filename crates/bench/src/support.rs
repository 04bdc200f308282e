//! Helpers shared by the serving benchmarks ([`crate::mixed`],
//! [`crate::sharded`]).

use crate::measure::{percentile, Measurement, Pass, Spread};
use quape_core::{BatchAggregate, MachineDescription, QuapeConfig};
use quape_obs::ObsScope;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::LawViolation;
use quape_server::{CacheStats, JobRequest, JobSource, Priority, ServerConfig};
use quape_workloads::traffic::TrafficRequest;
use serde::{Deserialize, Serialize};

/// The serving benchmarks' common QPU backend: a fair coin per
/// measurement, timed by the configuration in force.
pub(crate) fn factory(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

/// The job request for the `index`-th entry of a traffic stream: its
/// source text on `cfg`, seeded `base_seed + index`, with the entry's
/// priority class and tenant.
pub(crate) fn job_request(
    r: &TrafficRequest,
    index: usize,
    cfg: &QuapeConfig,
    base_seed: u64,
) -> JobRequest {
    let priority = match r.priority_class {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    };
    JobRequest::new(
        r.name.clone(),
        JobSource::Text(r.source.clone()),
        cfg.clone(),
        factory(cfg),
        r.shots,
    )
    .base_seed(base_seed + index as u64)
    .priority(priority)
    .tenant(r.tenant.clone())
}

/// The serving benchmarks' server (or shard) configuration: an untraced,
/// unpacked server with an 8-shot quantum. Callers override the fields
/// their scenario varies with struct-update syntax.
pub(crate) fn server_config(
    threads: usize,
    cache_capacity: usize,
    machine: Option<MachineDescription>,
) -> ServerConfig {
    ServerConfig {
        threads,
        shot_quantum: 8,
        cache_capacity,
        machine,
        packer: None,
        obs: ObsScope::off(),
    }
}

/// What a serving pass keeps besides its wall time and per-request
/// aggregates.
#[derive(Debug)]
pub(crate) struct Served {
    /// Per-request latency from the pass's common arrival epoch, µs.
    pub latencies_us: Vec<u64>,
    /// Compile-cache counters accrued during the pass.
    pub cache: CacheStats,
}

/// One serving pass as [`crate::measure::measure`] sees it: the
/// per-request aggregates are the differential-checked result.
pub(crate) type ServingPass = Pass<Vec<BatchAggregate>, Served>;

/// Counter growth from `before` to `after`.
pub(crate) fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        compiles: after.compiles - before.compiles,
    }
}

/// Host-side measurements of one serving scenario over its measured
/// passes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServingRow {
    /// Scenario name (`naive`, `server_warm`, `sticky_4shard`, ...).
    pub scenario: String,
    /// Shards serving the stream (0 for the naive client, which has no
    /// server).
    pub shards: u64,
    /// Requests served per pass.
    pub requests: u64,
    /// Total shots executed per pass.
    pub total_shots: u64,
    /// Wall time of a whole pass: median, fastest, slowest, pass count.
    pub wall: Spread,
    /// Requests per second at the median wall time.
    pub jobs_per_sec: f64,
    /// Median request latency over every measured pass's requests,
    /// measured from each pass's common arrival epoch (submission starts
    /// at t=0; a request queued behind earlier submissions' compiles
    /// pays that wait too), microseconds.
    pub p50_latency_us: u64,
    /// 95th-percentile arrival-epoch latency, microseconds.
    pub p95_latency_us: u64,
    /// Compile-cache hits summed over the measured passes (0 for naive).
    pub cache_hits: u64,
    /// Compile-cache misses summed over the measured passes (one per
    /// request for naive; 0 when the scenario kept every cache warm).
    pub cache_misses: u64,
    /// Compile-cache evictions summed over the measured passes.
    pub cache_evictions: u64,
    /// Compilations performed during the measured passes.
    pub compiles: u64,
}

impl ServingRow {
    /// The row for `variant` of a serving measurement.
    pub(crate) fn of(
        m: &Measurement<Vec<BatchAggregate>, Served>,
        variant: usize,
        scenario: impl Into<String>,
        shards: u64,
        traffic: &[TrafficRequest],
    ) -> Self {
        let passes = &m.outputs[variant];
        let mut latencies: Vec<u64> = passes
            .iter()
            .flat_map(|p| p.latencies_us.iter().copied())
            .collect();
        latencies.sort_unstable();
        let mut cache = CacheStats::default();
        for p in passes {
            cache.merge(&p.cache);
        }
        let wall = m.spread(variant);
        ServingRow {
            scenario: scenario.into(),
            shards,
            requests: traffic.len() as u64,
            total_shots: traffic.iter().map(|r| r.shots).sum(),
            wall,
            jobs_per_sec: traffic.len() as f64 / (wall.median_ms / 1000.0),
            p50_latency_us: percentile(&latencies, 50),
            p95_latency_us: percentile(&latencies, 95),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            compiles: cache.compiles,
        }
    }
}

/// Panics, listing every violated law, unless `check` (a quiescent
/// snapshot's conservation-law check) passed. `what` names the fleet or
/// server in the message.
pub(crate) fn assert_balanced(what: &str, check: Result<(), Vec<LawViolation>>) {
    if let Err(violations) = check {
        let lines: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
        panic!("{what}: counters do not balance:\n{}", lines.join("\n"));
    }
}
