//! The merged fleet snapshot: one serde-renderable value unifying every
//! shard's scheduler, compile-cache and packer counters with the
//! observability metric scopes and fleet-level recovery totals, plus the
//! conservation laws those counters must satisfy ([`FleetSnapshot::check`]).
//!
//! Field order is declaration order (the serde shim serializes structs
//! in declaration order) and every collection is sorted — shards by
//! index, tenants by id, instruments by name — so two snapshots of the
//! same state render byte-identically and the JSON schema fingerprint
//! is stable across runs.

use crate::fleet::ShardStatus;
use quape_obs::MetricsSnapshot;
use quape_server::{CacheStats, JobServer, PackerStats};

/// One shard's point-in-time state.
#[derive(Debug, Clone, serde::Serialize)]
pub struct ShardSnapshot {
    /// Shard index (stable for the router's lifetime).
    pub shard: usize,
    /// Availability: `up`, `retiring`, or `down`.
    pub status: String,
    /// Shots accepted but not yet executed.
    pub backlog_shots: u64,
    /// Jobs queued or running, not yet finished.
    pub pending_jobs: u64,
    /// Compile-cache hit/miss/eviction counters.
    pub cache: CacheStats,
    /// Multiprogramming packer counters.
    pub packer: PackerStats,
    /// The shard scope's metric instruments: counters and gauges always,
    /// histograms and engine instruments only when the scope traces.
    pub metrics: MetricsSnapshot,
}

/// One tenant's compile-cache counters, folded across every shard.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TenantStatsRow {
    /// Tenant id.
    pub tenant: String,
    /// Folded cache counters.
    pub cache: CacheStats,
}

/// A point-in-time snapshot of the whole fleet
/// ([`Router::fleet_snapshot`](crate::Router::fleet_snapshot)) — the
/// `--metrics-out` payload of `sharded_traffic`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FleetSnapshot {
    /// Per-shard state, by shard index.
    pub shards: Vec<ShardSnapshot>,
    /// Per-tenant cache counters, sorted by tenant id.
    pub tenants: Vec<TenantStatsRow>,
    /// Recoveries begun: displaced jobs the router set out to re-place
    /// (see [`Router::recovered_jobs`](crate::Router::recovered_jobs)).
    pub recovered_jobs: u64,
    /// Jobs moved by work stealing.
    pub stolen_jobs: u64,
    /// The fleet scope's metric instruments (placement, recovery and
    /// admission counters; histograms only when the scope traces).
    pub fleet_metrics: MetricsSnapshot,
    /// Trace-ring evictions across every scope (0 means the recorded
    /// trace is complete).
    pub trace_events_dropped: u64,
}

/// Where a conservation law is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    /// Once per shard, over that shard's metrics.
    Shard,
    /// Once per fleet: `server.*` names sum over every shard, the rest
    /// read the fleet scope.
    Fleet,
}

/// The conservation laws, each `lhs = Σ rhs` over registry counters and
/// gauges, read at quiescence (no job queued, compiling, forming a pack
/// or in recovery anywhere). `pending_jobs` names
/// [`ShardSnapshot::pending_jobs`]; an instrument never registered
/// reads 0. Every path that ends a job's stay somewhere bumps exactly
/// one right-hand term.
const LAWS: &[(At, &str, &[&str])] = &[
    // A shard's jobs leave by finalizing, cancelling (a kill's partials
    // included) or being revoked for a steal or retirement requeue.
    (
        At::Shard,
        "server.jobs_accepted",
        &[
            "server.jobs_finalized",
            "server.jobs_cancelled",
            "server.jobs_revoked",
            "pending_jobs",
        ],
    ),
    // Every cache miss compiles once (a failed or panicked compile too).
    (At::Shard, "server.compiles", &["server.cache_misses"]),
    // A recovery ends re-placed or lost.
    (
        At::Fleet,
        "router.recoveries_begun",
        &["router.jobs_rerouted", "router.recoveries_failed"],
    ),
    // An admitted job is dispatched, still queued, or refused by the
    // router at dispatch.
    (
        At::Fleet,
        "front.jobs_admitted",
        &[
            "front.jobs_dispatched",
            "front.queue_depth",
            "front.dispatch_failed",
        ],
    ),
    // Every job a shard accepted was put there by placement, a re-route
    // or a steal.
    (
        At::Fleet,
        "server.jobs_accepted",
        &[
            "router.jobs_placed",
            "router.jobs_rerouted",
            "router.jobs_stolen",
        ],
    ),
];

/// A conservation law that did not balance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawViolation {
    /// Where it was evaluated: `shard N` or `fleet`.
    pub scope: String,
    /// The law, written `lhs = a + b + …`.
    pub law: String,
    /// The left-hand side's value.
    pub lhs: i128,
    /// The right-hand side's value.
    pub rhs: i128,
}

impl std::fmt::Display for LawViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} ({} != {})",
            self.scope, self.law, self.lhs, self.rhs
        )
    }
}

/// A counter's or gauge's value in `m` (0 when never registered).
fn instrument(m: &MetricsSnapshot, name: &str) -> i128 {
    m.counters
        .iter()
        .find(|c| c.name == name)
        .map(|c| i128::from(c.value))
        .or_else(|| {
            let gauge = m.gauges.iter().find(|g| g.name == name);
            gauge.map(|g| i128::from(g.value))
        })
        .unwrap_or(0)
}

/// Evaluates every law of kind `at` with `value`, appending violations.
fn check_laws(
    at: At,
    scope: &str,
    value: impl Fn(&str) -> i128,
    violations: &mut Vec<LawViolation>,
) {
    for &(_, lhs, rhs) in LAWS.iter().filter(|(a, ..)| *a == at) {
        let (l, r) = (value(lhs), rhs.iter().map(|n| value(n)).sum::<i128>());
        if l != r {
            violations.push(LawViolation {
                scope: scope.to_string(),
                law: format!("{lhs} = {}", rhs.join(" + ")),
                lhs: l,
                rhs: r,
            });
        }
    }
}

impl ShardSnapshot {
    /// Reads `server`'s state as shard `shard` with availability `status`.
    pub fn of(shard: usize, status: ShardStatus, server: &JobServer) -> Self {
        ShardSnapshot {
            shard,
            status: status.name().to_string(),
            backlog_shots: server.backlog_shots(),
            pending_jobs: server.pending_jobs() as u64,
            cache: server.cache_stats(),
            packer: server.packer_stats(),
            metrics: server.config().obs.metrics(),
        }
    }

    /// A counter, gauge or `pending_jobs` of this shard.
    fn value(&self, name: &str) -> i128 {
        match name {
            "pending_jobs" => i128::from(self.pending_jobs),
            _ => instrument(&self.metrics, name),
        }
    }

    /// Checks this shard's conservation laws. Meaningful at quiescence
    /// only: a job mid-submit, mid-pack or mid-finalize is momentarily
    /// on neither side.
    ///
    /// # Errors
    ///
    /// Every law that does not balance.
    pub fn check(&self) -> Result<(), Vec<LawViolation>> {
        let mut violations = Vec::new();
        let scope = format!("shard {}", self.shard);
        check_laws(At::Shard, &scope, |n| self.value(n), &mut violations);
        violations.is_empty().then_some(()).ok_or(violations)
    }
}

impl FleetSnapshot {
    /// Checks every conservation law — each shard's and the fleet's —
    /// over this snapshot's registry counters. Take the snapshot at
    /// quiescence (every submitted job settled, nothing in recovery);
    /// mid-flight, a job can sit between two counters.
    ///
    /// # Errors
    ///
    /// Every law that does not balance, shard laws first.
    pub fn check(&self) -> Result<(), Vec<LawViolation>> {
        let mut violations: Vec<LawViolation> = self
            .shards
            .iter()
            .filter_map(|s| s.check().err())
            .flatten()
            .collect();
        let value = |name: &str| {
            if name.starts_with("server.") {
                self.shards.iter().map(|s| s.value(name)).sum()
            } else {
                instrument(&self.fleet_metrics, name)
            }
        };
        check_laws(At::Fleet, "fleet", value, &mut violations);
        violations.is_empty().then_some(()).ok_or(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_obs::{CounterSample, GaugeSample};

    fn metrics(counters: &[(&str, u64)], gauges: &[(&str, i64)]) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: counters
                .iter()
                .map(|&(name, value)| CounterSample {
                    name: name.into(),
                    value,
                })
                .collect(),
            gauges: gauges
                .iter()
                .map(|&(name, value)| GaugeSample {
                    name: name.into(),
                    value,
                })
                .collect(),
            histograms: Vec::new(),
        }
    }

    fn shard(counters: &[(&str, u64)], pending_jobs: u64) -> ShardSnapshot {
        ShardSnapshot {
            shard: 0,
            status: "up".into(),
            backlog_shots: 0,
            pending_jobs,
            cache: CacheStats::default(),
            packer: PackerStats::default(),
            metrics: metrics(counters, &[]),
        }
    }

    fn fleet(shards: Vec<ShardSnapshot>, fleet_metrics: MetricsSnapshot) -> FleetSnapshot {
        FleetSnapshot {
            shards,
            tenants: Vec::new(),
            recovered_jobs: 0,
            stolen_jobs: 0,
            fleet_metrics,
            trace_events_dropped: 0,
        }
    }

    #[test]
    fn balanced_counters_pass() {
        let s = shard(
            &[
                ("server.jobs_accepted", 5),
                ("server.jobs_finalized", 3),
                ("server.jobs_cancelled", 1),
                ("server.compiles", 2),
                ("server.cache_misses", 2),
            ],
            1,
        );
        let f = metrics(
            &[
                ("router.jobs_placed", 4),
                ("router.jobs_rerouted", 1),
                ("router.recoveries_begun", 2),
                ("router.recoveries_failed", 1),
                ("front.jobs_admitted", 3),
                ("front.jobs_dispatched", 2),
            ],
            &[("front.queue_depth", 1)],
        );
        assert_eq!(fleet(vec![s], f).check(), Ok(()));
    }

    #[test]
    fn every_unbalanced_law_is_reported() {
        // A revoked job nobody counted, and a re-route with no recovery.
        let s = shard(
            &[("server.jobs_accepted", 2), ("server.jobs_finalized", 1)],
            0,
        );
        let f = metrics(
            &[("router.jobs_placed", 1), ("router.jobs_rerouted", 1)],
            &[],
        );
        let violations = fleet(vec![s], f).check().unwrap_err();
        let laws: Vec<(&str, &str)> = violations
            .iter()
            .map(|v| (v.scope.as_str(), v.law.split(' ').next().unwrap()))
            .collect();
        assert_eq!(
            laws,
            [
                ("shard 0", "server.jobs_accepted"),
                ("fleet", "router.recoveries_begun")
            ]
        );
        assert_eq!((violations[0].lhs, violations[0].rhs), (2, 1));
        assert!(violations[1].to_string().contains("0 != 1"));
    }
}
