//! # quape-router — a fault-tolerant HiMA-style sharded front router
//!
//! The paper's §3.1.2 cloud story multiplexes many tenants onto **one**
//! controller; hierarchical architectures like HiMA (arXiv:2408.11311)
//! scale the same idea one level up — *quantum process-level
//! parallelism*: many controllers, each serving its own QPU, behind a
//! front-end that places incoming jobs. This crate is that front-end,
//! grown into a believable production fleet:
//!
//! * **Capability-aware placement** ([`ShardProfile`],
//!   [`JobRequirements`]): shards are heterogeneous (qubit capacity,
//!   readout multiplexing, demod slots, supported step modes); submit
//!   filters infeasible shards *before* the [`Placement`] policy
//!   (round-robin / least-loaded / sticky-by-digest) picks among the
//!   capable ones, and rejects with [`JobError::NoCapableShard`]
//!   (re-exported from `quape_server`) when none exists.
//! * **Failure injection + re-routing** ([`Router::kill_shard`],
//!   [`FaultPlan`], [`Router::retire_shard`]): a fleet-level job
//!   registry keeps a re-submittable snapshot of every accepted job;
//!   jobs stranded by a dead shard are re-submitted to a surviving
//!   capable shard within a fixed retry budget (4 attempts over the
//!   job's life, 1 ms backoff that doubles), turning terminal
//!   [`JobError::ShardLost`] when no capable shard remains or the
//!   budget runs out. First placement, re-routing and stealing all
//!   land a job through one path.
//!   Re-runs start from shot 0, so by the engine's determinism the
//!   re-routed job's aggregate is **bit-identical** to the zero-failure
//!   run (differential-tested, including under a proptest over random
//!   kill schedules).
//! * **Work stealing** ([`Router::steal_once`], [`StealConfig`]): idle
//!   shards steal whole queued jobs off the hottest backlog — never
//!   splitting a job, so prefix consistency and aggregates are
//!   untouched.
//! * **Admission control** ([`FrontDoor`]): per-tenant shot budgets
//!   ([`JobError::OverBudget`]) and deficit-round-robin weighted-fair
//!   queueing with a proven starvation bound.
//!
//! The lifecycle is streaming end to end: [`Router::submit`] returns a
//! [`RoutedJob`] whose [`FleetHandle`] stays valid across re-routing
//! (progress, partial aggregates, blocking/timeout waits, cooperative
//! cancellation), and the router ends with [`drain`](Router::drain)
//! (finish everything accepted) or [`shutdown`](Router::shutdown)
//! (stop claiming, finalize partials) — both reporting worker panics
//! as [`JobError::WorkerPanicked`] instead of panicking the caller.
//!
//! ## Determinism
//!
//! A job's aggregate depends only on `(program, config, factory,
//! base_seed, shots)` — never on which shard ran it, the placement
//! policy, the shard count, the worker interleaving, a mid-stream
//! shard death, a steal, or an admission reordering. The router's
//! differential suite asserts every routed job's
//! [`BatchAggregate`](quape_core::BatchAggregate) is bit-identical to
//! a solo [`ShotEngine`](quape_core::ShotEngine) run.
//!
//! ```
//! use quape_core::QuapeConfig;
//! use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
//! use quape_router::{Placement, Router, RouterConfig};
//! use quape_server::{JobRequest, JobSource, ServerConfig};
//!
//! let router = Router::new(RouterConfig {
//!     shards: 2,
//!     placement: Placement::StickyByDigest,
//!     shard: ServerConfig { threads: 1, ..ServerConfig::default() },
//!     ..RouterConfig::default()
//! });
//! let cfg = QuapeConfig::superscalar(4);
//! let factory = BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
//! let job = router.submit(
//!     JobRequest::new(
//!         "hello",
//!         JobSource::Text("0 H q0\n1 MEAS q0\nSTOP\n".into()),
//!         cfg.clone(),
//!         factory.clone(),
//!         32,
//!     )
//!     .tenant("alice"),
//! )?;
//! let result = job.handle.wait()?; // streaming: no drain needed
//! assert_eq!(result.shots, 32);
//! let results = router.drain()?;
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].shard, job.shard);
//! # Ok::<(), quape_server::JobError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod fleet;
mod profile;
mod snapshot;

pub use admission::{AdmissionConfig, AdmittedJob, DispatchRecord, FrontDoor};
pub use fleet::{
    FaultPlan, FleetHandle, Placement, RoutedJob, RoutedResult, Router, RouterConfig,
    RouterFinishHook, ShardStatus, StealConfig,
};
pub use profile::{JobRequirements, ShardProfile};
pub use snapshot::{FleetSnapshot, LawViolation, ShardSnapshot, TenantStatsRow};
// The error type jobs and admission surface; re-exported so router
// users match on one import.
pub use quape_server::JobError;

#[cfg(test)]
mod tests {
    use super::*;
    use quape_core::QuapeConfig;
    use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
    use quape_server::{JobRequest, JobSource, ServerConfig};

    fn request(name: &str, text: &str, shots: u64) -> JobRequest {
        let cfg = QuapeConfig::superscalar(4);
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        JobRequest::new(name, JobSource::Text(text.into()), cfg, factory, shots)
    }

    #[test]
    fn round_robin_cycles_over_shards() {
        let router = Router::new(RouterConfig {
            shards: 3,
            placement: Placement::RoundRobin,
            shard: ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        });
        let placed: Vec<usize> = (0..6)
            .map(|i| {
                router
                    .submit(request(&format!("j{i}"), "0 H q0\nSTOP\n", 1))
                    .unwrap()
                    .shard
            })
            .collect();
        assert_eq!(placed, vec![0, 1, 2, 0, 1, 2]);
        router.drain().unwrap();
    }

    #[test]
    fn sticky_pins_identical_programs_to_one_shard() {
        let router = Router::new(RouterConfig {
            shards: 4,
            placement: Placement::StickyByDigest,
            shard: ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        });
        let a: Vec<usize> = (0..5)
            .map(|i| {
                router
                    .submit(request(&format!("a{i}"), "0 H q0\n1 MEAS q0\nSTOP\n", 2))
                    .unwrap()
                    .shard
            })
            .collect();
        assert!(a.iter().all(|&s| s == a[0]), "same program, same shard");
        let results = router.drain().unwrap();
        // One compile total across the whole fleet for the 5 submissions.
        assert_eq!(results.len(), 5);
    }

    #[test]
    fn shard_floor_is_one() {
        let router = Router::new(RouterConfig {
            shards: 0,
            placement: Placement::RoundRobin,
            shard: ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        });
        assert_eq!(router.shard_count(), 1);
        router.shutdown().unwrap();
    }
}
