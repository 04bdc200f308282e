//! # quape-server — a multi-tenant job service over the shot engine
//!
//! The paper's §3.1.2 multiprogramming is *program-level* parallelism:
//! many independent tasks sharing one control stack. This crate lifts
//! that idea to the quantum-cloud serving scenario the repository's
//! north star demands (and that HiMA-style architectures call *quantum
//! process-level parallelism*): many independent **jobs** — each a
//! program + configuration + shot count + priority — arriving over time
//! and multiplexed onto shared execution resources.
//!
//! Two mechanisms carry the load:
//!
//! * **Compile deduplication** ([`CompileCache`]): requests are keyed by
//!   a stable content hash (raw source text, or
//!   [`Program::digest`](quape_isa::Program::digest), combined with the
//!   seed-independent
//!   [`QuapeConfig::content_digest`](quape_core::QuapeConfig::content_digest)),
//!   and resolve through an LRU cache of `Arc`-shared
//!   [`CompiledJob`](quape_core::CompiledJob)s. Concurrent requests for
//!   the same program block on one in-flight compilation instead of
//!   compiling twice — compile once, run many.
//! * **Fair shot-quantum scheduling** ([`JobServer`]): active jobs are
//!   interleaved on one scoped-thread worker pool in priority-weighted
//!   round-robin *quanta* of shots, so a million-shot job cannot starve
//!   a hundred-shot job. Each job's shots are folded exactly as
//!   [`ShotEngine::run`](quape_core::ShotEngine::run) folds them (one
//!   mergeable [`ShotAccumulator`](quape_core::ShotAccumulator) per
//!   quantum, merged into the job's completed prefix), so a
//!   job's [`BatchAggregate`](quape_core::BatchAggregate) is
//!   **bit-identical** to a solo run — for any worker count and any
//!   interleaving (differential-tested).
//! * **A streaming lifecycle** ([`JobServer::serve`] →
//!   [`ServingServer`]): a long-lived pool whose workers park when
//!   idle. [`submit`](ServingServer::submit) while serving is live and
//!   the job starts immediately; the returned [`JobHandle`] exposes
//!   per-job progress, prefix-consistent partial aggregates,
//!   blocking/timeout waits and cooperative cancellation;
//!   [`drain`](ServingServer::drain) finishes everything accepted while
//!   [`shutdown`](ServingServer::shutdown) stops claiming quanta and
//!   finalizes partials. This is the shard building block the
//!   `quape-router` front router scales across QPUs.
//!
//! ```
//! use quape_core::QuapeConfig;
//! use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
//! use quape_server::{JobRequest, JobServer, JobSource, Priority, ServerConfig};
//!
//! let server = JobServer::new(ServerConfig::default());
//! let cfg = QuapeConfig::superscalar(4);
//! let factory = BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
//! for tenant in 0..3u64 {
//!     let req = JobRequest::new(
//!         format!("tenant{tenant}"),
//!         JobSource::Text("0 H q0\n1 MEAS q0\nSTOP\n".into()),
//!         cfg.clone(),
//!         factory.clone(),
//!         64,
//!     )
//!     .base_seed(tenant)
//!     .priority(Priority::Normal);
//!     server.submit(req)?;
//! }
//! let results = server.run();
//! assert_eq!(results.len(), 3);
//! // Three requests, one program: compiled exactly once.
//! assert_eq!(server.cache_stats().compiles, 1);
//! assert_eq!(server.cache_stats().hits, 2);
//! # Ok::<(), quape_server::JobError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod server;

pub use cache::{CacheOutcome, CacheStats, CompileCache};
pub use server::{
    FinishHook, JobError, JobHandle, JobProgress, JobRequest, JobResult, JobServer, JobSource,
    KeyedRequest, MachineSpec, PackerConfig, PackerStats, Priority, ServerConfig, ServingServer,
};
