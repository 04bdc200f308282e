//! The job server: request intake, compile deduplication, fair
//! shot-quantum scheduling, and a streaming job lifecycle.
//!
//! ## Scheduling policy
//!
//! Active jobs sit in a queue guarded by one mutex. A worker *claim*
//! takes the next job in round-robin order that still has unclaimed
//! shots, grabs a **quantum** of `shot_quantum × priority weight`
//! consecutive shot indices, advances the round-robin cursor, and
//! executes the quantum outside the lock via
//! [`ShotEngine::run_shot_reusing`](quape_core::ShotEngine::run_shot_reusing).
//! The cursor guarantees progress for every job on every rotation — a
//! million-shot job gets exactly one quantum per turn, the same as a
//! hundred-shot job — while the weight lets high-priority tenants drain
//! faster without ever starving the rest.
//!
//! ## Two serving modes
//!
//! * **Batch** ([`JobServer::run`]): queue jobs with
//!   [`submit`](JobServer::submit), then run them to completion on a
//!   scoped worker pool; `run` returns the results of the jobs that
//!   were queued when it was called, ordered by id. What the
//!   mixed-traffic benchmark drives.
//! * **Streaming** ([`JobServer::serve`] → [`ServingServer`]): a
//!   long-lived worker pool that parks on a condvar when idle. Jobs
//!   submitted *while serving is live* wake the pool immediately; every
//!   submission returns a [`JobHandle`] with per-job progress
//!   ([`JobHandle::progress`], [`JobHandle::partial_aggregate`]),
//!   blocking/timeout [`wait`](JobHandle::wait), and cooperative
//!   [`cancel`](JobHandle::cancel). [`ServingServer::drain`] finishes
//!   everything accepted so far; [`ServingServer::shutdown`] stops
//!   claiming new quanta and finalizes the partial aggregates. Both
//!   return only whether the workers joined cleanly: a shard keeps
//!   only live jobs, and each result is read from its handle.
//!
//! ## Determinism
//!
//! A shot's outcome depends only on `(job, factory, base_seed, shot
//! index)`, so neither the worker count nor the interleaving affects any
//! per-job result: each quantum folds into its own
//! [`ShotAccumulator`], and the job merges quanta into the accumulator
//! of its contiguous completed prefix as that prefix grows, the same
//! order-independent fold a solo
//! [`ShotEngine::run`](quape_core::ShotEngine::run) uses. Shot quanta
//! are claimed as a monotone prefix `0..n` of the job's shot indices, so
//! a cancelled job's partial aggregate is always **prefix-consistent**:
//! bit-identical to a solo run of its first `n` shots. A job holds one
//! prefix accumulator plus the quanta that landed past a gap, never a
//! per-shot record.
//!
//! ## Multiprogramming packing (§3.1.2 space multiplexing)
//!
//! With a [`PackerConfig`] installed, a queue-scan stage between
//! admission and the worker pool merges **compatible queued small
//! jobs** into one packed scheduling unit. The members' programs are
//! relocated into disjoint qubit regions, combined via
//! [`quape_workloads::multiprogramming::combine`], and compiled through
//! the compile cache (keyed by the member compile keys, so a recurring
//! pack shape combines and compiles once). That compile is the pack's
//! validity check: if the combined program cannot be built or does not
//! fit the machine, the pack is declined and its members run solo. The
//! pack then runs as **one** scheduler entity: a single claim takes the
//! next shot quantum *for every member at once*, amortizing the per-job
//! claim/complete/notify round-trips the interleaved path pays per job.
//!
//! Because `combine` guarantees zero cross-member dependencies (disjoint
//! qubit regions, unconstrained blocks), the members' shot streams are
//! independent by construction — pre-determined allocation, in the
//! paper's terms. The packed executor exploits exactly that: packed
//! shot index `s` runs each member's shot `s` through the member's own
//! engine and seed stream, so de-multiplexing is **exact**: every
//! member's [`JobResult`] aggregate is bit-identical to its solo run,
//! including mid-flight partials, and cancelling one member never
//! perturbs the others (differential-tested).

use crate::cache::{CacheStats, CompileCache};
use quape_core::{
    BatchAggregate, CompiledJob, DescriptionError, EngineObs, MachineDescription, MachineError,
    QpuFactory, QuapeConfig, ShotAccumulator, ShotEngine, WorkerScratch,
};
use quape_isa::{AsmError, Fnv64, Program};
use quape_obs::{ObsScope, TraceKind};
use quape_workloads::multiprogramming;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Errors surfaced by [`JobServer::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The request's source text failed to assemble.
    Parse(AsmError),
    /// The program/config pair failed job compilation.
    Compile(MachineError),
    /// The request asked for zero shots.
    EmptyJob,
    /// The in-flight compilation this request was waiting on panicked;
    /// the entry was dropped, so resubmitting retries from scratch.
    CompileUnavailable,
    /// The server is draining or shut down and accepts no new jobs.
    NotAccepting,
    /// No shard in the fleet satisfies the job's requirements (qubit
    /// count, readout layout, demod slots) — emitted by a
    /// capability-aware front router, never by a single server.
    NoCapableShard,
    /// The shard executing the job died and, after bounded re-routing
    /// retries, no surviving capable shard could take it over.
    ShardLost,
    /// An admission-control layer shed the submission: the tenant is
    /// over its in-flight shot budget.
    OverBudget {
        /// How many of the tenant's in-flight shots must complete before
        /// an identical resubmission can be admitted.
        retry_after_shots: u64,
    },
    /// A serving worker thread panicked (a server bug, not a job
    /// failure); the jobs it was running may never finish.
    WorkerPanicked,
    /// The request's machine description (inline or by builtin name)
    /// could not be resolved into a valid configuration.
    Machine(DescriptionError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Parse(e) => write!(f, "request source failed to assemble: {e}"),
            JobError::Compile(e) => write!(f, "request failed to compile: {e}"),
            JobError::EmptyJob => write!(f, "request asked for zero shots"),
            JobError::CompileUnavailable => {
                write!(
                    f,
                    "the shared in-flight compilation aborted; retry the request"
                )
            }
            JobError::NotAccepting => {
                write!(f, "the server is draining or shut down; resubmit elsewhere")
            }
            JobError::NoCapableShard => {
                write!(
                    f,
                    "no shard in the fleet can satisfy the job's requirements"
                )
            }
            JobError::ShardLost => {
                write!(
                    f,
                    "the job's shard was lost and no capable shard could take it over"
                )
            }
            JobError::OverBudget { retry_after_shots } => {
                write!(
                    f,
                    "tenant over its in-flight shot budget; retry after {retry_after_shots} \
                     in-flight shots complete"
                )
            }
            JobError::WorkerPanicked => {
                write!(
                    f,
                    "a serving worker panicked; drained results are incomplete"
                )
            }
            JobError::Machine(e) => write!(f, "request's machine description is invalid: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Parse(e) => Some(e),
            JobError::Compile(e) => Some(e),
            JobError::Machine(e) => Some(e),
            JobError::EmptyJob
            | JobError::CompileUnavailable
            | JobError::NotAccepting
            | JobError::NoCapableShard
            | JobError::ShardLost
            | JobError::OverBudget { .. }
            | JobError::WorkerPanicked => None,
        }
    }
}

impl From<AsmError> for JobError {
    fn from(e: AsmError) -> Self {
        JobError::Parse(e)
    }
}

impl From<MachineError> for JobError {
    fn from(e: MachineError) -> Self {
        JobError::Compile(e)
    }
}

impl From<DescriptionError> for JobError {
    fn from(e: DescriptionError) -> Self {
        JobError::Machine(e)
    }
}

/// How a request names the machine it wants to run on: a builtin
/// description by name ([`MachineDescription::builtin`]) or an inline
/// description (e.g. parsed from a `machines/*.json` file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineSpec {
    /// A builtin description name (`"baseline"`, `"superscalar-8"`,
    /// `"multiprocessor-4"`, …).
    Builtin(String),
    /// A full inline description.
    Inline(MachineDescription),
}

impl MachineSpec {
    /// Resolves the spec into a description.
    ///
    /// # Errors
    ///
    /// [`DescriptionError::UnknownBuiltin`] for an unknown builtin name.
    pub fn resolve(&self) -> Result<MachineDescription, DescriptionError> {
        match self {
            MachineSpec::Builtin(name) => MachineDescription::builtin(name),
            MachineSpec::Inline(desc) => Ok(desc.clone()),
        }
    }
}

/// What a job request asks to run.
#[derive(Debug, Clone)]
pub enum JobSource {
    /// Timed-QASM source text. Cache keys hash the raw text (far cheaper
    /// than assembling it); the text is only parsed on a cache miss.
    /// Every submit still reads it once more: a router derives the job's
    /// qubit requirement with one lexical pass
    /// ([`quape_isa::scan_qubit_count`]) before placing it.
    Text(String),
    /// A pre-built program, keyed by its structural
    /// [`digest`](Program::digest).
    Program(Program),
}

impl JobSource {
    /// The request's 128-bit compile-cache key: the source content hash
    /// combined with the config's seed-independent
    /// [`content_digest`](QuapeConfig::content_digest).
    ///
    /// `Text` requests — attacker-visible wire bytes — contribute both
    /// independent streams of [`quape_isa::content_hash_128`], so two
    /// different texts aliasing one cache entry (and silently serving
    /// one tenant another tenant's program) requires colliding two
    /// unrelated 64-bit hashes at once. `Program` requests carry the
    /// structural [`Program::digest`] of a trusted in-process value
    /// (64 bits of entropy, spread over the key).
    ///
    /// The two variants hash into disjoint key spaces: a `Text` request
    /// and the `Program` it would assemble to are deduplicated within
    /// their own kind only (equating them would require parsing the
    /// text, which is the cost the key exists to avoid).
    pub fn cache_key(&self, cfg: &QuapeConfig) -> u128 {
        let (tag, word_hi, word_lo) = match self {
            JobSource::Text(text) => {
                let h = quape_isa::content_hash_128(text.as_bytes());
                (1u32, (h >> 64) as u64, h as u64)
            }
            JobSource::Program(p) => {
                let d = p.digest().0;
                (2u32, d, d)
            }
        };
        let cfg_digest = cfg.content_digest();
        let mut hi = Fnv64::new();
        hi.write_u32(tag).write_u64(word_hi).write_u64(cfg_digest);
        let mut lo = Fnv64::new();
        lo.write_u32(!tag).write_u64(word_lo).write_u64(cfg_digest);
        (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
    }

    fn compile(self, cfg: QuapeConfig) -> Result<CompiledJob, JobError> {
        let program = match self {
            JobSource::Text(text) => quape_isa::assemble(&text)?,
            JobSource::Program(p) => p,
        };
        Ok(CompiledJob::compile(cfg, program)?)
    }
}

/// Scheduling priority of a job. The weight scales the shot quantum a
/// job receives per round-robin turn (1× / 2× / 4×) — a share, never a
/// preemption, so low-priority jobs still progress on every rotation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Priority {
    /// Background work: single quantum per turn.
    Low,
    /// The default share.
    #[default]
    Normal,
    /// Latency-sensitive work: 4× quantum per turn.
    High,
}

impl Priority {
    /// The job's shot-quantum multiplier.
    pub fn weight(self) -> u64 {
        match self {
            Priority::Low => 1,
            Priority::Normal => 2,
            Priority::High => 4,
        }
    }
}

/// One tenant's job: what to run, on what configuration, how many shots,
/// and how urgently.
///
/// Requests are `Clone` so a fault-tolerant front-end can keep a
/// re-submittable snapshot of every accepted job: if the shard executing
/// it dies, the clone is resubmitted to a surviving shard and — because a
/// shot's outcome depends only on `(job, factory, base_seed, shot
/// index)` — the re-run's aggregate is bit-identical to what the lost
/// shard would have produced.
#[derive(Clone)]
pub struct JobRequest {
    /// Human-readable job name (reported back in [`JobResult`]).
    pub name: String,
    /// Tenant identity, for per-tenant cache accounting
    /// ([`JobServer::tenant_stats`]). `None` requests are served
    /// identically but not attributed.
    pub tenant: Option<String>,
    /// The program source.
    pub source: JobSource,
    /// Machine configuration to compile against.
    pub cfg: QuapeConfig,
    /// Per-shot QPU backend factory.
    pub factory: Arc<dyn QpuFactory>,
    /// Number of shots to run.
    pub shots: u64,
    /// Scheduling priority.
    pub priority: Priority,
    /// Base seed of the job's per-shot seed streams (defaults to
    /// `cfg.seed`).
    pub base_seed: u64,
    /// Per-shot cycle budget (defaults to the engine's 10 million).
    pub cycle_limit: u64,
}

impl JobRequest {
    /// Creates a request with default priority, seed and cycle budget.
    pub fn new(
        name: impl Into<String>,
        source: JobSource,
        cfg: QuapeConfig,
        factory: impl QpuFactory + 'static,
        shots: u64,
    ) -> Self {
        let base_seed = cfg.seed;
        JobRequest {
            name: name.into(),
            tenant: None,
            source,
            cfg,
            factory: Arc::new(factory),
            shots,
            priority: Priority::default(),
            base_seed,
            cycle_limit: 10_000_000,
        }
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Attributes the request to a tenant for cache accounting.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Sets the base seed of the job's shot streams.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the per-shot cycle budget.
    pub fn cycle_limit(mut self, cycle_limit: u64) -> Self {
        self.cycle_limit = cycle_limit;
        self
    }

    /// Replaces the request's machine configuration with one lowered
    /// from a [`MachineSpec`] — a builtin name or an inline description.
    /// Seed, cycle budget and priority are untouched.
    ///
    /// # Errors
    ///
    /// [`JobError::Machine`] when the spec names an unknown builtin or
    /// the description fails validation.
    pub fn machine(mut self, spec: &MachineSpec) -> Result<Self, JobError> {
        let desc = spec.resolve()?;
        self.cfg = desc.to_config()?;
        Ok(self)
    }
}

/// A [`JobRequest`] with its compile-cache key, computed once from the
/// request itself ([`JobSource::cache_key`]). A front end that needs the
/// key before submitting (sticky placement) builds one with
/// `KeyedRequest::from(req)` and hands it to [`JobServer::submit`],
/// which then does not hash the source again. The fields are private,
/// so the key always belongs to the request it travels with.
#[derive(Clone)]
pub struct KeyedRequest {
    req: JobRequest,
    key: u128,
}

impl KeyedRequest {
    /// The request.
    pub fn request(&self) -> &JobRequest {
        &self.req
    }

    /// The request's compile-cache key.
    pub fn key(&self) -> u128 {
        self.key
    }
}

/// Keys a request by its source and configuration.
impl From<JobRequest> for KeyedRequest {
    fn from(req: JobRequest) -> Self {
        let key = req.source.cache_key(&req.cfg);
        KeyedRequest { req, key }
    }
}

/// The packer stage's knobs (see the crate docs — packing is off
/// unless [`ServerConfig::packer`] is set).
#[derive(Debug, Clone)]
pub struct PackerConfig {
    /// Most member jobs per pack.
    pub max_members: usize,
    /// Hard cap on the packed qubit span. The effective cap is the
    /// minimum of this, the ISA's qubit space, and the config's
    /// `num_qubits` — a capability-aware router lowers it further to
    /// the shard profile's span so a pack never exceeds what the
    /// shard's machine can load.
    pub max_pack_qubits: u16,
    /// Only jobs at or below this shot count are packing candidates —
    /// packing exists to amortize per-job scheduling overhead across
    /// *small* jobs; big jobs amortize it themselves.
    pub max_member_shots: u64,
}

impl Default for PackerConfig {
    fn default() -> Self {
        PackerConfig {
            max_members: 8,
            max_pack_qubits: quape_isa::MAX_QUBITS as u16,
            max_member_shots: 256,
        }
    }
}

/// Counters of the packer stage, read via [`JobServer::packer_stats`]:
/// a view over the server scope's `server.packs_formed`,
/// `server.jobs_packed`, `server.packed_shots`,
/// `server.combine_cache_hits` and `server.pack_declined`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct PackerStats {
    /// Packs formed (each replaced ≥ 2 queued jobs with one entry).
    pub packs_formed: u64,
    /// Member jobs that went through a pack.
    pub jobs_packed: u64,
    /// Total member shots covered by formed packs.
    pub packed_shots: u64,
    /// Combined programs resolved from the compile cache (a recurring
    /// pack shape compiles its combined program once).
    pub combine_cache_hits: u64,
    /// Pack formations that failed (combine or combined compile) and
    /// fell back to solo execution of the members.
    pub declined: u64,
}

/// Worker-pool and cache sizing of a [`JobServer`], plus the declared
/// hardware the server fronts.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (`0` = `available_parallelism`).
    pub threads: usize,
    /// Base shot quantum per scheduling turn (scaled by
    /// [`Priority::weight`]).
    pub shot_quantum: u64,
    /// Compiled-job cache capacity (entries).
    pub cache_capacity: usize,
    /// The machine this server fronts, as a declarative description.
    /// `None` (the default) declares nothing; a capability-aware front
    /// router derives the shard's profile from it when set (explicit
    /// router profiles still win).
    pub machine: Option<MachineDescription>,
    /// When set, the packer stage merges compatible queued small jobs
    /// into packed scheduling units (see the crate docs). `None` (the
    /// default) serves every job solo.
    pub packer: Option<PackerConfig>,
    /// Telemetry scope whose registry is the server's only event count
    /// (the cache and packer stats are views over it). The default
    /// ([`ObsScope::off`]) is untraced: counters live, events and
    /// histograms inert. Observation-only either way; clones share it.
    pub obs: ObsScope,
}

impl ServerConfig {
    /// Enables the packer stage with the given knobs.
    pub fn packer(mut self, packer: PackerConfig) -> Self {
        self.packer = Some(packer);
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            shot_quantum: 16,
            cache_capacity: 64,
            machine: None,
            packer: None,
            obs: ObsScope::off(),
        }
    }
}

/// The outcome of one job: its deterministic aggregate plus service-side
/// measurements.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job id (monotonic per server, assigned at submit).
    pub id: u64,
    /// The request's name.
    pub name: String,
    /// Shots actually executed (`< shots_requested` when cancelled).
    pub shots: u64,
    /// Shots the request asked for.
    pub shots_requested: u64,
    /// True when the job stopped short of its requested shots — by its
    /// handle's cancel, a shutdown, or a panicking shot quantum; the
    /// aggregate then covers the completed prefix `0..shots`. Always
    /// false when every requested shot ran, even if a cancel raced the
    /// last quantum.
    pub cancelled: bool,
    /// The request's priority.
    pub priority: Priority,
    /// True when the compiled job came from the cache.
    pub cache_hit: bool,
    /// Wall time spent resolving the compiled job at submit (near zero
    /// on a cache hit).
    pub compile_wall: Duration,
    /// Wall time from submit (the job's arrival) to the last shot's
    /// completion — includes the job's own compile resolution.
    pub latency: Duration,
    /// Order in which jobs finished (0 = first).
    pub completion_rank: u64,
    /// The job's deterministic aggregate — bit-identical to a solo
    /// [`ShotEngine`] run with the same parameters (over the completed
    /// prefix, when cancelled).
    pub aggregate: BatchAggregate,
}

/// A point-in-time view of one job's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// Shots that have landed, whether or not they join the completed
    /// prefix yet.
    pub shots_done: u64,
    /// Shots the request asked for.
    pub shots_total: u64,
    /// True once [`JobHandle::cancel`] (or a shutdown) was observed.
    pub cancelled: bool,
    /// True once the job's [`JobResult`] is available.
    pub finished: bool,
}

/// The shared per-job cell a [`JobHandle`] reads: the fold of the
/// quanta that landed, the final result, and the cancellation flag.
/// Lock order is strictly *server state → cell* — cell-only readers
/// (progress, wait) never touch the server lock.
struct JobCell {
    name: String,
    priority: Priority,
    shots_requested: u64,
    base_seed: u64,
    cache_hit: bool,
    compile_wall: Duration,
    submitted_at: Instant,
    cancelled: AtomicBool,
    inner: Mutex<CellInner>,
    cond: Condvar,
}

#[derive(Default)]
struct CellInner {
    /// The fold of shots `0..prefix_end`, the contiguous completed
    /// prefix: what partial and final aggregates report.
    prefix: ShotAccumulator,
    prefix_end: u64,
    /// Landed shots past a gap in the prefix, as maximal runs of
    /// adjacent quanta keyed by first shot, each with its end and its
    /// fold. Every gap is a claimed quantum still executing (or lost to
    /// a panic), so there are no more runs than quanta in flight.
    pending: BTreeMap<u64, (u64, ShotAccumulator)>,
    result: Option<JobResult>,
}

impl CellInner {
    /// Lands the quantum `shots`, folded into `acc`: joins it with the
    /// landed runs that end where it starts and start where it ends,
    /// and extends the prefix when the joined run starts at its end.
    fn land(&mut self, shots: Range<u64>, mut acc: ShotAccumulator) {
        let Range { mut start, mut end } = shots;
        let before = self.pending.range(..start).next_back();
        if let Some((&run_start, _)) = before.filter(|(_, (run_end, _))| *run_end == start) {
            acc.merge(&self.pending.remove(&run_start).expect("run just found").1);
            start = run_start;
        }
        if let Some((run_end, run)) = self.pending.remove(&end) {
            acc.merge(&run);
            end = run_end;
        }
        if start == self.prefix_end {
            self.prefix.merge(&acc);
            self.prefix_end = end;
        } else {
            self.pending.insert(start, (end, acc));
        }
    }
}

/// A live handle on one submitted job. Clone freely; all methods are
/// safe from any thread, while the job runs or after it finished.
#[must_use = "dropping the handle loses the only way to wait on or cancel the job"]
#[derive(Clone)]
pub struct JobHandle {
    server: JobServer,
    cell: Arc<JobCell>,
    id: u64,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("name", &self.cell.name)
            .finish()
    }
}

impl JobHandle {
    /// The job's server-assigned id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's name.
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// A point-in-time progress snapshot.
    pub fn progress(&self) -> JobProgress {
        let inner = self.cell.inner.lock().expect("job cell lock poisoned");
        let shots_done = match &inner.result {
            Some(r) => r.shots,
            None => {
                let pending = inner.pending.iter().map(|(start, (end, _))| end - start);
                inner.prefix_end + pending.sum::<u64>()
            }
        };
        JobProgress {
            shots_done,
            shots_total: self.cell.shots_requested,
            // Once finished, the result is the truth — a cancel that
            // raced completion (and changed nothing) is not reported.
            cancelled: match &inner.result {
                Some(r) => r.cancelled,
                None => self.cell.cancelled.load(Ordering::Relaxed),
            },
            finished: inner.result.is_some(),
        }
    }

    /// The partial aggregate over the job's *contiguous completed
    /// prefix* of shot indices, folded in shot order — exactly the
    /// prefix a solo [`ShotEngine`] run of that many shots would
    /// produce. Returns the final aggregate once the job finished.
    pub fn partial_aggregate(&self) -> BatchAggregate {
        let inner = self.cell.inner.lock().expect("job cell lock poisoned");
        if let Some(r) = &inner.result {
            return r.aggregate.clone();
        }
        inner.prefix.finish(self.cell.base_seed)
    }

    /// True once the job's result is available.
    pub fn is_finished(&self) -> bool {
        self.cell
            .inner
            .lock()
            .expect("job cell lock poisoned")
            .result
            .is_some()
    }

    /// Cooperatively cancels the job: the scheduler stops claiming new
    /// shot quanta; quanta already being executed complete normally.
    /// The job then finalizes with a prefix-consistent partial
    /// aggregate, delivered through [`wait`](JobHandle::wait) exactly
    /// like a completed job (with
    /// [`JobResult::cancelled`] set). Cancelling a finished job is a
    /// no-op.
    pub fn cancel(&self) {
        self.server.cancel_job(self.id, &self.cell);
    }

    /// Blocks until the job's result is available.
    ///
    /// The handle is where a served job's result lives: the server keeps
    /// no copy, and [`ServingServer::drain`] and
    /// [`ServingServer::shutdown`] return none. On a server that is not
    /// currently serving (batch mode), the result only materialises
    /// during [`JobServer::run`], which also returns the results of the
    /// jobs queued when it was called — call `wait` from another thread
    /// or after `run`.
    pub fn wait(&self) -> JobResult {
        let inner = self.cell.inner.lock().expect("job cell lock poisoned");
        let inner = self
            .cell
            .cond
            .wait_while(inner, |c| c.result.is_none())
            .expect("job cell lock poisoned");
        inner
            .result
            .clone()
            .expect("wait_while guarantees a result")
    }

    /// Blocks until the job's result is available or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let inner = self.cell.inner.lock().expect("job cell lock poisoned");
        let (inner, _) = self
            .cell
            .cond
            .wait_timeout_while(inner, timeout, |c| c.result.is_none())
            .expect("job cell lock poisoned");
        inner.result.clone()
    }
}

/// One submitted job inside a scheduler entry. A solo entry holds one
/// member; a packed entry holds every member of the pack. Each member
/// keeps its own engine (its own factory and base seed), so
/// its shots — and therefore its aggregate — are independent of how
/// the scheduler grouped it.
struct MemberJob {
    id: u64,
    shots: u64,
    engine: Arc<ShotEngine>,
    /// Monotone prefix of this member's shot indices handed to workers.
    /// Advances in lockstep with the entry's `next_shot` (clipped to
    /// `shots`) while the member is uncancelled, then freezes.
    claimed: u64,
    done: u64,
    /// Shots of claimed quanta whose execution panicked: they will never
    /// land, so quiescence is `done + lost == claimed`. A lost quantum
    /// cancels the member (its shots would leave a gap).
    lost: u64,
    cell: Arc<JobCell>,
}

impl MemberJob {
    /// True when none of this member's claimed shots is still executing.
    fn quiescent(&self) -> bool {
        self.done + self.lost == self.claimed
    }

    fn cancelled(&self) -> bool {
        self.cell.cancelled.load(Ordering::Relaxed)
    }

    /// True when the member needs no further quanta and none are in
    /// flight: every requested shot landed, or it was cancelled and its
    /// claimed prefix is fully accounted for.
    fn finished(&self) -> bool {
        self.done == self.shots || (self.cancelled() && self.quiescent())
    }
}

/// The packing-compatibility class of a queued solo entry, computed at
/// submit. Two entries may pack together only when their classes agree:
/// the `key` hashes the config's content digest, cycle limit,
/// priority, and shot count; `cfg_digest` is
/// compared outright so a key collision cannot merge incompatible
/// configs; `span` is the member program's qubit width — the region it
/// will occupy after relocation.
#[derive(Clone, Copy, PartialEq, Eq)]
struct PackClass {
    key: u64,
    cfg_digest: u64,
    span: u16,
}

/// One scheduler queue entry: a solo job, or a pack of members sharing
/// a single claim stream. The entry claims a monotone prefix of packed
/// shot indices; packed index `s` stands for shot `s` of every live
/// member, so one claim advances all of them at once.
struct ActiveEntry {
    id: u64,
    priority: Priority,
    next_shot: u64,
    /// Compile-cache key of this entry's artifact: the member's own
    /// source key for a solo entry, the pack key (hash of the member
    /// keys in claim order) for a packed one. Lets the packer derive a
    /// repeated group's cache key without rebuilding the combined
    /// program.
    source_key: u128,
    /// `Some` while the entry is an unstarted solo packing candidate.
    pack: Option<PackClass>,
    /// True for packed entries.
    packed: bool,
    members: Vec<MemberJob>,
}

impl ActiveEntry {
    /// One past the last packed shot index any live member still wants —
    /// the entry's claim stream shortens when its longest member is
    /// cancelled. `None` when no member can make progress.
    fn live_end(&self) -> Option<u64> {
        self.members
            .iter()
            .filter(|m| !m.cancelled())
            .map(|m| m.shots)
            .max()
            .filter(|end| *end > self.next_shot)
    }
}

/// One member's slice of a claimed quantum.
struct ClaimUnit {
    member: u64,
    engine: Arc<ShotEngine>,
    range: Range<u64>,
}

/// A claimed quantum: up to `quantum × weight` packed shot indices, as
/// per-member shot ranges (one unit per live member that still wants
/// those indices).
struct Claim {
    entry: u64,
    units: Vec<ClaimUnit>,
}

/// Whether the serving loop accepts jobs / claims quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ServePhase {
    /// Batch mode: submissions queue for the next [`JobServer::run`].
    #[default]
    Collect,
    /// Live workers park when idle and wake on submission.
    Serving,
    /// No new submissions; queued jobs run to completion, then workers
    /// exit.
    Draining,
    /// No new submissions, no new quanta; in-flight quanta finish, then
    /// workers exit and unfinished jobs finalize as cancelled partials.
    Shutdown,
}

#[derive(Default)]
struct SchedState {
    jobs: Vec<ActiveEntry>,
    cursor: usize,
    completed: u64,
    next_id: u64,
    /// Pack formations in flight: their entries are out of `jobs` while
    /// a worker combines and compiles off-lock; drains wait for this to
    /// reach zero so the members are not missed.
    forming: usize,
    /// Finished results whose finish-hook callback has not fired yet.
    /// Hooks are only ever invoked with the server lock released
    /// ([`JobServer::flush_finish_hooks`]), so finalize paths that run
    /// under the lock park the payload here.
    hook_pending: Vec<JobResult>,
    phase: ServePhase,
}

/// An eager job-completion callback (see [`JobServer::set_finish_hook`]).
pub type FinishHook = Arc<dyn Fn(&JobResult) + Send + Sync>;

/// Pre-registered telemetry handles for the server's hot paths, built
/// once at construction so nothing on the claim/complete path ever
/// touches the registry's name-lookup mutex. Histograms and `engine`
/// are inert when the [`ObsScope`] does not trace; counters never are.
struct ServerObs {
    scope: ObsScope,
    accepted: quape_obs::Counter,
    quanta: quape_obs::Counter,
    finalized: quape_obs::Counter,
    cancelled: quape_obs::Counter,
    revoked: quape_obs::Counter,
    packs: quape_obs::Counter,
    jobs_packed: quape_obs::Counter,
    packed_shots: quape_obs::Counter,
    combine_cache_hits: quape_obs::Counter,
    pack_declined: quape_obs::Counter,
    compile_us: quape_obs::Histogram,
    quantum_us: quape_obs::Histogram,
    latency_us: quape_obs::Histogram,
    engine: EngineObs,
}

impl ServerObs {
    fn new(scope: ObsScope) -> Self {
        ServerObs {
            accepted: scope.counter("server.jobs_accepted"),
            quanta: scope.counter("server.quanta"),
            finalized: scope.counter("server.jobs_finalized"),
            cancelled: scope.counter("server.jobs_cancelled"),
            revoked: scope.counter("server.jobs_revoked"),
            packs: scope.counter("server.packs_formed"),
            jobs_packed: scope.counter("server.jobs_packed"),
            packed_shots: scope.counter("server.packed_shots"),
            combine_cache_hits: scope.counter("server.combine_cache_hits"),
            pack_declined: scope.counter("server.pack_declined"),
            compile_us: scope.histogram("server.compile_us"),
            quantum_us: scope.histogram("server.quantum_us"),
            latency_us: scope.histogram("server.job_latency_us"),
            engine: EngineObs::in_scope(&scope),
            scope,
        }
    }
}

struct ServerInner {
    cfg: ServerConfig,
    cache: CompileCache,
    state: Mutex<SchedState>,
    work: Condvar,
    finish_hook: Mutex<Option<FinishHook>>,
    obs: ServerObs,
}

/// The multi-tenant job service. Cheap to clone (all state is shared):
/// clones submit to, and observe, the same server.
///
/// Batch mode: [`submit`](JobServer::submit) then [`run`](JobServer::run).
/// Streaming mode: [`JobServer::serve`] → [`ServingServer`]. See the
/// [crate docs](crate) for the scheduling policy and lifecycle.
#[derive(Clone)]
pub struct JobServer {
    inner: Arc<ServerInner>,
}

impl JobServer {
    /// Creates a server with an empty job queue and compile cache.
    pub fn new(cfg: ServerConfig) -> Self {
        let cache = CompileCache::new(cfg.cache_capacity, &cfg.obs);
        let obs = ServerObs::new(cfg.obs.clone());
        JobServer {
            inner: Arc::new(ServerInner {
                cfg,
                cache,
                state: Mutex::new(SchedState::default()),
                work: Condvar::new(),
                finish_hook: Mutex::new(None),
                obs,
            }),
        }
    }

    /// Creates a server and starts its long-lived worker pool: jobs
    /// submitted through the returned [`ServingServer`] (or through any
    /// clone of its [`server`](ServingServer::server)) begin executing
    /// immediately.
    pub fn serve(cfg: ServerConfig) -> ServingServer {
        let server = JobServer::new(cfg);
        let threads = server.effective_threads();
        server.lock_state().phase = ServePhase::Serving;
        let workers = (0..threads)
            .map(|w| {
                let s = server.clone();
                // Worker ids start at 1 — tid 0 is the control plane
                // (submit/cancel/finalize events) in the trace.
                std::thread::spawn(move || s.serving_loop(w as u32 + 1))
            })
            .collect();
        ServingServer {
            server,
            workers,
            stopped: false,
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.inner.state.lock().expect("server lock poisoned")
    }

    fn effective_threads(&self) -> usize {
        if self.inner.cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.inner.cfg.threads
        }
        .max(1)
    }

    /// The compile cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Per-tenant cache counters (requests submitted without a tenant
    /// are not attributed), sorted by tenant id.
    pub fn tenant_stats(&self) -> Vec<(String, CacheStats)> {
        self.inner.cache.tenant_stats()
    }

    /// Jobs queued or running, not yet finished (every member of a
    /// packed entry counts).
    pub fn pending_jobs(&self) -> usize {
        self.lock_state().jobs.iter().map(|e| e.members.len()).sum()
    }

    /// Shots accepted but not yet executed — the scheduler backlog a
    /// load-aware placement policy balances on.
    pub fn backlog_shots(&self) -> u64 {
        self.lock_state()
            .jobs
            .iter()
            .flat_map(|e| e.members.iter())
            .map(|m| m.shots - m.done)
            .sum()
    }

    /// The configuration this server was built with — after any
    /// deployment-side adjustments (a capability-aware router clips
    /// [`PackerConfig::max_pack_qubits`] to each shard's profile before
    /// starting it).
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// The packer stage's counters (all zero when no [`PackerConfig`]
    /// is installed).
    pub fn packer_stats(&self) -> PackerStats {
        let obs = &self.inner.obs;
        PackerStats {
            packs_formed: obs.packs.get(),
            jobs_packed: obs.jobs_packed.get(),
            packed_shots: obs.packed_shots.get(),
            combine_cache_hits: obs.combine_cache_hits.get(),
            declined: obs.pack_declined.get(),
        }
    }

    /// Installs (or replaces) the job-completion callback: it fires once
    /// per job, after the job's [`JobResult`] is published to its cell,
    /// with **no server locks held** — the hook may call back into this
    /// or any other server (a fleet router uses it to account finished
    /// work and pump admission control). It may be invoked from worker
    /// threads or from the thread that cancelled/drained the job, and
    /// concurrently for different jobs; completion order across jobs is
    /// not specified. Install it before submitting anything the hook
    /// must observe.
    pub fn set_finish_hook(&self, hook: FinishHook) {
        *self.inner.finish_hook.lock().expect("hook lock poisoned") = Some(hook);
    }

    /// Server ids and requested shots of queued jobs no worker has
    /// started yet (zero shot quanta claimed), in queue order. Advisory:
    /// a worker may claim a listed job before a
    /// [`revoke_unstarted`](JobServer::revoke_unstarted) lands — the
    /// revoke re-checks atomically.
    pub fn unstarted_jobs(&self) -> Vec<(u64, u64)> {
        self.lock_state()
            .jobs
            .iter()
            // Packed entries are not stealable as wholes (their members
            // belong to different submissions); packing-aware stealing
            // is a follow-on.
            .filter(|e| {
                e.next_shot == 0 && !e.packed && e.members.len() == 1 && !e.members[0].cancelled()
            })
            .map(|e| (e.id, e.members[0].shots))
            .collect()
    }

    /// Atomically removes job `id` from the queue **iff** no worker has
    /// claimed any of its shots. The job's cell is left unfinished — no
    /// result is published and no finish hook fires — because the caller
    /// now owns the job's fate and is expected to resubmit its
    /// [`JobRequest`] snapshot elsewhere. This is the work-stealing /
    /// planned-drain requeue hook: whole jobs only, so per-job
    /// aggregates are untouched wherever the job finally runs. Returns
    /// false when the job already started, finished, was cancelled, or
    /// was never here.
    pub fn revoke_unstarted(&self, id: u64) -> bool {
        let mut st = self.lock_state();
        let Some(index) = st.jobs.iter().position(|e| e.id == id) else {
            return false;
        };
        let entry = &st.jobs[index];
        if entry.next_shot != 0
            || entry.packed
            || entry.members.len() != 1
            || entry.members[0].cancelled()
        {
            return false;
        }
        let shots = entry.members[0].shots;
        let _ = Self::remove_entry(&mut st, index);
        // The job leaves this shard with no terminal of its own — the
        // stolen event is its last word here; the thief's shard traces
        // the rest of its life.
        let obs = &self.inner.obs;
        obs.revoked.inc();
        obs.scope.event(TraceKind::Stolen, 0, id, shots, 0);
        true
    }

    /// Invokes the finish hook for every result parked by an under-lock
    /// finalize. Must be called with the server lock released.
    fn flush_finish_hooks(&self) {
        let pending = {
            let mut st = self.lock_state();
            if st.hook_pending.is_empty() {
                return;
            }
            std::mem::take(&mut st.hook_pending)
        };
        let hook = self
            .inner
            .finish_hook
            .lock()
            .expect("hook lock poisoned")
            .clone();
        if let Some(hook) = hook {
            for result in &pending {
                hook(result);
            }
        }
    }

    /// Accepts a job: resolves its compiled job through the cache
    /// (compiling on this thread on a miss — concurrent submissions of
    /// the same program share one compilation) and queues its shots.
    /// Returns a [`JobHandle`] for progress, waiting and cancellation.
    /// Takes a plain [`JobRequest`], or a [`KeyedRequest`] whose cache
    /// key a front end already computed.
    ///
    /// On a serving pool ([`JobServer::serve`]) the job starts
    /// executing immediately; in batch mode it waits for the next
    /// [`run`](JobServer::run).
    ///
    /// # Errors
    ///
    /// Rejects zero-shot requests ([`JobError::EmptyJob`]), submissions
    /// to a draining/shut-down server ([`JobError::NotAccepting`]), and
    /// propagates parse/compile failures.
    pub fn submit(&self, req: impl Into<KeyedRequest>) -> Result<JobHandle, JobError> {
        // The job "arrives" when submit is called: its latency includes
        // its own key hash and compile (or compile-cache wait), not just
        // the queue and execution time after it.
        let submitted_at = Instant::now();
        let KeyedRequest { req, key } = req.into();
        if req.shots == 0 {
            return Err(JobError::EmptyJob);
        }
        // Reject before compiling (and re-check under the lock at queue
        // time): a drained server must not burn compile time or skew
        // per-tenant cache accounting for requests it will never accept.
        if matches!(
            self.lock_state().phase,
            ServePhase::Draining | ServePhase::Shutdown
        ) {
            return Err(JobError::NotAccepting);
        }
        let outcome = self
            .inner
            .cache
            .get_or_compile(key, req.tenant.as_deref(), || req.source.compile(req.cfg))?;
        let compile_wall = submitted_at.elapsed();
        let engine = ShotEngine::new(outcome.job.as_ref().clone(), req.factory)
            .base_seed(req.base_seed)
            .cycle_limit(req.cycle_limit)
            .obs(self.inner.obs.engine.clone())
            .threads(1);
        let cell = Arc::new(JobCell {
            name: req.name,
            priority: req.priority,
            shots_requested: req.shots,
            base_seed: req.base_seed,
            cache_hit: outcome.hit,
            compile_wall,
            submitted_at,
            cancelled: AtomicBool::new(false),
            inner: Mutex::new(CellInner::default()),
            cond: Condvar::new(),
        });
        let engine = Arc::new(engine);
        let pack = self.pack_class(&engine, req.shots, req.priority, req.cycle_limit);
        let mut st = self.lock_state();
        if matches!(st.phase, ServePhase::Draining | ServePhase::Shutdown) {
            return Err(JobError::NotAccepting);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.push(ActiveEntry {
            id,
            priority: req.priority,
            next_shot: 0,
            source_key: key,
            pack,
            packed: false,
            members: vec![MemberJob {
                id,
                shots: req.shots,
                engine,
                claimed: 0,
                done: 0,
                lost: 0,
                cell: cell.clone(),
            }],
        });
        // Emit under the server lock (the trace ring is a leaf mutex) so
        // the accepted event always precedes any quantum a woken worker
        // claims for this job.
        let obs = &self.inner.obs;
        obs.accepted.inc();
        obs.scope
            .event(TraceKind::Accepted, 0, id, req.shots, req.priority.weight());
        if outcome.hit {
            obs.scope.event(TraceKind::CacheHit, 0, id, 0, 0);
        } else {
            obs.compile_us.record_micros(compile_wall);
            obs.scope.event(
                TraceKind::Compiled,
                0,
                id,
                compile_wall.as_micros() as u64,
                0,
            );
        }
        drop(st);
        self.inner.work.notify_all();
        Ok(JobHandle {
            server: self.clone(),
            cell,
            id,
        })
    }

    /// Classifies a submission for the packer: `None` when packing is
    /// off or the job is not a candidate (too many shots, a span beyond
    /// the pack cap, or priority-dependent blocks — which
    /// [`multiprogramming::pack`] would flatten). The class key hashes
    /// everything the compatibility predicate requires: digest-equal
    /// configs, equal cycle limits and priorities, and equal shot
    /// counts. Base seeds and factories may differ freely — each member
    /// runs through its own engine.
    fn pack_class(
        &self,
        engine: &ShotEngine,
        shots: u64,
        priority: Priority,
        cycle_limit: u64,
    ) -> Option<PackClass> {
        let pc = self.inner.cfg.packer.as_ref()?;
        if shots > pc.max_member_shots {
            return None;
        }
        let job = engine.job();
        if job.has_priority_blocks() {
            return None;
        }
        let span = job.qubit_span();
        if span > Self::pack_span_cap(pc, job.cfg()) {
            return None;
        }
        let cfg_digest = job.cfg().content_digest();
        let priority_code: u32 = match priority {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        };
        let mut h = Fnv64::new();
        h.write_u64(cfg_digest)
            .write_u64(cycle_limit)
            .write_u32(priority_code)
            .write_u64(shots);
        Some(PackClass {
            key: h.finish(),
            cfg_digest,
            span,
        })
    }

    /// The effective packed-span cap: the configured cap, clipped to
    /// the ISA qubit space and to the config's allocated qubit count
    /// (the combined program must still compile against the members'
    /// shared config).
    fn pack_span_cap(pc: &PackerConfig, cfg: &QuapeConfig) -> u16 {
        pc.max_pack_qubits
            .min(quape_isa::MAX_QUBITS as u16)
            .min(cfg.num_qubits.unwrap_or(quape_isa::MAX_QUBITS as u16))
    }

    /// Finalizes one member (no claimed quantum of its still executing):
    /// finishes the fold of its *contiguous completed prefix*, publishes
    /// the [`JobResult`] to the cell and wakes waiters. Caller has
    /// removed the member from its entry; the returned result goes on
    /// to the finish hook.
    ///
    /// Uncancelled members always land a gapless `0..shots`; a panicked
    /// quantum leaves a gap (and cancels the member), so the fold stops
    /// at the gap to keep the prefix-consistency guarantee.
    fn finalize_member(obs: &ServerObs, member: &MemberJob, rank: u64) -> JobResult {
        let flagged = member.cancelled();
        let mut inner = member.cell.inner.lock().expect("job cell lock poisoned");
        // The result answers every later reader, and handles may outlive
        // the job by far: the cell keeps no fold past this point.
        debug_assert!(
            flagged || inner.pending.is_empty(),
            "an uncancelled job's claimed quanta must form a contiguous prefix"
        );
        let aggregate = std::mem::take(&mut inner.prefix).finish(member.cell.base_seed);
        inner.pending.clear();
        let executed = aggregate.shots;
        let result = JobResult {
            id: member.id,
            name: member.cell.name.clone(),
            shots: executed,
            shots_requested: member.cell.shots_requested,
            // A cancel that raced the last quantum changed nothing: a
            // job that executed everything it asked for is not
            // cancelled, whatever the flag says.
            cancelled: flagged && executed < member.cell.shots_requested,
            priority: member.cell.priority,
            cache_hit: member.cell.cache_hit,
            compile_wall: member.cell.compile_wall,
            latency: member.cell.submitted_at.elapsed(),
            completion_rank: rank,
            aggregate,
        };
        // Count before publishing, so a waiter sees its job counted.
        obs.latency_us.record_micros(result.latency);
        if result.cancelled {
            obs.cancelled.inc();
            obs.scope.event(
                TraceKind::Cancelled,
                0,
                result.id,
                result.shots,
                result.shots_requested,
            );
        } else {
            obs.finalized.inc();
            obs.scope.event(
                TraceKind::Finalized,
                0,
                result.id,
                result.shots,
                result.shots_requested,
            );
        }
        inner.result = Some(result.clone());
        member.cell.cond.notify_all();
        drop(inner);
        result
    }

    /// Removes the entry at `index`, keeping the round-robin cursor
    /// pointing at the same next entry.
    fn remove_entry(st: &mut SchedState, index: usize) -> ActiveEntry {
        let entry = st.jobs.remove(index);
        if index < st.cursor {
            st.cursor -= 1;
        }
        if st.cursor >= st.jobs.len() {
            st.cursor = 0;
        }
        entry
    }

    /// Removes one member from the entry at `entry_index` (removing the
    /// entry too once its last member leaves) and returns the member.
    fn remove_member(st: &mut SchedState, entry_index: usize, member_index: usize) -> MemberJob {
        let member = st.jobs[entry_index].members.remove(member_index);
        if st.jobs[entry_index].members.is_empty() {
            let _ = Self::remove_entry(st, entry_index);
        }
        member
    }

    /// Finalizes one member under the server lock, removing it from
    /// the entry at `entry_index` (and the entry with its last member).
    /// Finishing a fold costs O(qubits + distinct values) however many
    /// shots landed, so no finalize needs to leave the lock. The result
    /// waits in `hook_pending` until the caller, off the lock, calls
    /// [`flush_finish_hooks`](JobServer::flush_finish_hooks).
    fn finalize_and_remove(
        obs: &ServerObs,
        st: &mut SchedState,
        entry_index: usize,
        member_index: usize,
    ) {
        let rank = st.completed;
        st.completed += 1;
        let member = Self::remove_member(st, entry_index, member_index);
        st.hook_pending
            .push(Self::finalize_member(obs, &member, rank));
    }

    /// Reaps quiescent cancelled members, then claims the next shot
    /// quantum in priority-weighted round-robin order: the first entry
    /// at or after the cursor with claimable shots yields
    /// `shot_quantum × weight` packed shot indices — one
    /// [`ClaimUnit`] per live member that still wants them — and the
    /// cursor moves past it. Claims name entries and members by id,
    /// never by position — positions shift as finished work is removed.
    fn reap_and_claim(cfg: &ServerConfig, obs: &ServerObs, st: &mut SchedState) -> Option<Claim> {
        // A cancelled member with nothing in flight gets no more
        // complete() calls — finalize it here so it cannot linger.
        while let Some((ei, mi)) = st.jobs.iter().enumerate().find_map(|(ei, e)| {
            e.members
                .iter()
                .position(|m| m.cancelled() && m.quiescent())
                .map(|mi| (ei, mi))
        }) {
            Self::finalize_and_remove(obs, st, ei, mi);
        }
        if st.phase == ServePhase::Shutdown {
            return None;
        }
        let n = st.jobs.len();
        if n == 0 {
            return None;
        }
        for k in 0..n {
            let i = (st.cursor + k) % n;
            let entry = &mut st.jobs[i];
            let Some(live_end) = entry.live_end() else {
                continue;
            };
            let quantum = cfg.shot_quantum.max(1) * entry.priority.weight();
            let start = entry.next_shot;
            let end = (start + quantum).min(live_end);
            entry.next_shot = end;
            let mut units = Vec::with_capacity(entry.members.len());
            for m in entry.members.iter_mut() {
                if m.cancelled() || m.claimed >= m.shots {
                    continue;
                }
                // A live member's claimed prefix tracks the entry's
                // stream (clipped to its own shot count), so its next
                // range always starts at `claimed`.
                let mend = end.min(m.shots);
                if mend > m.claimed {
                    units.push(ClaimUnit {
                        member: m.id,
                        engine: m.engine.clone(),
                        range: m.claimed..mend,
                    });
                    m.claimed = mend;
                }
            }
            debug_assert!(
                !units.is_empty(),
                "an entry with a live_end always has a member wanting shots"
            );
            let id = entry.id;
            st.cursor = (i + 1) % n;
            return Some(Claim { entry: id, units });
        }
        None
    }

    /// Lands the folds of one claimed quantum's finished member ranges
    /// in their members' cells; finalizes every member whose last
    /// expected shot landed (all requested shots, or all claimed shots
    /// of a cancelled member).
    fn complete(&self, entry_id: u64, batches: Vec<(u64, Range<u64>, ShotAccumulator)>) {
        let mut st = self.lock_state();
        let entry_index = st
            .jobs
            .iter()
            .position(|e| e.id == entry_id)
            .expect("an entry with claimed shots outstanding is never removed");
        let mut to_finalize = Vec::new();
        {
            let entry = &mut st.jobs[entry_index];
            for (member_id, shots, acc) in batches {
                let mi = entry
                    .members
                    .iter()
                    .position(|m| m.id == member_id)
                    .expect("a member with claimed shots outstanding is never removed");
                let m = &mut entry.members[mi];
                m.done += shots.end - shots.start;
                m.cell
                    .inner
                    .lock()
                    .expect("job cell lock poisoned")
                    .land(shots, acc);
                if m.finished() {
                    to_finalize.push(mi);
                }
            }
        }
        // Members in ascending index order: each removal shifts the
        // later ones down by one, and completion ranks follow member order.
        let finalized = !to_finalize.is_empty();
        for (removed, mi) in to_finalize.into_iter().enumerate() {
            Self::finalize_and_remove(&self.inner.obs, &mut st, entry_index, mi - removed);
        }
        drop(st);
        if finalized {
            self.flush_finish_hooks();
        }
        // Progress may unblock a drain (job finished) or another claim.
        self.inner.work.notify_all();
    }

    /// Records a claimed member range whose execution panicked: its
    /// shots will never land, so the member is cancelled (the gap
    /// makes further shots meaningless) and finalized as a prefix
    /// partial once quiescent. Other members of the same entry are
    /// untouched.
    fn fail_member(&self, entry_id: u64, member_id: u64, shots: u64) {
        let mut st = self.lock_state();
        let entry_index = st
            .jobs
            .iter()
            .position(|e| e.id == entry_id)
            .expect("an entry with claimed shots outstanding is never removed");
        let entry = &mut st.jobs[entry_index];
        let mi = entry
            .members
            .iter()
            .position(|m| m.id == member_id)
            .expect("a member with claimed shots outstanding is never removed");
        let m = &mut entry.members[mi];
        m.lost += shots;
        m.cell.cancelled.store(true, Ordering::Relaxed);
        if m.quiescent() {
            Self::finalize_and_remove(&self.inner.obs, &mut st, entry_index, mi);
        }
        drop(st);
        self.flush_finish_hooks();
        self.inner.work.notify_all();
    }

    /// Runs one claimed quantum — every member's shot range — isolating
    /// panics from user-supplied factories/backends per member: a
    /// panicking range fails its member (cancelled, prefix-consistent
    /// partial) without touching the other members of the pack or
    /// hanging the drain. The claim runs on the worker's own
    /// [`WorkerScratch`], which the worker keeps for its whole life: the
    /// next claim of the same compiled job (one compile-cache entry)
    /// reuses its prepared lowered runner. A feedback-free job's replay
    /// trace lives on the cached artifact itself, so a cache hit replays
    /// from its first shot on any worker. After an unwind the scratch
    /// is reset, since it may hold mid-shot state.
    fn execute_claim(&self, worker: u32, claim: Claim, scratch: &mut WorkerScratch) {
        let mut batches = Vec::with_capacity(claim.units.len());
        for unit in claim.units {
            let shots = unit.range.end - unit.range.start;
            let started = Instant::now();
            let batch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut acc = ShotAccumulator::default();
                for shot in unit.range.clone() {
                    unit.engine.run_shot_reusing(shot, scratch, &mut acc);
                }
                acc
            }));
            match batch {
                Ok(acc) => {
                    let obs = &self.inner.obs;
                    obs.quanta.inc();
                    obs.quantum_us.record_micros(started.elapsed());
                    obs.scope.span(
                        TraceKind::Quantum,
                        worker,
                        unit.member,
                        unit.range.start,
                        unit.range.end,
                        started,
                    );
                    batches.push((unit.member, unit.range, acc));
                }
                Err(_) => {
                    // The scratch may hold arbitrary mid-shot state
                    // after an unwind; start the next member fresh.
                    *scratch = WorkerScratch::default();
                    self.fail_member(claim.entry, unit.member, shots);
                }
            }
        }
        if !batches.is_empty() {
            self.complete(claim.entry, batches);
        }
    }

    /// Cooperative cancellation (see [`JobHandle::cancel`]).
    fn cancel_job(&self, id: u64, cell: &Arc<JobCell>) {
        let mut st = self.lock_state();
        let Some((entry_index, member_index)) = st
            .jobs
            .iter()
            .enumerate()
            .find_map(|(ei, e)| e.members.iter().position(|m| m.id == id).map(|mi| (ei, mi)))
        else {
            // Not queued: either already finished (cancelling is a
            // no-op — the flag stays clear so progress() keeps agreeing
            // with the result) or inside a pack formation. The cell
            // knows which: no published result means the job is still
            // live somewhere, so the flag must stick — the packer
            // re-inserts the member with the flag already set and the
            // claim path skips it.
            let unfinished = cell
                .inner
                .lock()
                .expect("job cell lock poisoned")
                .result
                .is_none();
            if unfinished {
                cell.cancelled.store(true, Ordering::Relaxed);
            }
            drop(st);
            self.inner.work.notify_all();
            return;
        };
        // Set the flag under the server lock so no claim can start a new
        // quantum after cancel() returns.
        cell.cancelled.store(true, Ordering::Relaxed);
        if st.jobs[entry_index].members[member_index].quiescent() {
            // Nothing in flight: finalize right here.
            Self::finalize_and_remove(&self.inner.obs, &mut st, entry_index, member_index);
        }
        drop(st);
        self.flush_finish_hooks();
        self.inner.work.notify_all();
    }

    /// Scans the queue for a group of ≥ 2 packable entries (same
    /// [`PackClass`], nobody started, nobody cancelled, combined span
    /// within the cap) in queue order. On a hit the group's entries are
    /// *removed* from the queue and the `forming` counter is bumped —
    /// the caller owns them and **must** call
    /// [`form_pack`](JobServer::form_pack), which either re-inserts a
    /// packed entry or puts the solos back.
    fn scan_pack_group(&self, st: &mut SchedState) -> Option<Vec<ActiveEntry>> {
        let pc = self.inner.cfg.packer.as_ref()?;
        if pc.max_members < 2 || st.phase == ServePhase::Shutdown {
            return None;
        }
        struct Group {
            class: PackClass,
            indices: Vec<usize>,
            span: u16,
            cap: u16,
        }
        let mut groups: Vec<Group> = Vec::new();
        for (i, e) in st.jobs.iter().enumerate() {
            let Some(class) = e.pack else { continue };
            if e.next_shot != 0 || e.packed || e.members.len() != 1 || e.members[0].cancelled() {
                continue;
            }
            // Compare the config digest outright, not just the hashed
            // class key: a key collision must never merge jobs with
            // different machine configs.
            let slot = groups
                .iter_mut()
                .find(|g| g.class.key == class.key && g.class.cfg_digest == class.cfg_digest);
            match slot {
                Some(g) => {
                    if g.indices.len() < pc.max_members && g.span + class.span <= g.cap {
                        g.indices.push(i);
                        g.span += class.span;
                    }
                }
                None => groups.push(Group {
                    class,
                    indices: vec![i],
                    span: class.span,
                    // Every group member shares the config (digest
                    // checked above), so the cap is fixed at creation.
                    cap: Self::pack_span_cap(pc, e.members[0].engine.job().cfg()),
                }),
            }
        }
        let indices = groups.into_iter().find(|g| g.indices.len() >= 2)?.indices;
        let mut entries = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            entries.push(Self::remove_entry(st, i));
        }
        entries.reverse();
        st.forming += 1;
        Some(entries)
    }

    /// Combines a scanned group into one packed entry: relocates the
    /// member programs into disjoint qubit regions
    /// ([`multiprogramming::combine`]), compiles the combined program
    /// through the compile cache (recurring pack shapes are cache-warm —
    /// keyed by the member compile keys, so a warm formation skips the
    /// combine entirely), and re-queues a single [`ActiveEntry`] whose
    /// members share the claim stream. On any failure the solo entries
    /// go back verbatim — with their pack class cleared so the same
    /// doomed group is never scanned again.
    ///
    /// Runs with the server lock **released** (combining + compiling is
    /// the expensive part); the `forming` counter taken by the scan
    /// keeps drains honest while the entries are off the queue.
    fn form_pack(&self, worker: u32, entries: Vec<ActiveEntry>) {
        debug_assert!(entries.len() >= 2);
        // Pack cache key: hash of the member compile keys in claim
        // order. Each member key already pins (source, config) — and the
        // combined program is a pure function of the member programs in
        // order — so a repeated group shape resolves to a warm cache
        // slot *without* re-running the relocation or digesting the
        // combined program. Tag 3 keeps pack keys disjoint from the
        // text(1)/program(2) key spaces of `JobSource::cache_key`.
        let mut hi = Fnv64::new();
        let mut lo = Fnv64::new();
        hi.write_u32(3);
        lo.write_u32(!3u32);
        for e in &entries {
            hi.write_u64((e.source_key >> 64) as u64);
            lo.write_u64(e.source_key as u64);
        }
        let key = (u128::from(hi.finish()) << 64) | u128::from(lo.finish());
        let cfg = entries[0].members[0].engine.job().cfg().clone();
        let outcome = self
            .inner
            .cache
            .get_or_compile(key, None, || {
                let programs: Vec<_> = entries
                    .iter()
                    .map(|e| e.members[0].engine.job().program().clone())
                    .collect();
                let combined = multiprogramming::combine(&programs)
                    .map_err(|e| JobError::Compile(MachineError::Config(e.to_string())))?;
                JobSource::Program(combined).compile(cfg)
            })
            .map_err(|_| ());
        let mut st = self.lock_state();
        st.forming -= 1;
        match outcome {
            Ok(outcome) => {
                let id = st.next_id;
                st.next_id += 1;
                let obs = &self.inner.obs;
                obs.packs.inc();
                obs.jobs_packed.add(entries.len() as u64);
                obs.packed_shots
                    .add(entries.iter().map(|e| e.members[0].shots).sum());
                if outcome.hit {
                    obs.combine_cache_hits.inc();
                }
                // All members share one pack class, hence one priority.
                let priority = entries[0].priority;
                let members: Vec<MemberJob> = entries
                    .into_iter()
                    .map(|mut e| e.members.pop().expect("scanned entries are solos"))
                    .collect();
                // Emit under the re-insert lock so every member's packed
                // event precedes any quantum claimed from the new entry.
                for m in &members {
                    obs.scope
                        .event(TraceKind::Packed, worker, m.id, id, members.len() as u64);
                }
                st.jobs.push(ActiveEntry {
                    id,
                    priority,
                    next_shot: 0,
                    source_key: key,
                    pack: None,
                    packed: true,
                    members,
                });
            }
            Err(_) => {
                self.inner.obs.pack_declined.inc();
                for mut e in entries {
                    e.pack = None;
                    st.jobs.push(e);
                }
            }
        }
        drop(st);
        self.inner.work.notify_all();
    }

    /// One scheduler turn: try to form a pack (packer enabled), else
    /// claim a quantum. Consumes the guard and does the work off-lock
    /// on success; hands the guard back untouched when nothing was
    /// claimable, so the caller can park on the condvar *atomically*
    /// with the failed check (no lost wakeups).
    #[allow(clippy::result_large_err)]
    fn try_pack_then_claim<'a>(
        &self,
        worker: u32,
        scratch: &mut WorkerScratch,
        mut guard: MutexGuard<'a, SchedState>,
    ) -> Result<(), MutexGuard<'a, SchedState>> {
        if let Some(group) = self.scan_pack_group(&mut guard) {
            drop(guard);
            self.flush_finish_hooks();
            self.form_pack(worker, group);
            return Ok(());
        }
        let Some(claim) = Self::reap_and_claim(&self.inner.cfg, &self.inner.obs, &mut guard) else {
            return Err(guard);
        };
        drop(guard);
        // The claim-path reap finalizes under the lock; surface those
        // completions before (and after) the quantum runs.
        self.flush_finish_hooks();
        self.execute_claim(worker, claim, scratch);
        Ok(())
    }

    /// Batch worker: claim until the queue has nothing claimable, then
    /// exit (the [`run`](JobServer::run) drain).
    fn worker_loop(&self, worker: u32) {
        let mut scratch = WorkerScratch::new();
        loop {
            match self.try_pack_then_claim(worker, &mut scratch, self.lock_state()) {
                Ok(()) => {}
                Err(guard) => {
                    drop(guard);
                    // The reap may have finalized under the lock.
                    self.flush_finish_hooks();
                    break;
                }
            }
        }
    }

    /// Streaming worker: park on the condvar when idle; exit on
    /// shutdown, or when draining finds the queue empty.
    fn serving_loop(&self, worker: u32) {
        let mut scratch = WorkerScratch::new();
        let mut st = self.lock_state();
        loop {
            match self.try_pack_then_claim(worker, &mut scratch, st) {
                Ok(()) => {
                    st = self.lock_state();
                    continue;
                }
                Err(guard) => st = guard,
            }
            if !st.hook_pending.is_empty() {
                // Never park with unfired completion hooks: the reap
                // above finalizes under the lock, and an admission layer
                // upstream is waiting on exactly these notifications.
                drop(st);
                self.flush_finish_hooks();
                st = self.lock_state();
                continue;
            }
            match st.phase {
                ServePhase::Shutdown => break,
                ServePhase::Draining if st.jobs.is_empty() && st.forming == 0 => break,
                _ => {
                    st = self.inner.work.wait(st).expect("server lock poisoned");
                }
            }
        }
        drop(st);
        self.flush_finish_hooks();
    }

    /// Runs queued jobs to completion on a scoped worker pool and
    /// returns the results of the jobs that were queued when it was
    /// called, ordered by job id. A job that finished before the call
    /// (one cancelled while queued, say) is not among them; its handle
    /// holds its result.
    ///
    /// The server stays usable afterwards: the compile cache persists
    /// (later identical submissions are cache-warm) and new jobs may be
    /// submitted and run again. A job submitted concurrently with a
    /// `run()` may be missed by it — it stays queued, is never lost, and
    /// completes on the next `run()`. For continuous serving use
    /// [`JobServer::serve`] instead.
    #[must_use = "without the returned results, read each job's outcome from its handle"]
    pub fn run(&self) -> Vec<JobResult> {
        let queued: Vec<Arc<JobCell>> = self
            .lock_state()
            .jobs
            .iter()
            .flat_map(|e| e.members.iter().map(|m| Arc::clone(&m.cell)))
            .collect();
        let threads = self.effective_threads();
        if threads == 1 {
            // Batch mode on the caller thread doubles as the control
            // plane: trace tid 0.
            self.worker_loop(0);
        } else {
            std::thread::scope(|scope| {
                for w in 0..threads {
                    scope.spawn(move || self.worker_loop(w as u32 + 1));
                }
            });
        }
        let mut st = self.lock_state();
        st.cursor = 0;
        if st.jobs.is_empty() {
            st.completed = 0;
        }
        drop(st);
        let mut results: Vec<JobResult> = queued
            .iter()
            .filter_map(|cell| {
                let inner = cell.inner.lock().expect("job cell lock poisoned");
                inner.result.clone()
            })
            .collect();
        results.sort_unstable_by_key(|r| r.id);
        results
    }
}

/// A [`JobServer`] with a live worker pool (from [`JobServer::serve`]).
///
/// Jobs submitted through [`submit`](ServingServer::submit) start
/// executing immediately. End the session with
/// [`drain`](ServingServer::drain) (finish everything accepted) or
/// [`shutdown`](ServingServer::shutdown) (stop claiming, finalize
/// partials); dropping the handle shuts down implicitly.
pub struct ServingServer {
    server: JobServer,
    workers: Vec<std::thread::JoinHandle<()>>,
    stopped: bool,
}

impl ServingServer {
    /// Submits a job to the live pool (see [`JobServer::submit`]).
    ///
    /// # Errors
    ///
    /// As [`JobServer::submit`].
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, JobError> {
        self.server.submit(req)
    }

    /// The underlying server (clone it to submit from other threads, or
    /// to read cache/tenant stats).
    pub fn server(&self) -> &JobServer {
        &self.server
    }

    /// Stops accepting new jobs, runs everything accepted so far to
    /// completion and joins the workers. Every job's result is then in
    /// its [`JobHandle`] (cancelled jobs with their prefix-consistent
    /// partial aggregates); the server keeps no copy. The underlying
    /// server is terminal afterwards: later submissions fail with
    /// [`JobError::NotAccepting`].
    ///
    /// # Errors
    ///
    /// [`JobError::WorkerPanicked`] when a serving worker thread
    /// panicked (a server bug, not a job failure — panicking *jobs* are
    /// isolated per quantum and reported as cancelled partials).
    pub fn drain(mut self) -> Result<(), JobError> {
        self.stop(ServePhase::Draining)
    }

    /// Stops accepting new jobs *and* claiming new shot quanta:
    /// in-flight quanta finish, the workers exit, and every unfinished
    /// job finalizes as a cancelled partial (prefix-consistent), read
    /// from its [`JobHandle`].
    ///
    /// # Errors
    ///
    /// [`JobError::WorkerPanicked`], as [`drain`](ServingServer::drain).
    pub fn shutdown(mut self) -> Result<(), JobError> {
        self.stop(ServePhase::Shutdown)
    }

    /// Signals the end of the session *without blocking*: from this call
    /// on, submissions are rejected — but the workers are not yet
    /// joined. Follow with [`drain`](ServingServer::drain). A fleet
    /// front-end signals every shard first so the whole fleet stops
    /// accepting at once instead of shard-by-shard.
    pub fn begin_drain(&self) {
        self.signal(ServePhase::Draining);
    }

    /// Signals shutdown *without blocking*: from this call on,
    /// submissions are rejected and no new shot quanta are claimed —
    /// but the workers are not yet joined. Follow with
    /// [`shutdown`](ServingServer::shutdown).
    pub fn begin_shutdown(&self) {
        self.signal(ServePhase::Shutdown);
    }

    fn signal(&self, phase: ServePhase) {
        let mut st = self.server.lock_state();
        // Escalate only: a `begin_shutdown()` followed by `drain()` must
        // not downgrade Shutdown back to Draining (which would claim to
        // complete jobs whose quanta are no longer being claimed).
        if st.phase != ServePhase::Shutdown {
            st.phase = phase;
        }
        drop(st);
        self.server.inner.work.notify_all();
    }

    fn stop(&mut self, phase: ServePhase) -> Result<(), JobError> {
        self.stopped = true;
        self.signal(phase);
        let mut worker_panicked = false;
        // A finish hook may drop the last owner on a worker thread (a
        // router's hook can hold the final reference). That worker cannot
        // join itself; it leaves its loop on its own once the hook
        // returns and it sees the stop phase.
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != me {
                worker_panicked |= w.join().is_err();
            }
        }
        let mut st = self.server.lock_state();
        // After the join no claimed quantum is still executing, so any
        // member still queued (the shutdown path; after a drain only if
        // a worker died) finalizes as a cancelled prefix partial.
        while let Some(entry_index) = st.jobs.len().checked_sub(1) {
            let member_index = st.jobs[entry_index].members.len() - 1;
            let member = &st.jobs[entry_index].members[member_index];
            member.cell.cancelled.store(true, Ordering::Relaxed);
            debug_assert!(worker_panicked || member.quiescent());
            JobServer::finalize_and_remove(
                &self.server.inner.obs,
                &mut st,
                entry_index,
                member_index,
            );
        }
        // The phase stays Draining/Shutdown: a stopped serving session is
        // terminal, later submissions get `NotAccepting` deterministically.
        st.cursor = 0;
        st.completed = 0;
        drop(st);
        self.server.flush_finish_hooks();
        // Surface worker panics as an error-carrying result instead of
        // panicking the caller; the Drop path discards it (a second
        // panic while unwinding would abort the process and mask the
        // original message).
        if worker_panicked {
            return Err(JobError::WorkerPanicked);
        }
        Ok(())
    }
}

impl Drop for ServingServer {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.stop(ServePhase::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_qpu::{BehavioralQpuFactory, MeasurementModel};

    #[test]
    fn priority_weights_are_monotonic() {
        assert!(Priority::Low.weight() < Priority::Normal.weight());
        assert!(Priority::Normal.weight() < Priority::High.weight());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn text_and_program_sources_key_disjointly() {
        let cfg = QuapeConfig::superscalar(4);
        let text = "0 H q0\nSTOP\n".to_string();
        let program = quape_isa::assemble(&text).unwrap();
        let a = JobSource::Text(text.clone()).cache_key(&cfg);
        let b = JobSource::Program(program).cache_key(&cfg);
        assert_ne!(a, b);
        // Same text, different config → different key.
        let c = JobSource::Text(text).cache_key(&QuapeConfig::superscalar(8));
        assert_ne!(a, c);
    }

    /// Behavioural backends, except that the backend for shot seed
    /// `stall_seed` is handed out only once `released` is set: the
    /// worker running that shot stalls until then.
    struct StallingFactory {
        stall_seed: u64,
        released: Arc<(Mutex<bool>, Condvar)>,
        inner: BehavioralQpuFactory,
    }

    impl QpuFactory for StallingFactory {
        fn create(&self, seed: u64) -> Box<dyn quape_core::QpuBackend> {
            if seed == self.stall_seed {
                let (lock, cond) = &*self.released;
                let released = lock.lock().expect("release lock poisoned");
                drop(cond.wait_while(released, |r| !*r));
            }
            QpuFactory::create(&self.inner, seed)
        }
    }

    /// A job cell holds one prefix fold plus at most one run of landed
    /// quanta per quantum in flight, so its state is O(quanta in flight +
    /// distinct values) however many shots land; and every partial
    /// polled mid-run is the aggregate of a solo run's first shots.
    #[test]
    fn a_job_cell_holds_state_per_quantum_in_flight_not_per_shot() {
        const SHOTS: u64 = 4000;
        const WORKERS: usize = 2;
        let cfg = QuapeConfig::superscalar(4);
        let program = quape_isa::assemble("0 H q0\n2 MEAS q0\n0 MEAS q1\nSTOP\n").unwrap();
        let coin =
            || BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let released = Arc::new((Mutex::new(false), Condvar::new()));
        let factory = StallingFactory {
            stall_seed: quape_core::shot_seed(5, 0),
            released: Arc::clone(&released),
            inner: coin(),
        };
        let serving = JobServer::serve(ServerConfig {
            threads: WORKERS,
            shot_quantum: 2,
            ..Default::default()
        });
        let source = JobSource::Program(program.clone());
        let request = JobRequest::new("long", source, cfg.clone(), factory, SHOTS).base_seed(5);
        let handle = serving.submit(request).unwrap();
        let cell_state = || {
            let inner = handle.cell.inner.lock().unwrap();
            let behind: u64 = inner
                .pending
                .iter()
                .map(|(start, (end, _))| end - start)
                .sum();
            (inner.pending.len(), inner.prefix_end, behind)
        };

        // Shot 0 stalls its worker, so the other lands quantum after
        // quantum behind the gap: one run of them, and an empty prefix.
        while handle.progress().shots_done < SHOTS / 10 {
            std::thread::sleep(Duration::from_micros(200));
        }
        let (runs, prefix_end, behind) = cell_state();
        let stalled_partial = handle.partial_aggregate();
        // Release before asserting: a failed assertion must not leave the
        // stalled worker for the server's shutdown to wait on forever.
        *released.0.lock().unwrap() = true;
        released.1.notify_all();
        assert_eq!((runs, prefix_end), (1, 0));
        assert!(behind >= SHOTS / 10);
        assert_eq!(stalled_partial.shots, 0);

        // Released, the job runs on: every gap is a quantum in flight.
        let mut partials = Vec::new();
        while !handle.is_finished() {
            let (runs, ..) = cell_state();
            assert!(
                runs <= WORKERS,
                "{runs} runs pending with {WORKERS} workers"
            );
            partials.push(handle.partial_aggregate());
            std::thread::sleep(Duration::from_micros(200));
        }
        let result = handle.wait();
        assert_eq!(result.shots, SHOTS);
        assert!(cell_state().0 == 0);

        // Every partial, and the result, is a prefix of the solo run.
        partials.push(result.aggregate);
        let solo = ShotEngine::new(CompiledJob::compile(cfg.clone(), program).unwrap(), coin())
            .base_seed(5);
        let mut scratch = WorkerScratch::new();
        let mut acc = ShotAccumulator::default();
        let mut shot = 0;
        for partial in &partials {
            while shot < partial.shots {
                solo.run_shot_reusing(shot, &mut scratch, &mut acc);
                shot += 1;
            }
            assert_eq!(partial, &acc.finish(5), "partial of {shot} shots");
        }
        serving.drain().unwrap();
    }
}
