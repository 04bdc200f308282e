//! The fault-tolerant fleet: capability-aware placement, shard failure
//! injection with re-routing, planned retirement, and work stealing.
//!
//! The router keeps a **fleet-level job registry** above the per-shard
//! servers: every accepted submission gets a fleet id, a cloned
//! [`JobRequest`] snapshot, and a [`FleetHandle`] that survives
//! re-routing. When a shard dies ([`Router::kill_shard`], driven by a
//! test-facing [`FaultPlan`]) or retires ([`Router::retire_shard`]),
//! non-terminal jobs are re-submitted from their snapshots to a
//! surviving capable shard — re-running from shot 0, which by the
//! engine's determinism yields an aggregate **bit-identical** to the
//! zero-failure run. First placement, re-routing and stealing land a
//! job through one path with a fixed retry budget (`MAX_ATTEMPTS`
//! submits, a `BACKOFF` that doubles between them); a moved job turns
//! terminal [`JobError::ShardLost`] when no capable shard remains or its
//! budget runs out.
//!
//! Lock order: `fleet` (shard table) → `jobs` (registry); per-shard
//! server locks are strictly below both and are never held while either
//! is taken. Shard finish hooks call back into the registry with no
//! server locks held (see [`quape_server::JobServer::set_finish_hook`]).

use crate::profile::{JobRequirements, ShardProfile};
use crate::snapshot::{FleetSnapshot, ShardSnapshot, TenantStatsRow};
use quape_core::{BatchAggregate, MachineDescription, ShotAccumulator};
use quape_obs::{ObsScope, Recorder, TraceKind};
use quape_server::{
    CacheStats, JobError, JobHandle, JobProgress, JobRequest, JobResult, JobServer, KeyedRequest,
    ServerConfig, ServingServer,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread;
use std::time::Duration;

/// How the router picks a shard for an incoming job, **after** the
/// capability filter has reduced the fleet to the capable candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Cyclic assignment over the capable candidates, ignoring load and
    /// content. The fairest baseline — and the cache-worst-case: every
    /// shard eventually compiles every program.
    #[default]
    RoundRobin,
    /// The capable shard with the smallest backlog of unexecuted shots
    /// ([`JobServer::backlog_shots`]); ties go to the lowest index.
    LeastLoadedShots,
    /// The capable shard determined by the request's compile-cache key
    /// ([`quape_server::JobSource::cache_key`]): resubmissions of the
    /// same program/config always land on the shard whose cache is
    /// already warm, partitioning the program set across the fleet.
    StickyByDigest,
}

/// Shard submits a job gets: a new job's retries after a shard refused
/// it ([`JobError::NotAccepting`], returned to the submitter once spent),
/// and a moved job's re-routes over its whole life (so a job bouncing
/// between dying shards ends [`JobError::ShardLost`]).
const MAX_ATTEMPTS: u32 = 4;

/// Base backoff after a refused submit; the wait after attempt `n` is
/// `BACKOFF << n`.
const BACKOFF: Duration = Duration::from_millis(1);

/// Background work-stealing configuration (see [`Router::steal_once`]).
#[derive(Debug, Clone, Copy)]
pub struct StealConfig {
    /// How often the stealer thread scans the fleet.
    pub interval: Duration,
    /// Minimum victim backlog (in shots) before stealing kicks in.
    pub min_backlog_shots: u64,
}

impl Default for StealConfig {
    fn default() -> Self {
        StealConfig {
            interval: Duration::from_millis(1),
            min_backlog_shots: 1,
        }
    }
}

/// Fleet sizing, placement policy and fault-tolerance knobs of a
/// [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of shards (min 1), each a full [`JobServer`] with its own
    /// compile cache and worker pool.
    pub shards: usize,
    /// The placement policy.
    pub placement: Placement,
    /// Per-shard worker-pool and cache sizing.
    pub shard: ServerConfig,
    /// Per-shard capability profiles, by shard index. Missing entries
    /// fall back to the shard's machine description
    /// ([`machines`](RouterConfig::machines), then the shared
    /// [`ServerConfig::machine`]), and finally to
    /// [`ShardProfile::unconstrained`].
    pub profiles: Vec<ShardProfile>,
    /// Per-shard machine descriptions, by shard index — the declarative
    /// way to stand up a heterogeneous fleet (one description per
    /// fridge, e.g. loaded from `machines/*.json` files). Each shard
    /// without an explicit profile derives one via
    /// [`ShardProfile::from_machine`]; missing entries fall back to the
    /// shared [`ServerConfig::machine`], then to unconstrained.
    pub machines: Vec<MachineDescription>,
    /// When set, a background thread steals whole queued jobs from the
    /// hottest backlog onto idle shards.
    pub steal: Option<StealConfig>,
    /// Trace/metrics recorder. The inert default ([`Recorder::off`])
    /// hands every shard a no-op scope; an enabled recorder collects
    /// per-shard scopes plus a fleet scope for placement, re-route,
    /// steal and admission events. Observation only — it never steers
    /// placement or scheduling.
    pub obs: Recorder,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            placement: Placement::default(),
            shard: ServerConfig::default(),
            profiles: Vec::new(),
            machines: Vec::new(),
            steal: None,
            obs: Recorder::off(),
        }
    }
}

impl RouterConfig {
    /// A heterogeneous fleet declared entirely by machine descriptions:
    /// one shard per description, each shard's capability profile
    /// derived from its description.
    pub fn heterogeneous(machines: Vec<MachineDescription>) -> Self {
        RouterConfig {
            shards: machines.len(),
            machines,
            ..RouterConfig::default()
        }
    }
}

/// A submitted job plus the shard it was first placed on.
#[must_use = "dropping the routed job loses the only way to wait on or cancel it"]
#[derive(Debug)]
pub struct RoutedJob {
    /// Index of the shard the job was initially placed on (re-routing
    /// may move it; [`FleetHandle::shard`] tracks the current owner).
    pub shard: usize,
    /// The fleet-level job handle (progress, partials, wait, cancel) —
    /// valid across re-routing.
    pub handle: FleetHandle,
}

/// A finished job plus its outcome: the shard that finally executed it
/// and either its result or the terminal error that ended it.
#[derive(Debug, Clone)]
pub struct RoutedResult {
    /// Index of the shard that last owned the job.
    pub shard: usize,
    /// The job's outcome. `Err(JobError::ShardLost)` marks a job whose
    /// shard died with no capable survivor to take it over.
    pub result: Result<JobResult, JobError>,
}

/// One shard's availability, as seen by placement and stealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Serving and placeable.
    Up,
    /// Draining after [`Router::retire_shard`]: finishes what it has,
    /// accepts nothing new, never a placement candidate.
    Retiring,
    /// Killed by [`Router::kill_shard`]: workers joined, jobs swept.
    Down,
}

impl ShardStatus {
    /// Lowercase name used in snapshots and tables.
    pub fn name(self) -> &'static str {
        match self {
            ShardStatus::Up => "up",
            ShardStatus::Retiring => "retiring",
            ShardStatus::Down => "down",
        }
    }
}

/// A test-facing failure schedule: kill shard `victim` once
/// `after_submits` jobs have been accepted. Drive it from the submit
/// loop with [`fire_if_due`](FaultPlan::fire_if_due).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The shard to kill.
    pub victim: usize,
    /// Fire after this many accepted submissions.
    pub after_submits: usize,
}

impl FaultPlan {
    /// Kills the victim iff `submitted` just reached the trigger point.
    /// Returns true when it fired.
    pub fn fire_if_due(&self, submitted: usize, router: &Router) -> bool {
        if submitted == self.after_submits {
            router.kill_shard(self.victim);
            true
        } else {
            false
        }
    }
}

/// Callback fired once per job when it turns terminal — with its fleet
/// id and final outcome, and with **no router or server locks held**
/// (an admission layer uses it to free budget and pump its queues).
pub type RouterFinishHook = Arc<dyn Fn(u64, &Result<JobResult, JobError>) + Send + Sync>;

struct Shard {
    serving: Option<ServingServer>,
    profile: ShardProfile,
    status: ShardStatus,
}

struct FleetState {
    shards: Vec<Shard>,
    /// Set by drain/shutdown before any shard is signalled: late
    /// cancelled partials then finalize as-is instead of re-routing.
    stopping: bool,
}

/// One routed job's registry entry: what its [`FleetHandle`] reports in
/// every phase, and the phase itself.
struct JobState {
    name: String,
    shots: u64,
    base_seed: u64,
    /// The shard owning the job (its last one, once terminal).
    shard: usize,
    phase: JobPhase,
}

/// Where a routed job stands.
enum JobPhase {
    /// Placed or being moved between shards.
    Live(LiveJob),
    /// Completed, cancelled or lost. Only the outcome is kept: a fleet
    /// that serves for long must not hold every served job's request (its
    /// source text may be 100 KB) or its shard handle.
    Terminal(Result<JobResult, JobError>),
}

/// What a live job needs to be re-routed, stolen or cancelled.
struct LiveJob {
    /// The request as submitted, with its cache key: the re-route
    /// source of truth.
    snapshot: KeyedRequest,
    requirements: JobRequirements,
    server_id: u64,
    handle: Option<JobHandle>,
    /// Re-route attempts over the job's life (see [`MAX_ATTEMPTS`]).
    attempts: u32,
    user_cancelled: bool,
    /// True while [`RouterInner::move_onto_shard`] owns the job — at
    /// most one mover at a time.
    moving: bool,
}

impl JobState {
    fn live(&self) -> Option<&LiveJob> {
        match &self.phase {
            JobPhase::Live(live) => Some(live),
            JobPhase::Terminal(_) => None,
        }
    }

    fn live_mut(&mut self) -> Option<&mut LiveJob> {
        match &mut self.phase {
            JobPhase::Live(live) => Some(live),
            JobPhase::Terminal(_) => None,
        }
    }

    fn terminal(&self) -> Option<&Result<JobResult, JobError>> {
        match &self.phase {
            JobPhase::Live(_) => None,
            JobPhase::Terminal(outcome) => Some(outcome),
        }
    }

    /// True while no move owns the job and it is not terminal: the state
    /// in which one may start moving it.
    fn movable(&self) -> bool {
        self.live().is_some_and(|live| !live.moving)
    }
}

#[derive(Default)]
struct JobTable {
    next_id: u64,
    jobs: HashMap<u64, JobState>,
    /// `(shard index, per-shard server id)` → fleet id, for routing a
    /// shard's finish-hook results back to the registry. Only live jobs
    /// are mapped.
    by_server: HashMap<(usize, u64), u64>,
}

impl JobTable {
    /// The live state of job `fleet_id`; `None` once it is terminal (a
    /// fleet stop may finish a job that is being moved).
    fn live_mut(&mut self, fleet_id: u64) -> Option<&mut LiveJob> {
        self.jobs.get_mut(&fleet_id).and_then(JobState::live_mut)
    }

    /// Registers a new job that just reached `shard`, as a job being
    /// moved there; [`land`](JobTable::land) then maps it. Returns its
    /// fleet id.
    fn register(&mut self, req: KeyedRequest, requirements: JobRequirements, shard: usize) -> u64 {
        let fleet_id = self.next_id;
        self.next_id += 1;
        let r = req.request();
        let job = JobState {
            name: r.name.clone(),
            shots: r.shots,
            base_seed: r.base_seed,
            shard,
            phase: JobPhase::Live(LiveJob {
                snapshot: req,
                requirements,
                server_id: 0,
                handle: None,
                attempts: 0,
                user_cancelled: false,
                moving: true,
            }),
        };
        self.jobs.insert(fleet_id, job);
        fleet_id
    }

    /// Starts moving job `fleet_id` off its shard: marks it moving, drops
    /// its handle and unmaps it. Returns its request, requirements and
    /// the shard it leaves, or `None` when it is terminal or another move
    /// already owns it.
    fn begin_move(&mut self, fleet_id: u64) -> Option<(KeyedRequest, JobRequirements, usize)> {
        let job = self.jobs.get_mut(&fleet_id).expect("registered job");
        let from = job.shard;
        let live = job.live_mut().filter(|live| !live.moving)?;
        live.moving = true;
        live.handle = None;
        let server_id = live.server_id;
        let moved = (live.snapshot.clone(), live.requirements, from);
        self.by_server.remove(&(from, server_id));
        Some(moved)
    }

    /// Lands a moving job on `shard` as server job `handle.id()`: maps it
    /// and ends the move. Returns whether the user cancelled it meanwhile,
    /// or `None` when it turned terminal during the move (nothing lands).
    fn land(&mut self, fleet_id: u64, shard: usize, handle: &JobHandle) -> Option<bool> {
        let job = self.jobs.get_mut(&fleet_id).expect("registered job");
        let live = job.live_mut()?;
        live.server_id = handle.id();
        live.handle = Some(handle.clone());
        live.moving = false;
        let user_cancelled = live.user_cancelled;
        job.shard = shard;
        self.by_server.insert((shard, handle.id()), fleet_id);
        Some(user_cancelled)
    }

    /// Makes job `fleet_id` terminal with `outcome` and unmaps it,
    /// returning its live state for the caller to drop once the table's
    /// lock is released (freeing a large request need not hold it).
    /// `None` (and no change) when the job already was terminal.
    #[must_use = "drop the retired state after releasing the lock"]
    fn finish(&mut self, fleet_id: u64, outcome: Result<JobResult, JobError>) -> Option<LiveJob> {
        let job = self.jobs.get_mut(&fleet_id).expect("registered job");
        job.live()?;
        let JobPhase::Live(live) = std::mem::replace(&mut job.phase, JobPhase::Terminal(outcome))
        else {
            unreachable!("checked live above");
        };
        let key = (job.shard, live.server_id);
        if self.by_server.get(&key) == Some(&fleet_id) {
            self.by_server.remove(&key);
        }
        Some(live)
    }
}

/// Fleet-scope telemetry handles, pre-registered at construction so the
/// placement/recovery paths never touch the registry mutex; each is
/// bumped before the job table shows the move it counts.
pub(crate) struct FleetObs {
    pub(crate) recorder: Recorder,
    /// Held for life: an untraced recorder hands out fresh registries.
    pub(crate) scope: ObsScope,
    placed: quape_obs::Counter,
    rerouted: quape_obs::Counter,
    stolen: quape_obs::Counter,
    recoveries: quape_obs::Counter,
    recoveries_failed: quape_obs::Counter,
}

impl FleetObs {
    fn new(recorder: Recorder) -> Self {
        let scope = recorder.fleet_scope();
        FleetObs {
            placed: scope.counter("router.jobs_placed"),
            rerouted: scope.counter("router.jobs_rerouted"),
            stolen: scope.counter("router.jobs_stolen"),
            recoveries: scope.counter("router.recoveries_begun"),
            recoveries_failed: scope.counter("router.recoveries_failed"),
            scope,
            recorder,
        }
    }
}

pub(crate) struct RouterInner {
    placement: Placement,
    rr: AtomicUsize,
    pub(crate) obs: FleetObs,
    /// Per-shard servers, immutable after construction (cheap `Arc`
    /// clones of each serving pool's server — valid even after the
    /// [`ServingServer`] itself is consumed by a kill or drain).
    servers: Vec<JobServer>,
    fleet: Mutex<FleetState>,
    jobs: Mutex<JobTable>,
    jobs_cond: Condvar,
    finish_hook: Mutex<Option<RouterFinishHook>>,
    steal_stop: Mutex<bool>,
    steal_cond: Condvar,
    #[cfg(test)]
    landing_hold: LandingHold,
}

/// A test hold point before a landing maps its job: while armed, the
/// landing waits until the shard has finalized the job and the shard's
/// finish hook has found no mapping for it, so a test reaches the
/// finished-before-mapped branch of `move_onto_shard` deterministically.
#[cfg(test)]
#[derive(Default)]
struct LandingHold {
    armed: std::sync::atomic::AtomicBool,
    /// Shard results whose finish hook found no mapped job.
    unmapped: AtomicUsize,
}

/// The fault-tolerant sharded front router. See the
/// [crate docs](crate).
pub struct Router {
    inner: Arc<RouterInner>,
    stealer: Option<thread::JoinHandle<()>>,
}

impl Router {
    /// Starts `cfg.shards` serving shards (their worker pools go live
    /// immediately). Each shard's profile resolves in precedence order:
    /// explicit `cfg.profiles[i]`, else derived from the machine
    /// description `cfg.machines[i]`, else from the shared
    /// `cfg.shard.machine`, else
    /// [`unconstrained`](ShardProfile::unconstrained). When `cfg.steal`
    /// is set, a background stealer thread starts too.
    pub fn new(cfg: RouterConfig) -> Self {
        let n = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        let mut servers = Vec::with_capacity(n);
        for i in 0..n {
            let profile = cfg.profiles.get(i).copied().unwrap_or_else(|| {
                cfg.machines
                    .get(i)
                    .or(cfg.shard.machine.as_ref())
                    .map(ShardProfile::from_machine)
                    .unwrap_or_default()
            });
            let mut shard_cfg = cfg.shard.clone();
            // Packed-span feasibility: a shard's packer must never form
            // a combined program wider than the shard's own fridge, so
            // its cap is clipped to the profile's packable span.
            if let Some(packer) = shard_cfg.packer.as_mut() {
                packer.max_pack_qubits = packer.max_pack_qubits.min(profile.pack_span_limit());
            }
            // Every shard records into its own scope of the shared
            // recorder (off scopes when observability is off).
            shard_cfg.obs = cfg.obs.scope(i as u32);
            let serving = JobServer::serve(shard_cfg);
            servers.push(serving.server().clone());
            shards.push(Shard {
                serving: Some(serving),
                profile,
                status: ShardStatus::Up,
            });
        }
        let inner = Arc::new(RouterInner {
            placement: cfg.placement,
            rr: AtomicUsize::new(0),
            obs: FleetObs::new(cfg.obs),
            servers,
            fleet: Mutex::new(FleetState {
                shards,
                stopping: false,
            }),
            jobs: Mutex::new(JobTable::default()),
            jobs_cond: Condvar::new(),
            finish_hook: Mutex::new(None),
            steal_stop: Mutex::new(false),
            steal_cond: Condvar::new(),
            #[cfg(test)]
            landing_hold: LandingHold::default(),
        });
        // Each shard reports completions straight into the registry.
        // The hook holds a Weak so a leaked handle cannot keep the
        // whole fleet alive.
        for (i, server) in inner.servers.iter().enumerate() {
            let weak: Weak<RouterInner> = Arc::downgrade(&inner);
            server.set_finish_hook(Arc::new(move |result: &JobResult| {
                if let Some(inner) = weak.upgrade() {
                    inner.on_shard_result(i, result);
                }
            }));
        }
        let stealer = cfg.steal.map(|steal| {
            let inner = Arc::clone(&inner);
            thread::spawn(move || loop {
                {
                    let stop = inner.steal_stop.lock().expect("steal lock poisoned");
                    let (stop, _) = inner
                        .steal_cond
                        .wait_timeout_while(stop, steal.interval, |s| !*s)
                        .expect("steal lock poisoned");
                    if *stop {
                        return;
                    }
                }
                inner.steal_once(steal.min_backlog_shots);
            })
        });
        Router { inner, stealer }
    }

    /// Number of shards (including retired and dead ones — indices are
    /// stable for the router's lifetime).
    pub fn shard_count(&self) -> usize {
        self.inner.servers.len()
    }

    /// The placement policy in force.
    pub fn placement(&self) -> Placement {
        self.inner.placement
    }

    /// One shard's underlying server (stats, backlog) — readable even
    /// after the shard was killed or retired.
    pub fn shard(&self, index: usize) -> &JobServer {
        &self.inner.servers[index]
    }

    /// One shard's availability.
    pub fn shard_status(&self, index: usize) -> ShardStatus {
        self.inner.lock_fleet().shards[index].status
    }

    /// Recoveries *begun* (`router.recoveries_begun`) — each ends
    /// re-routed (`router.jobs_rerouted`) or lost (`router.recoveries_failed`).
    pub fn recovered_jobs(&self) -> u64 {
        self.inner.obs.recoveries.get()
    }

    /// Jobs moved by work stealing so far (`router.jobs_stolen`).
    pub fn stolen_jobs(&self) -> u64 {
        self.inner.obs.stolen.get()
    }

    /// A merged point-in-time snapshot of the whole fleet: per-shard
    /// scheduler/cache/packer counters and metric scopes, folded tenant
    /// stats (sorted by tenant id), recovery/steal totals, and the
    /// fleet-scope metrics — one serde-renderable value with stable
    /// field and row order.
    pub fn fleet_snapshot(&self) -> FleetSnapshot {
        let statuses: Vec<ShardStatus> = {
            let fleet = self.inner.lock_fleet();
            fleet.shards.iter().map(|s| s.status).collect()
        };
        let shards = self
            .inner
            .servers
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSnapshot::of(i, statuses[i], s))
            .collect();
        let tenants = self
            .tenant_stats()
            .into_iter()
            .map(|(tenant, cache)| TenantStatsRow { tenant, cache })
            .collect();
        FleetSnapshot {
            shards,
            tenants,
            recovered_jobs: self.recovered_jobs(),
            stolen_jobs: self.stolen_jobs(),
            fleet_metrics: self.inner.obs.scope.metrics(),
            trace_events_dropped: self.inner.obs.recorder.dropped_events(),
        }
    }

    /// Installs (or replaces) the fleet-level job-completion callback.
    /// Install it before submitting anything the hook must observe.
    pub fn set_finish_hook(&self, hook: RouterFinishHook) {
        *self.inner.finish_hook.lock().expect("hook lock poisoned") = Some(hook);
    }

    /// Per-shard compile-cache counters, indexed by shard.
    pub fn cache_stats(&self) -> Vec<CacheStats> {
        self.inner.servers.iter().map(|s| s.cache_stats()).collect()
    }

    /// Per-tenant cache counters folded across all shards, sorted by
    /// tenant id.
    pub fn tenant_stats(&self) -> Vec<(String, CacheStats)> {
        let mut merged: Vec<(String, CacheStats)> = Vec::new();
        for server in &self.inner.servers {
            for (tenant, stats) in server.tenant_stats() {
                match merged.binary_search_by(|(t, _)| t.as_str().cmp(&tenant)) {
                    Ok(i) => merged[i].1.merge(&stats),
                    Err(i) => merged.insert(i, (tenant, stats)),
                }
            }
        }
        merged
    }

    /// Per-shard backlog of unexecuted shots, indexed by shard.
    pub fn backlog_shots(&self) -> Vec<u64> {
        self.inner
            .servers
            .iter()
            .map(|s| s.backlog_shots())
            .collect()
    }

    /// Places and submits a job; it starts executing on its shard
    /// immediately. The capability filter runs first: shards that
    /// cannot satisfy the job's [`JobRequirements`] are never
    /// candidates, whatever the placement policy says.
    ///
    /// # Errors
    ///
    /// [`JobError::NoCapableShard`] when no live shard satisfies the
    /// requirements (none does for a job wider than
    /// [`MAX_QUBITS`](quape_isa::MAX_QUBITS)); otherwise as
    /// [`JobServer::submit`] — parse/compile failures, zero shots, or a
    /// router that is draining.
    pub fn submit(&self, req: JobRequest) -> Result<RoutedJob, JobError> {
        self.inner.submit_routed(req)
    }

    /// Shared internals, for the in-crate admission layer (whose
    /// completion hook must be able to dispatch without owning the
    /// router).
    pub(crate) fn inner(&self) -> &Arc<RouterInner> {
        &self.inner
    }

    /// Kills shard `victim` as a fault injection: its workers stop
    /// claiming, join, and every non-terminal job it owned is re-routed
    /// to a surviving capable shard (re-run from shot 0 — aggregates
    /// stay bit-identical by determinism) or turns terminal
    /// [`JobError::ShardLost`]. Idempotent; killing the last capable
    /// shard strands its jobs as `ShardLost`.
    pub fn kill_shard(&self, victim: usize) {
        self.inner.kill_shard(victim);
    }

    /// Retires shard `index` as a planned drain: it stops being a
    /// placement candidate, its *unstarted* jobs are re-routed to
    /// capable peers immediately (when any exist), and whatever already
    /// started finishes in place — the final [`drain`](Router::drain)
    /// joins it like any other shard.
    pub fn retire_shard(&self, index: usize) {
        self.inner.retire_shard(index);
    }

    /// One work-stealing scan: if some idle shard and some hot shard
    /// (backlog ≥ `min_backlog_shots`) coexist, moves one whole queued,
    /// unstarted job from the hot one to the idle one — never splitting
    /// a job, so aggregates are untouched. Returns true when a job
    /// moved. (The background stealer calls this on its interval; tests
    /// call it directly for determinism.)
    pub fn steal_once(&self, min_backlog_shots: u64) -> bool {
        self.inner.steal_once(min_backlog_shots)
    }

    /// Stops accepting new jobs (fleet-wide, before any shard blocks),
    /// runs everything accepted so far to completion on every live
    /// shard, and returns every job's outcome ordered by fleet
    /// submission id.
    ///
    /// # Errors
    ///
    /// [`JobError::WorkerPanicked`] when any shard's worker panicked;
    /// per-job failures (e.g. [`JobError::ShardLost`]) are reported
    /// inside the vector, not here.
    pub fn drain(mut self) -> Result<Vec<RoutedResult>, JobError> {
        self.stop(false)
    }

    /// Stops accepting new jobs *and* claiming new shot quanta on every
    /// shard — the stop signal reaches the whole fleet before any shard
    /// is joined, so no shard keeps claiming while another winds down.
    /// Unfinished jobs finalize as cancelled prefix partials. Returns
    /// every job's outcome ordered by fleet submission id.
    ///
    /// # Errors
    ///
    /// As [`drain`](Router::drain).
    pub fn shutdown(mut self) -> Result<Vec<RoutedResult>, JobError> {
        self.stop(true)
    }

    fn stop(&mut self, hard: bool) -> Result<Vec<RoutedResult>, JobError> {
        self.stop_stealer();
        let servings: Vec<(usize, ServingServer)> = {
            let mut fleet = self.inner.lock_fleet();
            fleet.stopping = true;
            let servings: Vec<(usize, ServingServer)> = fleet
                .shards
                .iter_mut()
                .enumerate()
                .filter_map(|(i, s)| s.serving.take().map(|serving| (i, serving)))
                .collect();
            // Phase flips are non-blocking: every shard stops accepting
            // (and, on shutdown, claiming) before the first worker join.
            for (_, serving) in &servings {
                if hard {
                    serving.begin_shutdown();
                } else {
                    serving.begin_drain();
                }
            }
            servings
        };
        let mut panicked = false;
        for (_, serving) in servings {
            let joined = if hard {
                serving.shutdown()
            } else {
                serving.drain()
            };
            if joined.is_err() {
                panicked = true;
            }
        }
        if panicked {
            return Err(JobError::WorkerPanicked);
        }
        // Every shard is joined and every finish hook has fired; any
        // job still non-terminal was stranded mid-recovery by the stop.
        let mut retired = Vec::new();
        let results = {
            let mut table = self.inner.lock_jobs();
            let mut ids: Vec<u64> = table.jobs.keys().copied().collect();
            ids.sort_unstable();
            ids.iter()
                .map(|&id| {
                    retired.extend(table.finish(id, Err(JobError::ShardLost)));
                    let job = &table.jobs[&id];
                    RoutedResult {
                        shard: job.shard,
                        result: job.terminal().expect("just finished").clone(),
                    }
                })
                .collect()
        };
        drop(retired);
        self.inner.jobs_cond.notify_all();
        Ok(results)
    }

    fn stop_stealer(&mut self) {
        if let Some(handle) = self.stealer.take() {
            *self.inner.steal_stop.lock().expect("steal lock poisoned") = true;
            self.inner.steal_cond.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // drain/shutdown consume self and already joined the stealer;
        // this only matters when a router is dropped without either.
        self.stop_stealer();
    }
}

/// A live fleet-level handle on one routed job. Clone freely; all
/// methods are safe from any thread and remain valid while the job is
/// re-routed across shards.
#[must_use = "dropping the handle loses the only way to wait on or cancel the job"]
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<RouterInner>,
    id: u64,
}

impl std::fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHandle").field("id", &self.id).finish()
    }
}

impl FleetHandle {
    /// The job's fleet-assigned id (global submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's name.
    pub fn name(&self) -> String {
        self.inner.lock_jobs().jobs[&self.id].name.clone()
    }

    /// The shard currently owning the job (its first placement until a
    /// re-route or steal moves it).
    pub fn shard(&self) -> usize {
        self.inner.lock_jobs().jobs[&self.id].shard
    }

    /// A point-in-time progress snapshot. Progress restarts from zero
    /// when a shard death re-routes the job (it re-runs from shot 0).
    pub fn progress(&self) -> JobProgress {
        let table = self.inner.lock_jobs();
        let job = &table.jobs[&self.id];
        match &job.phase {
            JobPhase::Terminal(Ok(r)) => JobProgress {
                shots_done: r.shots,
                shots_total: r.shots_requested,
                cancelled: r.cancelled,
                finished: true,
            },
            JobPhase::Terminal(Err(_)) => JobProgress {
                shots_done: 0,
                shots_total: job.shots,
                cancelled: true,
                finished: true,
            },
            JobPhase::Live(LiveJob {
                handle: Some(handle),
                ..
            }) => {
                let handle = handle.clone();
                drop(table);
                handle.progress()
            }
            JobPhase::Live(live) => JobProgress {
                shots_done: 0,
                shots_total: job.shots,
                cancelled: live.user_cancelled,
                finished: false,
            },
        }
    }

    /// The partial aggregate over the job's contiguous completed shot
    /// prefix **on its current shard** (empty mid-re-route — the re-run
    /// starts over from shot 0). The final aggregate once terminal.
    pub fn partial_aggregate(&self) -> BatchAggregate {
        let table = self.inner.lock_jobs();
        let job = &table.jobs[&self.id];
        match &job.phase {
            JobPhase::Terminal(Ok(r)) => r.aggregate.clone(),
            JobPhase::Live(LiveJob {
                handle: Some(handle),
                ..
            }) => {
                let handle = handle.clone();
                drop(table);
                handle.partial_aggregate()
            }
            JobPhase::Terminal(Err(_)) | JobPhase::Live(_) => {
                ShotAccumulator::default().finish(job.base_seed)
            }
        }
    }

    /// True once the job's outcome is available.
    pub fn is_finished(&self) -> bool {
        self.inner.lock_jobs().jobs[&self.id].terminal().is_some()
    }

    /// Cooperatively cancels the job wherever it currently runs — or
    /// wherever it lands next, if a re-route is in flight.
    pub fn cancel(&self) {
        let handle = {
            let mut table = self.inner.lock_jobs();
            let job = table.jobs.get_mut(&self.id).expect("registered job");
            job.live_mut().and_then(|live| {
                live.user_cancelled = true;
                live.handle.clone()
            })
        };
        if let Some(handle) = handle {
            handle.cancel();
        }
    }

    /// Blocks until the job's outcome is available.
    ///
    /// # Errors
    ///
    /// [`JobError::ShardLost`] when the job's shard died and no capable
    /// shard could take it over.
    pub fn wait(&self) -> Result<JobResult, JobError> {
        let table = self.inner.lock_jobs();
        let table = self
            .inner
            .jobs_cond
            .wait_while(table, |t| t.jobs[&self.id].terminal().is_none())
            .expect("jobs lock poisoned");
        table.jobs[&self.id]
            .terminal()
            .cloned()
            .expect("wait_while guarantees a terminal")
    }

    /// Blocks until the job's outcome is available or `timeout`
    /// elapses (`None` on timeout).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<JobResult, JobError>> {
        let table = self.inner.lock_jobs();
        let (table, _) = self
            .inner
            .jobs_cond
            .wait_timeout_while(table, timeout, |t| t.jobs[&self.id].terminal().is_none())
            .expect("jobs lock poisoned");
        table.jobs[&self.id].terminal().cloned()
    }
}

/// How a job comes onto a shard (see [`RouterInner::move_onto_shard`]).
#[derive(Clone, Copy)]
enum Move {
    /// A new request's first placement. It is registered once it lands;
    /// until then a failure goes back to its submitter.
    Place,
    /// Job `id`, displaced from shard `from` (killed or retiring, or a
    /// steal's thief that went away), goes to any capable shard.
    Reroute { id: u64, from: usize },
    /// Job `id`, revoked from the `victim`'s queue, goes to the `thief`.
    Steal {
        id: u64,
        victim: usize,
        thief: usize,
    },
}

impl RouterInner {
    /// Places, registers and submits a brand-new job, returning the
    /// fleet-level routed handle. `Router::submit` and the admission
    /// layer's dispatcher both land here.
    pub(crate) fn submit_routed(self: &Arc<Self>, req: JobRequest) -> Result<RoutedJob, JobError> {
        let requirements = JobRequirements::of(&req);
        let (id, shard) =
            self.move_onto_shard(Move::Place, KeyedRequest::from(req), requirements)?;
        Ok(RoutedJob {
            shard,
            handle: FleetHandle {
                inner: Arc::clone(self),
                id,
            },
        })
    }

    fn lock_fleet(&self) -> std::sync::MutexGuard<'_, FleetState> {
        self.fleet.lock().expect("fleet lock poisoned")
    }

    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.jobs.lock().expect("jobs lock poisoned")
    }

    /// Picks a capable shard for a request with compile-cache key `key`.
    /// `candidates` are `(shard index, backlog)` pairs, non-empty.
    fn place(&self, candidates: &[(usize, u64)], key: u128) -> usize {
        match self.placement {
            Placement::RoundRobin => {
                candidates[self.rr.fetch_add(1, Ordering::Relaxed) % candidates.len()].0
            }
            Placement::LeastLoadedShots => {
                candidates
                    .iter()
                    .min_by_key(|(_, backlog)| *backlog)
                    .expect("non-empty candidates")
                    .0
            }
            Placement::StickyByDigest => {
                candidates[((key >> 64) as u64 % candidates.len() as u64) as usize].0
            }
        }
    }

    /// The capable live candidates, or the submit-time error when there
    /// are none.
    fn candidates(&self, req: &JobRequirements) -> Result<Vec<(usize, u64)>, JobError> {
        let fleet = self.lock_fleet();
        if fleet.stopping {
            return Err(JobError::NotAccepting);
        }
        // No machine compiles a job wider than the ISA addresses, so no
        // shard can run one, whatever its profile admits.
        if usize::from(req.qubits) > quape_isa::MAX_QUBITS {
            return Err(JobError::NoCapableShard);
        }
        let capable: Vec<(usize, u64)> = fleet
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status == ShardStatus::Up && s.profile.can_run(req))
            .map(|(i, _)| (i, self.servers[i].backlog_shots()))
            .collect();
        if capable.is_empty() {
            return Err(JobError::NoCapableShard);
        }
        Ok(capable)
    }

    /// The one way onto a shard. Picks the shard (placement over the
    /// capable candidates, or a steal's thief), submits within the retry
    /// budget, registers the handle, emits `Placed` and the move's own
    /// event, honours a cancel that arrived mid-move, and closes the two
    /// landing races. Returns the job's fleet id and shard. A new job
    /// that cannot land gets the error back; a moved one turns terminal
    /// with it ([`JobError::ShardLost`] when no shard would take it).
    fn move_onto_shard(
        &self,
        mut mv: Move,
        req: KeyedRequest,
        requirements: JobRequirements,
    ) -> Result<(u64, usize), JobError> {
        let mut attempts = 0u32;
        let (shard, handle) = loop {
            let attempt = match mv {
                Move::Reroute { id, .. } => {
                    let Some(attempt) = self.lock_jobs().live_mut(id).map(|live| {
                        live.attempts += 1;
                        live.attempts
                    }) else {
                        return Err(JobError::ShardLost); // Finished by a fleet stop.
                    };
                    attempt
                }
                Move::Place | Move::Steal { .. } => {
                    attempts += 1;
                    attempts
                }
            };
            let target = match mv {
                Move::Steal { thief, .. } => Ok(thief),
                _ if attempt > MAX_ATTEMPTS => Err(JobError::ShardLost),
                _ => self
                    .candidates(&requirements)
                    .map(|c| self.place(&c, req.key())),
            };
            let err = match target.map(|shard| (shard, self.servers[shard].submit(req.clone()))) {
                Ok((shard, Ok(handle))) => break (shard, handle),
                // The shard flipped to draining between the candidate
                // scan and the submit (a concurrent retire or kill): back
                // off, then retry against the refreshed candidates.
                Ok((_, Err(JobError::NotAccepting)))
                    if attempt < MAX_ATTEMPTS && !matches!(mv, Move::Steal { .. }) =>
                {
                    thread::sleep(BACKOFF * (1 << attempt));
                    continue;
                }
                Ok((_, Err(e))) | Err(e) => e,
            };
            match mv {
                Move::Place => return Err(err),
                // The thief went away mid-steal: re-place the revoked job
                // like any displaced one.
                Move::Steal { id, victim, .. } => {
                    self.obs.recoveries.inc();
                    mv = Move::Reroute { id, from: victim };
                }
                // No capable shard remains, the fleet is stopping or the
                // budget ran out: the job is lost, as documented.
                Move::Reroute { id, .. } => {
                    let err = match err {
                        JobError::NotAccepting | JobError::NoCapableShard => JobError::ShardLost,
                        err => err,
                    };
                    self.obs.recoveries_failed.inc();
                    self.set_terminal(id, Err(err.clone()));
                    return Err(err);
                }
            }
        };
        match mv {
            Move::Place => self.obs.placed.inc(),
            Move::Reroute { .. } => self.obs.rerouted.inc(),
            Move::Steal { .. } => self.obs.stolen.inc(),
        }
        #[cfg(test)]
        if self.landing_hold.armed.load(Ordering::SeqCst) {
            let unmapped = self.landing_hold.unmapped.load(Ordering::SeqCst);
            let _ = handle.wait();
            while self.landing_hold.unmapped.load(Ordering::SeqCst) == unmapped {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let landed = {
            let mut table = self.lock_jobs();
            let id = match mv {
                Move::Place => table.register(req, requirements, shard),
                Move::Reroute { id, .. } | Move::Steal { id, .. } => id,
            };
            table
                .land(id, shard, &handle)
                .map(|cancelled| (id, cancelled))
        };
        let Some((id, user_cancelled)) = landed else {
            // Finished by a fleet stop meanwhile: nothing would ever read
            // or cancel the new request.
            handle.cancel();
            return Err(JobError::ShardLost);
        };
        let scope = &self.obs.scope;
        scope.event(TraceKind::Placed, 0, id, shard as u64, handle.id());
        match mv {
            Move::Place => {}
            Move::Reroute { from, .. } => {
                scope.event(TraceKind::ReRouted, 0, id, from as u64, shard as u64);
            }
            Move::Steal { victim, .. } => {
                scope.event(TraceKind::Stolen, 0, id, victim as u64, shard as u64);
            }
        }
        if user_cancelled {
            // A cancel arrived mid-move; honour it on the new shard
            // (finalizes a cancelled partial).
            handle.cancel();
        }
        // The job finished before it was mapped, so its shard's finish
        // hook found nothing: fold it in here (idempotent — the terminal
        // check wins ties).
        if handle.is_finished() {
            self.on_shard_result(shard, &handle.wait());
        }
        // The shard died while the job was landing, and its kill sweep
        // skipped the moving job: go round again.
        if self.lock_fleet().shards[shard].status == ShardStatus::Down {
            self.reroute(id);
        }
        Ok((id, shard))
    }

    /// Routes one shard's finished result back to the fleet registry.
    /// Called by shard finish hooks with no server locks held.
    fn on_shard_result(&self, shard: usize, result: &JobResult) {
        // Fleet facts first (lock order: fleet → jobs).
        let (status, stopping) = {
            let fleet = self.lock_fleet();
            (fleet.shards[shard].status, fleet.stopping)
        };
        let mut table = self.lock_jobs();
        let Some(&fleet_id) = table.by_server.get(&(shard, result.id)) else {
            #[cfg(test)]
            self.landing_hold.unmapped.fetch_add(1, Ordering::SeqCst);
            return; // Revoked (stolen/re-routed) or not yet mapped.
        };
        let Some(user_cancelled) = table.live_mut(fleet_id).map(|live| live.user_cancelled) else {
            return; // Only live jobs are mapped.
        };
        // A cancelled partial on a dead shard is not this job's fate —
        // the kill sweep re-runs it from scratch elsewhere. Everything
        // else (full completion anywhere, a user's cancel, a fleet
        // stop's finalization, a quantum panic on a live shard) is
        // terminal as-is.
        let rerouting =
            result.cancelled && status == ShardStatus::Down && !user_cancelled && !stopping;
        if rerouting {
            return;
        }
        let retired = table.finish(fleet_id, Ok(result.clone()));
        drop(table);
        drop(retired);
        self.notify_terminal(fleet_id, &Ok(result.clone()));
    }

    /// Wakes waiters and fires the router-level finish hook. Call with
    /// no router locks held.
    fn notify_terminal(&self, fleet_id: u64, outcome: &Result<JobResult, JobError>) {
        self.jobs_cond.notify_all();
        let hook = self.finish_hook.lock().expect("hook lock poisoned").clone();
        if let Some(hook) = hook {
            hook(fleet_id, outcome);
        }
    }

    /// Marks a job terminal (if it is not already) and notifies.
    fn set_terminal(&self, fleet_id: u64, outcome: Result<JobResult, JobError>) {
        let Some(retired) = self.lock_jobs().finish(fleet_id, outcome.clone()) else {
            return;
        };
        drop(retired);
        self.notify_terminal(fleet_id, &outcome);
    }

    fn kill_shard(&self, victim: usize) {
        let serving = {
            let mut fleet = self.lock_fleet();
            fleet.shards[victim].status = ShardStatus::Down;
            fleet.shards[victim].serving.take()
        };
        let Some(serving) = serving else {
            return; // Already killed, retired-and-drained, or stopping.
        };
        self.obs
            .scope
            .event(TraceKind::ShardDown, 0, 0, victim as u64, 0);
        // Join outside the fleet lock: the shard's workers stop
        // claiming, in-flight quanta finish, unfinished jobs finalize
        // as cancelled partials (whose hooks land in on_shard_result,
        // which leaves them non-terminal for the sweep below).
        serving.begin_shutdown();
        let _ = serving.shutdown();
        let stranded: Vec<u64> = {
            let table = self.lock_jobs();
            let mut ids: Vec<u64> = table
                .jobs
                .iter()
                .filter(|(_, j)| j.shard == victim && j.movable())
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            ids
        };
        for fleet_id in stranded {
            self.reroute(fleet_id);
        }
    }

    fn retire_shard(&self, index: usize) {
        let movable: Vec<u64> = {
            let mut fleet = self.lock_fleet();
            if fleet.shards[index].status != ShardStatus::Up {
                return;
            }
            fleet.shards[index].status = ShardStatus::Retiring;
            // Signal the drain while still non-placeable-atomically:
            // nothing new can land between the flip and the signal.
            if let Some(serving) = &fleet.shards[index].serving {
                serving.begin_drain();
            }
            drop(fleet);
            self.obs
                .scope
                .event(TraceKind::ShardRetiring, 0, 0, index as u64, 0);
            // Unstarted jobs need not wait for the drain — move them to
            // capable peers now. (Started jobs keep their progress and
            // finish in place.)
            let unstarted = self.servers[index].unstarted_jobs();
            let table = self.lock_jobs();
            unstarted
                .iter()
                .filter_map(|(sid, _)| table.by_server.get(&(index, *sid)).copied())
                .collect()
        };
        for fleet_id in movable {
            let revoked = {
                let table = self.lock_jobs();
                let job = &table.jobs[&fleet_id];
                match job.live() {
                    Some(live) if !live.moving => {
                        let server_id = live.server_id;
                        drop(table);
                        self.servers[index].revoke_unstarted(server_id)
                    }
                    _ => false,
                }
            };
            if revoked {
                self.reroute(fleet_id);
            }
        }
    }

    /// Re-places a displaced job on a surviving capable shard (see
    /// [`move_onto_shard`](RouterInner::move_onto_shard)), unless it is
    /// terminal or already being moved.
    fn reroute(&self, fleet_id: u64) {
        let Some((req, requirements, from)) = self.lock_jobs().begin_move(fleet_id) else {
            return;
        };
        self.obs.recoveries.inc();
        let _ = self.move_onto_shard(Move::Reroute { id: fleet_id, from }, req, requirements);
    }

    /// One stealing scan; see [`Router::steal_once`].
    fn steal_once(&self, min_backlog_shots: u64) -> bool {
        // Pick thief and victim from a consistent fleet snapshot.
        let (thief, victim) = {
            let fleet = self.lock_fleet();
            if fleet.stopping {
                return false;
            }
            let mut thief: Option<(usize, u64)> = None;
            let mut victim: Option<(usize, u64)> = None;
            for (i, shard) in fleet.shards.iter().enumerate() {
                if shard.status != ShardStatus::Up {
                    continue;
                }
                let backlog = self.servers[i].backlog_shots();
                if backlog == 0 && thief.is_none() {
                    thief = Some((i, backlog));
                }
                if backlog >= min_backlog_shots && victim.map(|(_, b)| backlog > b).unwrap_or(true)
                {
                    victim = Some((i, backlog));
                }
            }
            match (thief, victim) {
                (Some((t, _)), Some((v, _))) if t != v => (t, v),
                _ => return false,
            }
        };
        let thief_profile = self.lock_fleet().shards[thief].profile;
        // Steal from the *back* of the victim's queue: the last-queued
        // job has waited least, so moving it disturbs FIFO fairness the
        // least while still relieving the backlog.
        let unstarted = self.servers[victim].unstarted_jobs();
        for (server_id, _shots) in unstarted.iter().rev() {
            let Some(fleet_id) = ({
                let table = self.lock_jobs();
                let id = table.by_server.get(&(victim, *server_id)).copied();
                id.filter(|id| {
                    table.jobs[id].live().is_some_and(|live| {
                        !live.moving
                            && !live.user_cancelled
                            && thief_profile.can_run(&live.requirements)
                    })
                })
            }) else {
                continue;
            };
            // The revoke re-checks atomically on the victim server: a
            // worker that claimed the job in the meantime wins, and we
            // move on to the next candidate.
            if !self.servers[victim].revoke_unstarted(*server_id) {
                continue;
            }
            // None: a fleet stop finished the job, or a kill sweep of the
            // victim took it over, since the check above.
            let Some((req, requirements, _)) = self.lock_jobs().begin_move(fleet_id) else {
                return false;
            };
            let steal = Move::Steal {
                id: fleet_id,
                victim,
                thief,
            };
            return self.move_onto_shard(steal, req, requirements).is_ok();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_core::{CompiledJob, QuapeConfig, ShotEngine};
    use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
    use quape_server::{JobSource, ServerConfig};

    /// A feedback program padded with comment lines to `bytes` of text.
    fn padded_text(bytes: usize) -> String {
        let mut text = String::from("0 H q0\n2 MEAS q0\nFMR r0, q0\nSTOP\n");
        while text.len() < bytes {
            text.push_str("# padding the request text like a long tenant upload\n");
        }
        text
    }

    const COIN_TEXT: &str = "0 H q0\n2 MEAS q0\nFMR r0, q0\nSTOP\n";

    fn coin_cfg() -> QuapeConfig {
        QuapeConfig::superscalar(4)
    }

    fn coin_factory() -> BehavioralQpuFactory {
        BehavioralQpuFactory::new(
            coin_cfg().timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
        )
    }

    /// A one-qubit feedback job of `shots` shots.
    fn coin_job(name: &str, shots: u64, seed: u64) -> JobRequest {
        JobRequest::new(
            name,
            JobSource::Text(COIN_TEXT.into()),
            coin_cfg(),
            coin_factory(),
            shots,
        )
        .base_seed(seed)
    }

    /// A solo run of the first `shots` shots of [`coin_job`].
    fn coin_solo(shots: u64, seed: u64) -> BatchAggregate {
        let program = quape_isa::assemble(COIN_TEXT).expect("assembles");
        let job = CompiledJob::compile(coin_cfg(), program).expect("compiles");
        ShotEngine::new(job, coin_factory())
            .base_seed(seed)
            .threads(1)
            .run(shots)
            .aggregate
    }

    /// A round-robin fleet of one-worker shards.
    fn small_fleet(shards: usize) -> Router {
        Router::new(RouterConfig {
            shards,
            shard: ServerConfig {
                threads: 1,
                shot_quantum: 2,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        })
    }

    /// Strands job `id` mid-move: starts moving it off its shard, then
    /// kills that shard, whose sweep skips the moving job. Returns what
    /// the move carries.
    fn strand_mid_move(router: &Router, id: u64) -> (KeyedRequest, JobRequirements, usize) {
        let moved = router.inner.lock_jobs().begin_move(id).expect("movable");
        router.kill_shard(moved.2);
        moved
    }

    fn assert_laws(router: &Router) {
        if let Err(violations) = router.fleet_snapshot().check() {
            panic!("conservation laws broken: {violations:?}");
        }
    }

    #[test]
    fn a_cancel_during_a_move_finalizes_on_the_new_shard() {
        let router = small_fleet(2);
        let handle = router
            .submit(coin_job("moved", 1_000_000, 11))
            .expect("submits")
            .handle;
        let id = handle.id();
        assert_eq!(handle.shard(), 0);
        let (req, requirements, from) = strand_mid_move(&router, id);
        // What `reroute` counts when it starts a move.
        router.inner.obs.recoveries.inc();
        // The cancel arrives while the job has no shard: only the flag.
        handle.cancel();
        let landed = router
            .inner
            .move_onto_shard(Move::Reroute { id, from }, req, requirements);
        assert_eq!(landed, Ok((id, 1)));
        let result = handle.wait().expect("a cancelled partial, not a lost job");
        assert!(result.cancelled);
        assert!(result.shots < result.shots_requested);
        assert_eq!(result.aggregate, coin_solo(result.shots, 11));
        assert_eq!(handle.shard(), 1);

        // Not re-routed afterwards: losing its new shard leaves the
        // outcome where it is.
        router.kill_shard(1);
        let again = handle.wait().expect("still the partial");
        assert!(again.cancelled);
        assert_eq!(again.aggregate, result.aggregate);
        assert_eq!(handle.shard(), 1);
        assert_eq!(router.recovered_jobs(), 1);
        assert_eq!(router.inner.obs.rerouted.get(), 1);
        assert_laws(&router);
        let results = router.drain().expect("drains");
        assert!(results[0].result.as_ref().expect("partial").cancelled);
    }

    /// Shots of the job the landing tests move: enough that its copy on
    /// the dead shard cannot finish in the moment before the landing
    /// check looks at the shard.
    const BOUNCED_SHOTS: u64 = 4096;

    /// Lands a moving job on shard 1 after a kill of shard 1 swept the
    /// fleet without finding it: the status is Down, the submit that
    /// raced the kill was still accepted, and no later sweep will come.
    /// Only a steal names its target without the capability filter, so
    /// a steal onto shard 1 reaches that landing deterministically.
    fn land_on_a_swept_shard(shards: usize, seed: u64) -> (Router, FleetHandle) {
        let router = small_fleet(shards);
        let handle = router
            .submit(coin_job("bounced", BOUNCED_SHOTS, seed))
            .expect("submits")
            .handle;
        let id = handle.id();
        assert_eq!(handle.shard(), 0);
        let (req, requirements, victim) = strand_mid_move(&router, id);
        router.inner.lock_fleet().shards[1].status = ShardStatus::Down;
        let steal = Move::Steal {
            id,
            victim,
            thief: 1,
        };
        let landed = router.inner.move_onto_shard(steal, req, requirements);
        assert_eq!(landed, Ok((id, 1)), "the submit itself landed");
        assert_eq!(router.stolen_jobs(), 1);
        // The rest of the kill: the join, with no sweep after it.
        let serving = router.inner.lock_fleet().shards[1].serving.take();
        serving
            .expect("shard 1 still serving")
            .shutdown()
            .expect("joins");
        (router, handle)
    }

    #[test]
    fn a_landing_on_a_down_shard_goes_round_to_a_survivor() {
        let (router, handle) = land_on_a_swept_shard(3, 12);
        let result = handle
            .wait_timeout(Duration::from_secs(60))
            .expect("not stranded on the dead shard")
            .expect("completes");
        assert!(!result.cancelled);
        assert_eq!(result.aggregate, coin_solo(BOUNCED_SHOTS, 12));
        assert_laws(&router);
        router.drain().expect("drains");
    }

    #[test]
    fn a_landing_on_a_down_shard_with_no_survivor_is_lost() {
        let (router, handle) = land_on_a_swept_shard(2, 13);
        match handle
            .wait_timeout(Duration::from_secs(60))
            .expect("not stranded on the dead shard")
        {
            Err(e) => {
                assert_eq!(e, JobError::ShardLost);
                assert_eq!(router.inner.obs.recoveries_failed.get(), 1);
            }
            // It finished on shard 1 before the landing check looked.
            Ok(result) => assert_eq!(result.aggregate, coin_solo(BOUNCED_SHOTS, 13)),
        }
        assert_laws(&router);
        router.drain().expect("drains");
    }

    /// A job that finishes on its shard before the landing maps it: the
    /// shard's finish hook finds no mapping, so only the landing's own
    /// finished check can fold the result in.
    #[test]
    fn a_job_finished_before_it_is_mapped_turns_terminal() {
        let router = small_fleet(2);
        router
            .inner
            .landing_hold
            .armed
            .store(true, Ordering::SeqCst);
        let handle = router
            .submit(coin_job("early", 6, 21))
            .expect("submits")
            .handle;
        router
            .inner
            .landing_hold
            .armed
            .store(false, Ordering::SeqCst);
        assert!(router.inner.landing_hold.unmapped.load(Ordering::SeqCst) >= 1);
        let result = handle
            .wait_timeout(Duration::from_secs(10))
            .expect("terminal once landed")
            .expect("completes");
        assert!(!result.cancelled);
        assert_eq!(result.aggregate, coin_solo(6, 21));
        assert!(handle.is_finished());
        assert_laws(&router);
        let results = router.drain().expect("drains");
        assert_eq!(
            results[0].result.as_ref().expect("ok").aggregate,
            result.aggregate
        );
    }

    #[test]
    fn a_terminal_job_keeps_its_outcome_but_not_its_request() {
        let cfg = QuapeConfig::superscalar(4);
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let text = padded_text(64 * 1024);
        let shots = 12;
        let router = Router::new(RouterConfig {
            shards: 2,
            shard: ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
            ..RouterConfig::default()
        });
        let routed = router
            .submit(
                JobRequest::new(
                    "padded",
                    JobSource::Text(text.clone()),
                    cfg.clone(),
                    factory.clone(),
                    shots,
                )
                .base_seed(7),
            )
            .expect("submits");
        let handle = routed.handle;
        let result = handle.wait().expect("completes");

        // The entry keeps its header and outcome, and nothing else: no
        // request snapshot (the source text), no shard handle, no mapping.
        {
            let table = router.inner.lock_jobs();
            let job = &table.jobs[&handle.id()];
            assert!(job.live().is_none(), "a terminal entry holds no request");
            assert_eq!(
                (job.name.as_str(), job.shots, job.base_seed),
                ("padded", shots, 7)
            );
            assert!(table.by_server.is_empty(), "terminal jobs are unmapped");
        }

        // Every handle query answers from the outcome alone.
        let program = quape_isa::assemble(&text).expect("assembles");
        let job = CompiledJob::compile(cfg, program).expect("compiles");
        let solo = ShotEngine::new(job, factory)
            .base_seed(7)
            .threads(1)
            .run(shots)
            .aggregate;
        assert_eq!(result.aggregate, solo);
        assert_eq!(handle.name(), "padded");
        assert!(handle.is_finished());
        let progress = handle.progress();
        assert_eq!((progress.shots_done, progress.shots_total), (shots, shots));
        assert!(progress.finished && !progress.cancelled);
        assert_eq!(handle.partial_aggregate(), solo);
        assert_eq!(handle.wait().expect("still completed").aggregate, solo);
        assert_eq!(
            handle
                .wait_timeout(Duration::from_millis(1))
                .expect("terminal")
                .expect("completed")
                .aggregate,
            solo
        );
        handle.cancel(); // A no-op on a terminal job.
        assert!(!handle.progress().cancelled);
        let results = router.drain().expect("drains");
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].result.as_ref().expect("ok").aggregate, solo);
    }
}
