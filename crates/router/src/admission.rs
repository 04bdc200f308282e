//! Admission control: per-tenant shot budgets and deficit-round-robin
//! weighted-fair queueing in front of the fleet.
//!
//! A [`FrontDoor`] wraps a [`Router`] with the two defenses a shared
//! fleet needs against a hot tenant:
//!
//! * **Budgets**: each tenant may have at most
//!   [`tenant_budget_shots`](AdmissionConfig::tenant_budget_shots)
//!   shots admitted-but-unfinished; an over-budget submission is shed
//!   with [`JobError::OverBudget`], telling the client exactly how many
//!   of its in-flight shots must complete before an identical
//!   resubmission fits.
//! * **Weighted-fair dispatch**: admitted jobs queue per tenant and are
//!   dispatched to the router by **deficit round-robin** (DRR): each
//!   visit a tenant's deficit grows by
//!   [`quantum_shots`](AdmissionConfig::quantum_shots) × its weight,
//!   and it dispatches whole jobs while the deficit covers them. Whole
//!   jobs only, so aggregates are untouched. At most
//!   [`fleet_window_shots`](AdmissionConfig::fleet_window_shots) shots
//!   are dispatched-but-unfinished at a time — the window is what makes
//!   fairness real (without it the first flood would reach the shards
//!   unimpeded).
//!
//! **Starvation bound** (asserted by the test suite): between a job's
//! admission and its dispatch, any *other* tenant dispatches at most
//! `2 × (quantum_shots × weight + its largest job)` shots — a 1-shot
//! tenant's queue wait is bounded by the hog's quantum, not the hog's
//! backlog. The [`dispatch_log`](FrontDoor::dispatch_log) measures this
//! deterministically in dispatched shots.
//!
//! Dispatch is driven by submissions and completions only (no poller):
//! the router's finish hook frees the finished job's budget and window
//! and immediately pumps the queues again.

use crate::fleet::{FleetHandle, RoutedResult, Router, RouterConfig, RouterInner};
use quape_obs::{ObsScope, TraceKind};
use quape_server::{JobError, JobRequest, JobResult};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Budgets, weights and window sizing of a [`FrontDoor`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Max shots one tenant may have admitted-but-unfinished; the
    /// budget over which submissions are shed with
    /// [`JobError::OverBudget`].
    pub tenant_budget_shots: u64,
    /// DRR quantum: shots of deficit a tenant earns per queue visit
    /// (scaled by its weight).
    pub quantum_shots: u64,
    /// Max shots dispatched-but-unfinished fleet-wide; the backpressure
    /// that keeps queued work under the front door's fairness control.
    pub fleet_window_shots: u64,
    /// Per-tenant DRR weights; tenants not listed weigh 1.
    pub weights: Vec<(String, u64)>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_budget_shots: 1024,
            quantum_shots: 64,
            fleet_window_shots: 256,
            weights: Vec::new(),
        }
    }
}

/// One dispatch, for offline fairness auditing: `seq` is the total
/// shots dispatched before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRecord {
    /// Cumulative shots dispatched before this job.
    pub seq: u64,
    /// Cumulative shots dispatched before this job was *admitted* —
    /// `seq - arrival_seq` is the job's queue wait in dispatched shots,
    /// the starvation-bound metric.
    pub arrival_seq: u64,
    /// The dispatching tenant (`""` = unattributed).
    pub tenant: String,
    /// The job's shots.
    pub shots: u64,
}

struct TicketInner {
    outcome: Option<Result<FleetHandle, JobError>>,
    dispatch_seq: Option<u64>,
}

type Ticket = (Mutex<TicketInner>, Condvar);

/// An admitted (but possibly still queued) job. The fleet handle
/// materialises when DRR dispatches it.
#[must_use = "dropping the admitted job loses the only way to reach its handle"]
pub struct AdmittedJob {
    tenant: String,
    shots: u64,
    arrival_seq: u64,
    ticket: Arc<Ticket>,
}

impl std::fmt::Debug for AdmittedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmittedJob")
            .field("tenant", &self.tenant)
            .field("shots", &self.shots)
            .finish()
    }
}

impl AdmittedJob {
    /// The tenant the job was accounted to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The job's shots.
    pub fn shots(&self) -> u64 {
        self.shots
    }

    /// Total shots dispatched fleet-wide before this job was admitted —
    /// compare with [`dispatch_seq`](AdmittedJob::dispatch_seq) for the
    /// job's queue wait in shots.
    pub fn arrival_seq(&self) -> u64 {
        self.arrival_seq
    }

    /// Total shots dispatched before this job's own dispatch (`None`
    /// while still queued).
    pub fn dispatch_seq(&self) -> Option<u64> {
        self.ticket.0.lock().expect("ticket poisoned").dispatch_seq
    }

    /// Blocks until the job is dispatched and returns its fleet handle.
    ///
    /// # Errors
    ///
    /// The router's submit-time error when dispatch failed (e.g.
    /// [`JobError::NoCapableShard`]).
    pub fn handle(&self) -> Result<FleetHandle, JobError> {
        let inner = self.ticket.0.lock().expect("ticket poisoned");
        let inner = self
            .ticket
            .1
            .wait_while(inner, |t| t.outcome.is_none())
            .expect("ticket poisoned");
        inner
            .outcome
            .clone()
            .expect("wait_while guarantees outcome")
    }

    /// Blocks through dispatch *and* execution for the final result.
    ///
    /// # Errors
    ///
    /// As [`handle`](AdmittedJob::handle), plus terminal execution
    /// errors like [`JobError::ShardLost`].
    pub fn wait(&self) -> Result<JobResult, JobError> {
        self.handle()?.wait()
    }
}

struct Pending {
    req: JobRequest,
    tenant: String,
    shots: u64,
    arrival_seq: u64,
    ticket: Arc<Ticket>,
}

struct TenantQueue {
    tenant: String,
    weight: u64,
    deficit: u64,
    queue: VecDeque<Pending>,
}

#[derive(Default)]
struct FrontState {
    queues: Vec<TenantQueue>,
    drr_cursor: usize,
    /// Admitted-but-unfinished shots per tenant (the budget metric).
    inflight: HashMap<String, u64>,
    /// Dispatched-but-unfinished shots fleet-wide (the window metric).
    window_used: u64,
    /// Fleet job id → (tenant, shots), for freeing budget/window on
    /// completion.
    dispatched: HashMap<u64, (String, u64)>,
    /// Fleet job ids whose completion hook beat the dispatch
    /// bookkeeping (instant jobs); settled when the dispatcher lands.
    orphans: HashSet<u64>,
    /// Re-entrancy guard: one pump at a time; late arrivals set
    /// `repump` instead of recursing.
    pumping: bool,
    repump: bool,
    dispatch_seq: u64,
    log: Vec<DispatchRecord>,
    draining: bool,
}

/// Shared by the front door, the router's finish hook, and every
/// ticket — the part of the admission layer that must outlive `self`
/// borrows. Holds the fleet weakly: the `Router` (owned by the
/// [`FrontDoor`]) is what keeps the shards alive.
/// Fleet-scope admission telemetry, pre-registered at construction.
struct FrontObs {
    scope: ObsScope,
    admitted: quape_obs::Counter,
    shed: quape_obs::Counter,
    dispatched: quape_obs::Counter,
    /// Dequeued jobs the router refused at dispatch.
    dispatch_failed: quape_obs::Counter,
    drr_rounds: quape_obs::Counter,
    /// Jobs admitted but not yet handed to the router (live depth of
    /// the DRR queues, across all tenants).
    queue_depth: quape_obs::Gauge,
}

impl FrontObs {
    fn new(scope: ObsScope) -> Self {
        FrontObs {
            admitted: scope.counter("front.jobs_admitted"),
            shed: scope.counter("front.jobs_shed"),
            dispatched: scope.counter("front.jobs_dispatched"),
            dispatch_failed: scope.counter("front.dispatch_failed"),
            drr_rounds: scope.counter("front.drr_rounds"),
            queue_depth: scope.gauge("front.queue_depth"),
            scope,
        }
    }
}

struct FrontCore {
    cfg: AdmissionConfig,
    fleet: Weak<RouterInner>,
    state: Mutex<FrontState>,
    idle: Condvar,
    obs: FrontObs,
}

impl FrontCore {
    fn lock(&self) -> std::sync::MutexGuard<'_, FrontState> {
        self.state.lock().expect("front lock poisoned")
    }

    /// Completion callback: frees the job's budget + window and pumps.
    fn on_finish(&self, fleet_id: u64) {
        {
            let mut st = self.lock();
            match st.dispatched.remove(&fleet_id) {
                Some((tenant, shots)) => {
                    st.window_used -= shots;
                    if let Some(inflight) = st.inflight.get_mut(&tenant) {
                        *inflight -= shots;
                    }
                }
                None => {
                    st.orphans.insert(fleet_id);
                    return;
                }
            }
        }
        self.idle.notify_all();
        self.pump();
    }

    /// Plans the next DRR batch under the lock. Deficits, the window
    /// and the log are updated here, so the fairness order is fixed
    /// before any (slow, compiling) router submit runs.
    fn plan(&self, st: &mut FrontState) -> Vec<(Pending, u64)> {
        let batch = self.plan_rounds(st);
        if !batch.is_empty() {
            self.obs.drr_rounds.inc();
            self.obs.scope.event(
                TraceKind::DrrRound,
                0,
                0,
                batch.len() as u64,
                batch.iter().map(|(p, _)| p.shots).sum(),
            );
        }
        batch
    }

    fn plan_rounds(&self, st: &mut FrontState) -> Vec<(Pending, u64)> {
        let mut batch = Vec::new();
        let n = st.queues.len();
        if n == 0 {
            return batch;
        }
        loop {
            let mut progressed = false;
            let mut window_blocked = false;
            let mut deficit_starved = false;
            for _ in 0..n {
                let qi = st.drr_cursor % n;
                // Window full: stop planning *without* granting this
                // queue a quantum or advancing the cursor — the next
                // pump (a completion freed space) resumes exactly here,
                // so a hot tenant cannot re-earn deficit by merely
                // being revisited.
                if st.window_used >= self.cfg.fleet_window_shots {
                    return batch;
                }
                if st.queues[qi].queue.is_empty() {
                    // Standard DRR: an empty queue forfeits its deficit
                    // (saving it would let an idle tenant burst later).
                    st.queues[qi].deficit = 0;
                    st.drr_cursor += 1;
                    continue;
                }
                st.queues[qi].deficit = st.queues[qi].deficit.saturating_add(
                    self.cfg
                        .quantum_shots
                        .max(1)
                        .saturating_mul(st.queues[qi].weight),
                );
                while let Some(front) = st.queues[qi].queue.front() {
                    if front.shots > st.queues[qi].deficit {
                        deficit_starved = true;
                        break;
                    }
                    // A job larger than the whole window may only go
                    // out alone; anything else waits for window space.
                    // Keep the deficit and *advance the cursor*: other
                    // tenants must get their turn first when space
                    // frees up.
                    if st.window_used + front.shots > self.cfg.fleet_window_shots
                        && st.window_used > 0
                    {
                        window_blocked = true;
                        break;
                    }
                    let pending = st.queues[qi].queue.pop_front().expect("front exists");
                    self.obs.queue_depth.add(-1);
                    st.queues[qi].deficit -= pending.shots;
                    st.window_used += pending.shots;
                    let seq = st.dispatch_seq;
                    st.dispatch_seq += pending.shots;
                    st.log.push(DispatchRecord {
                        seq,
                        arrival_seq: pending.arrival_seq,
                        tenant: pending.tenant.clone(),
                        shots: pending.shots,
                    });
                    batch.push((pending, seq));
                    progressed = true;
                }
                st.drr_cursor += 1;
            }
            if progressed {
                continue;
            }
            // Nothing moved this round. If some head job is only
            // waiting on its *deficit* (not the window), keep cycling:
            // deficits grow each round and the head will fit — this is
            // DRR's work-conserving virtual time, and returning early
            // here would strand the fleet with no future pump to grow
            // them. A window block instead returns: the completion that
            // frees space re-pumps.
            if window_blocked || !deficit_starved {
                return batch;
            }
        }
    }

    /// Dispatches planned jobs to the router **with the front lock
    /// released**: the router's finish hook takes the front lock, and
    /// an instantly-finishing job fires it on this very thread.
    fn pump(&self) {
        {
            let mut st = self.lock();
            if st.pumping {
                st.repump = true;
                return;
            }
            st.pumping = true;
        }
        loop {
            let batch = {
                let mut st = self.lock();
                st.repump = false;
                let batch = self.plan(&mut st);
                if batch.is_empty() {
                    if st.repump {
                        continue;
                    }
                    st.pumping = false;
                    return;
                }
                batch
            };
            for (pending, seq) in batch {
                let submitted = self
                    .fleet
                    .upgrade()
                    .ok_or(JobError::NotAccepting)
                    .and_then(|fleet| fleet.submit_routed(pending.req));
                let outcome = match submitted {
                    Ok(routed) => {
                        self.obs.dispatched.inc();
                        self.obs.scope.event_tenant(
                            TraceKind::Dispatched,
                            0,
                            routed.handle.id(),
                            seq,
                            pending.shots,
                            &pending.tenant,
                        );
                        let mut st = self.lock();
                        if st.orphans.remove(&routed.handle.id()) {
                            // Finished before we got here: free budget
                            // and window immediately.
                            st.window_used -= pending.shots;
                            if let Some(inflight) = st.inflight.get_mut(&pending.tenant) {
                                *inflight -= pending.shots;
                            }
                        } else {
                            st.dispatched.insert(
                                routed.handle.id(),
                                (pending.tenant.clone(), pending.shots),
                            );
                        }
                        Ok(routed.handle)
                    }
                    Err(e) => {
                        self.obs.dispatch_failed.inc();
                        let mut st = self.lock();
                        st.window_used -= pending.shots;
                        if let Some(inflight) = st.inflight.get_mut(&pending.tenant) {
                            *inflight -= pending.shots;
                        }
                        Err(e)
                    }
                };
                let mut ticket = pending.ticket.0.lock().expect("ticket poisoned");
                ticket.outcome = Some(outcome);
                ticket.dispatch_seq = Some(seq);
                drop(ticket);
                pending.ticket.1.notify_all();
            }
            self.idle.notify_all();
            // Go around: completions during the dispatch may have freed
            // window for the next batch (and set `repump`).
        }
    }
}

/// The admission-controlled front of a fleet: per-tenant shot
/// budgets plus deficit-round-robin weighted-fair queueing over a
/// fleet-wide dispatch window.
pub struct FrontDoor {
    router: Router,
    core: Arc<FrontCore>,
}

impl FrontDoor {
    /// Starts a router (see [`Router::new`]) behind an admission layer.
    pub fn new(router_cfg: RouterConfig, cfg: AdmissionConfig) -> Self {
        let router = Router::new(router_cfg);
        let core = Arc::new(FrontCore {
            cfg,
            fleet: Arc::downgrade(router.inner()),
            state: Mutex::new(FrontState::default()),
            idle: Condvar::new(),
            obs: FrontObs::new(router.inner().obs.scope.clone()),
        });
        let hook_core = Arc::clone(&core);
        router.set_finish_hook(Arc::new(move |fleet_id, _outcome| {
            hook_core.on_finish(fleet_id);
        }));
        FrontDoor { router, core }
    }

    /// The fleet behind the door (stats, fault injection).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Jobs shed with [`JobError::OverBudget`] so far (`front.jobs_shed`).
    pub fn shed_count(&self) -> u64 {
        self.core.obs.shed.get()
    }

    /// One tenant's admitted-but-unfinished shots.
    pub fn inflight_shots(&self, tenant: &str) -> u64 {
        self.core.lock().inflight.get(tenant).copied().unwrap_or(0)
    }

    /// The dispatch log so far (cloned; for fairness auditing).
    pub fn dispatch_log(&self) -> Vec<DispatchRecord> {
        self.core.lock().log.clone()
    }

    /// Admits or sheds a submission. Admission is immediate (the budget
    /// check); dispatch to the fleet happens when DRR reaches the job.
    /// Requests without a tenant share the `""` bucket.
    ///
    /// # Errors
    ///
    /// [`JobError::OverBudget`] when the tenant's admitted-but-
    /// unfinished shots plus this job would exceed its budget;
    /// [`JobError::EmptyJob`] for zero shots;
    /// [`JobError::NotAccepting`] once draining began.
    pub fn submit(&self, req: JobRequest) -> Result<AdmittedJob, JobError> {
        if req.shots == 0 {
            return Err(JobError::EmptyJob);
        }
        let tenant = req.tenant.clone().unwrap_or_default();
        let shots = req.shots;
        let admitted = {
            let mut st = self.core.lock();
            if st.draining {
                return Err(JobError::NotAccepting);
            }
            let inflight = st.inflight.get(&tenant).copied().unwrap_or(0);
            if inflight + shots > self.core.cfg.tenant_budget_shots {
                let retry_after_shots = inflight + shots - self.core.cfg.tenant_budget_shots;
                self.core.obs.shed.inc();
                self.core.obs.scope.event_tenant(
                    TraceKind::Shed,
                    0,
                    0,
                    retry_after_shots,
                    shots,
                    &tenant,
                );
                return Err(JobError::OverBudget { retry_after_shots });
            }
            *st.inflight.entry(tenant.clone()).or_insert(0) += shots;
            let ticket: Arc<Ticket> = Arc::new((
                Mutex::new(TicketInner {
                    outcome: None,
                    dispatch_seq: None,
                }),
                Condvar::new(),
            ));
            let arrival_seq = st.dispatch_seq;
            let weight = self
                .core
                .cfg
                .weights
                .iter()
                .find(|(t, _)| *t == tenant)
                .map(|(_, w)| (*w).max(1))
                .unwrap_or(1);
            let qi = match st.queues.iter().position(|q| q.tenant == tenant) {
                Some(qi) => qi,
                None => {
                    st.queues.push(TenantQueue {
                        tenant: tenant.clone(),
                        weight,
                        deficit: 0,
                        queue: VecDeque::new(),
                    });
                    st.queues.len() - 1
                }
            };
            st.queues[qi].queue.push_back(Pending {
                req,
                tenant: tenant.clone(),
                shots,
                arrival_seq,
                ticket: Arc::clone(&ticket),
            });
            self.core.obs.queue_depth.add(1);
            // Emit under the front lock so the admitted event's ring
            // position precedes this job's dispatch.
            self.core.obs.admitted.inc();
            self.core.obs.scope.event_tenant(
                TraceKind::Admitted,
                0,
                0,
                arrival_seq,
                shots,
                &tenant,
            );
            AdmittedJob {
                tenant,
                shots,
                arrival_seq,
                ticket,
            }
        };
        self.core.pump();
        Ok(admitted)
    }

    /// Stops admitting, dispatches every queued job as the window frees
    /// up, then drains the fleet. Results are the router's (see
    /// [`Router::drain`]), ordered by fleet submission id.
    ///
    /// # Errors
    ///
    /// As [`Router::drain`].
    pub fn drain(self) -> Result<Vec<RoutedResult>, JobError> {
        self.core.lock().draining = true;
        loop {
            self.core.pump();
            let st = self.core.lock();
            if st.queues.iter().all(|q| q.queue.is_empty()) {
                break;
            }
            // Completions notify `idle`; the timeout is a backstop, not
            // the mechanism.
            let _ = self
                .core
                .idle
                .wait_timeout(st, Duration::from_millis(10))
                .expect("front lock poisoned");
        }
        self.router.drain()
    }
}
