//! Lifecycle trace recording: the shared [`Recorder`], per-shard
//! [`ObsScope`]s, and the bounded event ring.
//!
//! Every scope owns a [`Registry`] of metric instruments; a traced scope
//! also owns a bounded ring of [`TraceEvent`]s. The ring mutex is a
//! *leaf* lock: it is taken only to push or snapshot events and never
//! while any scheduler or fleet lock is wanted, so instrumented code can
//! emit events from under its own locks without ordering hazards.

use crate::metrics::{MetricsSnapshot, Registry};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scope id used for fleet-level events (placement, re-route, steal,
/// admission). Rendered as its own Chrome trace process.
pub const FLEET_SCOPE: u32 = u32::MAX;

/// What happened. Names match the lifecycle in the README:
/// accepted → admitted → placed → compiled/cache-hit → packed →
/// quantum×N → finalized/cancelled/re-routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A shard accepted a job into its queue (`a` = shots, `b` = weight).
    Accepted,
    /// The front door admitted a request (`a` = arrival_seq in shots,
    /// `b` = shots).
    Admitted,
    /// The front door shed a request (`a` = retry_after_shots,
    /// `b` = shots).
    Shed,
    /// A queued request was dispatched to the fleet (`a` = dispatch_seq
    /// in shots, `b` = shots; `job` = fleet job id).
    Dispatched,
    /// One deficit-round-robin planning round (`a` = jobs in the batch,
    /// `b` = shots in the batch).
    DrrRound,
    /// The router placed a fleet job (`a` = shard, `b` = server-local
    /// job id).
    Placed,
    /// A job compiled fresh (`a` = compile wall time in µs).
    Compiled,
    /// A job hit the compile cache.
    CacheHit,
    /// A job was merged into a multiprogramming pack (`a` = packed
    /// entry id, `b` = member count).
    Packed,
    /// One executed shot quantum (`a`..`b` = shot range; `dur_us` set).
    Quantum,
    /// A job finalized normally (`a` = executed shots).
    Finalized,
    /// A job finalized cancelled (`a` = executed shots).
    Cancelled,
    /// The router re-routed a fleet job (`a` = from shard,
    /// `b` = to shard).
    ReRouted,
    /// An idle shard stole a fleet job (`a` = victim shard,
    /// `b` = thief shard).
    Stolen,
    /// A shard was killed (`a` = shard).
    ShardDown,
    /// A shard began retirement (`a` = shard).
    ShardRetiring,
}

impl TraceKind {
    /// Short lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Accepted => "accepted",
            TraceKind::Admitted => "admitted",
            TraceKind::Shed => "shed",
            TraceKind::Dispatched => "dispatched",
            TraceKind::DrrRound => "drr_round",
            TraceKind::Placed => "placed",
            TraceKind::Compiled => "compiled",
            TraceKind::CacheHit => "cache_hit",
            TraceKind::Packed => "packed",
            TraceKind::Quantum => "quantum",
            TraceKind::Finalized => "finalized",
            TraceKind::Cancelled => "cancelled",
            TraceKind::ReRouted => "re_routed",
            TraceKind::Stolen => "stolen",
            TraceKind::ShardDown => "shard_down",
            TraceKind::ShardRetiring => "shard_retiring",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Push order within the scope (gapless from 0, including events
    /// later evicted from the bounded ring).
    pub seq: u64,
    /// Microseconds since the recorder's monotonic origin.
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Scope id — the Chrome trace `pid` ([`FLEET_SCOPE`] for fleet
    /// events).
    pub shard: u32,
    /// Worker index — the Chrome trace `tid` (0 = control plane).
    pub worker: u32,
    /// Job id, scope-local (server job id on shard scopes, fleet job id
    /// on the fleet scope; 0 when not yet assigned).
    pub job: u64,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific argument (see [`TraceKind`]).
    pub a: u64,
    /// Kind-specific argument (see [`TraceKind`]).
    pub b: u64,
    /// Tenant, on admission-path events.
    pub tenant: Option<String>,
}

impl TraceEvent {
    /// Everything except wall-clock fields (`ts_us`, `dur_us`, and
    /// [`Compiled`](TraceKind::Compiled)'s measured compile time in
    /// `a`) — two same-seed runs must agree on this projection
    /// event-for-event.
    pub fn normalized(&self) -> (u32, u32, u64, TraceKind, u64, u64, Option<&str>) {
        let a = match self.kind {
            TraceKind::Compiled => 0,
            _ => self.a,
        };
        (
            self.shard,
            self.worker,
            self.job,
            self.kind,
            a,
            self.b,
            self.tenant.as_deref(),
        )
    }
}

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    next_seq: u64,
}

#[derive(Debug)]
struct ScopeCore {
    shard: u32,
    label: String,
    origin: Instant,
    registry: Registry,
    /// `None` for an untraced scope: no events, no histograms.
    ring: Option<Mutex<Ring>>,
}

/// A cheap per-shard telemetry handle. Every scope owns a metric
/// [`Registry`] whose counters and gauges are always live; the trace
/// switch decides only whether the scope also keeps an event ring and
/// live histograms. An untraced scope ([`ObsScope::off`]) records no
/// events and hands out inert [`histogram`](ObsScope::histogram)s.
/// Cloning shares the ring and registry, so give each server its own
/// scope or their counters merge.
#[derive(Clone)]
pub struct ObsScope(Arc<ScopeCore>);

impl Default for ObsScope {
    fn default() -> Self {
        ObsScope::off()
    }
}

impl std::fmt::Debug for ObsScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let untraced = if self.is_on() { "" } else { ", untraced" };
        write!(f, "ObsScope({}{untraced})", self.0.label)
    }
}

impl ObsScope {
    /// A scope tracing into a ring of `ring_cap` events, or untraced.
    fn build(shard: u32, label: &str, origin: Instant, ring_cap: Option<usize>) -> Self {
        let ring = ring_cap.map(|cap| {
            Mutex::new(Ring {
                buf: VecDeque::new(),
                cap,
                dropped: 0,
                next_seq: 0,
            })
        });
        ObsScope(Arc::new(ScopeCore {
            shard,
            label: label.to_string(),
            origin,
            registry: Registry::default(),
            ring,
        }))
    }

    /// A fresh untraced scope: live counters and gauges, no events, no
    /// histograms.
    pub fn off() -> Self {
        ObsScope::build(0, "off", Instant::now(), None)
    }

    /// Whether this scope traces (records events and histograms).
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.ring.is_some()
    }

    /// The scope id (Chrome trace pid).
    pub fn shard(&self) -> u32 {
        self.0.shard
    }

    /// Registers (or finds) a counter in this scope's registry.
    pub fn counter(&self, name: &str) -> crate::Counter {
        self.0.registry.counter(name)
    }

    /// Registers (or finds) a gauge in this scope's registry.
    pub fn gauge(&self, name: &str) -> crate::Gauge {
        self.0.registry.gauge(name)
    }

    /// Registers (or finds) a histogram in this scope's registry; an
    /// inert handle when the scope does not trace.
    pub fn histogram(&self, name: &str) -> crate::Histogram {
        if self.is_on() {
            self.0.registry.histogram(name)
        } else {
            crate::Histogram::off()
        }
    }

    /// Records an instant event, timestamped now.
    #[inline]
    pub fn event(&self, kind: TraceKind, worker: u32, job: u64, a: u64, b: u64) {
        self.emit(kind, worker, job, a, b, None, None);
    }

    /// Records an instant event carrying a tenant label.
    #[inline]
    pub fn event_tenant(
        &self,
        kind: TraceKind,
        worker: u32,
        job: u64,
        a: u64,
        b: u64,
        tenant: &str,
    ) {
        self.emit(kind, worker, job, a, b, None, Some(tenant));
    }

    /// Records a span that began at `start` and ends now.
    #[inline]
    pub fn span(&self, kind: TraceKind, worker: u32, job: u64, a: u64, b: u64, start: Instant) {
        self.emit(kind, worker, job, a, b, Some(start), None);
    }

    /// Pushes one event — a span when `start` is given, else an instant
    /// — into the ring; a no-op when untraced.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn emit(
        &self,
        kind: TraceKind,
        worker: u32,
        job: u64,
        a: u64,
        b: u64,
        start: Option<Instant>,
        tenant: Option<&str>,
    ) {
        let Some(ring) = &self.0.ring else { return };
        let origin = self.0.origin;
        let (ts_us, dur_us) = match start {
            Some(s) => (
                s.saturating_duration_since(origin).as_micros() as u64,
                s.elapsed().as_micros() as u64,
            ),
            None => (origin.elapsed().as_micros() as u64, 0),
        };
        let mut ring = ring.lock().expect("trace ring lock poisoned");
        let ev = TraceEvent {
            seq: ring.next_seq,
            ts_us,
            dur_us,
            shard: self.0.shard,
            worker,
            job,
            kind,
            a,
            b,
            tenant: tenant.map(str::to_string),
        };
        ring.next_seq += 1;
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    /// The scope's events in push order (empty when untraced).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.0.ring.as_ref().map_or_else(Vec::new, |r| {
            let ring = r.lock().expect("trace ring lock poisoned");
            ring.buf.iter().cloned().collect()
        })
    }

    /// Snapshot of this scope's metric registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.0.registry.snapshot()
    }

    /// Events evicted from this scope's full ring.
    fn dropped(&self) -> u64 {
        self.0
            .ring
            .as_ref()
            .map_or(0, |r| r.lock().expect("trace ring lock poisoned").dropped)
    }
}

#[derive(Debug)]
struct RecorderCore {
    origin: Instant,
    cap: usize,
    scopes: Mutex<Vec<ObsScope>>,
}

/// The shared trace recorder: a set of traced scopes (one per shard
/// plus the fleet scope) over one monotonic clock. The untraced default
/// ([`Recorder::off`]) keeps nothing: every scope it hands out is a
/// fresh untraced [`ObsScope`] with its own registry, so callers hold
/// on to the scopes they are given. An enabled recorder is cheap to
/// clone and hand to every layer of the stack.
#[derive(Clone, Default)]
pub struct Recorder(Option<Arc<RecorderCore>>);

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Recorder(off)"),
            Some(c) => write!(f, "Recorder({} scopes)", c.scopes.lock().unwrap().len()),
        }
    }
}

/// Default per-scope ring capacity (events).
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Recorder {
    /// An enabled recorder with the default ring capacity.
    pub fn new() -> Self {
        Recorder::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled recorder whose scopes keep at most `cap` events each
    /// (oldest evicted first; evictions counted).
    pub fn with_capacity(cap: usize) -> Self {
        Recorder(Some(Arc::new(RecorderCore {
            origin: Instant::now(),
            cap: cap.max(1),
            scopes: Mutex::new(Vec::new()),
        })))
    }

    /// The untraced recorder: every derived scope is a fresh untraced
    /// scope (see [`ObsScope::off`]).
    pub const fn off() -> Self {
        Recorder(None)
    }

    /// Finds or creates the scope for `shard`, labelled `shard-N`.
    pub fn scope(&self, shard: u32) -> ObsScope {
        self.labeled_scope(shard, &format!("shard-{shard}"))
    }

    /// Finds or creates the fleet scope (placement / admission events).
    pub fn fleet_scope(&self) -> ObsScope {
        self.labeled_scope(FLEET_SCOPE, "fleet")
    }

    /// Finds or creates a scope with an explicit Chrome process label.
    /// The label of an existing scope is kept. An untraced recorder
    /// returns a fresh untraced scope on every call.
    pub fn labeled_scope(&self, shard: u32, label: &str) -> ObsScope {
        let Some(core) = &self.0 else {
            return ObsScope::build(shard, label, Instant::now(), None);
        };
        let mut scopes = core.scopes.lock().unwrap();
        if let Some(s) = scopes.iter().find(|s| s.shard() == shard) {
            return s.clone();
        }
        let s = ObsScope::build(shard, label, core.origin, Some(core.cap));
        scopes.push(s.clone());
        s
    }

    /// Every scope's events merged and sorted by `(ts_us, shard, seq)`.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self.scopes().iter().flat_map(ObsScope::events).collect();
        out.sort_by_key(|e| (e.ts_us, e.shard, e.seq));
        out
    }

    /// The recorder's scopes, in creation order (none when untraced).
    fn scopes(&self) -> Vec<ObsScope> {
        self.0.as_ref().map_or_else(Vec::new, |core| {
            core.scopes
                .lock()
                .expect("scope list lock poisoned")
                .clone()
        })
    }

    /// Scope ids and labels, in creation order.
    pub fn scope_labels(&self) -> Vec<(u32, String)> {
        self.scopes()
            .iter()
            .map(|s| (s.shard(), s.0.label.clone()))
            .collect()
    }

    /// Total events evicted from full rings across all scopes.
    pub fn dropped_events(&self) -> u64 {
        self.scopes().iter().map(ObsScope::dropped).sum()
    }

    /// Per-scope metric snapshots, sorted by scope id.
    pub fn metrics(&self) -> RecorderMetrics {
        let mut scopes: Vec<ScopeMetrics> = self
            .scopes()
            .iter()
            .map(|s| ScopeMetrics {
                scope: s.shard(),
                label: s.0.label.clone(),
                metrics: s.metrics(),
            })
            .collect();
        scopes.sort_by_key(|s| s.scope);
        RecorderMetrics {
            scopes,
            dropped_events: self.dropped_events(),
        }
    }
}

/// One scope's metrics, labelled.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ScopeMetrics {
    /// Scope id (Chrome trace pid).
    pub scope: u32,
    /// Scope label (`shard-N` or `fleet`).
    pub label: String,
    /// Instrument readings.
    pub metrics: MetricsSnapshot,
}

/// Metrics across every scope of a recorder — the `--metrics-out`
/// payload of `mixed_traffic`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct RecorderMetrics {
    /// Per-scope readings, sorted by scope id.
    pub scopes: Vec<ScopeMetrics>,
    /// Total ring evictions (0 means the trace is complete).
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_yields_untraced_scopes() {
        let r = Recorder::off();
        let s = r.scope(0);
        assert!(!s.is_on());
        s.event(TraceKind::Accepted, 0, 1, 10, 1);
        assert!(s.events().is_empty());
        assert!(r.events().is_empty());
        // Counters and gauges stay live; histograms follow the switch.
        s.counter("jobs").inc();
        s.gauge("depth").add(2);
        s.histogram("lat").record(7);
        let m = s.metrics();
        assert_eq!((m.counters[0].value, m.gauges[0].value), (1, 2));
        assert!(m.histograms.is_empty());
        // The recorder keeps nothing: each call is a fresh registry.
        assert!(r.scope(0).metrics().counters.is_empty());
        assert!(r.metrics().scopes.is_empty());
    }

    #[test]
    fn scopes_are_shared_by_id() {
        let r = Recorder::new();
        let a = r.scope(3);
        let b = r.scope(3);
        a.event(TraceKind::Accepted, 0, 1, 0, 0);
        b.event(TraceKind::Finalized, 0, 1, 0, 0);
        let evs = a.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[1].kind, TraceKind::Finalized);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let r = Recorder::with_capacity(4);
        let s = r.scope(0);
        for j in 0..10 {
            s.event(TraceKind::Quantum, 0, j, 0, 0);
        }
        let evs = s.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].job, 6);
        assert_eq!(r.dropped_events(), 6);
        // Seq numbers stay gapless even across evictions.
        assert_eq!(evs.last().unwrap().seq, 9);
    }

    #[test]
    fn merged_events_sorted_by_time_then_scope() {
        let r = Recorder::new();
        r.scope(1).event(TraceKind::Accepted, 0, 1, 0, 0);
        r.fleet_scope().event(TraceKind::Placed, 0, 1, 1, 0);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert!(evs
            .windows(2)
            .all(|w| (w[0].ts_us, w[0].shard, w[0].seq) <= (w[1].ts_us, w[1].shard, w[1].seq)));
        let labels = r.scope_labels();
        assert_eq!(labels[0], (1, "shard-1".to_string()));
        assert_eq!(labels[1], (FLEET_SCOPE, "fleet".to_string()));
    }
}
