//! # quape-obs — fleet-wide telemetry for the QuAPE stack
//!
//! The observability layer threaded through every serving tier
//! (engine → server → router → front door):
//!
//! * **Metrics** ([`Counter`], [`Gauge`], [`Histogram`], [`Registry`]):
//!   wait-free atomic instruments with log2-bucketed latency histograms
//!   (p50/p95/max), rendered as sorted, serde-stable
//!   [`MetricsSnapshot`]s.
//! * **Lifecycle tracing** ([`Recorder`], [`ObsScope`], [`TraceEvent`]):
//!   monotonic-clocked span events for every job
//!   (accepted → admitted → placed → compiled/cache-hit → packed →
//!   quantum×N → finalized/cancelled/re-routed) pushed into bounded
//!   per-shard rings.
//! * **Export** ([`chrome_trace`], [`flight_recorder`]): Chrome
//!   trace-event JSON (Perfetto-loadable, pid = shard, tid = worker)
//!   and a plain-text dump for test failures.
//! * **Audits** ([`audit_lifecycle`], [`audit_complete`]): the span
//!   ordering invariants a well-formed trace must satisfy.
//!
//! Metrics are always on: every [`ObsScope`] owns a [`Registry`] whose
//! counters and gauges cost one relaxed atomic per update. Tracing is
//! opt-in: the [`Recorder::off`] / [`ObsScope::off`] defaults are
//! untraced — the switch governs only the trace ring, the histograms
//! and the engine's per-shot instruments. Metric updates never lock and
//! event pushes take only a leaf mutex; telemetry never steers the
//! schedule, so bit-identity suites pass unchanged with tracing on.
//!
//! ```
//! use quape_obs::{audit_lifecycle, chrome_trace, Recorder, TraceKind};
//!
//! let rec = Recorder::new();
//! let shard = rec.scope(0);
//! let quanta = shard.counter("server.quanta");
//! shard.event(TraceKind::Accepted, 0, 1, 128, 1);
//! quanta.inc();
//! shard.event(TraceKind::Quantum, 1, 1, 0, 64);
//! shard.event(TraceKind::Finalized, 0, 1, 128, 0);
//! assert_eq!(audit_lifecycle(&rec.events()).unwrap().jobs, 1);
//! assert!(chrome_trace(&rec).contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod chrome;
mod metrics;
mod trace;

pub use audit::{audit_complete, audit_lifecycle, LifecycleAudit};
pub use chrome::{chrome_trace, flight_recorder};
pub use metrics::{
    Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSample, MetricsSnapshot,
    Registry, HISTOGRAM_BUCKETS,
};
pub use trace::{
    ObsScope, Recorder, RecorderMetrics, ScopeMetrics, TraceEvent, TraceKind,
    DEFAULT_RING_CAPACITY, FLEET_SCOPE,
};
