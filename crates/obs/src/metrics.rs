//! Wait-free metric instruments and the per-scope registry.
//!
//! Counters and gauges are `Arc<atomic>` handles, always live: an update
//! is one relaxed atomic RMW. Histograms are `Option`-wrapped: the
//! disabled default is a `None` that compiles down to a single branch
//! per update. No locks on any hot path.
//! Registration (name lookup) takes a leaf mutex, but happens once at
//! construction time, never per shot or per quantum.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`]. Bucket `i >= 1` covers
/// values in `[2^(i-1), 2^i)`; bucket 0 holds exact zeros.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed up/down gauge. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds `n` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the log2 bucket holding `v`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Largest value a bucket can hold — the reported percentile estimate.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i).saturating_sub(1)
    }
}

/// A log2-bucketed latency histogram tracking count, sum, max, and
/// bucket occupancy; percentiles are reported as the upper bound of the
/// bucket containing the requested rank. Cloning shares the cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl Histogram {
    /// A disabled histogram: every update is a no-op.
    pub const fn off() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records a duration in microseconds.
    #[inline]
    pub fn record_micros(&self, d: std::time::Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Snapshot of count/percentiles/max (zeros when disabled).
    pub fn sample(&self, name: &str) -> HistogramSample {
        let Some(h) = &self.0 else {
            let name = name.to_string();
            return HistogramSample {
                name,
                ..Default::default()
            };
        };
        let buckets: Vec<u64> = h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let percentile = |num: u64, den: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (count * num).div_ceil(den).max(1);
            let mut cum = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(HISTOGRAM_BUCKETS - 1)
        };
        HistogramSample {
            name: name.to_string(),
            count,
            p50: percentile(1, 2),
            p95: percentile(19, 20),
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// Named instruments of one kind, in registration order.
type Slots<T> = Mutex<Vec<(String, Arc<T>)>>;

/// The instrument registered under `name`, created by `new` on first use.
fn find_or_create<T>(slots: &Slots<T>, name: &str, new: impl FnOnce() -> T) -> Arc<T> {
    let mut v = slots.lock().expect("registry lock poisoned");
    if let Some((_, x)) = v.iter().find(|(n, _)| n == name) {
        return Arc::clone(x);
    }
    let x = Arc::new(new());
    v.push((name.to_string(), Arc::clone(&x)));
    x
}

/// Every instrument's `sample`, sorted by name so the serde output has
/// a stable order independent of registration order.
fn sorted_samples<T, S>(slots: &Slots<T>, sample: impl Fn(&str, &Arc<T>) -> S) -> Vec<S> {
    let v = slots.lock().expect("registry lock poisoned");
    let mut refs: Vec<&(String, Arc<T>)> = v.iter().collect();
    refs.sort_by(|a, b| a.0.cmp(&b.0));
    refs.into_iter().map(|(n, x)| sample(n, x)).collect()
}

/// A named-instrument registry. Lookups are find-or-create by name under
/// a leaf mutex; the returned handles update lock-free thereafter.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Slots<AtomicU64>,
    gauges: Slots<AtomicI64>,
    histograms: Slots<HistogramCore>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it on first
    /// use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(find_or_create(&self.counters, name, AtomicU64::default))
    }

    /// Returns the gauge registered under `name`, creating it on first
    /// use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(find_or_create(&self.gauges, name, AtomicI64::default))
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(Some(find_or_create(
            &self.histograms,
            name,
            HistogramCore::new,
        )))
    }

    /// Renders every registered instrument, sorted by name within each
    /// kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: sorted_samples(&self.counters, |name, c| CounterSample {
                name: name.to_string(),
                value: c.load(Ordering::Relaxed),
            }),
            gauges: sorted_samples(&self.gauges, |name, g| GaugeSample {
                name: name.to_string(),
                value: g.load(Ordering::Relaxed),
            }),
            histograms: sorted_samples(&self.histograms, |name, h| {
                Histogram(Some(Arc::clone(h))).sample(name)
            }),
        }
    }
}

/// One counter reading.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct CounterSample {
    /// Registered instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge reading.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct GaugeSample {
    /// Registered instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// One histogram reading (percentiles are log2-bucket upper bounds).
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct HistogramSample {
    /// Registered instrument name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Median estimate.
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// Exact maximum observed.
    pub max: u64,
}

/// All instruments of one scope, sorted by name within each kind.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Counter readings.
    pub counters: Vec<CounterSample>,
    /// Gauge readings.
    pub gauges: Vec<GaugeSample>,
    /// Histogram readings.
    pub histograms: Vec<HistogramSample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_histogram_is_inert() {
        let h = Histogram::off();
        h.record(9);
        assert_eq!(h.sample("x").count, 0);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let r = Registry::default();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1);
        assert_eq!(snap.counters[0].value, 3);
    }

    #[test]
    fn histogram_percentiles_track_buckets() {
        let r = Registry::default();
        let h = r.histogram("lat");
        for v in [0u64, 1, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.sample("lat");
        assert_eq!(s.count, 7);
        assert_eq!(s.max, 1000);
        // p50 rank 4 of 7 lands in the [2,4) bucket.
        assert_eq!(s.p50, 3);
        // p95 rank 7 lands in the [512,1024) bucket.
        assert_eq!(s.p95, 1023);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let r = Registry::default();
        r.counter("zeta");
        r.counter("alpha");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
