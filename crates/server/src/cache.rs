//! The content-hash-keyed compiled-job cache.
//!
//! Compile-once/run-many is the dominant cost lever of a serving layer:
//! assembling and validating a long program costs as much as running
//! several shots of it. The cache maps a stable 64-bit
//! content key to an `Arc`-shared [`CompiledJob`], with:
//!
//! * **LRU eviction** at a fixed capacity (recency is bumped on every
//!   lookup, hit or miss);
//! * **in-flight deduplication**: the first request for a key inserts a
//!   pending slot and compiles *outside* the cache lock; concurrent
//!   requests for the same key find the slot and block on a condvar
//!   until the result lands, so one compilation serves them all;
//! * **observable stats** ([`CacheStats`]): hits, misses, evictions and
//!   actual compilations, counted in the owning scope's registry.

use crate::server::JobError;
use quape_core::CompiledJob;
use quape_obs::{Counter, ObsScope};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// A view over a [`CompileCache`]'s `server.cache_{hits,misses,evictions}`
/// and `server.compiles` counters. Submits and packer lookups both count:
/// submit-only hits are `hits` − [`PackerStats::combine_cache_hits`](crate::PackerStats::combine_cache_hits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups that found an entry (possibly still compiling).
    pub hits: u64,
    /// Lookups that had to start a compilation.
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Compilations actually performed, failed ones too (`== misses` at
    /// rest; kept separate so exactly-once is directly observable).
    pub compiles: u64,
}

impl CacheStats {
    /// Adds `other`'s counters into `self` — how a front router folds
    /// per-shard (or per-tenant-per-shard) stats into fleet totals.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.compiles += other.compiles;
    }
}

/// A resolved cache lookup: the shared job plus whether it was served
/// from the cache (`hit`) or compiled by this call.
#[derive(Debug, Clone)]
pub struct CacheOutcome {
    /// The compiled job, shared with every other holder of this entry.
    pub job: Arc<CompiledJob>,
    /// True when an existing entry served the request (including the
    /// case of blocking on another request's in-flight compilation).
    pub hit: bool,
}

/// One entry's result cell: empty while the owning request compiles,
/// then filled exactly once and broadcast via the condvar.
#[derive(Debug, Default)]
struct Slot {
    ready: Mutex<Option<Result<Arc<CompiledJob>, JobError>>>,
    cond: Condvar,
}

impl Slot {
    fn fill(&self, result: Result<Arc<CompiledJob>, JobError>) {
        let mut guard = self.ready.lock().expect("slot lock poisoned");
        debug_assert!(guard.is_none(), "slot filled twice");
        *guard = Some(result);
        self.cond.notify_all();
    }

    fn wait(&self) -> Result<Arc<CompiledJob>, JobError> {
        let guard = self.ready.lock().expect("slot lock poisoned");
        let guard = self
            .cond
            .wait_while(guard, |r| r.is_none())
            .expect("slot lock poisoned");
        guard.clone().expect("wait_while guarantees a result")
    }
}

#[derive(Debug)]
struct Entry {
    slot: Arc<Slot>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u128, Entry>,
    tick: u64,
    /// Per-tenant attribution of the cache counters: hits/misses/compiles
    /// go to the requesting tenant, evictions to the tenant whose insert
    /// pushed the victim out. Unattributed (tenant-less) requests only
    /// count in the registry.
    tenant_stats: HashMap<String, CacheStats>,
}

impl Inner {
    /// Applies `bump` to `tenant`'s row, copying the name only once.
    fn attribute(&mut self, tenant: Option<&str>, bump: impl Fn(&mut CacheStats)) {
        let Some(t) = tenant else { return };
        match self.tenant_stats.get_mut(t) {
            Some(row) => bump(row),
            None => {
                let mut row = CacheStats::default();
                bump(&mut row);
                self.tenant_stats.insert(t.to_string(), row);
            }
        }
    }
}

/// LRU cache of compiled jobs, keyed by content hash, safe for
/// concurrent use (see the module docs for the locking discipline).
#[derive(Debug)]
pub struct CompileCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    compiles: Counter,
}

impl CompileCache {
    /// Creates a cache of at most `capacity` entries (min 1) counting into `scope`.
    pub fn new(capacity: usize, scope: &ObsScope) -> Self {
        CompileCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            hits: scope.counter("server.cache_hits"),
            misses: scope.counter("server.cache_misses"),
            evictions: scope.counter("server.cache_evictions"),
            compiles: scope.counter("server.compiles"),
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries (including in-flight compilations).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").map.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when `key` is currently cached (does not bump recency).
    pub fn contains(&self, key: u128) -> bool {
        self.inner
            .lock()
            .expect("cache lock poisoned")
            .map
            .contains_key(&key)
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            compiles: self.compiles.get(),
        }
    }

    /// Per-tenant snapshots of the same counters, sorted by tenant id.
    /// Only requests that named a tenant are attributed.
    pub fn tenant_stats(&self) -> Vec<(String, CacheStats)> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let mut rows: Vec<(String, CacheStats)> = inner
            .tenant_stats
            .iter()
            .map(|(t, s)| (t.clone(), *s))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Looks up `key`, compiling via `compile` on a miss.
    ///
    /// The compilation runs on the calling thread *without* holding the
    /// cache lock; concurrent callers with the same key block until the
    /// result is ready and share it. A failed compilation is reported to
    /// every waiter and the entry is removed, so a later request retries.
    /// If `compile` *panics*, the pending entry is removed and every
    /// waiter receives [`JobError::CompileUnavailable`] before the panic
    /// propagates — waiters never deadlock on an unfilled slot.
    ///
    /// # Errors
    ///
    /// Propagates the `compile` error (shared verbatim with any
    /// concurrent waiters on the same key).
    pub fn get_or_compile(
        &self,
        key: u128,
        tenant: Option<&str>,
        compile: impl FnOnce() -> Result<CompiledJob, JobError>,
    ) -> Result<CacheOutcome, JobError> {
        /// Unwind guard: if the compile closure panics, fail the slot
        /// (waking every waiter with an error) and drop the map entry,
        /// then let the panic continue.
        struct InFlight<'a> {
            cache: &'a CompileCache,
            key: u128,
            slot: &'a Arc<Slot>,
            armed: bool,
        }
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                self.cache.compiles.inc();
                let mut inner = self.cache.inner.lock().expect("cache lock poisoned");
                if inner
                    .map
                    .get(&self.key)
                    .is_some_and(|e| Arc::ptr_eq(&e.slot, self.slot))
                {
                    inner.map.remove(&self.key);
                }
                drop(inner);
                self.slot.fill(Err(JobError::CompileUnavailable));
            }
        }

        let slot = {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                let slot = entry.slot.clone();
                self.hits.inc();
                inner.attribute(tenant, |t| t.hits += 1);
                drop(inner);
                return slot.wait().map(|job| CacheOutcome { job, hit: true });
            }
            self.misses.inc();
            inner.attribute(tenant, |t| t.misses += 1);
            let slot = Arc::new(Slot::default());
            inner.map.insert(
                key,
                Entry {
                    slot: slot.clone(),
                    last_used: tick,
                },
            );
            if inner.map.len() > self.capacity {
                // Evict the least recently used entry other than the one
                // just inserted. Evicting an in-flight entry is safe: its
                // waiters hold the slot directly, only future lookups
                // re-compile.
                if let Some(&victim) = inner
                    .map
                    .iter()
                    .filter(|(&k, _)| k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k)
                {
                    inner.map.remove(&victim);
                    self.evictions.inc();
                    inner.attribute(tenant, |t| t.evictions += 1);
                }
            }
            slot
        };
        // Compile outside the cache lock so other keys proceed freely.
        let mut guard = InFlight {
            cache: self,
            key,
            slot: &slot,
            armed: true,
        };
        let result = compile().map(Arc::new);
        guard.armed = false;
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            self.compiles.inc();
            inner.attribute(tenant, |t| t.compiles += 1);
            if result.is_err() {
                // Drop the failed entry (if it was not already evicted)
                // so future requests retry instead of caching the error.
                if inner
                    .map
                    .get(&key)
                    .is_some_and(|e| Arc::ptr_eq(&e.slot, &slot))
                {
                    inner.map.remove(&key);
                }
            }
        }
        slot.fill(result.clone());
        result.map(|job| CacheOutcome { job, hit: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_core::QuapeConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn job(text: &str) -> CompiledJob {
        let program = quape_isa::assemble(text).expect("valid program");
        CompiledJob::compile(QuapeConfig::superscalar(4), program).expect("job compiles")
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = CompileCache::new(4, &ObsScope::off());
        let a = cache
            .get_or_compile(1, None, || Ok(job("0 H q0\nSTOP\n")))
            .unwrap();
        let b = cache
            .get_or_compile(1, None, || panic!("must not recompile"))
            .unwrap();
        assert!(!a.hit);
        assert!(b.hit);
        assert!(Arc::ptr_eq(&a.job, &b.job));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles, s.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = CompileCache::new(2, &ObsScope::off());
        let p = || Ok(job("0 H q0\nSTOP\n"));
        cache.get_or_compile(1, None, p).unwrap(); // {1}
        cache.get_or_compile(2, None, p).unwrap(); // {1, 2}
        cache.get_or_compile(1, None, p).unwrap(); // touch 1 → 2 is now LRU
        cache.get_or_compile(3, None, p).unwrap(); // evicts 2
        assert!(cache.contains(1));
        assert!(!cache.contains(2));
        assert!(cache.contains(3));
        assert_eq!(cache.stats().evictions, 1);
        // Re-requesting the victim recompiles.
        let again = cache.get_or_compile(2, None, p).unwrap();
        assert!(!again.hit);
        assert_eq!(cache.stats().compiles, 4);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_floor_is_one() {
        let cache = CompileCache::new(0, &ObsScope::off());
        assert_eq!(cache.capacity(), 1);
        cache.get_or_compile(1, None, || Ok(job("STOP\n"))).unwrap();
        cache.get_or_compile(2, None, || Ok(job("STOP\n"))).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_same_key_compiles_exactly_once() {
        let cache = Arc::new(CompileCache::new(4, &ObsScope::off()));
        let compiles = AtomicUsize::new(0);
        let outcomes: Vec<CacheOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .get_or_compile(7, None, || {
                                compiles.fetch_add(1, Ordering::SeqCst);
                                // Give the other threads time to pile up
                                // on the in-flight slot.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                Ok(job("0 H q0\n1 MEAS q0\nSTOP\n"))
                            })
                            .expect("compiles")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(compiles.load(Ordering::SeqCst), 1, "compiled exactly once");
        assert_eq!(cache.stats().compiles, 1);
        assert_eq!(cache.stats().hits + cache.stats().misses, 8);
        let first = &outcomes[0].job;
        for o in &outcomes {
            assert!(Arc::ptr_eq(first, &o.job), "all requests share one job");
        }
        assert_eq!(outcomes.iter().filter(|o| !o.hit).count(), 1);
    }

    #[test]
    fn panicking_compile_fails_waiters_instead_of_deadlocking() {
        let cache = Arc::new(CompileCache::new(4, &ObsScope::off()));
        let errors: Vec<JobError> = std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compile(5, None, || -> Result<CompiledJob, JobError> {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("assembler bug");
                    })
                }));
            });
            // Give the panicker time to insert the in-flight slot.
            std::thread::sleep(std::time::Duration::from_millis(10));
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        cache
                            .get_or_compile(5, None, || panic!("waiter must not compile"))
                            .unwrap_err()
                    })
                })
                .collect();
            let errs = waiters.into_iter().map(|h| h.join().unwrap()).collect();
            panicker.join().unwrap();
            errs
        });
        for e in errors {
            assert_eq!(e, JobError::CompileUnavailable);
        }
        // The entry is gone; a retry compiles for real.
        assert!(!cache.contains(5));
        let ok = cache.get_or_compile(5, None, || Ok(job("STOP\n"))).unwrap();
        assert!(!ok.hit);
        // The panicked compile still counts: compiles == misses.
        let s = cache.stats();
        assert_eq!((s.misses, s.compiles), (2, 2));
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = CompileCache::new(4, &ObsScope::off());
        let err = cache
            .get_or_compile(9, None, || Err(JobError::EmptyJob))
            .unwrap_err();
        assert_eq!(err, JobError::EmptyJob);
        assert!(!cache.contains(9));
        // The retry compiles for real.
        let ok = cache.get_or_compile(9, None, || Ok(job("STOP\n"))).unwrap();
        assert!(!ok.hit);
    }
}
