//! The process-wide pool of shot helpers behind [`ShotEngine::run`].
//!
//! A batch runs on its calling thread and posts one help request per
//! helper it may use. Helpers are threads that park on the pool between
//! batches; the pool spawns them lazily, up to the most helpers any batch
//! has asked for, and never retires them. A helper that takes a request
//! *joins* the batch only while the caller still runs shots of it, so
//! the caller waits for exactly the helpers that joined, never for one
//! that is busy elsewhere. Joined helpers only run shots (and the runs
//! those shots nest), so nested and concurrent batches cannot deadlock.
//!
//! Shots are claimed in guided chunks: each claim takes the unclaimed
//! remainder divided by twice the batch's thread count, at least one
//! shot. Early claims are large, so the shared counter is touched
//! O(threads · log shots) times rather than once per shot, and the last
//! claims are single shots, so the threads finish together.

use crate::engine::{ShotAccumulator, ShotEngine, WorkerScratch};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Help requests not yet taken and the helpers that exist.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled once per posted request.
    posted: Condvar,
}

struct PoolState {
    /// One entry per helper a live batch asked for and none has taken.
    requests: VecDeque<Arc<Batch>>,
    /// Helper threads spawned so far (parked or helping).
    helpers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        requests: VecDeque::new(),
        helpers: 0,
    }),
    posted: Condvar::new(),
};

/// Locks `m`, ignoring poisoning: no code panics while holding these
/// locks, and shot panics are caught outside them.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Helper threads the pool holds.
pub(crate) fn helpers() -> usize {
    lock(&POOL.state).helpers
}

/// The state one [`ShotEngine::run`] call shares with its helpers.
struct Batch {
    engine: ShotEngine,
    shots: u64,
    /// The caller plus the helpers it asked for.
    threads: u64,
    /// The first unclaimed shot.
    next: AtomicU64,
    state: Mutex<BatchState>,
    /// Signalled when the last joined helper finishes.
    finished: Condvar,
}

#[derive(Default)]
struct BatchState {
    /// Set once the caller has run out of shots to claim; no helper joins
    /// after that.
    closed: bool,
    /// Helpers that joined and have not finished.
    running: usize,
    /// The finished helpers' shots.
    acc: ShotAccumulator,
    /// The first panic a helper caught.
    panic: Option<Box<dyn Any + Send>>,
}

impl Batch {
    /// Claims the next guided chunk, or `None` once every shot is
    /// claimed.
    fn claim(&self) -> Option<Range<u64>> {
        let mut start = self.next.load(Ordering::Relaxed);
        loop {
            let left = self.shots - start;
            if left == 0 {
                return None;
            }
            let end = start + (left / (2 * self.threads)).max(1);
            match self
                .next
                .compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(start..end),
                Err(now) => start = now,
            }
        }
    }

    /// Runs claimed chunks into `acc` until every shot is claimed.
    fn work(&self, acc: &mut ShotAccumulator) {
        let mut scratch = WorkerScratch::new();
        while let Some(chunk) = self.claim() {
            for shot in chunk {
                self.engine.run_shot_reusing(shot, &mut scratch, acc);
            }
        }
    }

    /// Leaves every unclaimed shot unrun.
    fn abort(&self) {
        self.next.store(self.shots, Ordering::Relaxed);
    }

    /// A helper's part: join unless the caller is done, run shots, and
    /// hand the fold, or the panic that cut it short, to the caller.
    fn help(&self) {
        {
            let mut st = lock(&self.state);
            if st.closed {
                return;
            }
            st.running += 1;
        }
        let mut acc = ShotAccumulator::default();
        let result = panic::catch_unwind(AssertUnwindSafe(|| self.work(&mut acc)));
        let mut st = lock(&self.state);
        match result {
            Ok(()) => st.acc.merge(&acc),
            Err(payload) => {
                self.abort();
                st.panic.get_or_insert(payload);
            }
        }
        st.running -= 1;
        if st.running == 0 {
            self.finished.notify_all();
        }
    }
}

/// Withdraws a batch's untaken requests and closes it to new helpers,
/// also when the caller unwinds out of one of its own shots (the batch
/// is then aborted, so joined helpers stop at their next claim).
struct Closer<'a>(&'a Arc<Batch>);

impl Drop for Closer<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
        lock(&POOL.state)
            .requests
            .retain(|b| !Arc::ptr_eq(b, self.0));
        lock(&self.0.state).closed = true;
    }
}

/// Posts `n` help requests for `batch`, first growing the pool to `n`
/// helpers. A helper that cannot be spawned is left out: the caller runs
/// whatever no helper claims.
fn post(batch: &Arc<Batch>, n: usize) {
    let mut pool = lock(&POOL.state);
    while pool.helpers < n {
        let spawned = std::thread::Builder::new()
            .name("quape-shot".into())
            .spawn(helper_loop);
        if spawned.is_err() {
            break;
        }
        pool.helpers += 1;
    }
    let n = n.min(pool.helpers);
    for _ in 0..n {
        pool.requests.push_back(Arc::clone(batch));
    }
    drop(pool);
    for _ in 0..n {
        POOL.posted.notify_one();
    }
}

/// A helper's life: take a request, help, park when there is none.
fn helper_loop() {
    loop {
        let batch = {
            let mut pool = lock(&POOL.state);
            loop {
                if let Some(batch) = pool.requests.pop_front() {
                    break batch;
                }
                pool = POOL
                    .posted
                    .wait(pool)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        batch.help();
    }
}

/// Runs `shots` shots of `engine` on the calling thread and up to
/// `threads - 1` pooled helpers, and returns their fold. A helper's panic
/// resumes on the caller once every joined helper has finished.
pub(crate) fn run(engine: &ShotEngine, shots: u64, threads: usize) -> ShotAccumulator {
    let batch = Arc::new(Batch {
        engine: engine.clone(),
        shots,
        threads: threads as u64,
        next: AtomicU64::new(0),
        state: Mutex::default(),
        finished: Condvar::new(),
    });
    if threads > 1 {
        post(&batch, threads - 1);
    }
    let mut acc = ShotAccumulator::default();
    let closer = Closer(&batch);
    batch.work(&mut acc);
    drop(closer);
    let mut st = lock(&batch.state);
    while st.running > 0 {
        st = batch
            .finished
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner);
    }
    if let Some(payload) = st.panic.take() {
        drop(st);
        panic::resume_unwind(payload);
    }
    acc.merge(&st.acc);
    acc
}
