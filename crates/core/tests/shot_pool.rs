//! The shot pool behind `ShotEngine::run`: a helper's panic reaches the
//! caller and leaves the pool working, concurrent and nested batches
//! complete with their single-thread aggregates, and the pool never
//! grows past what a batch asked for.
//!
//! The tests take one lock each, so that each sees the pool as its own
//! runs leave it. No test asks for more than 4 threads, so the pool never
//! needs more than 3 helpers.

use quape_core::{BatchAggregate, CompiledJob, QpuBackend, QpuFactory, QuapeConfig, ShotEngine};
use quape_qpu::{BehavioralQpu, BehavioralQpuFactory, MeasurementModel};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The most threads any test here asks for.
const MAX_THREADS: usize = 4;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn job(text: &str) -> CompiledJob {
    let program = quape_isa::assemble(text).expect("assembles");
    CompiledJob::compile(QuapeConfig::superscalar(4), program).expect("compiles")
}

/// A feedback-free job (replayed) and a feedback one (simulated).
fn jobs() -> [CompiledJob; 2] {
    [
        job("0 H q0\n2 MEAS q0\n0 X q1\n3 MEAS q1\nSTOP\n"),
        job("0 H q0\n2 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR NE, end\n0 X q0\nend:\n2 MEAS q0\nSTOP\n"),
    ]
}

fn coin(job: &CompiledJob) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(
        job.cfg().timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
    )
}

fn solo(job: &CompiledJob, base_seed: u64, shots: u64) -> BatchAggregate {
    ShotEngine::new(job.clone(), coin(job))
        .base_seed(base_seed)
        .threads(1)
        .run(shots)
        .aggregate
}

fn on_helper() -> bool {
    std::thread::current().name() == Some("quape-shot")
}

/// Panics once, in the first shot a pooled helper runs; until then the
/// calling thread's shots wait for it, so that a helper does join.
struct PanicsOnAHelper {
    inner: BehavioralQpuFactory,
    armed: AtomicBool,
    fired: AtomicBool,
}

impl QpuFactory for PanicsOnAHelper {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        if on_helper() {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.fired.store(true, Ordering::SeqCst);
                panic!("backend failed on a helper");
            }
        } else {
            let deadline = Instant::now() + Duration::from_secs(30);
            while self.armed.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        QpuFactory::create(&self.inner, seed)
    }
}

#[test]
fn a_helper_panic_reaches_the_caller_and_the_pool_survives_it() {
    let _serial = serial();
    let [job, other] = jobs();
    let factory = Arc::new(PanicsOnAHelper {
        inner: coin(&job),
        armed: AtomicBool::new(true),
        fired: AtomicBool::new(false),
    });
    let engine = ShotEngine::new(job.clone(), Arc::clone(&factory) as Arc<dyn QpuFactory>)
        .base_seed(3)
        .threads(2);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| engine.run(64)))
        .expect_err("the helper's panic reaches the caller");
    assert!(factory.fired.load(Ordering::SeqCst), "a helper ran a shot");
    assert_eq!(
        caught.downcast_ref::<&str>(),
        Some(&"backend failed on a helper")
    );
    let helpers = ShotEngine::pooled_helpers();
    // The same engine, and another engine, run whole batches afterwards,
    // on the same helpers.
    assert_eq!(engine.run(64).aggregate, solo(&job, 3, 64));
    let again = ShotEngine::new(other.clone(), coin(&other))
        .base_seed(4)
        .threads(2)
        .run(64);
    assert_eq!(again.aggregate, solo(&other, 4, 64));
    assert_eq!(ShotEngine::pooled_helpers(), helpers);
}

#[test]
fn concurrent_batches_each_get_their_single_thread_aggregate() {
    let _serial = serial();
    let [replayed, simulated] = jobs();
    std::thread::scope(|scope| {
        for caller in 0..4u64 {
            let job = if caller % 2 == 0 {
                &replayed
            } else {
                &simulated
            };
            scope.spawn(move || {
                let threads = 2 + (caller as usize % (MAX_THREADS - 1));
                let shots = 40 + 7 * caller;
                let engine = ShotEngine::new(job.clone(), coin(job))
                    .base_seed(caller)
                    .threads(threads);
                let expected = solo(job, caller, shots);
                for _ in 0..5 {
                    let report = engine.run(shots);
                    assert_eq!(report.threads, threads);
                    assert_eq!(report.aggregate, expected, "caller {caller}");
                }
            });
        }
    });
}

/// A factory whose every backend first runs a small batch of its own.
struct Nesting {
    job: CompiledJob,
}

impl QpuFactory for Nesting {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        let inner = ShotEngine::new(self.job.clone(), coin(&self.job))
            .base_seed(seed)
            .threads(2)
            .run(8);
        let p_one = inner.aggregate.qubits[0].p_one().unwrap_or(0.5);
        Box::new(BehavioralQpu::new(
            self.job.cfg().timings,
            MeasurementModel::Bernoulli { p_one },
            seed,
        ))
    }
}

#[test]
fn a_factory_that_runs_a_batch_does_not_deadlock() {
    let _serial = serial();
    let [job, _] = jobs();
    let run = |threads| {
        ShotEngine::new(job.clone(), Nesting { job: job.clone() })
            .base_seed(5)
            .threads(threads)
            .run(48)
            .aggregate
    };
    let sequential = run(1);
    assert_eq!(sequential.shots, 48);
    for threads in 2..=MAX_THREADS {
        assert_eq!(run(threads), sequential, "{threads} threads");
    }
}

#[test]
fn the_pool_grows_only_to_what_a_batch_asked_for() {
    let _serial = serial();
    let [job, _] = jobs();
    let engine = |threads| ShotEngine::new(job.clone(), coin(&job)).threads(threads);
    engine(2).run(64);
    assert!(
        ShotEngine::pooled_helpers() >= 1,
        "a 2-thread batch grows the pool"
    );
    // Sixteen threads asked for two shots use two threads: one helper.
    let report = engine(16).run(2);
    assert_eq!(report.threads, 2);
    engine(3).run(3);
    let most_asked = MAX_THREADS - 1;
    assert!(
        ShotEngine::pooled_helpers() <= most_asked,
        "{} helpers, but no batch here asked for more than {most_asked}",
        ShotEngine::pooled_helpers(),
    );
}
