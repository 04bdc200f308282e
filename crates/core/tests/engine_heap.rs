//! Pins the engine's worker-scratch contract: with a reused
//! [`WorkerScratch`] and a reused [`ShotAccumulator`], the lean lowered
//! hot path reaches an allocation fixed point — steady-state shots do
//! not grow the heap, and the per-shot allocation count is a small
//! constant (backend construction only), independent of program size:
//! one allocation, the boxed backend, for a replayed shot.
//! That holds for simulated shots (a feedback chain) and for replayed
//! ones (a feedback-free program, whose later shots replay the first
//! one's issue stream).
//!
//! A whole warmed batch pays per shot too: `ShotEngine::run` on the
//! caller and a pooled helper allocates once per replayed shot plus a
//! constant that does not grow with the program.
//!
//! The whole file is one test on purpose: the counting allocator is
//! global, and concurrently running tests' allocations would pollute
//! the counts.

use quape_core::{CompiledJob, QuapeConfig, ShotAccumulator, ShotEngine, StepMode, WorkerScratch};
use quape_isa::{ClassicalOp, Cond, Gate1, Program, ProgramBuilder, QuantumOp, Qubit};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc + realloc) flowing through the global
/// allocator. Deallocations are not counted: the test is about churn,
/// and a path that allocates must eventually free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Measure → FMR → conditional X feedback chain (the engine benchmark's
/// dispatch-heavy shape, small enough for a quick test).
fn fmr_chain(rounds: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..rounds {
        let q = (r % 2) as u16;
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.fmr(0, q);
        b.cmpi(0, 1);
        let skip = format!("skip{r}");
        b.br_to(Cond::Ne, &skip);
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
        b.label(&skip);
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid fmr chain")
}

/// Measure-heavy program without feedback: every shot after a scratch
/// runner's first replays the recorded issue stream.
fn measure_train(rounds: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..rounds {
        let q = Qubit::new((r % 3) as u16);
        b.quantum(50, QuantumOp::Gate1(Gate1::H, q));
        b.quantum(2, QuantumOp::Measure(q));
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid measure train")
}

#[test]
fn reused_scratch_reaches_an_allocation_fixed_point() {
    assert_fixed_point("fmr chain", fmr_chain(64), 8);
    assert_fixed_point("replayed measure train", measure_train(64), 1);
    assert_batch_pays_per_shot();
}

/// Allocations a warmed batch may make beyond one per shot: the shared
/// batch state, and per thread an accumulator and a replay arena. It
/// measured 20 for both programs here; with a thread spawned per batch,
/// and each thread building an arena and recording its own trace, it was
/// 137 and 177.
const BATCH_OVERHEAD: u64 = 32;

/// A warmed `ShotEngine::run` of a replayed job on two threads allocates
/// at most once per shot (the boxed backend) plus [`BATCH_OVERHEAD`],
/// for a small and a 16x larger program alike.
fn assert_batch_pays_per_shot() {
    const N: u64 = 256;
    let overhead = |program: Program| {
        let cfg = QuapeConfig::uniprocessor().with_seed(7);
        let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let engine = ShotEngine::new(job, factory).base_seed(7).threads(2);
        // Warm-up: grows the helper pool and records the artifact's trace.
        let warm = engine.run(N);
        let before = allocs();
        let report = engine.run(N);
        let spent = allocs() - before;
        assert_eq!(report.aggregate, warm.aggregate);
        spent.checked_sub(N).expect("a shot allocates its backend")
    };
    for rounds in [64, 1024] {
        let extra = overhead(measure_train(rounds));
        assert!(
            extra <= BATCH_OVERHEAD,
            "a warmed 2-thread batch of measure_train({rounds}) allocated {extra} times beyond one per shot (bound {BATCH_OVERHEAD})"
        );
    }
}

/// Checks the fixed point of `program`'s shots and that a warmed shot
/// allocates at most `max_per_shot` times.
fn assert_fixed_point(label: &str, program: Program, max_per_shot: u64) {
    let cfg = QuapeConfig::uniprocessor().with_seed(7);
    let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
    let engine = ShotEngine::new(job, factory)
        .base_seed(7)
        .step_mode(StepMode::Lowered)
        .threads(1);

    let mut scratch = WorkerScratch::new();
    let mut acc = ShotAccumulator::default();
    // Warmup: builds the arena and grows every buffer to the workload's
    // high-water mark (jitter seeds differ per shot, so a few shots are
    // needed before the deepest queues have been seen). It also gives
    // the accumulator a count for every per-shot value of these shots.
    const N: u64 = 16;
    for shot in 0..N {
        engine.run_shot_reusing(shot, &mut scratch, &mut acc);
    }

    // The measured batches revisit the warmed shot indices: a shot's
    // counters depend only on its index, so every value already has its
    // count and no new key is inserted. New values only now and then
    // cost the accumulator a B-tree node (4 nodes over 64 fresh shots
    // of the fmr chain), which is growth with the distinct values, not
    // per-shot churn.
    let batch = |scratch: &mut WorkerScratch, acc: &mut ShotAccumulator| -> u64 {
        let before = allocs();
        for shot in 0..N {
            engine.run_shot_reusing(shot, scratch, acc);
        }
        allocs() - before
    };

    let first = batch(&mut scratch, &mut acc);
    let second = batch(&mut scratch, &mut acc);

    // Steady state: a warmed scratch allocates exactly as much on the
    // next batch as on the previous one — no per-shot heap growth.
    assert_eq!(
        first, second,
        "{label}: warmed scratch must not keep allocating: first batch {first}, second {second}"
    );

    // And the constant is small *and independent of program size*: the
    // machine state is fully reused and shots fold into the accumulator
    // without a per-shot record, so what remains per shot is the
    // factory's boxed backend and, on a simulated shot, its occupancy
    // table — not the program-sized machine state (the un-reused path
    // below costs orders of magnitude more). Measured steady state: 2
    // allocations per simulated shot (the bound leaves headroom for
    // allocator/libstd drift only) and exactly 1 per replayed shot, the
    // boxed backend: a replay copies no occupancy state into it and
    // routes its readouts without queueing them.
    assert!(
        first <= max_per_shot * N,
        "{label}: lean lowered shots should stay allocation-light, got {first} allocations over {N} shots (bound {max_per_shot}/shot)"
    );

    // The same batch without scratch reuse rebuilds machine state per
    // shot; the scratch path must be significantly lighter.
    let before = allocs();
    for shot in 0..N {
        engine.run_shot(shot);
    }
    let fresh = allocs() - before;
    assert!(
        first * 4 <= fresh,
        "{label}: scratch reuse should cut per-shot allocations by >= 4x: reused {first}, fresh {fresh}"
    );
}
