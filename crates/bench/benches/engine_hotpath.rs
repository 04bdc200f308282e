//! Criterion bench: the execution core's hot path — one shot of a
//! DAQ-wait-bound feedback workload, cycle-stepped vs lowered.
//!
//! The `*_lowered` variants must come out far ahead of their `*_cycle`
//! twins: the workload spends most of every round stalled on the
//! acquisition chain, and the lowered core jumps those spans instead of
//! ticking them, on a pre-resolved micro-op array. `*_lowered_arena`
//! adds per-worker scratch reuse on top (no per-shot machine
//! construction), and the `lowering` rows price the one-time
//! compile-side lowering cost those savings amortise. The `*_16k` rows
//! price the text front end on one ~16 KiB wire request: the qubit scan
//! every submit pays, and the assemble, digest and compile every
//! compile-cache miss pays.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use quape_core::{CompiledJob, LoweredShotRunner, QuapeConfig, ReportMode, StepMode};
use quape_isa::{assemble, scan_qubit_count, LoweredProgram};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};
use quape_workloads::pulse::pulse_train;

fn shot_bench_with(
    c: &mut Criterion,
    name: &str,
    job: &CompiledJob,
    mode: StepMode,
    report: ReportMode,
) {
    let cfg = job.cfg().clone();
    c.bench_function(name, |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let qpu = BehavioralQpu::new(
                cfg.timings,
                MeasurementModel::Bernoulli { p_one: 0.5 },
                seed,
            );
            job.shot(Box::new(qpu), seed)
                .report_mode(report)
                .run_with_mode(mode, 10_000_000)
                .cycles
        })
    });
}

fn shot_bench(c: &mut Criterion, name: &str, job: &CompiledJob, mode: StepMode) {
    shot_bench_with(c, name, job, mode, ReportMode::Full);
}

/// The engine's steady-state serving path: one reused
/// [`LoweredShotRunner`] arena, reset in place per shot.
fn arena_bench(c: &mut Criterion, name: &str, job: &CompiledJob) {
    let cfg = job.cfg().clone();
    c.bench_function(name, |b| {
        let mut runner = LoweredShotRunner::new(job.clone());
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            let qpu = BehavioralQpu::new(
                cfg.timings,
                MeasurementModel::Bernoulli { p_one: 0.5 },
                seed,
            );
            runner.run_shot(Box::new(qpu), seed, 10_000_000).cycles
        })
    });
}

/// One-time compile-side lowering cost (amortised over every shot of a
/// batch by the `Arc`-shared artifact).
fn lowering_bench(c: &mut Criterion, name: &str, job: &CompiledJob) {
    let program = job.program().clone();
    let timings = job.cfg().timings;
    c.bench_function(name, |b| {
        b.iter(|| LoweredProgram::lower(&program, &timings).len())
    });
}

/// Rounds of [`feedback_chain`] whose printed text is ~16 KiB.
const FRONT_END_ROUNDS: usize = 234;

/// The text front end and compile on one ~16 KiB feedback-chain request.
fn front_end_bench(c: &mut Criterion, cfg: &QuapeConfig) {
    let program = feedback_chain(0, FRONT_END_ROUNDS).expect("valid workload");
    let text = program.to_string();
    c.bench_function("scan_qubit_count_16k", |b| {
        b.iter(|| scan_qubit_count(black_box(&text)))
    });
    c.bench_function("assemble_16k", |b| {
        b.iter(|| assemble(black_box(&text)).expect("text assembles").len())
    });
    c.bench_function("program_digest_16k", |b| {
        b.iter(|| black_box(&program).digest())
    });
    c.bench_function("compile_16k", |b| {
        b.iter(|| {
            CompiledJob::compile(cfg.clone(), program.clone())
                .expect("job compiles")
                .digest()
        })
    });
}

fn bench(c: &mut Criterion) {
    let cfg = QuapeConfig::uniprocessor().with_seed(7);
    front_end_bench(c, &cfg);

    let fig02 = CompiledJob::compile(cfg.clone(), conditional_x(0).expect("valid workload"))
        .expect("job compiles");
    shot_bench(c, "fig02_shot_cycle", &fig02, StepMode::Cycle);
    shot_bench(c, "fig02_shot_lowered", &fig02, StepMode::Lowered);

    let fmr = CompiledJob::compile(
        cfg.clone(),
        feedback_chain(0, 1000).expect("valid workload"),
    )
    .expect("job compiles");
    shot_bench(c, "fmr_chain1k_cycle", &fmr, StepMode::Cycle);
    shot_bench(c, "fmr_chain1k_lowered", &fmr, StepMode::Lowered);
    // Lean (summary-only) reports: the batch/serving default. The chain
    // workload's dominant report cost is the measure-wait trace, which
    // lean mode never materialises.
    shot_bench_with(
        c,
        "fmr_chain1k_lowered_lean",
        &fmr,
        StepMode::Lowered,
        ReportMode::Lean,
    );
    arena_bench(c, "fmr_chain1k_lowered_arena", &fmr);
    lowering_bench(c, "lowering_fmr_chain1k", &fmr);

    let mrce = CompiledJob::compile(
        cfg.clone(),
        mrce_feedback_chain(0, 1000).expect("valid workload"),
    )
    .expect("job compiles");
    shot_bench(c, "mrce_chain1k_cycle", &mrce, StepMode::Cycle);
    shot_bench(c, "mrce_chain1k_lowered", &mrce, StepMode::Lowered);
    arena_bench(c, "mrce_chain1k_lowered_arena", &mrce);

    // AWG-playback-bound: dense parallel pulse trains on a multiplexed
    // readout keep the device timeline, occupancy checks and DAQ demod
    // servers hot — the emit/retire path dominates instead of idle skips.
    let awg = CompiledJob::compile(
        QuapeConfig::superscalar(8)
            .with_seed(7)
            .with_readout_lines(2),
        pulse_train(4, 256).expect("valid workload"),
    )
    .expect("job compiles");
    shot_bench(c, "awg_playback_cycle", &awg, StepMode::Cycle);
    // Lean mode on the playback-bound workload: the issued-op log and
    // the AWG playback timeline are its big report vectors.
    shot_bench_with(
        c,
        "awg_playback_lowered_lean",
        &awg,
        StepMode::Lowered,
        ReportMode::Lean,
    );
    lowering_bench(c, "lowering_pulse_train", &awg);
}

criterion_group!(benches, bench);
criterion_main!(benches);
