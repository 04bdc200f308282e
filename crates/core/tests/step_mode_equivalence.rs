//! Deterministic two-way executor equivalence suite.
//!
//! The machine has two executors over one microarchitecture model: the
//! cycle-stepped oracle (`StepMode::Cycle`) and the lowered micro-op
//! fast path with its time skip (`StepMode::Lowered`). On every workload
//! here — FMR feedback chains, MRCE context switching, branch loops with
//! live ALU state, multi-block scheduling — both must produce
//! bit-identical [`RunReport`]s, and the shot engine must produce
//! bit-identical [`BatchAggregate`]s.

use quape_core::{
    BatchAggregate, CompiledJob, LoweredShotRunner, QuapeConfig, ReportMode, RunReport, ShotEngine,
    StepMode,
};
use quape_isa::{
    ClassicalOp, Cond, CondOp, Dependency, Gate1, Program, ProgramBuilder, QuantumOp, Qubit, Reg,
};
use quape_qpu::{BehavioralQpu, BehavioralQpuFactory, MeasurementModel};

/// Measure → FMR → conditional X, `rounds` times: the Stage I/II
/// synchronization-stall workload the lowered fast path targets.
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

/// Measure → MRCE, `rounds` times: exercises the context store and the
/// 3-cycle fast context switch.
fn mrce_chain(rounds: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..rounds {
        let q = (r % 2) as u16;
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.push(ClassicalOp::Mrce {
            qubit: Qubit::new(q),
            target: Qubit::new(q),
            op_if_one: CondOp::X,
            op_if_zero: CondOp::None,
        });
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid mrce chain")
}

/// A backward-branching measurement loop with live counter state: taken
/// and untaken branches, ALU flags, and timeline re-anchoring all in one.
fn counted_loop(iterations: i16) -> Program {
    let mut b = ProgramBuilder::new();
    b.push(ClassicalOp::Ldi {
        rd: Reg::new(1),
        imm: iterations,
    });
    b.label("loop");
    b.quantum(2, QuantumOp::Measure(Qubit::new(0)));
    b.fmr(0, 0);
    b.cmpi(0, 1);
    b.br_to(Cond::Ne, "skip");
    b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
    b.label("skip");
    b.push(ClassicalOp::Addi {
        rd: Reg::new(1),
        rs: Reg::new(1),
        imm: -1,
    });
    b.cmpi(1, 0);
    b.br_to(Cond::Ne, "loop");
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid loop program")
}

/// Two priority blocks the scheduler distributes across processors, each
/// running its own feedback round.
fn two_blocks() -> Program {
    let mut b = ProgramBuilder::new();
    for (name, q) in [("left", 0u16), ("right", 1u16)] {
        b.begin_block(name, Dependency::Priority(0));
        b.quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(q)));
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.push(ClassicalOp::Mrce {
            qubit: Qubit::new(q),
            target: Qubit::new(q),
            op_if_one: CondOp::X,
            op_if_zero: CondOp::None,
        });
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    b.finish().expect("valid two-block program")
}

fn run(job: &CompiledJob, mode: StepMode, seed: u64) -> RunReport {
    let qpu = BehavioralQpu::new(
        job.cfg().timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    job.shot(Box::new(qpu), seed)
        .report_mode(ReportMode::Full)
        .run_with_mode(mode, 2_000_000)
}

fn workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("fmr_chain", fmr_chain(24)),
        ("mrce_chain", mrce_chain(24)),
        ("counted_loop", counted_loop(8)),
        ("two_blocks", two_blocks()),
    ]
}

#[test]
fn cycle_and_lowered_are_bit_identical() {
    for (label, program) in workloads() {
        for cfg in [QuapeConfig::uniprocessor(), QuapeConfig::superscalar(4)] {
            let job = CompiledJob::compile(cfg, program.clone()).expect("job compiles");
            for seed in [3, 17, 40] {
                let cycle = run(&job, StepMode::Cycle, seed);
                let lowered = run(&job, StepMode::Lowered, seed);
                assert!(cycle.issued_ops > 0, "{label}: trivial run");
                assert_eq!(cycle, lowered, "{label}/{seed}: lowered diverged");
            }
        }
    }
}

#[test]
fn engine_batches_are_identical_across_executors() {
    for (label, program) in workloads() {
        let cfg = QuapeConfig::superscalar(4);
        let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let batch = |mode: StepMode| -> BatchAggregate {
            ShotEngine::new(job.clone(), factory.clone())
                .base_seed(7)
                .threads(2)
                .step_mode(mode)
                .run(32)
                .aggregate
        };
        let cycle = batch(StepMode::Cycle);
        let lowered = batch(StepMode::Lowered);
        assert_eq!(cycle, lowered, "{label}: lowered batch diverged");
    }
}

/// The arena reset must be indistinguishable from fresh construction:
/// pumping shots through one reused [`LoweredShotRunner`] yields the
/// same outcome, shot for shot, as building a fresh lean lowered
/// [`Shot`](quape_core::Shot) per seed — across every workload,
/// including multi-block scheduling where the reset has to rewind the
/// scheduler table and the icache banks.
#[test]
fn reused_runner_matches_fresh_shots() {
    for (label, program) in workloads() {
        for cfg in [QuapeConfig::uniprocessor(), QuapeConfig::superscalar(4)] {
            let job = CompiledJob::compile(cfg, program.clone()).expect("job compiles");
            let mut runner = LoweredShotRunner::new(job.clone());
            for seed in 0..12u64 {
                let qpu = || {
                    Box::new(BehavioralQpu::new(
                        job.cfg().timings,
                        MeasurementModel::Bernoulli { p_one: 0.5 },
                        seed,
                    ))
                };
                let fresh = job
                    .shot(qpu(), seed)
                    .report_mode(ReportMode::Lean)
                    .run_with_mode(StepMode::Lowered, 2_000_000);
                let reused = runner.run_shot(qpu(), seed, 2_000_000);
                assert_eq!(fresh.cycles, reused.cycles, "{label}/{seed}: cycles");
                assert_eq!(fresh.stop, reused.stop, "{label}/{seed}: stop");
                assert_eq!(
                    fresh.issued_ops, reused.issued_ops,
                    "{label}/{seed}: issued"
                );
                assert_eq!(
                    fresh.execution_time_ns(),
                    reused.execution_time_ns(),
                    "{label}/{seed}: execution time"
                );
                assert_eq!(
                    fresh.stats.late_issues, reused.late_issues,
                    "{label}/{seed}: late issues"
                );
                assert_eq!(
                    fresh.stats.late_cycles, reused.late_cycles,
                    "{label}/{seed}: late cycles"
                );
                assert_eq!(
                    fresh.violations.len() as u64,
                    reused.violations,
                    "{label}/{seed}: violations"
                );
                assert_eq!(
                    fresh.awg_violations.len() as u64,
                    reused.awg_violations,
                    "{label}/{seed}: awg violations"
                );
                assert_eq!(
                    fresh.stats.daq_contended_results, reused.daq_contended,
                    "{label}/{seed}: daq contention"
                );
                assert_eq!(
                    fresh.measurements,
                    reused.measurements.to_vec(),
                    "{label}/{seed}: measurements"
                );
            }
        }
    }
}

#[test]
fn compiled_jobs_share_a_stable_lowering() {
    let cfg = QuapeConfig::superscalar(4);
    let a = CompiledJob::compile(cfg.clone(), fmr_chain(8)).expect("compiles");
    let b = CompiledJob::compile(cfg, fmr_chain(8)).expect("compiles");
    assert_eq!(a.lowered().len(), a.program().len());
    assert_eq!(a.lowered(), b.lowered());
    // Cloning the job shares the lowering artifact, not a re-lowering.
    let c = a.clone();
    assert!(std::ptr::eq(a.lowered(), c.lowered()));
}

/// Bursts of waveforms separated by waits: every short waveform of a
/// burst ends inside the wait, which the lowered loop skips in one jump,
/// while the readout tone plays on into the next burst (whose gate on the
/// measured qubit overlaps it). The lowered loop retires the finished
/// waveforms on the first stepped cycle after the jump, so each emission
/// must see the same in-flight set as on the cycle-stepped oracle.
#[test]
fn waveforms_ending_inside_a_skip_retire_before_the_next_emission() {
    let mut b = ProgramBuilder::new();
    for _ in 0..4 {
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(1)));
        b.quantum(
            0,
            QuantumOp::Gate2(quape_isa::Gate2::Cnot, Qubit::new(2), Qubit::new(3)),
        );
        b.quantum(0, QuantumOp::Measure(Qubit::new(4)));
        b.push(ClassicalOp::Qwait {
            cycles: quape_isa::Cycles::new(10),
        });
        b.quantum(0, QuantumOp::Gate1(Gate1::Y, Qubit::new(0)));
        b.quantum(0, QuantumOp::Gate1(Gate1::Y, Qubit::new(1)));
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(4)));
        b.push(ClassicalOp::Qwait {
            cycles: quape_isa::Cycles::new(200),
        });
    }
    b.push(ClassicalOp::Stop);
    let program = b.finish().expect("valid burst program");
    for cfg in [QuapeConfig::uniprocessor(), QuapeConfig::superscalar(8)] {
        let job = CompiledJob::compile(cfg, program.clone()).expect("job compiles");
        let cycle = run(&job, StepMode::Cycle, 5);
        let lowered = run(&job, StepMode::Lowered, 5);
        assert_eq!(lowered.playback, cycle.playback);
        assert_eq!(lowered.awg_violations, cycle.awg_violations);
        assert_eq!(
            lowered.stats.awg_max_concurrent,
            cycle.stats.awg_max_concurrent
        );
        assert_eq!(lowered, cycle);
        // The first burst plays five waveforms at once (the CNOT takes
        // two flux lines); the second meets only the readout tone.
        assert_eq!(lowered.stats.awg_max_concurrent, 5);
        assert_eq!(lowered.awg_violations.len(), 4, "one overlap per round");
    }
}
