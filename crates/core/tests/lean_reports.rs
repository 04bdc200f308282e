//! Differential suite for [`ReportMode`]: lean (summary-only) runs must
//! be *bit-identical* to full runs in everything except the materialised
//! event vectors — same cycles, same stats, same measurements, same
//! batch aggregates — with `wait_cycles`/`issued`/`playback` left empty.

use quape_core::{
    CompiledJob, QuapeConfig, ReportMode, RunReport, ShotAccumulator, ShotEngine, StepMode,
};
use quape_isa::{ClassicalOp, Cond, Gate1, Program, ProgramBuilder, QuantumOp, Qubit};
use quape_qpu::{BehavioralQpu, BehavioralQpuFactory, MeasurementModel};

/// A DAQ-wait-bound feedback chain: measure, block on the result (FMR),
/// then fire a conditional X — the workload whose wait-cycle trace is
/// by far the largest report vector.
fn feedback_program(rounds: usize) -> Program {
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
    b.finish().expect("valid feedback program")
}

/// A dense pulse program: parallel single-qubit gates keep the AWG
/// playback timeline busy.
fn pulse_program() -> Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..40 {
        for q in 0..4u16 {
            b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
        }
    }
    for q in 0..4u16 {
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("valid pulse program")
}

fn coin(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

fn run_shot(job: &CompiledJob, mode: ReportMode, step: StepMode, seed: u64) -> RunReport {
    let qpu = BehavioralQpu::new(
        job.cfg().timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    job.shot(Box::new(qpu), seed)
        .report_mode(mode)
        .run_with_mode(step, 2_000_000)
}

/// Everything except the three lean-elided vectors must be identical.
fn assert_reports_agree(full: &RunReport, lean: &RunReport, label: &str) {
    assert_eq!(full.cycles, lean.cycles, "{label}: cycles");
    assert_eq!(full.ns, lean.ns, "{label}: ns");
    assert_eq!(full.stop, lean.stop, "{label}: stop");
    assert_eq!(full.stats, lean.stats, "{label}: stats");
    assert_eq!(full.issued_ops, lean.issued_ops, "{label}: issued_ops");
    assert_eq!(full.measurements, lean.measurements, "{label}: outcomes");
    assert_eq!(full.violations, lean.violations, "{label}: violations");
    assert_eq!(
        full.awg_violations, lean.awg_violations,
        "{label}: awg_violations"
    );
    assert_eq!(full.block_events, lean.block_events, "{label}: blocks");
    assert_eq!(
        full.qpu_makespan_ns, lean.qpu_makespan_ns,
        "{label}: makespan"
    );
    // Lean mode's whole point: the big per-event vectors stay empty.
    assert!(lean.issued.is_empty(), "{label}: lean issued materialised");
    assert!(
        lean.playback.is_empty(),
        "{label}: lean playback materialised"
    );
    assert!(
        lean.wait_cycles.is_empty(),
        "{label}: lean wait_cycles materialised"
    );
    assert!(
        lean.step_dispatches.is_empty(),
        "{label}: lean step_dispatches materialised"
    );
    assert_eq!(
        full.step_dispatches.len() as u64,
        lean.stats.total_quantum(),
        "{label}: dispatch count"
    );
    // And the counters really do stand in for the vectors.
    assert_eq!(full.issued.len() as u64, lean.issued_ops, "{label}: count");
    assert_eq!(
        full.playback.len() as u64,
        lean.stats.awg_triggers,
        "{label}: triggers"
    );
}

#[test]
fn lean_shot_reports_match_full_reports_except_vectors() {
    let cases = [
        (
            "feedback",
            QuapeConfig::uniprocessor(),
            feedback_program(30),
        ),
        ("pulse", QuapeConfig::superscalar(4), pulse_program()),
    ];
    for (label, cfg, program) in cases {
        let job = CompiledJob::compile(cfg, program).expect("job compiles");
        for step in [StepMode::Cycle, StepMode::Lowered] {
            let full = run_shot(&job, ReportMode::Full, step, 11);
            let lean = run_shot(&job, ReportMode::Lean, step, 11);
            assert!(full.issued_ops > 0, "{label}: trivial run");
            assert!(
                !full.wait_cycles.is_empty() || label == "pulse",
                "{label}: expected measure waits"
            );
            assert_reports_agree(&full, &lean, label);
        }
    }
}

/// The engine folds every shot from a lean report (or the lean lowered
/// runner); the same shots run with full reports and folded through a
/// [`ShotAccumulator`] give the same aggregate.
#[test]
fn engine_aggregates_are_identical_in_both_report_modes() {
    const SHOTS: u64 = 48;
    for (label, cfg, program) in [
        (
            "feedback",
            QuapeConfig::uniprocessor(),
            feedback_program(12),
        ),
        ("pulse", QuapeConfig::superscalar(4), pulse_program()),
    ] {
        let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
        for step in [StepMode::Cycle, StepMode::Lowered] {
            let engine = ShotEngine::new(job.clone(), coin(&cfg))
                .base_seed(99)
                .threads(2)
                .step_mode(step);
            let mut full = ShotAccumulator::default();
            for shot in 0..SHOTS {
                let report = engine
                    .shot(shot)
                    .report_mode(ReportMode::Full)
                    .run_with_mode(step, 10_000_000);
                assert!(!report.issued.is_empty(), "{label}: a full report");
                full.push(job.num_qubits(), &report.outcome());
            }
            assert_eq!(
                engine.run(SHOTS).aggregate,
                full.finish(99),
                "{label} {step:?}"
            );
        }
    }
}
