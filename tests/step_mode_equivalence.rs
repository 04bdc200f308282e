//! Differential suite for the execution core's two executors.
//!
//! `StepMode::Lowered` (the default) must produce **bit-identical**
//! [`RunReport`]s to the cycle-stepped oracle — same cycle counts,
//! measurements, issued operations, block events, wait/lateness
//! statistics, everything `RunReport: PartialEq` compares — across every
//! workload family the paper evaluates: feedback latency (Fig. 2),
//! parallel RUS (Fig. 3), QEC rounds, and multiprogramming.

use quape::prelude::*;
use quape::workloads::feedback::{conditional_x, conditional_x_mrce, parallel_rus, rus_block};
use quape::workloads::multiprogramming::combine;
use quape::workloads::qec::{repetition_code_program, QecConfig};

/// Runs `program` under both step modes and asserts report equality,
/// including the AWG playback timeline and device-violation records, then
/// cross-checks the AWG's qubit-occupancy view against the QPU shadow
/// model (the device must rediscover exactly the violations the QPU sees).
fn assert_modes_agree(cfg: &QuapeConfig, program: &Program, model: MeasurementModel, limit: u64) {
    let run = |mode: StepMode| {
        let qpu = BehavioralQpu::new(cfg.timings, model.clone(), cfg.seed);
        Machine::new(cfg.clone(), program.clone(), Box::new(qpu))
            .expect("machine builds")
            .run_with_mode(mode, limit)
    };
    let cycle = run(StepMode::Cycle);
    let lowered = run(StepMode::Lowered);
    assert_eq!(
        cycle, lowered,
        "step modes diverged (cfg seed {}, {} cycle-stepped cycles)",
        cfg.seed, cycle.cycles
    );
    // AWG playback state and violation counts, explicitly (also covered
    // by the report equality above, but these are the device fields the
    // lowered loop's event-horizon folding must not disturb).
    assert_eq!(cycle.playback, lowered.playback);
    assert_eq!(cycle.awg_violations, lowered.awg_violations);
    assert_eq!(cycle.stats.awg_triggers, lowered.stats.awg_triggers);
    assert_eq!(
        cycle.stats.daq_contended_results,
        lowered.stats.daq_contended_results
    );
    // Device vs QPU shadow occupancy: the AWG's qubit-overlap detections
    // must agree 1:1 with the QPU occupancy model's violations.
    let qubit_overlaps: Vec<_> = lowered
        .awg_violations_of(AwgViolationKind::QubitOverlap)
        .collect();
    assert_eq!(qubit_overlaps.len(), lowered.violations.len());
    for (awg, qpu) in qubit_overlaps.iter().zip(&lowered.violations) {
        assert_eq!(awg.time_ns, qpu.op.time_ns);
        assert_eq!(awg.qubit, qpu.qubit);
        assert_eq!(awg.busy_until_ns, qpu.busy_until_ns);
    }
    // Every issued operation is on the playback timeline (two-qubit gates
    // trigger one waveform per flux channel).
    let expected_triggers: usize = lowered.issued.iter().map(|o| o.op.qubits().count()).sum();
    assert_eq!(lowered.playback.len(), expected_triggers);
}

fn seeds() -> impl Iterator<Item = u64> {
    0..12
}

#[test]
fn fig02_feedback_latency_modes_agree() {
    // The DAQ-wait-bound workload the time skip was built for: measure,
    // stall on FMR for the full acquisition chain, branch, conditional X.
    for seed in seeds() {
        let cfg = QuapeConfig::uniprocessor().with_seed(seed);
        let program = conditional_x(0).expect("valid workload");
        assert_modes_agree(&cfg, &program, MeasurementModel::AlwaysOne, 1_000_000);
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            1_000_000,
        );
    }
}

#[test]
fn mrce_fast_context_switch_modes_agree() {
    // MRCE parks a context; resolution is DAQ-delivery-driven and runs
    // the 3-cycle context switch — the absolute-deadline refactor path.
    for seed in seeds() {
        let program = conditional_x_mrce(0).expect("valid workload");
        let mut cfg = QuapeConfig::uniprocessor().with_seed(seed);
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            1_000_000,
        );
        // Ablation twin: MRCE stalls like FMR when the switch is off.
        cfg.fast_context_switch = false;
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            1_000_000,
        );
    }
}

#[test]
fn parallel_rus_modes_agree() {
    // Two RUS blocks with priority dependencies: exercises the block
    // scheduler (fills, prefetch, busy spans) plus feedback loops.
    for seed in seeds() {
        let program = parallel_rus(0, 1).expect("valid workload");
        for procs in [1, 2] {
            let cfg = QuapeConfig::multiprocessor(procs).with_seed(seed);
            assert_modes_agree(
                &cfg,
                &program,
                MeasurementModel::Bernoulli { p_one: 0.6 },
                1_000_000,
            );
        }
    }
}

#[test]
fn rus_uniprocessor_superscalar_modes_agree() {
    for seed in seeds() {
        let program = rus_block(0).expect("valid workload");
        let cfg = QuapeConfig::superscalar(8).with_seed(seed);
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.7 },
            1_000_000,
        );
    }
}

#[test]
fn qec_rounds_modes_agree() {
    // Multi-round repetition code with fault injection: syndrome
    // measurements, decode, conditional corrections, ancilla resets.
    for seed in seeds().take(6) {
        let program = repetition_code_program(QecConfig {
            rounds: 3,
            inject: Some((1, 1)),
            logical_one: seed % 2 == 1,
            ..QecConfig::default()
        })
        .expect("valid workload");
        let cfg = QuapeConfig::superscalar(4).with_seed(seed);
        assert_modes_agree(&cfg, &program, MeasurementModel::AlwaysZero, 2_000_000);
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.3 },
            2_000_000,
        );
    }
}

#[test]
fn multiprogramming_modes_agree() {
    // Independent tasks merged into one block table, run on a
    // multiprocessor — the scheduler's dependency check at full tilt.
    for seed in seeds().take(6) {
        let a = rus_block(0).expect("valid workload");
        let b = conditional_x(0).expect("valid workload");
        let c = conditional_x_mrce(0).expect("valid workload");
        let combined = combine(&[a, b, c]).expect("tasks combine");
        for procs in [1, 3] {
            let cfg = QuapeConfig::multiprocessor(procs).with_seed(seed);
            assert_modes_agree(
                &cfg,
                &combined,
                MeasurementModel::Bernoulli { p_one: 0.5 },
                2_000_000,
            );
        }
    }
}

#[test]
fn ideal_scheduler_modes_agree() {
    for seed in seeds().take(6) {
        let program = parallel_rus(0, 1).expect("valid workload");
        let cfg = QuapeConfig::multiprocessor(2).ideal().with_seed(seed);
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            1_000_000,
        );
    }
}

#[test]
fn multiplexed_readout_daq_contention_modes_agree() {
    // Multiplexed readout (all qubits on one shared line) with a single
    // demod server: simultaneous syndrome measurements contend for both
    // the line (AWG channel overlaps) and the demod pipeline (delayed
    // deliveries). The lowered loop must reproduce the contended
    // timeline bit-for-bit.
    for seed in seeds().take(6) {
        let program = repetition_code_program(QecConfig {
            rounds: 2,
            ..QecConfig::default()
        })
        .expect("valid workload");
        let cfg = QuapeConfig::superscalar(4)
            .with_seed(seed)
            .with_readout_lines(1)
            .with_demod_slots(1);
        assert_modes_agree(
            &cfg,
            &program,
            MeasurementModel::Bernoulli { p_one: 0.4 },
            2_000_000,
        );
    }
    // The contention is real: rerun one seed and inspect the report.
    let cfg = QuapeConfig::superscalar(4)
        .with_seed(0)
        .with_readout_lines(1)
        .with_demod_slots(1);
    let program = repetition_code_program(QecConfig {
        rounds: 2,
        ..QecConfig::default()
    })
    .expect("valid workload");
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 0);
    let report = Machine::new(cfg, program, Box::new(qpu))
        .expect("machine builds")
        .run();
    assert!(
        report.stats.daq_contended_results > 0,
        "shared line with one demod server must contend"
    );
    assert!(report.stats.daq_contention_delay_ns > 0);
    assert!(
        report
            .awg_violations_of(AwgViolationKind::ChannelOverlap)
            .count()
            > 0,
        "simultaneous readouts on one line must overlap at the AWG"
    );
    assert!(!report.device_clean());
}

#[test]
fn cycle_limit_stall_modes_agree() {
    // FMR on a qubit that is never measured: the machine spins on the
    // measurement-wait stall until the budget runs out. The lowered core
    // must jump straight to the limit with identical wait statistics.
    let mut b = ProgramBuilder::new();
    b.fmr(0, 0);
    b.push(ClassicalOp::Stop);
    let program = b.finish().expect("valid program");
    let cfg = QuapeConfig::uniprocessor().with_seed(1);
    for limit in [100, 5_000, 100_000] {
        let run = |mode: StepMode| {
            let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
            Machine::new(cfg.clone(), program.clone(), Box::new(qpu))
                .expect("machine builds")
                .run_with_mode(mode, limit)
        };
        let cycle = run(StepMode::Cycle);
        let lowered = run(StepMode::Lowered);
        assert_eq!(cycle.stop, StopReason::CycleLimit);
        assert_eq!(cycle, lowered, "limit {limit}");
        assert_eq!(lowered.cycles, limit);
        // Every spun cycle after block start-up was a recorded wait.
        assert_eq!(lowered.stats.processors[0].measure_wait_cycles, limit - 3);
    }
}

#[test]
fn engine_executors_produce_identical_aggregates() {
    // The batch engine exposes the knob; both modes must fold to the
    // same deterministic aggregate for the same base seed. The lowered
    // side runs at the engine's default step mode.
    let program = conditional_x(0).expect("valid workload");
    let cfg = QuapeConfig::uniprocessor().with_seed(11);
    let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
    let factory = || {
        quape::qpu::BehavioralQpuFactory::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
        )
    };
    assert_eq!(StepMode::default(), StepMode::Lowered);
    let lowered = ShotEngine::new(job.clone(), factory()).threads(1).run(128);
    let cycle = ShotEngine::new(job, factory())
        .step_mode(StepMode::Cycle)
        .threads(1)
        .run(128);
    assert_eq!(lowered.aggregate, cycle.aggregate);
}

#[test]
fn hand_stepped_shot_continues_identically_under_lowered() {
    // The lowered core starts from shot-initial state only, so a shot the
    // caller already stepped continues on the reference core. Whatever
    // the split point, the report must equal an uninterrupted Cycle run.
    let program = conditional_x_mrce(0).expect("valid workload");
    let cfg = QuapeConfig::uniprocessor().with_seed(3);
    let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
    let qpu = || {
        Box::new(BehavioralQpu::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            3,
        ))
    };
    let oracle = job.shot(qpu(), 3).run_with_mode(StepMode::Cycle, 1_000_000);
    assert_eq!(oracle.stop, StopReason::Completed);
    for steps in [0, 1, 5, 40, oracle.cycles / 2, oracle.cycles - 1] {
        let mut shot = job.shot(qpu(), 3);
        for _ in 0..steps {
            shot.step();
        }
        let report = shot.run_with_mode(StepMode::Lowered, 1_000_000);
        assert_eq!(report, oracle, "stepped {steps} cycles by hand");
    }
}
