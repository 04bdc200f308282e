//! Property-based differential test for shot replay: a feedback-free
//! job's arena records the issue stream of its first shot and replays
//! every later shot into that shot's backend. On random feedback-free
//! programs (gates, measurements, waits; several blocks; `STOP` or
//! `HALT`) the engine's aggregate must equal, at one and two threads,
//! both the merge of fresh per-shot `run_shot` accumulators (every
//! shot fully simulated) and the cycle-stepped oracle's aggregate — on
//! scalar, superscalar, multiprocessor and multiplexed machines (one
//! demod server per line, so every overlap waits, and two, so some
//! readouts find a free server beside a busy one), with and without DAQ
//! jitter, under budgets that truncate shots as well as ones that do
//! not.
//!
//! A replayed shot reaches its backend through one of two lanes: the
//! behavioural QPU's own `replay`, which draws only the outcomes and
//! returns the counters recorded with the stream, or the trait's
//! default, which applies every operation. A wrapper backend that keeps the default
//! holds the two lanes to each other, outcome by outcome.

use proptest::prelude::*;
use quape_core::{
    CompiledJob, LoweredShotRunner, MeasurementRecord, QpuBackend, QpuFactory, QuapeConfig,
    ReportMode, ShotAccumulator, ShotEngine, ShotOutcome, StateVectorQpuFactory, StepMode,
    StopReason,
};
use quape_isa::{
    ClassicalOp, Cycles, Gate1, Gate2, OpTimings, Program, ProgramBuilder, QuantumOp, Qubit,
};
use quape_qpu::{
    BehavioralQpu, BehavioralQpuFactory, DepolarizingNoise, MeasurementModel, ReadoutError,
    TimingViolation,
};
use std::sync::Arc;

const QUBITS: u16 = 4;
const SHOTS: u64 = 10;

#[derive(Debug, Clone)]
enum ProgOp {
    G1(u8, u16),
    G2(u16, u16),
    Meas(u16),
    Wait(u8),
}

#[derive(Debug, Clone)]
struct Block {
    ops: Vec<ProgOp>,
    /// Depends on the previous block (otherwise free to run in parallel).
    chained: bool,
}

fn arb_block() -> impl Strategy<Value = Block> {
    let op = prop_oneof![
        4 => (0u8..14, 0..QUBITS).prop_map(|(g, q)| ProgOp::G1(g, q)),
        2 => (0..QUBITS, 0..QUBITS).prop_map(|(a, b)| ProgOp::G2(a, b)),
        3 => (0..QUBITS).prop_map(ProgOp::Meas),
        1 => (1u8..30).prop_map(ProgOp::Wait),
    ];
    (proptest::collection::vec(op, 1..20), any::<bool>())
        .prop_map(|(ops, chained)| Block { ops, chained })
}

/// Builds the blocks into one program; the last block ends in `HALT`
/// when `halt` is set, every other block in `STOP`.
fn build(blocks: &[Block], halt: bool) -> Program {
    let mut b = ProgramBuilder::new();
    for (i, block) in blocks.iter().enumerate() {
        let name = format!("b{i}");
        if i > 0 && block.chained {
            let prev = format!("b{}", i - 1);
            b.begin_block_named_deps(name, &[prev.as_str()]);
        } else {
            b.begin_block_named_deps(name, &[]);
        }
        for op in &block.ops {
            match *op {
                ProgOp::G1(g, q) => {
                    let gate = Gate1::FIXED[g as usize % Gate1::FIXED.len()];
                    b.quantum(2, QuantumOp::Gate1(gate, Qubit::new(q)));
                }
                ProgOp::G2(a, c) if a != c => {
                    b.quantum(
                        4,
                        QuantumOp::Gate2(Gate2::Cnot, Qubit::new(a), Qubit::new(c)),
                    );
                }
                ProgOp::G2(..) => {}
                ProgOp::Meas(q) => {
                    b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
                }
                ProgOp::Wait(c) => {
                    b.push(ClassicalOp::Qwait {
                        cycles: Cycles::new(u32::from(c)),
                    });
                }
            }
        }
        let last = i + 1 == blocks.len();
        b.push(if halt && last {
            ClassicalOp::Halt
        } else {
            ClassicalOp::Stop
        });
        b.end_block();
    }
    b.finish().expect("generated program is valid")
}

fn factory(state_vector: bool, cfg: &QuapeConfig) -> Arc<dyn QpuFactory> {
    if state_vector {
        Arc::new(StateVectorQpuFactory {
            num_qubits: QUBITS as u8,
            timings: cfg.timings,
            noise: DepolarizingNoise {
                pauli_error_prob: 0.02,
            },
            readout: ReadoutError::default(),
        })
    } else {
        Arc::new(BehavioralQpuFactory::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
        ))
    }
}

/// `None` never truncates; `Some(k)` puts the budget `k - 3` cycles from
/// a fully simulated shot's stop.
fn arb_edge() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..7).prop_map(Some)]
}

fn configs() -> Vec<(&'static str, QuapeConfig)> {
    let mut out = Vec::new();
    for (name, base) in [
        ("scalar", QuapeConfig::scalar_baseline()),
        ("ss8", QuapeConfig::superscalar(8)),
        ("mp3", QuapeConfig::multiprocessor(3)),
        (
            "mux",
            QuapeConfig::superscalar(8)
                .with_readout_lines(2)
                .with_demod_slots(1),
        ),
        // Two servers per line: some readouts find a free server while
        // the other is busy, some wait.
        (
            "mux2",
            QuapeConfig::superscalar(8)
                .with_readout_lines(2)
                .with_demod_slots(2),
        ),
    ] {
        for jitter in [0, 30] {
            let mut cfg = base.clone().with_num_qubits(QUBITS);
            cfg.daq_jitter_ns = jitter;
            out.push((name, cfg));
        }
    }
    out
}

/// Shots `0..shots`, each simulated in full on fresh state, merged.
fn fresh_shots(engine: &ShotEngine, shots: u64) -> ShotAccumulator {
    let mut acc = ShotAccumulator::default();
    for shot in 0..shots {
        acc.merge(&engine.run_shot(shot));
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Near the edge of the budget, jitter decides shot by shot whether
    /// the stop cycle reaches it (replay must fall back there), and the
    /// recording shot itself may be cut short.
    #[test]
    fn replayed_batches_match_full_simulation(
        blocks in proptest::collection::vec(arb_block(), 1..4),
        halt in any::<bool>(),
        state_vector in any::<bool>(),
        edge in arb_edge(),
        seed in 0u64..64,
    ) {
        let program = build(&blocks, halt);
        for (name, cfg) in configs() {
            let job = CompiledJob::compile(cfg.clone(), program.clone()).expect("job compiles");
            prop_assert!(!job.lowered().reads_measurements());
            let engine = |budget: u64, threads: usize, mode: StepMode| {
                ShotEngine::new(job.clone(), factory(state_vector, &cfg))
                    .base_seed(seed)
                    .cycle_limit(budget)
                    .threads(threads)
                    .step_mode(mode)
            };
            let budget = match edge {
                None => 500_000,
                Some(k) => (engine(500_000, 1, StepMode::Lowered).run_shot(0).finish(0).cycles.max + k)
                    .saturating_sub(3)
                    .max(1),
            };
            let one = engine(budget, 1, StepMode::Lowered).run(SHOTS).aggregate;
            let two = engine(budget, 2, StepMode::Lowered).run(SHOTS).aggregate;
            let fresh = fresh_shots(&engine(budget, 1, StepMode::Lowered), SHOTS).finish(seed);
            let cycle = engine(budget, 1, StepMode::Cycle).run(SHOTS).aggregate;
            let case = format!("{name} jitter {} budget {budget}", cfg.daq_jitter_ns);
            prop_assert_eq!(&one, &fresh, "{}: one thread vs fresh shots", case);
            prop_assert_eq!(&two, &fresh, "{}: two threads vs fresh shots", case);
            prop_assert_eq!(&cycle, &fresh, "{}: cycle oracle vs fresh shots", case);
        }
    }
}

/// After one processor executes `HALT`, the others keep running, and the
/// shot may stop in a gap between a block's `STOP` and the first dispatch
/// of the block chained to it, if no readout is in flight then. Block b0
/// ends with a readout that lands near its end; jitter decides shot by
/// shot whether it lands before or after the gap. Replay must stop
/// exactly where full simulation does.
#[test]
fn halt_with_a_chained_block_replays_exactly() {
    for wait in 0..48u8 {
        let blocks = [
            Block {
                ops: vec![
                    ProgOp::G1(0, 0),
                    ProgOp::Meas(0),
                    ProgOp::Wait(wait),
                    ProgOp::G1(1, 1),
                ],
                chained: false,
            },
            Block {
                ops: vec![ProgOp::G1(2, 1), ProgOp::Meas(1)],
                chained: true,
            },
            Block {
                ops: vec![ProgOp::Meas(2)],
                chained: false,
            },
        ];
        let program = build(&blocks, true);
        let mut cfg = QuapeConfig::multiprocessor(3).with_num_qubits(QUBITS);
        cfg.daq_jitter_ns = 30;
        let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
        let engine = ShotEngine::new(job, factory(false, &cfg))
            .base_seed(u64::from(wait))
            .threads(1);
        let replayed = engine.run(4 * SHOTS).aggregate;
        assert_eq!(
            replayed,
            fresh_shots(&engine, 4 * SHOTS).finish(u64::from(wait)),
            "wait {wait}"
        );
    }
}

/// A behavioural QPU behind a wrapper that keeps the trait's default
/// `replay`, so a replayed shot applies its stream operation by operation.
struct PerOp(BehavioralQpu);

impl QpuBackend for PerOp {
    fn apply(&mut self, time_ns: u64, op: QuantumOp) -> Option<bool> {
        self.0.apply(time_ns, op)
    }

    fn violations(&self) -> &[TimingViolation] {
        self.0.violations()
    }

    fn busy_until(&self, qubit: Qubit) -> u64 {
        self.0.busy_until(qubit)
    }

    fn makespan_ns(&self) -> u64 {
        self.0.makespan_ns()
    }
}

/// Every counter of one shot, and its outcomes.
type Key = (
    u64,
    StopReason,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    u64,
    Vec<MeasurementRecord>,
);

fn key(o: &ShotOutcome<'_>) -> Key {
    (
        o.cycles,
        o.stop,
        o.issued_ops,
        o.late_issues,
        o.late_cycles,
        o.violations,
        o.awg_violations,
        o.daq_contended,
        o.qpu_makespan_ns,
        o.measurements.to_vec(),
    )
}

/// A backend for one shot: the behavioural QPU as is (the
/// recorded-counters lane) or wrapped (the per-operation lane), with
/// `warm_up` operations applied before the shot when the backend should
/// not be pristine.
fn backend(
    per_op: bool,
    timings: OpTimings,
    model: &MeasurementModel,
    seed: u64,
    warm_up: &[(u64, QuantumOp)],
) -> Box<dyn QpuBackend> {
    let mut qpu = BehavioralQpu::new(timings, model.clone(), seed);
    for &(t, op) in warm_up {
        qpu.apply(t, op);
    }
    if per_op {
        Box::new(PerOp(qpu))
    } else {
        Box::new(qpu)
    }
}

/// Runs `SHOTS` shots through one arena (the first records, the rest
/// replay) and, for comparison, as fresh lean simulations.
fn both_lanes(
    job: &CompiledJob,
    timings: OpTimings,
    model: &MeasurementModel,
    warm_up: &[(u64, QuantumOp)],
) -> [Vec<Key>; 3] {
    let budget = 500_000;
    let lane = |per_op: bool| {
        let mut runner = LoweredShotRunner::new(job.clone());
        (0..SHOTS)
            .map(|s| key(&runner.run_shot(backend(per_op, timings, model, s, warm_up), s, budget)))
            .collect::<Vec<_>>()
    };
    let fresh = (0..SHOTS)
        .map(|s| {
            let r = job
                .shot(backend(false, timings, model, s, warm_up), s)
                .report_mode(ReportMode::Lean)
                .run_with_mode(StepMode::Lowered, budget);
            (
                r.cycles,
                r.stop,
                r.issued_ops,
                r.stats.late_issues,
                r.stats.late_cycles,
                r.violations.len() as u64,
                r.awg_violations.len() as u64,
                r.stats.daq_contended_results,
                r.qpu_makespan_ns,
                r.measurements,
            )
        })
        .collect();
    [lane(false), lane(true), fresh]
}

fn per_qubit_model() -> MeasurementModel {
    MeasurementModel::PerQubit {
        probabilities: vec![(0, 0.9), (2, 0.1)],
        default_p_one: 0.5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The recorded-counters lane and the per-operation lane give every
    /// shot the same counters and outcomes as full simulation: under a
    /// Bernoulli and a per-qubit model, with the job's timings and with a
    /// factory whose timings differ (the recorded-counters lane must then
    /// decline), and with backends that were not pristine when the shot
    /// began.
    #[test]
    fn both_replay_lanes_match_full_simulation(
        blocks in proptest::collection::vec(arb_block(), 1..4),
        halt in any::<bool>(),
        per_qubit in any::<bool>(),
        other_timings in any::<bool>(),
        warm in any::<bool>(),
    ) {
        let program = build(&blocks, halt);
        for cfg in [
            QuapeConfig::superscalar(8).with_num_qubits(QUBITS),
            QuapeConfig::multiprocessor(3).with_num_qubits(QUBITS),
        ] {
            let job = CompiledJob::compile(cfg.clone(), program.clone()).expect("job compiles");
            let model = if per_qubit {
                per_qubit_model()
            } else {
                MeasurementModel::Bernoulli { p_one: 0.5 }
            };
            let timings = if other_timings {
                OpTimings { single_qubit_ns: 30, ..cfg.timings }
            } else {
                cfg.timings
            };
            let warm_up: &[(u64, QuantumOp)] = if warm {
                &[(0, QuantumOp::Measure(Qubit::new(1))), (0, QuantumOp::Gate1(Gate1::X, Qubit::new(1)))]
            } else {
                &[]
            };
            let [recorded, per_op, fresh] = both_lanes(&job, timings, &model, warm_up);
            prop_assert_eq!(&recorded, &fresh, "recorded-counters lane vs full simulation");
            prop_assert_eq!(&per_op, &fresh, "per-operation lane vs full simulation");
        }
    }
}

/// A fixed stream with timing violations, under each of the four cases.
#[test]
fn replay_lanes_agree_on_a_violating_stream() {
    let program = quape_isa::assemble(
        "0 X q0\n0 MEAS q0\n1 X q0\n0 H q1\n0 CNOT q1, q2\n0 MEAS q2\n0 MEAS q3\nSTOP\n",
    )
    .expect("valid program");
    let cfg = QuapeConfig::superscalar(8).with_num_qubits(QUBITS);
    let job = CompiledJob::compile(cfg.clone(), program).expect("job compiles");
    let slower = OpTimings {
        readout_pulse_ns: 900,
        ..cfg.timings
    };
    let warm_up = [(0, QuantumOp::Measure(Qubit::new(3)))];
    for (case, timings, model, warm_up) in [
        (
            "violations",
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            &[][..],
        ),
        ("per-qubit model", cfg.timings, per_qubit_model(), &[][..]),
        (
            "other timings",
            slower,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            &[][..],
        ),
        (
            "non-pristine",
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            &warm_up[..],
        ),
    ] {
        let [recorded, per_op, fresh] = both_lanes(&job, timings, &model, warm_up);
        assert!(
            recorded.iter().all(|k| k.5 > 0),
            "{case}: the stream violates timing"
        );
        assert_eq!(
            recorded, fresh,
            "{case}: recorded-counters lane vs full simulation"
        );
        assert_eq!(
            per_op, fresh,
            "{case}: per-operation lane vs full simulation"
        );
    }
}
