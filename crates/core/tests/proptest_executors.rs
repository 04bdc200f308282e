//! Property-based differential test: for random assembled programs —
//! including measurements, FMR synchronization stalls, MRCE contexts,
//! branchy feedback, repeat-until-success loops, counted classical loops
//! and timing labels — the lowered micro-op fast path produces
//! `RunReport`s bit-identical to the cycle-stepped oracle on every
//! configuration, and at cycle budgets that cut a shot anywhere,
//! including inside a run of one processor ticking alone and inside a
//! time skip.

use proptest::prelude::*;
use quape_core::{Machine, QuapeConfig, StepMode};
use quape_isa::{
    ClassicalOp, Cond, CondOp, Cycles, Dependency, Gate1, Gate2, Program, ProgramBuilder,
    QuantumOp, Qubit, Reg,
};
use quape_qpu::{BehavioralQpu, MeasurementModel};

#[derive(Debug, Clone)]
enum ProgOp {
    G1(u8, u16),
    G2(u16, u16),
    Meas(u16),
    /// Measure then immediately FMR the same qubit (a Stage I/II stall).
    MeasFmr(u16),
    /// Measure then park a conditional via MRCE (fast context switch).
    MeasMrce(u16, u16),
    Wait(u8),
    /// Measure → FMR → CMPI → BR over a conditional X: the feedback round
    /// of the engine benchmark's FMR chain.
    Feedback(u16),
    /// A backward-branching repeat-until-success loop: X, measure, FMR,
    /// and branch back while the outcome reads 1.
    Rus(u16),
    /// A counted loop of classical ops only (LDI, then ADDI/CMPI/BR back
    /// `n` times): several cycles of pure classical dispatch.
    Count(u8),
    /// An X on `q` followed by a jump to the next instruction: behind a
    /// context-blocked X, the fetched jump closes fetch yet still
    /// dispatches by lookahead.
    Jump(u16),
}

/// How the left block of a two-block program ends.
#[derive(Debug, Clone, Copy)]
enum Ending {
    Stop,
    /// `HALT` while the right block may still be running.
    Halt,
    /// `RET` with an empty call stack: an execution error.
    Fault,
}

fn arb_op(num_qubits: u16) -> impl Strategy<Value = ProgOp> {
    prop_oneof![
        4 => (0u8..14, 0..num_qubits).prop_map(|(g, q)| ProgOp::G1(g, q)),
        2 => (0..num_qubits, 0..num_qubits).prop_map(|(a, b)| ProgOp::G2(a, b)),
        1 => (0..num_qubits).prop_map(ProgOp::Meas),
        2 => (0..num_qubits).prop_map(ProgOp::MeasFmr),
        2 => (0..num_qubits, 0..num_qubits).prop_map(|(q, t)| ProgOp::MeasMrce(q, t)),
        1 => (1u8..30).prop_map(ProgOp::Wait),
    ]
}

fn arb_prog(num_qubits: u16) -> impl Strategy<Value = Vec<ProgOp>> {
    proptest::collection::vec(arb_op(num_qubits), 1..60)
}

/// Programs weighted towards control flow: feedback rounds, RUS loops
/// and classical loops between the plain operations.
fn arb_branchy(num_qubits: u16) -> impl Strategy<Value = Vec<ProgOp>> {
    let op = prop_oneof![
        3 => arb_op(num_qubits),
        3 => (0..num_qubits).prop_map(ProgOp::Feedback),
        1 => (0..num_qubits).prop_map(ProgOp::Rus),
        2 => (1u8..12).prop_map(ProgOp::Count),
        1 => (0..num_qubits).prop_map(ProgOp::Jump),
    ];
    proptest::collection::vec(op, 1..30)
}

/// Appends `ops` to `b`; `tag` keeps the labels of separate calls apart.
fn emit(b: &mut ProgramBuilder, ops: &[ProgOp], tag: &str) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            ProgOp::G1(g, q) => {
                let gate = Gate1::FIXED[g as usize % Gate1::FIXED.len()];
                b.quantum(2, QuantumOp::Gate1(gate, Qubit::new(q)));
            }
            ProgOp::G2(a, bq) if a != bq => {
                b.quantum(
                    4,
                    QuantumOp::Gate2(Gate2::Cnot, Qubit::new(a), Qubit::new(bq)),
                );
            }
            ProgOp::G2(..) => {}
            ProgOp::Meas(q) => {
                b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
            }
            ProgOp::MeasFmr(q) => {
                b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
                b.fmr(0, q);
            }
            ProgOp::MeasMrce(q, t) => {
                b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
                b.push(ClassicalOp::Mrce {
                    qubit: Qubit::new(q),
                    target: Qubit::new(t),
                    op_if_one: CondOp::X,
                    op_if_zero: CondOp::None,
                });
            }
            ProgOp::Wait(c) => {
                b.push(ClassicalOp::Qwait {
                    cycles: Cycles::new(u32::from(c)),
                });
            }
            ProgOp::Feedback(q) => {
                let skip = format!("{tag}skip{i}");
                b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
                b.fmr(0, q);
                b.cmpi(0, 1);
                b.br_to(Cond::Ne, &skip);
                b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
                b.label(&skip);
            }
            ProgOp::Rus(q) => {
                let top = format!("{tag}rus{i}");
                b.label(&top);
                b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
                b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
                b.fmr(0, q);
                b.cmpi(0, 1);
                b.br_to(Cond::Eq, &top);
            }
            ProgOp::Count(n) => {
                let top = format!("{tag}count{i}");
                b.push(ClassicalOp::Ldi {
                    rd: Reg::new(1),
                    imm: i16::from(n),
                });
                b.label(&top);
                b.push(ClassicalOp::Addi {
                    rd: Reg::new(1),
                    rs: Reg::new(1),
                    imm: -1,
                });
                b.cmpi(1, 0);
                b.br_to(Cond::Ne, &top);
            }
            ProgOp::Jump(q) => {
                let next = format!("{tag}jump{i}");
                b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
                b.jmp_to(&next);
                b.label(&next);
            }
        }
    }
}

fn build(ops: &[ProgOp]) -> Program {
    let mut b = ProgramBuilder::new();
    emit(&mut b, ops, "");
    b.push(ClassicalOp::Stop);
    b.finish().expect("generated program is valid")
}

/// Two priority blocks the scheduler hands to different processors of a
/// multiprocessor: `ops` split in half, the left half ending as `left`
/// says and the right half in `STOP`.
fn build_two_blocks(ops: &[ProgOp], left_ending: Ending) -> Program {
    let (left, right) = ops.split_at(ops.len() / 2);
    let mut b = ProgramBuilder::new();
    for (name, half, ending) in [("left", left, left_ending), ("right", right, Ending::Stop)] {
        b.begin_block(name, Dependency::Priority(0));
        emit(&mut b, half, name);
        b.push(match ending {
            Ending::Stop => ClassicalOp::Stop,
            Ending::Halt => ClassicalOp::Halt,
            Ending::Fault => ClassicalOp::Ret,
        });
        b.end_block();
    }
    b.finish().expect("generated two-block program is valid")
}

fn run_with_budget(
    cfg: QuapeConfig,
    program: Program,
    mode: StepMode,
    seed: u64,
    max_cycles: u64,
) -> quape_core::RunReport {
    let qpu = BehavioralQpu::new(
        cfg.timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    Machine::new(cfg.with_seed(seed), program, Box::new(qpu))
        .expect("machine builds")
        .run_with_mode(mode, max_cycles)
}

fn run(cfg: QuapeConfig, program: Program, mode: StepMode, seed: u64) -> quape_core::RunReport {
    run_with_budget(cfg, program, mode, seed, 500_000)
}

/// The uniprocessor with the fast context switch firing in the same
/// cycle the result lands.
fn instant_switch() -> QuapeConfig {
    let mut cfg = QuapeConfig::uniprocessor();
    cfg.context_switch_cycles = 0;
    cfg
}

/// Asserts Cycle and Lowered agree on `program` under `cfg`, run to
/// completion and cut at `budgets` (fractions of the full run, in
/// per-mille, clamped to at least one cycle).
fn assert_agree(cfg: &QuapeConfig, program: &Program, seed: u64, budgets: &[u64]) {
    let cycle = run(cfg.clone(), program.clone(), StepMode::Cycle, seed);
    let lowered = run(cfg.clone(), program.clone(), StepMode::Lowered, seed);
    assert_eq!(cycle, lowered);
    for &per_mille in budgets {
        let budget = (cycle.cycles * per_mille / 1000).max(1);
        let cut_cycle =
            run_with_budget(cfg.clone(), program.clone(), StepMode::Cycle, seed, budget);
        let cut_lowered = run_with_budget(
            cfg.clone(),
            program.clone(),
            StepMode::Lowered,
            seed,
            budget,
        );
        assert_eq!(
            cut_cycle, cut_lowered,
            "budget {budget} of {}",
            cycle.cycles
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lowered-fast-path and cycle-stepped runs agree
    /// bit-for-bit on random feedback-heavy programs across scalar,
    /// superscalar, context-switch-disabled, and multiplexed-readout/
    /// contended-DAQ configurations — including the AWG playback
    /// timeline, the device-detected violations, and the DAQ contention
    /// counters.
    #[test]
    fn executors_agree_on_random_programs(ops in arb_prog(6), seed in 0u64..64) {
        let program = build(&ops);
        let mut no_fcs = QuapeConfig::superscalar(4);
        no_fcs.fast_context_switch = false;
        let mut tiny_ctx = QuapeConfig::superscalar(8);
        tiny_ctx.context_capacity = 1;
        // Shared readout lines + a single demod server per line: AWG
        // channel overlaps and DAQ demod contention both fire routinely
        // on random measurement bursts.
        let mux = QuapeConfig::superscalar(8)
            .with_readout_lines(2)
            .with_demod_slots(1);
        for cfg in [
            QuapeConfig::scalar_baseline(),
            QuapeConfig::superscalar(8),
            no_fcs,
            tiny_ctx,
            mux,
        ] {
            let cycle = run(cfg.clone(), program.clone(), StepMode::Cycle, seed);
            let lowered = run(cfg, program.clone(), StepMode::Lowered, seed);
            prop_assert_eq!(&cycle, &lowered);
            // The report equality above already covers these, but keep the
            // device fields explicit: they are what the AWG/DAQ event
            // horizons and the micro-op pre-resolution must not disturb.
            prop_assert_eq!(&cycle.playback, &lowered.playback);
            prop_assert_eq!(&cycle.awg_violations, &lowered.awg_violations);
            prop_assert_eq!(cycle.stats.awg_triggers, lowered.stats.awg_triggers);
            prop_assert_eq!(
                cycle.stats.daq_contended_results,
                lowered.stats.daq_contended_results
            );
        }
    }

    /// Branchy programs — feedback rounds, RUS loops, counted classical
    /// loops — agree on the uniprocessor with a 3-cycle and an instant
    /// context switch, on the superscalar, and split into two blocks on
    /// `multiprocessor(2)`, where one processor runs alone once the other
    /// block is done (or has halted or faulted). Each run is also cut at
    /// budgets spread over its length, so some land inside a run and some
    /// inside a skip.
    #[test]
    fn executors_agree_on_branchy_feedback(
        ops in arb_branchy(4),
        seed in 0u64..64,
        offset in 1u64..97,
    ) {
        let ending = [Ending::Stop, Ending::Halt, Ending::Fault][(offset % 3) as usize];
        let budgets = [offset, 250 + offset, 500 + offset, 750 + offset, 900 + offset];
        let program = build(&ops);
        for cfg in [
            QuapeConfig::uniprocessor(),
            instant_switch(),
            QuapeConfig::superscalar(4),
        ] {
            assert_agree(&cfg, &program, seed, &budgets);
        }
        assert_agree(
            &QuapeConfig::multiprocessor(2),
            &build_two_blocks(&ops, ending),
            seed,
            &budgets,
        );
    }
}

/// Every budget from one cycle to the end of a fixed branchy shot, so
/// each cycle of every run and every skip is a cut point once: feedback
/// rounds, a RUS loop, classical loops and a jump behind a context-blocked
/// gate, on the uniprocessor (3-cycle and instant context switch) and as
/// two blocks on `multiprocessor(2)`, the left one ending in `STOP`,
/// `HALT` or a fault.
#[test]
fn every_budget_cut_agrees_on_a_branchy_shot() {
    let ops = [
        ProgOp::Feedback(0),
        ProgOp::Count(5),
        ProgOp::MeasMrce(1, 0),
        ProgOp::Jump(0),
        ProgOp::Rus(1),
        ProgOp::Feedback(1),
        ProgOp::G1(0, 0),
        ProgOp::Count(3),
        ProgOp::Feedback(0),
        ProgOp::Count(9),
    ];
    let mut cases = vec![
        (QuapeConfig::uniprocessor(), build(&ops)),
        (instant_switch(), build(&ops)),
    ];
    for ending in [Ending::Stop, Ending::Halt, Ending::Fault] {
        cases.push((
            QuapeConfig::multiprocessor(2),
            build_two_blocks(&ops, ending),
        ));
    }
    for (cfg, program) in cases {
        for seed in [1, 2] {
            let full = run(cfg.clone(), program.clone(), StepMode::Cycle, seed);
            assert!(full.issued_ops > 0);
            for budget in 1..=full.cycles + 1 {
                let cycle =
                    run_with_budget(cfg.clone(), program.clone(), StepMode::Cycle, seed, budget);
                let lowered = run_with_budget(
                    cfg.clone(),
                    program.clone(),
                    StepMode::Lowered,
                    seed,
                    budget,
                );
                assert_eq!(cycle, lowered, "seed {seed}, budget {budget}");
            }
        }
    }
}

/// Results landing in the same cycle for several parked contexts under
/// an instant context switch: one context resolves per tick, so a tick
/// that resolved one (and dispatched nothing, behind a draining `STOP`)
/// must not count as a stall the next tick repeats.
#[test]
fn simultaneous_context_results_resolve_one_per_cycle() {
    let mut cfg = QuapeConfig::superscalar(4);
    cfg.context_switch_cycles = 0;
    cfg.daq_jitter_ns = 0;
    let mut b = ProgramBuilder::new();
    for q in 0..3 {
        b.quantum(0, QuantumOp::Measure(Qubit::new(q)));
    }
    for q in 0..3 {
        b.push(ClassicalOp::Mrce {
            qubit: Qubit::new(q),
            target: Qubit::new(3),
            op_if_one: CondOp::None,
            op_if_zero: CondOp::None,
        });
    }
    b.push(ClassicalOp::Stop);
    let program = b.finish().expect("valid program");
    for seed in 0..4 {
        let cycle = run(cfg.clone(), program.clone(), StepMode::Cycle, seed);
        let lowered = run(cfg.clone(), program.clone(), StepMode::Lowered, seed);
        assert_eq!(cycle.stats.processors[0].context_switches, 3);
        assert_eq!(cycle, lowered, "seed {seed}");
    }
}
