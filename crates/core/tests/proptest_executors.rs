//! Property-based differential test: for random assembled programs —
//! including measurements, FMR synchronization stalls, MRCE contexts,
//! and timing labels — the lowered micro-op fast path produces
//! `RunReport`s bit-identical to the cycle-stepped oracle on every
//! configuration.

use proptest::prelude::*;
use quape_core::{Machine, QuapeConfig, StepMode};
use quape_isa::{ClassicalOp, CondOp, Cycles, Gate1, Gate2, Program, QuantumOp, Qubit};
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
}

fn arb_prog(num_qubits: u16) -> impl Strategy<Value = Vec<ProgOp>> {
    let op = prop_oneof![
        4 => (0u8..14, 0..num_qubits).prop_map(|(g, q)| ProgOp::G1(g, q)),
        2 => (0..num_qubits, 0..num_qubits).prop_map(|(a, b)| ProgOp::G2(a, b)),
        1 => (0..num_qubits).prop_map(ProgOp::Meas),
        2 => (0..num_qubits).prop_map(ProgOp::MeasFmr),
        2 => (0..num_qubits, 0..num_qubits).prop_map(|(q, t)| ProgOp::MeasMrce(q, t)),
        1 => (1u8..30).prop_map(ProgOp::Wait),
    ];
    proptest::collection::vec(op, 1..60)
}

fn build(ops: &[ProgOp]) -> Program {
    let mut b = quape_isa::ProgramBuilder::new();
    for op in ops {
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
        }
    }
    b.push(ClassicalOp::Stop);
    b.finish().expect("generated program is valid")
}

fn run(cfg: QuapeConfig, program: Program, mode: StepMode, seed: u64) -> quape_core::RunReport {
    let qpu = BehavioralQpu::new(
        cfg.timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    );
    Machine::new(cfg.with_seed(seed), program, Box::new(qpu))
        .expect("machine builds")
        .run_with_mode(mode, 500_000)
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
}
