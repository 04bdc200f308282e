//! Dense pulse-train workloads for stressing the AWG/DAQ device models.
//!
//! Unlike the feedback chains (which are DAQ-*wait*-bound and spend most
//! of their time idle), these programs keep the analog front end busy:
//! every timing slot triggers waveforms on many channels at once, so the
//! AWG playback queue, the per-channel occupancy tracking, and — with a
//! multiplexed readout layout — the DAQ demod servers all see sustained
//! traffic. Used by the `awg_playback` engine benchmark and the device
//! differential tests.

use quape_isa::{
    ClassicalOp, CondOp, Gate1, Program, ProgramBuilder, ProgramError, QuantumOp, Qubit,
};

/// `rounds` layers of parallel single-qubit gates across `num_qubits`
/// qubits (one waveform per qubit per layer, layers spaced one gate
/// duration apart), followed by a simultaneous measurement of every
/// qubit. With `num_qubits` > 1 the final readout burst exercises DAQ
/// demod concurrency; on a multiplexed readout layout it contends for the
/// shared lines.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn pulse_train(num_qubits: u16, rounds: usize) -> Result<Program, ProgramError> {
    let mut b = pulse_layers(num_qubits, rounds);
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// [`pulse_train`] followed by one `MRCE` on qubit 0's readout (an `X`
/// when it reads 1). Feedback keeps every shot of a batch fully simulated
/// (a feedback-free train replays its first shot's issue stream), so this
/// variant times the AWG/DAQ device models on a dense workload.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn pulse_train_with_feedback(num_qubits: u16, rounds: usize) -> Result<Program, ProgramError> {
    let mut b = pulse_layers(num_qubits, rounds);
    b.push(ClassicalOp::Mrce {
        qubit: Qubit::new(0),
        target: Qubit::new(0),
        op_if_one: CondOp::X,
        op_if_zero: CondOp::None,
    });
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// The gate layers and the final readout burst of [`pulse_train`].
fn pulse_layers(num_qubits: u16, rounds: usize) -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    for round in 0..rounds {
        let gate = if round % 2 == 0 { Gate1::X } else { Gate1::Y };
        for q in 0..num_qubits {
            // Head of the layer carries the 2-cycle (20 ns) spacing; the
            // rest join its timing group.
            let label = if q == 0 { 2 } else { 0 };
            b.quantum(label, QuantumOp::Gate1(gate, Qubit::new(q)));
        }
    }
    for q in 0..num_qubits {
        let label = if q == 0 { 2 } else { 0 };
        b.quantum(label, QuantumOp::Measure(Qubit::new(q)));
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_train_shape() {
        let p = pulse_train(4, 10).unwrap();
        // 10 layers × 4 gates + 4 measures + STOP.
        assert_eq!(p.len(), 45);
        let measures = p
            .instructions()
            .iter()
            .filter(|i| matches!(i, quape_isa::Instruction::Quantum(q) if q.op.is_measure()))
            .count();
        assert_eq!(measures, 4);
    }
}
