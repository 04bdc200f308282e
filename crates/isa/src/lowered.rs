//! Pre-decoded micro-op form of a validated [`Program`].
//!
//! The cycle-accurate machine walks layered [`Instruction`] enums on every
//! busy cycle: nested matches, operand newtypes, timing-label lookups and
//! a binary search from instruction address to circuit step. Lowering a
//! program once at compile time produces a contiguous [`MicroOp`] array in
//! which all of that is pre-resolved, so a flat dispatch loop (the
//! `StepMode::Lowered` executor in `quape-core`) spends its cycles on the
//! microarchitecture model instead of on decoding — the same
//! frontend/backend split that keeps issue logic trivial in QuMA-style
//! control processors.
//!
//! # Format invariants
//!
//! The executor's correctness (bit-identical reports against the
//! un-lowered oracle) rests on these invariants, upheld by
//! [`LoweredProgram::lower`]:
//!
//! 1. **Address identity** — `ops[i]` lowers `program.instruction(i)`,
//!    one micro-op per instruction, in order. Program addresses *are*
//!    array indices, so branch/call targets transfer verbatim: a lowered
//!    `Jmp { target }` jumps to `ops[target]`.
//! 2. **Pre-resolved operands** — register/shared-register/qubit operands
//!    are flattened to raw `u8`/`u16` indices; quantum micro-ops carry
//!    their timing label as a raw count plus the baked-in [`OpTimings`]
//!    duration and AWG waveform codeword ([`waveform_index`]) so the
//!    emit path never re-derives them.
//! 3. **Pre-classified flags** — every dispatch-stage predicate the
//!    processor evaluates per cycle (quantum? measure? `QWAIT`? must
//!    reach the buffer front? synchronizes on a measurement? control
//!    flow? zero timing label?) is a single bit test on
//!    [`MicroOp::flags`].
//! 4. **Block boundaries** — [`LoweredProgram::block`] gives each block's
//!    `start..end` address range (identical to the block information
//!    table), so icache-bank accounting needs no `Arc` slices.
//! 5. **Bounded size** — a [`MicroOp`] stays ≤ 32 bytes (compile-time
//!    assertion below) so the hot array stays dense in cache.

use crate::instruction::{ClassicalOp, Cond, Instruction, QuantumOp};
use crate::program::Program;
use crate::timing::OpTimings;
use crate::{gate::CondOp, gate::Gate1, gate::Gate2};
use serde::{Deserialize, Serialize};

/// The AWG waveform-table codeword an operation's pulse is stored under.
///
/// This is the device-side dictionary every emitted operation is
/// translated through (fixed gates occupy low indices, parameterized
/// rotations index per-axis banks of [`crate::Angle::STEPS`] entries,
/// readout uses a dedicated codeword). The lowering pass bakes the
/// codeword into each quantum micro-op; the AWG device model uses the
/// same function at emit time for un-lowered instructions.
#[inline]
pub fn waveform_index(op: &QuantumOp) -> u16 {
    match op {
        QuantumOp::Gate1(g, _) => match g {
            Gate1::I => 0,
            Gate1::X => 1,
            Gate1::Y => 2,
            Gate1::Z => 3,
            Gate1::H => 4,
            Gate1::S => 5,
            Gate1::Sdg => 6,
            Gate1::T => 7,
            Gate1::Tdg => 8,
            Gate1::X90 => 9,
            Gate1::Xm90 => 10,
            Gate1::Y90 => 11,
            Gate1::Ym90 => 12,
            Gate1::Reset => 13,
            Gate1::Rx(a) => 100 + a.index() as u16,
            Gate1::Ry(a) => 200 + a.index() as u16,
            Gate1::Rz(a) => 300 + a.index() as u16,
        },
        QuantumOp::Gate2(Gate2::Cnot, ..) => 20,
        QuantumOp::Gate2(Gate2::Cz, ..) => 21,
        QuantumOp::Gate2(Gate2::Swap, ..) => 22,
        QuantumOp::Measure(_) => 30,
    }
}

/// Dispatch-stage classification bits of a [`MicroOp`] (invariant 3).
pub mod flags {
    /// The micro-op is a quantum instruction.
    pub const QUANTUM: u8 = 1;
    /// The micro-op is a measurement (implies [`QUANTUM`]).
    pub const MEASURE: u8 = 1 << 1;
    /// The micro-op is a `QWAIT` (lives in the quantum stream; classical
    /// lookahead bypasses it).
    pub const QWAIT: u8 = 1 << 2;
    /// `STOP`/`HALT`: may only dispatch from the buffer front.
    pub const NEEDS_FRONT: u8 = 1 << 3;
    /// `FMR`/`MRCE`: synchronizes on a measurement result, so it may only
    /// dispatch from the front when an older buffered measure exists.
    pub const SYNC: u8 = 1 << 4;
    /// Classical control flow (fetch stops behind it).
    pub const CONTROL_FLOW: u8 = 1 << 5;
    /// Quantum instruction with a zero timing label (groups with the
    /// preceding quantum head in a superscalar dispatch).
    pub const TIMING_ZERO: u8 = 1 << 6;
}

/// The pre-decoded operation payload of a [`MicroOp`].
///
/// One variant per [`ClassicalOp`], with operand newtypes flattened to
/// raw indices (invariant 2), plus a single `Quantum` variant carrying
/// the resolved timing label, duration and waveform codeword.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MicroWord {
    /// A quantum operation with its pre-resolved emission parameters.
    Quantum {
        /// The operation itself (the QPU backend still consumes it).
        op: QuantumOp,
        /// Timing label, in cycles since the previous quantum operation.
        timing: u32,
        /// Baked-in [`OpTimings`] duration of the pulse.
        dur_ns: u64,
        /// Baked-in AWG waveform codeword ([`waveform_index`]).
        waveform: u16,
    },
    /// Unconditional jump to the absolute micro-op index `target`.
    Jmp {
        /// Target micro-op index.
        target: u32,
    },
    /// Conditional branch on the ALU flags.
    Br {
        /// Branch condition.
        cond: Cond,
        /// Target micro-op index.
        target: u32,
    },
    /// Subroutine call (pushes the return address).
    Call {
        /// Target micro-op index.
        target: u32,
    },
    /// Subroutine return.
    Ret,
    /// Load immediate into register `rd`.
    Ldi {
        /// Destination register index.
        rd: u8,
        /// Immediate value.
        imm: i16,
    },
    /// Register move.
    Mov {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rs: u8,
    },
    /// Add: `rd = rs1 + rs2` (sets flags).
    Add {
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// Add immediate: `rd = rs + imm` (sets flags).
    Addi {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rs: u8,
        /// Immediate value.
        imm: i16,
    },
    /// Subtract: `rd = rs1 - rs2` (sets flags).
    Sub {
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// Bitwise AND (sets flags).
    And {
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// Bitwise OR (sets flags).
    Or {
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// Bitwise XOR (sets flags).
    Xor {
        /// Destination register index.
        rd: u8,
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// Bitwise NOT (sets flags).
    Not {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rs: u8,
    },
    /// Compare two registers (sets flags only).
    Cmp {
        /// First source register index.
        rs1: u8,
        /// Second source register index.
        rs2: u8,
    },
    /// Compare register with immediate (sets flags only).
    Cmpi {
        /// Source register index.
        rs: u8,
        /// Immediate value.
        imm: i16,
    },
    /// Fetch measurement result of `qubit` into `rd` (synchronizing).
    Fmr {
        /// Destination register index.
        rd: u8,
        /// Measured qubit index.
        qubit: u16,
    },
    /// Advance the quantum timeline by `cycles`.
    Qwait {
        /// Wait duration in cycles.
        cycles: u32,
    },
    /// Load from a shared register.
    Lds {
        /// Destination register index.
        rd: u8,
        /// Source shared-register index.
        sreg: u8,
    },
    /// Store to a shared register.
    Sts {
        /// Destination shared-register index.
        sreg: u8,
        /// Source register index.
        rs: u8,
    },
    /// Measurement-result conditional execution (fast context switch).
    Mrce {
        /// Measured qubit index.
        qubit: u16,
        /// Target qubit index of the conditional operation.
        target: u16,
        /// Operation applied when the result reads 1.
        op_if_one: CondOp,
        /// Operation applied when the result reads 0.
        op_if_zero: CondOp,
    },
    /// No operation.
    Nop,
    /// End of block (drains in-flight work first).
    Stop,
    /// Halt the whole machine.
    Halt,
}

/// One pre-decoded micro-op: payload, pre-resolved circuit step, and
/// dispatch classification flags. See the module docs for the format
/// invariants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroOp {
    /// The pre-decoded operation payload.
    pub word: MicroWord,
    /// Pre-resolved circuit-step index ([`crate::StepId`]), or
    /// [`MicroOp::NO_STEP`] when the instruction maps to no step.
    pub step: u32,
    /// Classification bits ([`flags`]).
    pub flags: u8,
}

impl MicroOp {
    /// Sentinel step value: the instruction maps to no circuit step.
    pub const NO_STEP: u32 = u32::MAX;
}

// Invariant 5: enum growth must not silently fatten the hot array.
const _: () = assert!(std::mem::size_of::<MicroOp>() <= 32);
// The lowering exists because `Instruction` is the *wide* format; if it
// ever outgrows this budget the pre-decode win should be re-audited.
const _: () = assert!(std::mem::size_of::<Instruction>() <= 24);

/// Address range of one program block in the micro-op array
/// (half-open, `start..end`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoweredBlock {
    /// First micro-op index of the block.
    pub start: u32,
    /// One-past-the-end micro-op index of the block.
    pub end: u32,
}

/// A program lowered to its contiguous micro-op array, with per-block
/// boundaries.
///
/// It carries no digest of its own: the `CompiledJob` (in `quape-core`)
/// that owns it is digested once, over the program and the config whose
/// [`OpTimings`] are baked in here. Two lowerings are interchangeable
/// exactly when they compare equal.
///
/// ```
/// use quape_isa::{assemble, LoweredProgram, MicroWord, OpTimings};
///
/// let program = assemble("0 H q0\n2 MEAS q0\nFMR r0, q0\nSTOP\n")?;
/// let lowered = LoweredProgram::lower(&program, &OpTimings::paper());
/// assert_eq!(lowered.len(), program.len());
/// assert!(matches!(
///     lowered.ops()[0].word,
///     MicroWord::Quantum { dur_ns: 20, .. }
/// ));
/// # Ok::<(), quape_isa::IsaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoweredProgram {
    ops: Vec<MicroOp>,
    blocks: Vec<LoweredBlock>,
    reads_measurements: bool,
}

impl LoweredProgram {
    /// Lowers a validated program under `timings` (see the module docs
    /// for the invariants this establishes).
    pub fn lower(program: &Program, timings: &OpTimings) -> Self {
        let ops: Vec<MicroOp> = program
            .instructions()
            .iter()
            .enumerate()
            .map(|(addr, instr)| lower_one(program, timings, addr, instr))
            .collect();
        let reads_measurements = ops
            .iter()
            .any(|m| matches!(m.word, MicroWord::Fmr { .. } | MicroWord::Mrce { .. }));
        let blocks = program
            .blocks()
            .iter()
            .map(|(_, info)| LoweredBlock {
                start: info.range.start,
                end: info.range.end,
            })
            .collect();
        LoweredProgram {
            ops,
            blocks,
            reads_measurements,
        }
    }

    /// The micro-op array (`ops()[i]` lowers instruction `i`).
    #[inline]
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of micro-ops (equals the source program length).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// True when some micro-op reads a measurement result (`FMR` or
    /// `MRCE`). Those are the only instructions through which an outcome
    /// can change what is issued, or when; a program without them issues
    /// the same timed operation stream on every shot.
    pub fn reads_measurements(&self) -> bool {
        self.reads_measurements
    }

    /// Classification flags of the micro-op at `addr` — a single byte
    /// read, so per-cycle fetch stages can classify without copying the
    /// whole 32-byte [`MicroOp`].
    #[inline]
    pub fn flags_at(&self, addr: u32) -> u8 {
        self.ops[addr as usize].flags
    }

    /// Address range of block `index` (block-table order).
    pub fn block(&self, index: usize) -> LoweredBlock {
        self.blocks[index]
    }

    /// Per-block address ranges, in block-table order.
    pub fn blocks(&self) -> &[LoweredBlock] {
        &self.blocks
    }
}

fn lower_one(program: &Program, timings: &OpTimings, addr: usize, instr: &Instruction) -> MicroOp {
    use flags as f;
    let (word, fl) = match instr {
        Instruction::Quantum(q) => {
            let mut fl = f::QUANTUM;
            if q.op.is_measure() {
                fl |= f::MEASURE;
            }
            if q.timing.count() == 0 {
                fl |= f::TIMING_ZERO;
            }
            (
                MicroWord::Quantum {
                    op: q.op,
                    timing: q.timing.count(),
                    dur_ns: timings.duration_of(&q.op),
                    waveform: waveform_index(&q.op),
                },
                fl,
            )
        }
        Instruction::Classical(op) => {
            let mut fl = 0u8;
            if op.is_control_flow() {
                fl |= f::CONTROL_FLOW;
            }
            let word = match *op {
                ClassicalOp::Jmp { target } => MicroWord::Jmp { target },
                ClassicalOp::Br { cond, target } => MicroWord::Br { cond, target },
                ClassicalOp::Call { target } => MicroWord::Call { target },
                ClassicalOp::Ret => MicroWord::Ret,
                ClassicalOp::Ldi { rd, imm } => MicroWord::Ldi {
                    rd: rd.index(),
                    imm,
                },
                ClassicalOp::Mov { rd, rs } => MicroWord::Mov {
                    rd: rd.index(),
                    rs: rs.index(),
                },
                ClassicalOp::Add { rd, rs1, rs2 } => MicroWord::Add {
                    rd: rd.index(),
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                },
                ClassicalOp::Addi { rd, rs, imm } => MicroWord::Addi {
                    rd: rd.index(),
                    rs: rs.index(),
                    imm,
                },
                ClassicalOp::Sub { rd, rs1, rs2 } => MicroWord::Sub {
                    rd: rd.index(),
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                },
                ClassicalOp::And { rd, rs1, rs2 } => MicroWord::And {
                    rd: rd.index(),
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                },
                ClassicalOp::Or { rd, rs1, rs2 } => MicroWord::Or {
                    rd: rd.index(),
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                },
                ClassicalOp::Xor { rd, rs1, rs2 } => MicroWord::Xor {
                    rd: rd.index(),
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                },
                ClassicalOp::Not { rd, rs } => MicroWord::Not {
                    rd: rd.index(),
                    rs: rs.index(),
                },
                ClassicalOp::Cmp { rs1, rs2 } => MicroWord::Cmp {
                    rs1: rs1.index(),
                    rs2: rs2.index(),
                },
                ClassicalOp::Cmpi { rs, imm } => MicroWord::Cmpi {
                    rs: rs.index(),
                    imm,
                },
                ClassicalOp::Fmr { rd, qubit } => {
                    fl |= f::SYNC;
                    MicroWord::Fmr {
                        rd: rd.index(),
                        qubit: qubit.index(),
                    }
                }
                ClassicalOp::Qwait { cycles } => {
                    fl |= f::QWAIT;
                    MicroWord::Qwait {
                        cycles: cycles.count(),
                    }
                }
                ClassicalOp::Lds { rd, sreg } => MicroWord::Lds {
                    rd: rd.index(),
                    sreg: sreg.index(),
                },
                ClassicalOp::Sts { sreg, rs } => MicroWord::Sts {
                    sreg: sreg.index(),
                    rs: rs.index(),
                },
                ClassicalOp::Mrce {
                    qubit,
                    target,
                    op_if_one,
                    op_if_zero,
                } => {
                    fl |= f::SYNC;
                    MicroWord::Mrce {
                        qubit: qubit.index(),
                        target: target.index(),
                        op_if_one,
                        op_if_zero,
                    }
                }
                ClassicalOp::Nop => MicroWord::Nop,
                ClassicalOp::Stop => {
                    fl |= f::NEEDS_FRONT;
                    MicroWord::Stop
                }
                ClassicalOp::Halt => {
                    fl |= f::NEEDS_FRONT;
                    MicroWord::Halt
                }
            };
            (word, fl)
        }
    };
    MicroOp {
        word,
        step: program.step_of(addr).map_or(MicroOp::NO_STEP, |s| s.0),
        flags: fl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble, Cycles, ProgramBuilder, Qubit};

    #[test]
    fn addresses_are_indices_and_targets_transfer() {
        let p =
            assemble("0 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR NE, 5\n0 X q0\nSTOP\n").expect("valid");
        let l = LoweredProgram::lower(&p, &OpTimings::paper());
        assert_eq!(l.len(), p.len());
        match l.ops()[3].word {
            MicroWord::Br { target, .. } => assert_eq!(target, 5),
            ref w => panic!("expected Br, got {w:?}"),
        }
        assert!(matches!(l.ops()[5].word, MicroWord::Stop));
    }

    #[test]
    fn flags_classify_dispatch_predicates() {
        use super::flags as f;
        let p = assemble("2 MEAS q0\n0 H q1\nQWAIT 3\nFMR r0, q0\nSTOP\n").expect("valid");
        let l = LoweredProgram::lower(&p, &OpTimings::paper());
        let ops = l.ops();
        assert_eq!(ops[0].flags & f::QUANTUM, f::QUANTUM);
        assert_eq!(ops[0].flags & f::MEASURE, f::MEASURE);
        assert_eq!(ops[0].flags & f::TIMING_ZERO, 0);
        assert_eq!(ops[1].flags & f::TIMING_ZERO, f::TIMING_ZERO);
        assert_eq!(ops[1].flags & f::MEASURE, 0);
        assert_eq!(ops[2].flags & f::QWAIT, f::QWAIT);
        assert_eq!(ops[3].flags & f::SYNC, f::SYNC);
        assert_eq!(ops[4].flags & f::NEEDS_FRONT, f::NEEDS_FRONT);
        // STOP counts as control flow (fetch stops behind it).
        assert_eq!(ops[4].flags & f::CONTROL_FLOW, f::CONTROL_FLOW);
        assert_eq!(ops[3].flags & f::CONTROL_FLOW, 0);
    }

    #[test]
    fn quantum_params_are_baked_in() {
        let t = OpTimings {
            single_qubit_ns: 25,
            two_qubit_ns: 45,
            readout_pulse_ns: 700,
        };
        let p = assemble("0 H q0\n1 CNOT q0, q1\n2 MEAS q1\nSTOP\n").expect("valid");
        let l = LoweredProgram::lower(&p, &t);
        match l.ops()[0].word {
            MicroWord::Quantum {
                dur_ns, waveform, ..
            } => {
                assert_eq!(dur_ns, 25);
                assert_eq!(waveform, 4); // H
            }
            ref w => panic!("expected quantum, got {w:?}"),
        }
        match l.ops()[1].word {
            MicroWord::Quantum {
                dur_ns,
                waveform,
                timing,
                ..
            } => {
                assert_eq!(dur_ns, 45);
                assert_eq!(waveform, 20); // CNOT
                assert_eq!(timing, 1);
            }
            ref w => panic!("expected quantum, got {w:?}"),
        }
        match l.ops()[2].word {
            MicroWord::Quantum {
                dur_ns, waveform, ..
            } => {
                assert_eq!(dur_ns, 700);
                assert_eq!(waveform, 30); // readout
            }
            ref w => panic!("expected quantum, got {w:?}"),
        }
    }

    #[test]
    fn blocks_mirror_the_block_table() {
        let mut b = ProgramBuilder::new();
        for name in ["w1", "w2"] {
            b.begin_block(name, crate::Dependency::Priority(0));
            b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
            b.push(ClassicalOp::Stop);
            b.end_block();
        }
        let p = b.finish().expect("valid");
        let l = LoweredProgram::lower(&p, &OpTimings::paper());
        assert_eq!(l.blocks().len(), 2);
        assert_eq!(l.block(0), LoweredBlock { start: 0, end: 2 });
        assert_eq!(l.block(1), LoweredBlock { start: 2, end: 4 });
    }

    #[test]
    fn lowering_keyed_by_program_and_timings() {
        let p = assemble("0 H q0\nSTOP\n").expect("valid");
        let a = LoweredProgram::lower(&p, &OpTimings::paper());
        let b = LoweredProgram::lower(&p, &OpTimings::paper());
        assert_eq!(a, b);
        // `H` is a single-qubit gate, so its baked `dur_ns` moves.
        let other_timings = OpTimings {
            single_qubit_ns: 21,
            ..OpTimings::paper()
        };
        assert_ne!(a, LoweredProgram::lower(&p, &other_timings));
        let q = assemble("0 X q0\nSTOP\n").expect("valid");
        assert_ne!(a, LoweredProgram::lower(&q, &OpTimings::paper()));
    }

    #[test]
    fn only_fmr_and_mrce_read_measurements() {
        let lowered = |text: &str| {
            LoweredProgram::lower(&assemble(text).expect("valid"), &OpTimings::paper())
        };
        assert!(!lowered("0 H q0\n2 MEAS q0\nQWAIT 3\nHALT\n").reads_measurements());
        assert!(lowered("2 MEAS q0\nFMR r0, q0\nSTOP\n").reads_measurements());
        assert!(lowered("2 MEAS q0\nMRCE q0, q1, X, NONE\nSTOP\n").reads_measurements());
    }

    #[test]
    fn steps_are_preresolved() {
        let mut b = ProgramBuilder::new();
        b.quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(0)));
        b.push(ClassicalOp::Stop);
        let p = b.finish().expect("valid");
        let l = LoweredProgram::lower(&p, &OpTimings::paper());
        for (addr, op) in l.ops().iter().enumerate() {
            let expected = p.step_of(addr).map_or(MicroOp::NO_STEP, |s| s.0);
            assert_eq!(op.step, expected, "step mismatch at {addr}");
        }
    }

    #[test]
    fn micro_op_stays_dense() {
        assert!(std::mem::size_of::<MicroOp>() <= 32);
        // The source format it replaces on the hot path, for comparison.
        assert!(std::mem::size_of::<Instruction>() <= 24);
        // QWAIT carries the full 32-bit cycle range.
        let p = {
            let mut b = ProgramBuilder::new();
            b.push(ClassicalOp::Qwait {
                cycles: Cycles::new(1 << 20),
            });
            b.push(ClassicalOp::Stop);
            b.finish().expect("valid")
        };
        let l = LoweredProgram::lower(&p, &OpTimings::paper());
        assert!(matches!(
            l.ops()[0].word,
            MicroWord::Qwait { cycles } if cycles == 1 << 20
        ));
    }
}
