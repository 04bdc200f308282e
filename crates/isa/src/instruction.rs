//! Instruction definitions: quantum instructions with timing labels and the
//! auxiliary classical instruction set.

use crate::gate::{CondOp, Gate1, Gate2};
use crate::types::{Cycles, Qubit, Reg, SharedReg};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A quantum operation as described by a quantum instruction.
///
/// Quantum *instructions* execute on the control processor; the *operation*
/// they describe is later issued to the QPU by the timing controller (§2.2
/// draws this distinction explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QuantumOp {
    /// A single-qubit gate.
    Gate1(Gate1, Qubit),
    /// A two-qubit gate; for `CNOT` the first operand is the control.
    Gate2(Gate2, Qubit, Qubit),
    /// Start a measurement: triggers the readout pulse and the digital
    /// acquisition chain, eventually writing the measurement result
    /// register for `qubit`.
    Measure(Qubit),
}

impl QuantumOp {
    /// Qubits touched by this operation (one or two entries).
    pub fn qubits(&self) -> impl Iterator<Item = Qubit> + '_ {
        let (a, b) = match *self {
            QuantumOp::Gate1(_, q) | QuantumOp::Measure(q) => (q, None),
            QuantumOp::Gate2(_, c, t) => (c, Some(t)),
        };
        std::iter::once(a).chain(b)
    }

    /// True if this operation is a measurement.
    pub fn is_measure(&self) -> bool {
        matches!(self, QuantumOp::Measure(_))
    }

    /// This operation with every qubit operand shifted up by `offset` —
    /// the qubit half of program relocation. Multiprogramming packs
    /// independent tasks into disjoint regions by shifting each task
    /// past the [`qubit_span`] of the ones before it.
    pub fn relocated(self, offset: u16) -> QuantumOp {
        let shift = |q: Qubit| Qubit::new(q.index() + offset);
        match self {
            QuantumOp::Gate1(g, q) => QuantumOp::Gate1(g, shift(q)),
            QuantumOp::Gate2(g, a, b) => QuantumOp::Gate2(g, shift(a), shift(b)),
            QuantumOp::Measure(q) => QuantumOp::Measure(shift(q)),
        }
    }

    /// True if this operation acts on two qubits.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, QuantumOp::Gate2(..))
    }
}

impl fmt::Display for QuantumOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantumOp::Gate1(g, q) => write!(f, "{g} {q}"),
            QuantumOp::Gate2(g, c, t) => write!(f, "{g} {c}, {t}"),
            QuantumOp::Measure(q) => write!(f, "MEAS {q}"),
        }
    }
}

/// A quantum instruction: a timing label plus the operation it issues.
///
/// The timing label is the interval in cycles since the issue of the
/// operation of the *previous* quantum instruction on the same processor.
/// A label of 0 means "simultaneously with the previous operation".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantumInstruction {
    /// Interval since the previous quantum operation's issue.
    pub timing: Cycles,
    /// The operation to issue.
    pub op: QuantumOp,
}

impl QuantumInstruction {
    /// Creates a quantum instruction.
    pub fn new(timing: impl Into<Cycles>, op: QuantumOp) -> Self {
        QuantumInstruction {
            timing: timing.into(),
            op,
        }
    }
}

impl fmt::Display for QuantumInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.timing, self.op)
    }
}

/// Branch conditions evaluated against the processor's comparison flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Equal (zero flag set).
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed greater-than.
    Gt,
    /// Signed less-or-equal.
    Le,
}

impl Cond {
    /// All branch conditions.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::Gt, Cond::Le];

    /// Evaluates the condition against (zero, negative) comparison flags.
    #[inline]
    pub fn eval(self, zero: bool, negative: bool) -> bool {
        match self {
            Cond::Eq => zero,
            Cond::Ne => !zero,
            Cond::Lt => negative,
            Cond::Ge => !negative,
            Cond::Gt => !negative && !zero,
            Cond::Le => negative || zero,
        }
    }

    /// Mnemonic used by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "EQ",
            Cond::Ne => "NE",
            Cond::Lt => "LT",
            Cond::Ge => "GE",
            Cond::Gt => "GT",
            Cond::Le => "LE",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Auxiliary classical operations: control, data transfer, logic,
/// arithmetic, plus the quantum-specific synchronization instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClassicalOp {
    /// No operation.
    Nop,
    /// End of the current program block; signals the scheduler.
    Stop,
    /// Halt the whole machine (end of program).
    Halt,
    /// Unconditional jump to an absolute instruction address.
    Jmp {
        /// Absolute target address.
        target: u32,
    },
    /// Conditional branch on comparison flags.
    Br {
        /// Condition to evaluate.
        cond: Cond,
        /// Absolute target address.
        target: u32,
    },
    /// Subroutine call; pushes the return address on the call stack.
    Call {
        /// Absolute target address.
        target: u32,
    },
    /// Return from subroutine.
    Ret,
    /// Load immediate: `rd ← imm`.
    Ldi {
        /// Destination register.
        rd: Reg,
        /// Immediate value (16-bit signed).
        imm: i16,
    },
    /// Register move: `rd ← rs`.
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Addition: `rd ← rs1 + rs2` (sets flags).
    Add {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Add immediate: `rd ← rs + imm` (sets flags).
    Addi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
        /// Immediate value (12-bit signed).
        imm: i16,
    },
    /// Subtraction: `rd ← rs1 − rs2` (sets flags).
    Sub {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Bitwise AND (sets flags).
    And {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Bitwise OR (sets flags).
    Or {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Bitwise XOR (sets flags).
    Xor {
        /// Destination register.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Bitwise NOT (sets flags).
    Not {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// Compare two registers; sets the zero/negative flags of `rs1 − rs2`.
    Cmp {
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
    },
    /// Compare register with immediate.
    Cmpi {
        /// Register operand.
        rs: Reg,
        /// Immediate operand (16-bit signed).
        imm: i16,
    },
    /// Fetch measurement result: `rd ← MRR[qubit]`.
    ///
    /// Implements the synchronization protocol of §2.4: the instruction
    /// stalls the pipeline until the result register is valid, so the
    /// conditional logic that follows never reads a stale value.
    Fmr {
        /// Destination register (receives 0 or 1).
        rd: Reg,
        /// Qubit whose measurement result register to read.
        qubit: Qubit,
    },
    /// Advance the quantum timeline by `cycles` without issuing an
    /// operation (eQASM-style wait, used when an interval exceeds the
    /// 7-bit timing-label field).
    Qwait {
        /// Cycles to add to the timeline.
        cycles: Cycles,
    },
    /// Read a shared register: `rd ← S[sreg]`.
    Lds {
        /// Destination register.
        rd: Reg,
        /// Shared register to read.
        sreg: SharedReg,
    },
    /// Write a shared register: `S[sreg] ← rs`.
    Sts {
        /// Shared register to write.
        sreg: SharedReg,
        /// Source register.
        rs: Reg,
    },
    /// Measurement-result conditional execution (fast context switch,
    /// §5.4): when the result of `qubit` becomes available, apply
    /// `op_if_one` or `op_if_zero` to `target`; until then the processor
    /// continues with unrelated instructions.
    Mrce {
        /// Qubit whose measurement result selects the operation.
        qubit: Qubit,
        /// Qubit the conditional operation acts on.
        target: Qubit,
        /// Operation applied when the result is 1.
        op_if_one: CondOp,
        /// Operation applied when the result is 0.
        op_if_zero: CondOp,
    },
}

impl ClassicalOp {
    /// True for control-flow operations (jump/branch/call/ret/stop/halt).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            ClassicalOp::Jmp { .. }
                | ClassicalOp::Br { .. }
                | ClassicalOp::Call { .. }
                | ClassicalOp::Ret
                | ClassicalOp::Stop
                | ClassicalOp::Halt
        )
    }

    /// The absolute branch target, if this is a direct control transfer.
    pub fn target(&self) -> Option<u32> {
        match *self {
            ClassicalOp::Jmp { target }
            | ClassicalOp::Br { target, .. }
            | ClassicalOp::Call { target } => Some(target),
            _ => None,
        }
    }

    /// Rewrites the absolute branch target (used by the program linker when
    /// relocating blocks).
    pub fn with_target(self, new_target: u32) -> ClassicalOp {
        match self {
            ClassicalOp::Jmp { .. } => ClassicalOp::Jmp { target: new_target },
            ClassicalOp::Br { cond, .. } => ClassicalOp::Br {
                cond,
                target: new_target,
            },
            ClassicalOp::Call { .. } => ClassicalOp::Call { target: new_target },
            other => other,
        }
    }

    /// This operation with its qubit operands (the readout qubit of an
    /// `FMR`, both qubits of an `MRCE`) shifted up by `offset`. Branch
    /// targets are untouched; relocate those separately via
    /// [`with_target`](ClassicalOp::with_target).
    pub fn relocated_qubits(self, offset: u16) -> ClassicalOp {
        let shift = |q: Qubit| Qubit::new(q.index() + offset);
        match self {
            ClassicalOp::Fmr { rd, qubit } => ClassicalOp::Fmr {
                rd,
                qubit: shift(qubit),
            },
            ClassicalOp::Mrce {
                qubit,
                target,
                op_if_one,
                op_if_zero,
            } => ClassicalOp::Mrce {
                qubit: shift(qubit),
                target: shift(target),
                op_if_one,
                op_if_zero,
            },
            other => other,
        }
    }
}

impl fmt::Display for ClassicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ClassicalOp::Nop => write!(f, "NOP"),
            ClassicalOp::Stop => write!(f, "STOP"),
            ClassicalOp::Halt => write!(f, "HALT"),
            ClassicalOp::Jmp { target } => write!(f, "JMP {target}"),
            ClassicalOp::Br { cond, target } => write!(f, "BR {cond}, {target}"),
            ClassicalOp::Call { target } => write!(f, "CALL {target}"),
            ClassicalOp::Ret => write!(f, "RET"),
            ClassicalOp::Ldi { rd, imm } => write!(f, "LDI {rd}, {imm}"),
            ClassicalOp::Mov { rd, rs } => write!(f, "MOV {rd}, {rs}"),
            ClassicalOp::Add { rd, rs1, rs2 } => write!(f, "ADD {rd}, {rs1}, {rs2}"),
            ClassicalOp::Addi { rd, rs, imm } => write!(f, "ADDI {rd}, {rs}, {imm}"),
            ClassicalOp::Sub { rd, rs1, rs2 } => write!(f, "SUB {rd}, {rs1}, {rs2}"),
            ClassicalOp::And { rd, rs1, rs2 } => write!(f, "AND {rd}, {rs1}, {rs2}"),
            ClassicalOp::Or { rd, rs1, rs2 } => write!(f, "OR {rd}, {rs1}, {rs2}"),
            ClassicalOp::Xor { rd, rs1, rs2 } => write!(f, "XOR {rd}, {rs1}, {rs2}"),
            ClassicalOp::Not { rd, rs } => write!(f, "NOT {rd}, {rs}"),
            ClassicalOp::Cmp { rs1, rs2 } => write!(f, "CMP {rs1}, {rs2}"),
            ClassicalOp::Cmpi { rs, imm } => write!(f, "CMPI {rs}, {imm}"),
            ClassicalOp::Fmr { rd, qubit } => write!(f, "FMR {rd}, {qubit}"),
            ClassicalOp::Qwait { cycles } => write!(f, "QWAIT {cycles}"),
            ClassicalOp::Lds { rd, sreg } => write!(f, "LDS {rd}, {sreg}"),
            ClassicalOp::Sts { sreg, rs } => write!(f, "STS {sreg}, {rs}"),
            ClassicalOp::Mrce {
                qubit,
                target,
                op_if_one,
                op_if_zero,
            } => {
                write!(f, "MRCE {qubit}, {target}, {op_if_one}, {op_if_zero}")
            }
        }
    }
}

/// A post-compilation instruction: either quantum (with timing label) or
/// classical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instruction {
    /// Quantum instruction executed by the quantum pipeline.
    Quantum(QuantumInstruction),
    /// Classical instruction executed by the classical pipeline.
    Classical(ClassicalOp),
}

impl Instruction {
    /// Convenience constructor for a timed quantum instruction.
    pub fn quantum(timing: impl Into<Cycles>, op: QuantumOp) -> Self {
        Instruction::Quantum(QuantumInstruction::new(timing, op))
    }

    /// True if this is a quantum instruction.
    pub fn is_quantum(&self) -> bool {
        matches!(self, Instruction::Quantum(_))
    }

    /// The quantum payload, if any.
    pub fn as_quantum(&self) -> Option<&QuantumInstruction> {
        match self {
            Instruction::Quantum(q) => Some(q),
            Instruction::Classical(_) => None,
        }
    }

    /// Every qubit this instruction references: the quantum operands,
    /// plus the qubit of a readout-consuming `FMR` and both qubits of an
    /// `MRCE`. The single audited enumeration behind
    /// [`Program::num_qubits`](crate::Program::num_qubits) (and, via
    /// [`qubit_span`], the same counting rule
    /// [`scan_qubit_count`](crate::scan_qubit_count) applies lexically).
    /// At most two qubits, yielded without allocating.
    pub fn referenced_qubits(&self) -> impl Iterator<Item = Qubit> {
        let (a, b) = match *self {
            Instruction::Quantum(QuantumInstruction { op, .. }) => match op {
                QuantumOp::Gate1(_, q) | QuantumOp::Measure(q) => (Some(q), None),
                QuantumOp::Gate2(_, c, t) => (Some(c), Some(t)),
            },
            Instruction::Classical(ClassicalOp::Fmr { qubit, .. }) => (Some(qubit), None),
            Instruction::Classical(ClassicalOp::Mrce { qubit, target, .. }) => {
                (Some(qubit), Some(target))
            }
            Instruction::Classical(_) => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The classical payload, if any.
    pub fn as_classical(&self) -> Option<&ClassicalOp> {
        match self {
            Instruction::Quantum(_) => None,
            Instruction::Classical(c) => Some(c),
        }
    }

    /// The relocation rule: every qubit in [`referenced_qubits`]
    /// (quantum operands, `FMR`/`MRCE` qubits) moves up by
    /// `qubit_offset`, and every absolute control-transfer target moves
    /// up by `addr_offset`. Timing labels, registers, and immediates are
    /// untouched, so a relocated task executes the same control/timing
    /// trace in its new region. The shifted program's
    /// [`qubit_span`] is the original span plus `qubit_offset` whenever
    /// the program references at least one qubit.
    ///
    /// [`referenced_qubits`]: Instruction::referenced_qubits
    pub fn relocated(self, qubit_offset: u16, addr_offset: u32) -> Instruction {
        match self {
            Instruction::Quantum(QuantumInstruction { timing, op }) => {
                Instruction::Quantum(QuantumInstruction {
                    timing,
                    op: op.relocated(qubit_offset),
                })
            }
            Instruction::Classical(op) => {
                let op = op.relocated_qubits(qubit_offset);
                Instruction::Classical(match op.target() {
                    Some(t) => op.with_target(t + addr_offset),
                    None => op,
                })
            }
        }
    }
}

impl From<QuantumInstruction> for Instruction {
    fn from(q: QuantumInstruction) -> Self {
        Instruction::Quantum(q)
    }
}

impl From<ClassicalOp> for Instruction {
    fn from(c: ClassicalOp) -> Self {
        Instruction::Classical(c)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::Quantum(q) => q.fmt(f),
            Instruction::Classical(c) => c.fmt(f),
        }
    }
}

/// Reduces qubit indices to a qubit *count*: one past the highest index,
/// 0 for an empty set. This is the one audited counting rule —
/// [`Program::num_qubits`](crate::Program::num_qubits) folds it over
/// [`Instruction::referenced_qubits`], and
/// [`scan_qubit_count`](crate::scan_qubit_count) folds it over the
/// `q<digits>` tokens of un-assembled wire text, so the structural and
/// lexical counts can only disagree where the text itself is ambiguous.
pub fn qubit_span(indices: impl IntoIterator<Item = u16>) -> u16 {
    indices
        .into_iter()
        .fold(0, |max, i| max.max(i.saturating_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Angle;

    #[test]
    fn quantum_op_qubits() {
        let q0 = Qubit::new(0);
        let q1 = Qubit::new(1);
        let op = QuantumOp::Gate2(Gate2::Cnot, q0, q1);
        assert_eq!(op.qubits().collect::<Vec<_>>(), vec![q0, q1]);
        assert!(op.is_two_qubit());
        assert!(!op.is_measure());

        let m = QuantumOp::Measure(q1);
        assert_eq!(m.qubits().collect::<Vec<_>>(), vec![q1]);
        assert!(m.is_measure());
    }

    #[test]
    fn cond_eval_covers_flag_space() {
        // (zero, negative) → expected truth per condition.
        assert!(Cond::Eq.eval(true, false));
        assert!(!Cond::Eq.eval(false, false));
        assert!(Cond::Ne.eval(false, true));
        assert!(Cond::Lt.eval(false, true));
        assert!(Cond::Ge.eval(true, false));
        assert!(Cond::Gt.eval(false, false));
        assert!(!Cond::Gt.eval(true, false));
        assert!(Cond::Le.eval(true, false));
        assert!(Cond::Le.eval(false, true));
        assert!(!Cond::Le.eval(false, false));
    }

    #[test]
    fn control_flow_classification() {
        assert!(ClassicalOp::Jmp { target: 3 }.is_control_flow());
        assert!(ClassicalOp::Stop.is_control_flow());
        assert!(!ClassicalOp::Nop.is_control_flow());
        assert!(!ClassicalOp::Fmr {
            rd: Reg::new(0),
            qubit: Qubit::new(0)
        }
        .is_control_flow());
    }

    #[test]
    fn retarget_rewrites_only_direct_transfers() {
        let br = ClassicalOp::Br {
            cond: Cond::Eq,
            target: 10,
        };
        assert_eq!(br.with_target(20).target(), Some(20));
        let nop = ClassicalOp::Nop.with_target(99);
        assert_eq!(nop, ClassicalOp::Nop);
    }

    #[test]
    fn display_matches_paper_syntax() {
        let i = Instruction::quantum(
            1,
            QuantumOp::Gate2(Gate2::Cnot, Qubit::new(0), Qubit::new(1)),
        );
        assert_eq!(i.to_string(), "1 CNOT q0, q1");
        let h = Instruction::quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(0)));
        assert_eq!(h.to_string(), "0 H q0");
        let rx = Instruction::quantum(2, QuantumOp::Gate1(Gate1::Rx(Angle::new(8)), Qubit::new(5)));
        assert_eq!(rx.to_string(), "2 RX[8] q5");
    }

    #[test]
    fn relocation_shifts_referenced_qubits_and_targets() {
        let cases = [
            Instruction::quantum(
                1,
                QuantumOp::Gate2(Gate2::Cnot, Qubit::new(0), Qubit::new(1)),
            ),
            Instruction::quantum(0, QuantumOp::Measure(Qubit::new(2))),
            Instruction::from(ClassicalOp::Fmr {
                rd: Reg::new(0),
                qubit: Qubit::new(3),
            }),
            Instruction::from(ClassicalOp::Mrce {
                qubit: Qubit::new(0),
                target: Qubit::new(4),
                op_if_one: CondOp::X,
                op_if_zero: CondOp::None,
            }),
        ];
        for instr in cases {
            let shifted = instr.relocated(10, 0);
            let want: Vec<u16> = instr.referenced_qubits().map(|q| q.index() + 10).collect();
            let got: Vec<u16> = shifted.referenced_qubits().map(|q| q.index()).collect();
            assert_eq!(got, want, "{instr}");
        }
    }

    #[test]
    fn relocation_moves_span_by_offset() {
        let instrs = [
            Instruction::quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(1))),
            Instruction::quantum(0, QuantumOp::Measure(Qubit::new(3))),
        ];
        let base = qubit_span(
            instrs
                .iter()
                .flat_map(Instruction::referenced_qubits)
                .map(|q| q.index()),
        );
        let shifted = qubit_span(
            instrs
                .iter()
                .flat_map(|i| i.relocated(5, 0).referenced_qubits())
                .map(|q| q.index()),
        );
        assert_eq!(base, 4);
        assert_eq!(shifted, base + 5);
    }

    #[test]
    fn relocation_rebases_control_transfers_only() {
        let br = Instruction::from(ClassicalOp::Br {
            cond: Cond::Eq,
            target: 2,
        });
        assert_eq!(
            br.relocated(0, 100).as_classical().unwrap().target(),
            Some(102)
        );
        // Registers, immediates and timing labels never move.
        let ldi = Instruction::from(ClassicalOp::Ldi {
            rd: Reg::new(1),
            imm: -7,
        });
        assert_eq!(ldi.relocated(9, 9), ldi);
        let gate = Instruction::quantum(5, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
        assert_eq!(
            gate.relocated(1, 0).as_quantum().unwrap().timing,
            Cycles::new(5)
        );
    }

    #[test]
    fn instruction_accessors() {
        let q = Instruction::quantum(0, QuantumOp::Measure(Qubit::new(2)));
        assert!(q.is_quantum());
        assert!(q.as_quantum().is_some());
        assert!(q.as_classical().is_none());
        let c = Instruction::from(ClassicalOp::Ret);
        assert!(!c.is_quantum());
        assert_eq!(c.as_classical(), Some(&ClassicalOp::Ret));
    }
}
