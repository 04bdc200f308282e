//! Strategies shared by the isa property suites: random instructions and
//! the two program shapes built from them.

use proptest::prelude::*;
use quape_isa::{
    Angle, ClassicalOp, Cond, CondOp, Cycles, Dependency, Gate1, Gate2, Instruction, Program,
    ProgramBuilder, QuantumOp, Qubit, Reg, SharedReg, StepId,
};

fn arb_qubit() -> impl Strategy<Value = Qubit> {
    (0u16..128).prop_map(Qubit::new)
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn arb_sreg() -> impl Strategy<Value = SharedReg> {
    (0u8..16).prop_map(SharedReg::new)
}

fn arb_angle() -> impl Strategy<Value = Angle> {
    (0u8..32).prop_map(Angle::new)
}

fn arb_gate1() -> impl Strategy<Value = Gate1> {
    prop_oneof![
        proptest::sample::select(Gate1::FIXED.to_vec()),
        arb_angle().prop_map(Gate1::Rx),
        arb_angle().prop_map(Gate1::Ry),
        arb_angle().prop_map(Gate1::Rz),
    ]
}

fn arb_quantum_op() -> impl Strategy<Value = QuantumOp> {
    prop_oneof![
        (arb_gate1(), arb_qubit()).prop_map(|(g, q)| QuantumOp::Gate1(g, q)),
        (
            proptest::sample::select(Gate2::ALL.to_vec()),
            arb_qubit(),
            arb_qubit()
        )
            .prop_map(|(g, a, b)| QuantumOp::Gate2(g, a, b)),
        arb_qubit().prop_map(QuantumOp::Measure),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    proptest::sample::select(Cond::ALL.to_vec())
}

fn arb_condop() -> impl Strategy<Value = CondOp> {
    proptest::sample::select(CondOp::ALL.to_vec())
}

fn arb_classical() -> impl Strategy<Value = ClassicalOp> {
    prop_oneof![
        Just(ClassicalOp::Nop),
        Just(ClassicalOp::Stop),
        Just(ClassicalOp::Halt),
        Just(ClassicalOp::Ret),
        (0u32..(1 << 25)).prop_map(|target| ClassicalOp::Jmp { target }),
        (arb_cond(), 0u32..(1 << 22)).prop_map(|(cond, target)| ClassicalOp::Br { cond, target }),
        (0u32..(1 << 25)).prop_map(|target| ClassicalOp::Call { target }),
        (arb_reg(), any::<i16>()).prop_map(|(rd, imm)| ClassicalOp::Ldi { rd, imm }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| ClassicalOp::Mov { rd, rs }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| ClassicalOp::Add {
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg(), -2048i16..=2047).prop_map(|(rd, rs, imm)| ClassicalOp::Addi {
            rd,
            rs,
            imm
        }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| ClassicalOp::Sub {
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| ClassicalOp::And {
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| ClassicalOp::Or {
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| ClassicalOp::Xor {
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| ClassicalOp::Not { rd, rs }),
        (arb_reg(), arb_reg()).prop_map(|(rs1, rs2)| ClassicalOp::Cmp { rs1, rs2 }),
        (arb_reg(), any::<i16>()).prop_map(|(rs, imm)| ClassicalOp::Cmpi { rs, imm }),
        (arb_reg(), arb_qubit()).prop_map(|(rd, qubit)| ClassicalOp::Fmr { rd, qubit }),
        (0u32..(1 << 25)).prop_map(|c| ClassicalOp::Qwait {
            cycles: Cycles::new(c)
        }),
        (arb_reg(), arb_sreg()).prop_map(|(rd, sreg)| ClassicalOp::Lds { rd, sreg }),
        (arb_sreg(), arb_reg()).prop_map(|(sreg, rs)| ClassicalOp::Sts { sreg, rs }),
        (arb_qubit(), arb_qubit(), arb_condop(), arb_condop()).prop_map(
            |(qubit, target, op_if_one, op_if_zero)| ClassicalOp::Mrce {
                qubit,
                target,
                op_if_one,
                op_if_zero
            }
        ),
    ]
}

pub fn arb_instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (0u32..=127, arb_quantum_op()).prop_map(|(t, op)| Instruction::quantum(t, op)),
        arb_classical().prop_map(Instruction::Classical),
    ]
}

/// `instr` with any control-transfer target folded into `0..len`.
pub fn clamp_target(instr: Instruction, len: usize) -> Instruction {
    match instr {
        Instruction::Classical(op) if op.target().is_some() => {
            Instruction::Classical(op.with_target(op.target().unwrap() % len as u32))
        }
        other => other,
    }
}

/// A block-less program of random instructions whose control transfers
/// stay inside it.
pub fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_instruction(), 1..40).prop_map(|instrs| {
        let len = instrs.len();
        let instrs = instrs.into_iter().map(|i| clamp_target(i, len)).collect();
        Program::new(instrs).expect("targets clamped in range")
    })
}

/// A program of `H` gates on `qubits` (cycled), carved into contiguous
/// step-tagged blocks of `block_sizes` under priority or chained direct
/// dependencies.
fn blocked_program(qubits: &[u16], block_sizes: &[usize], use_priority: bool) -> Program {
    let mut builder = ProgramBuilder::new();
    let mut qi = qubits.iter().cycle();
    for (bi, &size) in block_sizes.iter().enumerate() {
        let dep = if use_priority {
            Dependency::Priority(bi as u16 / 2)
        } else if bi == 0 {
            Dependency::none()
        } else {
            Dependency::Direct(vec![quape_isa::BlockId((bi - 1) as u16)])
        };
        builder.begin_block(format!("w{bi}"), dep);
        builder.set_step(Some(StepId(bi as u32)));
        for _ in 0..size {
            let q = *qi.next().expect("cycled iterator");
            builder.quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(q)));
        }
        builder.set_step(None);
        builder.push(ClassicalOp::Stop);
        builder.end_block();
    }
    builder.finish().expect("valid program")
}

/// A random [`blocked_program`].
pub fn arb_blocked_program() -> impl Strategy<Value = Program> {
    (
        proptest::collection::vec(0u16..32, 1..40),
        proptest::collection::vec(1usize..6, 1..8),
        any::<bool>(),
    )
        .prop_map(|(qubits, block_sizes, use_priority)| {
            blocked_program(&qubits, &block_sizes, use_priority)
        })
}
