//! Property tests of the program facts a compile records once: over
//! random programs, the allocation-free `Program::num_qubits` equals the
//! counting rule applied to an independently written qubit enumeration,
//! and a `CompiledJob` records that span, its priority-block flag and a
//! block-wrapped copy of the program that match the program itself. The
//! on-demand digest agrees between a job, its clone and a recompile.

#[path = "../../isa/tests/strategies/mod.rs"]
mod strategies;

use proptest::prelude::*;
use quape_core::{CompiledJob, QuapeConfig};
use quape_isa::{qubit_span, ClassicalOp, Dependency, Instruction, Program, QuantumOp, Qubit};
use strategies::{arb_blocked_program, arb_program};

/// Every qubit `instr` references, enumerated independently of
/// `Instruction::referenced_qubits`: quantum operands, an `FMR`'s qubit
/// and both qubits of an `MRCE`.
fn reference_qubits(instr: &Instruction) -> Vec<Qubit> {
    match instr {
        Instruction::Quantum(q) => match q.op {
            QuantumOp::Gate1(_, a) | QuantumOp::Measure(a) => vec![a],
            QuantumOp::Gate2(_, a, b) => vec![a, b],
        },
        Instruction::Classical(ClassicalOp::Fmr { qubit, .. }) => vec![*qubit],
        Instruction::Classical(ClassicalOp::Mrce { qubit, target, .. }) => vec![*qubit, *target],
        Instruction::Classical(_) => Vec::new(),
    }
}

fn check_facts(program: Program) {
    let expected_span = qubit_span(
        program
            .instructions()
            .iter()
            .flat_map(reference_qubits)
            .map(|q| q.index()),
    );
    assert_eq!(program.num_qubits(), expected_span);
    let priority = program
        .blocks()
        .iter()
        .any(|(_, b)| matches!(b.dependency, Dependency::Priority(_)));

    let cfg = QuapeConfig::superscalar(4);
    let job = CompiledJob::compile(cfg.clone(), program.clone()).expect("random program compiles");
    assert_eq!(job.qubit_span(), job.program().num_qubits());
    assert_eq!(job.qubit_span(), expected_span);
    assert_eq!(job.num_qubits(), expected_span.max(1));
    assert_eq!(job.has_priority_blocks(), priority);

    // The compiled program is the input, wrapped in one block when it
    // had none: same words, same step map.
    assert_eq!(job.program().instructions(), program.instructions());
    assert_eq!(job.program().step_map(), program.step_map());
    if program.blocks().is_empty() {
        assert_eq!(job.blocks().len(), 1);
        let (_, main) = job.blocks().iter().next().expect("one block");
        assert_eq!(main.range.clone(), 0..program.len() as u32);
    } else {
        assert_eq!(job.blocks(), program.blocks());
    }

    // The digest is computed on demand: a clone and a recompile agree.
    let again = CompiledJob::compile(cfg, program).expect("recompiles");
    assert_eq!(job.clone().digest(), job.digest());
    assert_eq!(again.digest(), job.digest());
}

proptest! {
    #[test]
    fn block_less_programs_record_their_facts(program in arb_program()) {
        check_facts(program);
    }

    #[test]
    fn blocked_programs_record_their_facts(program in arb_blocked_program()) {
        check_facts(program);
    }
}
