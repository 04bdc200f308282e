//! Feedback-control micro-workloads (Fig. 2 and §5.4).

use quape_isa::{
    ClassicalOp, Cond, CondOp, Gate1, Program, ProgramBuilder, ProgramError, QuantumOp, Qubit,
};

/// The Fig. 2 workload: measure `qubit`, branch on the outcome, apply an
/// X (Rx(π)) when the result is 1. Running it end to end exposes the four
/// latency stages: readout pulse (I), digital acquisition (II),
/// conditional logic (III) and the determined operation (IV).
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn conditional_x(qubit: u16) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    b.quantum(0, QuantumOp::Measure(Qubit::new(qubit)));
    b.fmr(0, qubit);
    b.cmpi(0, 1);
    b.br_to(Cond::Ne, "skip");
    b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(qubit)));
    b.label("skip");
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// The same feedback expressed as a single `MRCE` instruction (simple
/// feedback control, §5.4) — used to compare the stall-based and fast
/// context-switch implementations.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn conditional_x_mrce(qubit: u16) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    b.quantum(0, QuantumOp::Measure(Qubit::new(qubit)));
    b.push(ClassicalOp::Mrce {
        qubit: Qubit::new(qubit),
        target: Qubit::new(qubit),
        op_if_one: CondOp::X,
        op_if_zero: CondOp::None,
    });
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// A chain of `rounds` sequential feedback rounds, each a full Fig. 2
/// round trip: measure, wait for the DAQ on `FMR`, branch, conditionally
/// apply X. The canonical DAQ-wait-bound stress for the execution core —
/// the machine spends most of every round stalled on the acquisition
/// chain, exactly the regime the lowered run loop skips through.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn feedback_chain(qubit: u16, rounds: usize) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    for i in 0..rounds {
        b.quantum(2, QuantumOp::Measure(Qubit::new(qubit)));
        b.fmr(0, qubit);
        b.cmpi(0, 1);
        let skip = format!("skip{i}");
        b.br_to(Cond::Ne, &skip);
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(qubit)));
        b.label(&skip);
    }
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// The same feedback chain expressed with `MRCE` simple feedback control
/// (§5.4): each round parks its conditional in the context store and the
/// fast context switch fires it when the result lands. Back-to-back
/// rounds serialize on the context-unit qubit dependency, so the chain is
/// equally DAQ-wait-bound but dispatches fewer classical instructions.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn mrce_feedback_chain(qubit: u16, rounds: usize) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    for _ in 0..rounds {
        b.quantum(2, QuantumOp::Measure(Qubit::new(qubit)));
        b.push(ClassicalOp::Mrce {
            qubit: Qubit::new(qubit),
            target: Qubit::new(qubit),
            op_if_one: CondOp::X,
            op_if_zero: CondOp::None,
        });
    }
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// A repeat-until-success block: apply `X`, measure, and retry while the
/// outcome reads 1. The building block of the §3.1 example.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn rus_block(qubit: u16) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    b.label("top");
    b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(qubit)));
    b.quantum(2, QuantumOp::Measure(Qubit::new(qubit)));
    b.fmr(0, qubit);
    b.cmpi(0, 1);
    b.br_to(Cond::Eq, "top");
    b.push(ClassicalOp::Stop);
    b.finish()
}

/// The §3.1 example: two parallel RUS sub-circuits as two program blocks
/// (Program 2 of the paper). On a multiprocessor they proceed
/// independently; on a uniprocessor the first blocks the second.
///
/// # Errors
///
/// Propagates program-assembly failures.
pub fn parallel_rus(qubit_a: u16, qubit_b: u16) -> Result<Program, ProgramError> {
    let mut b = ProgramBuilder::new();
    for (name, q) in [("w1", qubit_a), ("w2", qubit_b)] {
        b.begin_block(name, quape_isa::Dependency::Priority(0));
        let top = format!("{name}_top");
        b.label(&top);
        b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(q)));
        b.quantum(2, QuantumOp::Measure(Qubit::new(q)));
        b.fmr(0, q);
        b.cmpi(0, 1);
        b.br_to(Cond::Eq, &top);
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_valid_programs() {
        assert!(conditional_x(0).is_ok());
        assert!(conditional_x_mrce(0).is_ok());
        assert!(rus_block(0).is_ok());
        let p = parallel_rus(0, 1).unwrap();
        assert_eq!(p.blocks().len(), 2);
        p.blocks().validate().unwrap();
    }

    #[test]
    fn chains_scale_with_rounds() {
        let short = feedback_chain(0, 1).unwrap();
        let long = feedback_chain(0, 10).unwrap();
        assert!(long.len() > short.len());
        assert_eq!(
            long.instructions()
                .iter()
                .filter(|i| matches!(
                    i,
                    quape_isa::Instruction::Quantum(q) if q.op.is_measure()
                ))
                .count(),
            10
        );
        let mrce = mrce_feedback_chain(0, 10).unwrap();
        assert_eq!(mrce.len(), 21); // 10 × (MEAS + MRCE) + STOP
    }

    #[test]
    fn conditional_x_branches_over_the_gate() {
        let p = conditional_x(0).unwrap();
        // The BR NE target is the STOP (skipping the X).
        let br = p
            .instructions()
            .iter()
            .find_map(|i| match i {
                quape_isa::Instruction::Classical(ClassicalOp::Br { target, .. }) => Some(*target),
                _ => None,
            })
            .expect("program contains a branch");
        assert!(matches!(
            p.instruction(br as usize),
            quape_isa::Instruction::Classical(ClassicalOp::Stop)
        ));
    }
}
