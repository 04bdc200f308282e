//! Program block division for the two-core evaluation (Fig. 12).
//!
//! §7: "we simply divide the part of the program with parallel operations
//! into two blocks, each corresponding to half of the qubits". This
//! module implements that division soundly: the step schedule is cut into
//! *sections* —
//!
//! * a **parallel section** is a run of steps in which no operation spans
//!   both qubit halves; it becomes two program blocks with the same
//!   priority, one per half;
//! * a **joint section** is a run of steps containing cross-half
//!   operations (e.g. a CNOT between the halves); it stays a single block
//!   at the next priority level.
//!
//! Priorities increase per section, so the block information table
//! serializes sections while letting the two halves of each parallel
//! section run concurrently.

use crate::lower::{CompileError, Compiler, TimedStepOps};
use quape_circuit::{Circuit, CircuitOp};
use quape_isa::{ClassicalOp, Dependency, Program, ProgramBuilder, StepId};
use serde::{Deserialize, Serialize};

/// Which half of the machine an operation touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Lower,
    Upper,
    Both,
}

/// Reclassifies parallel sections with fewer than `min_ops` operations as
/// joint, so they merge with their neighbours instead of becoming tiny
/// blocks.
fn coarsen(
    sched: &quape_circuit::ScheduledCircuit,
    joint: &[bool],
    half: u16,
    min_ops: usize,
) -> Vec<bool> {
    let mut out = joint.to_vec();
    let mut start = 0usize;
    while start < out.len() {
        let kind = out[start];
        let mut end = start + 1;
        while end < out.len() && out[end] == kind {
            end += 1;
        }
        if !kind {
            let ops: usize = sched.steps()[start..end].iter().map(|s| s.width()).sum();
            let lower: usize = sched.steps()[start..end]
                .iter()
                .flat_map(|s| s.ops())
                .filter(|o| side_of(o, half) == Side::Lower)
                .count();
            // Sections with too little work — or with everything on one
            // side — gain nothing from a parallel split.
            if ops < min_ops || lower == 0 || lower == ops {
                for slot in &mut out[start..end] {
                    *slot = true;
                }
            }
        }
        start = end;
    }
    out
}

/// Number of blocks a classification would produce (2 per parallel
/// section, 1 per joint section).
fn count_blocks(joint: &[bool]) -> usize {
    let mut blocks = 0;
    let mut start = 0usize;
    while start < joint.len() {
        let kind = joint[start];
        let mut end = start + 1;
        while end < joint.len() && joint[end] == kind {
            end += 1;
        }
        blocks += if kind { 1 } else { 2 };
        start = end;
    }
    blocks
}

fn side_of(op: &CircuitOp, half: u16) -> Side {
    let mut lower = false;
    let mut upper = false;
    for q in op.qubits() {
        if q.index() < half {
            lower = true;
        } else {
            upper = true;
        }
    }
    match (lower, upper) {
        (true, false) => Side::Lower,
        (false, true) => Side::Upper,
        _ => Side::Both,
    }
}

/// Summary of a two-block partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionReport {
    /// Qubit index splitting the halves (`q < half` is the lower half).
    pub half: u16,
    /// Total sections.
    pub sections: usize,
    /// Sections that produced two parallel blocks.
    pub parallel_sections: usize,
    /// Program blocks emitted.
    pub blocks: usize,
    /// Operations placed in parallel blocks (amenable to CLP).
    pub parallel_ops: usize,
    /// Operations in joint blocks.
    pub joint_ops: usize,
}

/// Partitions a circuit into half-qubit program blocks (Fig. 12 setup).
///
/// Parallel sections too small to be worth a block switch are folded into
/// their neighbouring joint sections — §7 observes that "dividing program
/// into fine-grained blocks can even have negative impact" — and the
/// granularity coarsens automatically until the partition fits the
/// 64-entry block information table.
///
/// # Errors
///
/// Returns [`CompileError::EmptyCircuit`] for empty circuits, and any
/// validation error from program assembly.
pub fn partition_two_blocks(
    compiler: &Compiler,
    circuit: &Circuit,
) -> Result<(Program, PartitionReport), CompileError> {
    partition_at(compiler, circuit, circuit.num_qubits().div_ceil(2))
}

fn partition_at(
    compiler: &Compiler,
    circuit: &Circuit,
    half: u16,
) -> Result<(Program, PartitionReport), CompileError> {
    let sched = circuit.schedule();
    if sched.depth() == 0 {
        return Err(CompileError::EmptyCircuit);
    }

    // Classify steps, then group into sections of equal kind. A parallel
    // section only pays off when it holds enough operations; coarsen
    // until the resulting blocks fit the table.
    let base_joint: Vec<bool> = sched
        .steps()
        .iter()
        .map(|s| s.ops().iter().any(|o| side_of(o, half) == Side::Both))
        .collect();
    let mut min_section_ops = 6usize;
    let joint = loop {
        let coarse = coarsen(&sched, &base_joint, half, min_section_ops);
        let blocks = count_blocks(&coarse);
        if blocks <= quape_isa::BLOCK_TABLE_CAPACITY || min_section_ops > sched.op_count() {
            break coarse;
        }
        min_section_ops *= 2;
    };
    let durations: Vec<u32> = sched
        .steps()
        .iter()
        .map(|s| compiler.step_cycles(s))
        .collect();

    let mut b = ProgramBuilder::new();
    let mut report = PartitionReport {
        half,
        sections: 0,
        parallel_sections: 0,
        blocks: 0,
        parallel_ops: 0,
        joint_ops: 0,
    };

    let mut start = 0usize;
    let mut priority: u16 = 0;
    while start < joint.len() {
        let kind = joint[start];
        let mut end = start + 1;
        while end < joint.len() && joint[end] == kind {
            end += 1;
        }
        report.sections += 1;
        let steps = &sched.steps()[start..end];
        if kind {
            // Joint section: one block with everything.
            let stream: Vec<TimedStepOps> = steps
                .iter()
                .enumerate()
                .map(|(i, s)| TimedStepOps {
                    step: StepId((start + i) as u32),
                    ops: s
                        .ops()
                        .iter()
                        .filter_map(CircuitOp::to_quantum_op)
                        .collect(),
                    duration_cycles: durations[start + i],
                })
                .collect();
            report.joint_ops += stream.iter().map(|e| e.ops.len()).sum::<usize>();
            b.begin_block(format!("joint_{priority}"), Dependency::Priority(priority));
            compiler.emit_step_stream(&mut b, &stream);
            b.set_step(None);
            b.push(ClassicalOp::Stop);
            b.end_block();
            report.blocks += 1;
        } else {
            report.parallel_sections += 1;
            for (name, want) in [("lower", Side::Lower), ("upper", Side::Upper)] {
                let stream: Vec<TimedStepOps> = steps
                    .iter()
                    .enumerate()
                    .map(|(i, s)| TimedStepOps {
                        step: StepId((start + i) as u32),
                        ops: s
                            .ops()
                            .iter()
                            .filter(|o| side_of(o, half) == want)
                            .filter_map(CircuitOp::to_quantum_op)
                            .collect(),
                        duration_cycles: durations[start + i],
                    })
                    .collect();
                let ops: usize = stream.iter().map(|e| e.ops.len()).sum();
                if ops == 0 {
                    continue; // this half is idle for the whole section
                }
                report.parallel_ops += ops;
                b.begin_block(format!("{name}_{priority}"), Dependency::Priority(priority));
                compiler.emit_step_stream(&mut b, &stream);
                b.set_step(None);
                b.push(ClassicalOp::Stop);
                b.end_block();
                report.blocks += 1;
            }
        }
        priority += 1;
        start = end;
    }
    Ok((b.finish()?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::Instruction;

    /// H layer on all qubits, CNOT ladder inside each half, then a
    /// cross-half CNOT, then measures — with barriers separating the
    /// phases so each lands in its own section.
    fn mixed_circuit(n: u16) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q).unwrap();
        }
        let half = n / 2;
        for q in 0..half - 1 {
            c.cnot(q, q + 1).unwrap();
        }
        for q in half..n - 1 {
            c.cnot(q, q + 1).unwrap();
        }
        c.barrier_all();
        c.cnot(half - 1, half).unwrap(); // cross-half
        c.barrier_all();
        for q in 0..n {
            c.measure(q).unwrap();
        }
        c
    }

    #[test]
    fn sections_alternate_and_ops_are_preserved() {
        let circuit = mixed_circuit(8);
        let (p, report) = partition_two_blocks(&Compiler::new(), &circuit).unwrap();
        assert!(report.parallel_sections >= 2, "{report:?}");
        assert_eq!(report.parallel_ops + report.joint_ops, circuit.gate_count());
        assert_eq!(p.quantum_count(), circuit.gate_count());
        assert_eq!(p.blocks().len(), report.blocks);
        p.blocks().validate().unwrap();
    }

    #[test]
    fn parallel_blocks_stay_within_their_half() {
        let circuit = mixed_circuit(8);
        let (p, report) = partition_two_blocks(&Compiler::new(), &circuit).unwrap();
        for (_, info) in p.blocks().iter() {
            let is_lower = info.name.starts_with("lower");
            let is_upper = info.name.starts_with("upper");
            if !is_lower && !is_upper {
                continue;
            }
            for addr in info.range.clone() {
                if let Instruction::Quantum(q) = p.instruction(addr as usize) {
                    for qubit in q.op.qubits() {
                        if is_lower {
                            assert!(qubit.index() < report.half, "lower block uses {qubit}");
                        } else {
                            assert!(qubit.index() >= report.half, "upper block uses {qubit}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn priorities_serialize_sections() {
        let circuit = mixed_circuit(8);
        let (p, _) = partition_two_blocks(&Compiler::new(), &circuit).unwrap();
        // Joint blocks never share a priority with parallel blocks.
        let mut prio_kinds: std::collections::HashMap<u16, &str> = Default::default();
        for (_, info) in p.blocks().iter() {
            let kind = if info.name.starts_with("joint") {
                "joint"
            } else {
                "parallel"
            };
            if let Dependency::Priority(pr) = info.dependency {
                let existing = prio_kinds.insert(pr, kind);
                if let Some(e) = existing {
                    assert_eq!(e, kind, "priority {pr} mixes joint and parallel blocks");
                }
            }
        }
    }

    #[test]
    fn fully_parallel_circuit_yields_two_blocks() {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q).unwrap();
            c.x(q).unwrap();
        }
        let (p, report) = partition_two_blocks(&Compiler::new(), &c).unwrap();
        assert_eq!(report.sections, 1);
        assert_eq!(report.blocks, 2);
        assert_eq!(report.joint_ops, 0);
        assert_eq!(p.blocks().len(), 2);
    }

    #[test]
    fn single_qubit_circuit_has_no_upper_block() {
        let mut c = Circuit::new(1);
        c.h(0).unwrap();
        let (p, report) = partition_two_blocks(&Compiler::new(), &c).unwrap();
        assert_eq!(report.blocks, 1);
        assert_eq!(p.blocks().len(), 1);
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new(2);
        assert!(matches!(
            partition_two_blocks(&Compiler::new(), &c),
            Err(CompileError::EmptyCircuit)
        ));
    }
}
