//! Multiprogramming (§3.1.2): "multiple tasks that are relatively
//! independent and supposed to be executed on the same QPU
//! simultaneously", improving quantum-cloud resource utilization.
//!
//! [`combine`] merges independent programs into one multiprogrammed
//! workload: each task's qubits are relocated to a disjoint region, its
//! branch targets are relocated to the new address space, and its blocks
//! enter the block information table with no cross-task dependencies —
//! the scheduler's dependency check then lets every task run as soon as
//! a processor is free, which the paper calls pre-determined allocation.
//!
//! [`pack`] is the metadata-carrying variant behind the serving path's
//! packer stage: alongside the combined program it returns one
//! [`MemberSlice`] per task recording where that task landed (qubit
//! region, instruction address range, block range), so a de-multiplexer
//! can slice per-task results back out of the combined run. Relocation
//! itself is the audited ISA rule
//! ([`quape_isa::Instruction::relocated`]); this module only chooses
//! the offsets.

use quape_isa::{
    qubit_span, BlockInfo, BlockInfoTable, Dependency, Instruction, Program, ProgramError, StepId,
};
use std::fmt;
use std::ops::Range;

/// Errors from combining programs.
#[derive(Debug, Clone, PartialEq)]
pub enum CombineError {
    /// No input programs were given.
    Empty,
    /// The combined qubit count exceeds the 7-bit qubit address space.
    TooManyQubits {
        /// Qubits required by the combination.
        required: u32,
    },
    /// Program assembly failed.
    Program(ProgramError),
}

impl fmt::Display for CombineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineError::Empty => write!(f, "no programs to combine"),
            CombineError::TooManyQubits { required } => {
                write!(
                    f,
                    "combined workload needs {required} qubits, exceeding the ISA limit"
                )
            }
            CombineError::Program(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CombineError {}

impl From<ProgramError> for CombineError {
    fn from(e: ProgramError) -> Self {
        CombineError::Program(e)
    }
}

/// Where one member program landed inside a combined workload: the
/// result-slicing metadata a de-multiplexer needs to attribute combined
/// per-qubit results (and per-block activity) back to the member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberSlice {
    /// First qubit of the member's region in the combined qubit space.
    pub qubit_offset: u16,
    /// Width of the member's region — the member's own
    /// [`Program::num_qubits`], i.e. the [`qubit_span`] of its
    /// referenced qubits. Member qubit `q` lives at combined qubit
    /// `qubit_offset + q`.
    pub qubit_count: u16,
    /// The member's instruction range in the combined address space.
    pub addrs: Range<u32>,
    /// The member's block-table range in the combined table.
    pub blocks: Range<u16>,
}

impl MemberSlice {
    /// The member's qubit region as a combined-space index range.
    pub fn qubit_range(&self) -> Range<usize> {
        let start = usize::from(self.qubit_offset);
        start..start + usize::from(self.qubit_count)
    }

    /// Slices a combined per-qubit vector (histograms, digests, …) down
    /// to this member's region — the de-multiplexing rule for any
    /// qubit-indexed result of the combined run.
    pub fn demux<'a, T>(&self, per_qubit: &'a [T]) -> &'a [T] {
        &per_qubit[self.qubit_range()]
    }
}

/// A combined multiprogrammed workload plus per-member slicing metadata.
#[derive(Debug, Clone)]
pub struct PackedProgram {
    /// The combined program (what [`combine`] returns).
    pub combined: Program,
    /// One slice per input program, in input order.
    pub members: Vec<MemberSlice>,
}

impl PackedProgram {
    /// Total qubit span of the combined workload.
    pub fn qubit_span(&self) -> u16 {
        self.members
            .last()
            .map(|m| m.qubit_offset + m.qubit_count)
            .unwrap_or(0)
    }
}

/// Combines independent programs into one multiprogrammed workload.
///
/// Task *i*'s qubits move up by the sum of the earlier tasks' widths; its
/// block table entries (or an implicit whole-task block) are appended
/// with `Dependency::none()`, so the multiprocessor may run every task
/// concurrently. Step tags are discarded (CES is a single-task metric).
///
/// # Errors
///
/// Returns [`CombineError::Empty`] for an empty input and
/// [`CombineError::TooManyQubits`] when the tasks exceed the qubit
/// address space.
pub fn combine(programs: &[Program]) -> Result<Program, CombineError> {
    pack(programs).map(|p| p.combined)
}

/// [`combine`], keeping the per-member relocation metadata: the packer
/// stage of the job server uses the returned [`MemberSlice`]s to map
/// each member's handle onto its region of the combined run.
pub fn pack(programs: &[Program]) -> Result<PackedProgram, CombineError> {
    if programs.is_empty() {
        return Err(CombineError::Empty);
    }
    let total_qubits: u32 = programs.iter().map(|p| u32::from(p.num_qubits())).sum();
    if total_qubits > quape_isa::MAX_QUBITS as u32 {
        return Err(CombineError::TooManyQubits {
            required: total_qubits,
        });
    }

    let mut instructions: Vec<Instruction> = Vec::new();
    let mut table = BlockInfoTable::new();
    let mut members = Vec::with_capacity(programs.len());
    let mut qubit_offset: u16 = 0;
    for (task, p) in programs.iter().enumerate() {
        let addr_offset = instructions.len() as u32;
        let block_start = table.len() as u16;
        for instr in p.instructions() {
            instructions.push(instr.relocated(qubit_offset, addr_offset));
        }
        if p.blocks().is_empty() {
            table
                .push(BlockInfo::new(
                    format!("task{task}"),
                    addr_offset..addr_offset + p.len() as u32,
                    Dependency::none(),
                ))
                .map_err(ProgramError::from)?;
        } else {
            // A task-local block id `d` becomes `block_start + d` in the
            // combined table; dependencies never cross tasks.
            for (_, info) in p.blocks().iter() {
                let dep = match &info.dependency {
                    Dependency::Direct(deps) => Dependency::Direct(
                        deps.iter()
                            .map(|d| quape_isa::BlockId(block_start + d.0))
                            .collect(),
                    ),
                    Dependency::Priority(_) => {
                        // Priority entries cannot mix with the direct
                        // entries of other tasks in one table; priority
                        // tasks flatten to unconstrained blocks (their
                        // internal order is then over-parallelized —
                        // callers combining priority tasks should convert
                        // them to direct chains first).
                        Dependency::none()
                    }
                };
                table
                    .push(BlockInfo::new(
                        format!("task{task}_{}", info.name),
                        addr_offset + info.range.start..addr_offset + info.range.end,
                        dep,
                    ))
                    .map_err(ProgramError::from)?;
            }
        }
        let qubit_count = p.num_qubits();
        members.push(MemberSlice {
            qubit_offset,
            qubit_count,
            addrs: addr_offset..instructions.len() as u32,
            blocks: block_start..table.len() as u16,
        });
        qubit_offset += qubit_count;
    }
    debug_assert_eq!(
        u32::from(qubit_span(
            instructions
                .iter()
                .flat_map(|i| i.referenced_qubits())
                .map(|q| q.index())
        )),
        // Members that reference no qubits still reserve zero-width
        // regions, so the combined span equals the sum of member spans.
        total_qubits,
    );
    let step_map: Vec<Option<StepId>> = vec![None; instructions.len()];
    Ok(PackedProgram {
        combined: Program::with_parts(instructions, table, step_map)?,
        members,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::rus_block;
    use quape_isa::{assemble, ClassicalOp, QuantumOp};

    #[test]
    fn combine_relocates_qubits_and_targets() {
        let a =
            assemble("top: 0 X q0\n1 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n").unwrap();
        let b = assemble("0 H q0\n0 H q1\nSTOP\n").unwrap();
        let combined = combine(&[a.clone(), b]).unwrap();
        assert_eq!(combined.blocks().len(), 2);
        // Task 1's H gates landed on q1..q2 shifted by task 0's width (1).
        let hs: Vec<u16> = combined
            .instructions()
            .iter()
            .filter_map(|i| match i {
                Instruction::Quantum(q) => match q.op {
                    QuantumOp::Gate1(quape_isa::Gate1::H, qb) => Some(qb.index()),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(hs, vec![1, 2]);
        // Task 0's branch target relocated to its own copy (address 0).
        let br = combined
            .instructions()
            .iter()
            .find_map(|i| i.as_classical().and_then(ClassicalOp::target));
        assert_eq!(br, Some(0));
    }

    #[test]
    fn combine_three_rus_tasks() {
        let tasks: Vec<Program> = (0..3).map(|_| rus_block(0).unwrap()).collect();
        let combined = combine(&tasks).unwrap();
        assert_eq!(combined.blocks().len(), 3);
        combined.blocks().validate().unwrap();
        // All three tasks are immediately ready (no cross dependencies).
        for (_, info) in combined.blocks().iter() {
            assert_eq!(info.dependency, Dependency::none());
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(combine(&[]).unwrap_err(), CombineError::Empty);
        assert!(matches!(pack(&[]).unwrap_err(), CombineError::Empty));
    }

    #[test]
    fn qubit_budget_enforced() {
        let wide = assemble("0 H q127\nSTOP\n").unwrap();
        let err = combine(&[wide.clone(), wide]).unwrap_err();
        assert!(matches!(err, CombineError::TooManyQubits { required: 256 }));
    }

    #[test]
    fn qubit_budget_boundary_is_exact() {
        // 128 qubits is the full 7-bit space: exactly representable.
        let half = assemble("0 H q63\nSTOP\n").unwrap();
        let packed = pack(&[half.clone(), half.clone()]).unwrap();
        assert_eq!(packed.qubit_span(), 128);
        assert_eq!(packed.combined.num_qubits(), 128);
        // One more qubit overflows.
        let one = assemble("0 H q0\nSTOP\n").unwrap();
        let err = pack(&[half.clone(), half, one]).unwrap_err();
        assert!(matches!(err, CombineError::TooManyQubits { required: 129 }));
    }

    #[test]
    fn member_slices_partition_the_combined_program() {
        let a =
            assemble("top: 0 X q0\n1 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n").unwrap();
        let b = assemble("0 H q0\n0 H q1\nSTOP\n").unwrap();
        let c = rus_block(0).unwrap();
        let inputs = [a, b, c];
        let packed = pack(&inputs).unwrap();

        assert_eq!(packed.members.len(), 3);
        assert_eq!(packed.qubit_span(), packed.combined.num_qubits());

        let mut next_qubit = 0u16;
        let mut next_addr = 0u32;
        let mut next_block = 0u16;
        for (slice, input) in packed.members.iter().zip(&inputs) {
            // Slices tile the qubit, address, and block spaces in order
            // with no gaps and no overlap.
            assert_eq!(slice.qubit_offset, next_qubit);
            assert_eq!(slice.qubit_count, input.num_qubits());
            assert_eq!(slice.addrs.start, next_addr);
            assert_eq!(slice.addrs.len(), input.len());
            assert_eq!(slice.blocks.start, next_block);
            next_qubit += slice.qubit_count;
            next_addr = slice.addrs.end;
            next_block = slice.blocks.end;

            // Every qubit the member's combined instructions reference
            // falls inside the member's declared region.
            for addr in slice.addrs.clone() {
                for q in packed.combined.instructions()[addr as usize].referenced_qubits() {
                    assert!(slice.qubit_range().contains(&usize::from(q.index())));
                }
            }
        }
        assert_eq!(next_addr as usize, packed.combined.len());
        assert_eq!(next_block as usize, packed.combined.blocks().len());
        assert_eq!(next_qubit, packed.qubit_span());
    }

    #[test]
    fn demux_slices_a_per_qubit_vector() {
        let a = assemble("0 H q0\nSTOP\n").unwrap();
        let b = assemble("0 H q0\n0 H q1\nSTOP\n").unwrap();
        let packed = pack(&[a, b]).unwrap();
        let per_qubit: Vec<u16> = (0..packed.qubit_span()).collect();
        assert_eq!(packed.members[0].demux(&per_qubit), &[0]);
        assert_eq!(packed.members[1].demux(&per_qubit), &[1, 2]);
    }

    #[test]
    fn relocated_member_replays_the_same_local_ops() {
        // The combined instructions of each member, shifted back down,
        // are exactly the member's own instructions (modulo branch
        // rebasing) — the property that makes slice-based de-muxing
        // meaningful.
        let a = rus_block(0).unwrap();
        let b = assemble("0 H q0\n1 MEAS q0\nFMR r1, q0\nSTOP\n").unwrap();
        let inputs = [a, b];
        let packed = pack(&inputs).unwrap();
        for (slice, input) in packed.members.iter().zip(&inputs) {
            for (local, addr) in slice.addrs.clone().enumerate() {
                let combined_instr = packed.combined.instructions()[addr as usize];
                let original = input.instructions()[local];
                let expect = original.relocated(slice.qubit_offset, slice.addrs.start);
                assert_eq!(combined_instr, expect);
            }
        }
    }
}
