//! Program container: instructions + block information table + the
//! instruction→circuit-step map used for CES/TR metering.

use crate::block::{BlockId, BlockInfo, BlockInfoTable, BlockTableError, Dependency};
use crate::encoding::{decode, encode, DecodeError, EncodeError};
use crate::instruction::{ClassicalOp, Cond, Instruction};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a circuit step (§3.2.1): the set of quantum operations
/// that start at the same timing point. The compiler tags every
/// instruction with the step it belongs to so the machine can attribute
/// execution cycles to steps when computing CES.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StepId(pub u32);

impl StepId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "step{}", self.0)
    }
}

/// Errors detected while finishing or validating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A control-transfer target lies outside the program.
    TargetOutOfBounds {
        /// Address of the offending instruction.
        at: usize,
        /// The out-of-bounds target.
        target: u32,
    },
    /// A label was referenced but never defined.
    UndefinedLabel {
        /// The missing label.
        label: String,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// The duplicated label.
        label: String,
    },
    /// A block range lies outside the program.
    BlockOutOfBounds {
        /// Name of the offending block.
        name: String,
    },
    /// A `.block` directive was still open at the end of assembly.
    UnclosedBlock {
        /// Name of the unclosed block.
        name: String,
    },
    /// Block-table structural error.
    BlockTable(BlockTableError),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::TargetOutOfBounds { at, target } => {
                write!(
                    f,
                    "instruction {at} transfers control to {target}, outside the program"
                )
            }
            ProgramError::UndefinedLabel { label } => write!(f, "undefined label `{label}`"),
            ProgramError::DuplicateLabel { label } => write!(f, "duplicate label `{label}`"),
            ProgramError::BlockOutOfBounds { name } => {
                write!(f, "block `{name}` range lies outside the program")
            }
            ProgramError::UnclosedBlock { name } => write!(f, "block `{name}` was never closed"),
            ProgramError::BlockTable(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ProgramError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProgramError::BlockTable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockTableError> for ProgramError {
    fn from(e: BlockTableError) -> Self {
        ProgramError::BlockTable(e)
    }
}

/// A post-compilation program: the unit loaded into the centralized
/// instruction memory of the QuAPE multiprocessor.
///
/// ```
/// use quape_isa::{Program, Instruction, ClassicalOp, QuantumOp, Gate1, Qubit};
///
/// let program = Program::new(vec![
///     Instruction::quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(0))),
///     Instruction::Classical(ClassicalOp::Halt),
/// ])?;
/// assert_eq!(program.quantum_count(), 1);
/// assert_eq!(program.classical_count(), 1);
/// # Ok::<(), quape_isa::ProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    instructions: Vec<Instruction>,
    blocks: BlockInfoTable,
    step_map: Vec<Option<StepId>>,
}

impl Program {
    /// Slots allocated for the instruction vector and the step map.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> (usize, usize) {
        (self.instructions.capacity(), self.step_map.capacity())
    }

    /// Creates a block-less program (a single implicit block).
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::TargetOutOfBounds`] if a control transfer
    /// escapes the program.
    pub fn new(instructions: Vec<Instruction>) -> Result<Self, ProgramError> {
        let step_map = vec![None; instructions.len()];
        Self::with_parts(instructions, BlockInfoTable::new(), step_map)
    }

    /// Creates a program from instructions, a block table, and a step map.
    ///
    /// The step map must be the same length as `instructions` (entries are
    /// `None` for instructions that belong to no circuit step, e.g. pure
    /// control flow between steps).
    ///
    /// # Errors
    ///
    /// Validates control transfers, block ranges, and the block table.
    ///
    /// # Panics
    ///
    /// Panics if `step_map.len() != instructions.len()`.
    pub fn with_parts(
        instructions: Vec<Instruction>,
        blocks: BlockInfoTable,
        step_map: Vec<Option<StepId>>,
    ) -> Result<Self, ProgramError> {
        assert_eq!(
            step_map.len(),
            instructions.len(),
            "step map length mismatch"
        );
        let p = Program {
            instructions,
            blocks,
            step_map,
        };
        p.validate()?;
        Ok(p)
    }

    /// This program with its block table replaced by `blocks`. The
    /// instruction and step vectors move into the result and are not
    /// re-validated: only the new table is checked.
    ///
    /// # Errors
    ///
    /// Fails when a block range escapes the program or the table is
    /// inconsistent.
    pub fn with_blocks(mut self, blocks: BlockInfoTable) -> Result<Self, ProgramError> {
        self.blocks = blocks;
        self.validate_blocks()?;
        Ok(self)
    }

    fn validate(&self) -> Result<(), ProgramError> {
        let len = self.instructions.len() as u32;
        for (at, instr) in self.instructions.iter().enumerate() {
            if let Instruction::Classical(op) = instr {
                if let Some(target) = op.target() {
                    if target >= len {
                        return Err(ProgramError::TargetOutOfBounds { at, target });
                    }
                }
            }
        }
        self.validate_blocks()
    }

    fn validate_blocks(&self) -> Result<(), ProgramError> {
        let len = self.instructions.len() as u32;
        for (_, b) in self.blocks.iter() {
            if b.range.end > len || b.range.start > b.range.end {
                return Err(ProgramError::BlockOutOfBounds {
                    name: b.name.clone(),
                });
            }
        }
        self.blocks.validate()?;
        Ok(())
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn instruction(&self, addr: usize) -> &Instruction {
        &self.instructions[addr]
    }

    /// The instruction at `addr`, or `None` when out of bounds.
    pub fn get(&self, addr: usize) -> Option<&Instruction> {
        self.instructions.get(addr)
    }

    /// All instructions in address order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// The block information table.
    pub fn blocks(&self) -> &BlockInfoTable {
        &self.blocks
    }

    /// The circuit step an instruction belongs to, if tagged.
    pub fn step_of(&self, addr: usize) -> Option<StepId> {
        self.step_map.get(addr).copied().flatten()
    }

    /// The full instruction→step map.
    pub fn step_map(&self) -> &[Option<StepId>] {
        &self.step_map
    }

    /// Number of distinct circuit steps tagged in the program.
    pub fn num_steps(&self) -> usize {
        self.step_map
            .iter()
            .flatten()
            .map(|s| s.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Number of quantum instructions (the paper reports 288 for the Shor
    /// syndrome-measurement benchmark).
    pub fn quantum_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_quantum()).count()
    }

    /// Number of classical instructions (252 for the Shor benchmark).
    pub fn classical_count(&self) -> usize {
        self.len() - self.quantum_count()
    }

    /// Number of qubits the program touches: one past the highest qubit
    /// index referenced by any instruction
    /// ([`Instruction::referenced_qubits`] reduced with
    /// [`qubit_span`](crate::qubit_span); 0 for programs without qubit
    /// references).
    pub fn num_qubits(&self) -> u16 {
        crate::qubit_span(
            self.instructions
                .iter()
                .flat_map(Instruction::referenced_qubits)
                .map(|q| q.index()),
        )
    }

    /// Encodes the whole program into 32-bit words.
    ///
    /// # Errors
    ///
    /// Fails with the first instruction that does not fit the encoding.
    pub fn encode_all(&self) -> Result<Vec<u32>, EncodeError> {
        self.instructions.iter().map(encode).collect()
    }

    /// Decodes a program from 32-bit words (no block table, no step map).
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`]; block/step metadata must be
    /// re-attached by the caller.
    pub fn from_words(words: &[u32]) -> Result<Self, DecodeError> {
        let instructions = words
            .iter()
            .map(|&w| decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        let step_map = vec![None; instructions.len()];
        Ok(Program {
            instructions,
            blocks: BlockInfoTable::new(),
            step_map,
        })
    }

    /// Renders an addressed disassembly listing with block annotations
    /// and encoded words — the objdump-style view (contrast with the
    /// re-assemblable `Program::to_string` form).
    ///
    /// ```
    /// use quape_isa::assemble;
    /// let p = assemble("0 H q0\nSTOP\n")?;
    /// let listing = p.listing();
    /// assert!(listing.contains("0000"));
    /// assert!(listing.contains("H q0"));
    /// # Ok::<(), quape_isa::IsaError>(())
    /// ```
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (addr, instr) in self.instructions.iter().enumerate() {
            for (_, info) in self.blocks.iter() {
                if info.range.start as usize == addr {
                    let _ = writeln!(out, "; block {} ({})", info.name, info.dependency);
                }
            }
            let word =
                encode(instr).map_or_else(|_| String::from("????????"), |w| format!("{w:08x}"));
            let step = self
                .step_of(addr)
                .map_or_else(String::new, |s| format!("  ; {s}"));
            let _ = writeln!(out, "{addr:04}  {word}  {instr}{step}");
        }
        out
    }
}

impl fmt::Display for Program {
    /// Renders assembly text that [`crate::assemble`] parses back to an
    /// equal program (instructions, blocks and step tags are preserved;
    /// blocks must be non-overlapping and sorted for faithful printing).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut starts: BTreeMap<usize, Vec<BlockId>> = BTreeMap::new();
        let mut ends: BTreeMap<usize, Vec<BlockId>> = BTreeMap::new();
        for (id, b) in self.blocks.iter() {
            starts.entry(b.range.start as usize).or_default().push(id);
            ends.entry(b.range.end as usize).or_default().push(id);
        }
        let mut current_step: Option<StepId> = None;
        for (addr, instr) in self.instructions.iter().enumerate() {
            for id in ends.get(&addr).into_iter().flatten() {
                let _ = id;
                writeln!(f, ".endblock")?;
            }
            for id in starts.get(&addr).into_iter().flatten() {
                let b = self.blocks.get(*id).expect("block id from iteration");
                match &b.dependency {
                    Dependency::Priority(p) => writeln!(f, ".block {} prio={p}", b.name)?,
                    Dependency::Direct(deps) if deps.is_empty() => {
                        writeln!(f, ".block {} deps=none", b.name)?
                    }
                    Dependency::Direct(deps) => {
                        let names: Vec<&str> = deps
                            .iter()
                            .map(|d| self.blocks.get(*d).expect("validated dep").name.as_str())
                            .collect();
                        writeln!(f, ".block {} deps={}", b.name, names.join(","))?
                    }
                }
            }
            let step = self.step_of(addr);
            if step != current_step {
                match step {
                    Some(s) => writeln!(f, ".step {}", s.0)?,
                    None => writeln!(f, ".step none")?,
                }
                current_step = step;
            }
            writeln!(f, "    {instr}")?;
        }
        for _ in ends.get(&self.instructions.len()).into_iter().flatten() {
            writeln!(f, ".endblock")?;
        }
        Ok(())
    }
}

/// Incremental program construction with labels, forward references,
/// block delimitation and step tagging.
///
/// ```
/// use quape_isa::{ProgramBuilder, ClassicalOp, QuantumOp, Gate1, Qubit, Cond, Dependency};
///
/// let mut b = ProgramBuilder::new();
/// b.begin_block("loop_block", Dependency::none());
/// b.label("top");
/// b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
/// b.quantum(2, QuantumOp::Measure(Qubit::new(0)));
/// b.fmr(0, 0);
/// b.cmpi(0, 1);
/// b.br_to(Cond::Eq, "top");
/// b.push(ClassicalOp::Stop);
/// b.end_block();
/// let program = b.finish()?;
/// assert_eq!(program.len(), 6);
/// assert_eq!(program.blocks().len(), 1);
/// # Ok::<(), quape_isa::ProgramError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instructions: Vec<Instruction>,
    step_map: Vec<Option<StepId>>,
    current_step: Option<StepId>,
    labels: BTreeMap<String, u32>,
    fixups: Vec<(usize, String)>,
    blocks: Vec<(String, u32, Option<u32>, Dependency)>,
    open_block: Option<usize>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `instructions`
    /// instructions, so that a program of at most that many is built
    /// without growing the builder's vectors.
    pub(crate) fn with_capacity(instructions: usize) -> Self {
        ProgramBuilder {
            instructions: Vec::with_capacity(instructions),
            step_map: Vec::with_capacity(instructions),
            ..Self::default()
        }
    }

    /// Current instruction address (where the next `push` will land).
    pub fn here(&self) -> u32 {
        self.instructions.len() as u32
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if no instructions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Sets the circuit step tag applied to subsequently pushed
    /// instructions (pass `None` to stop tagging).
    pub fn set_step(&mut self, step: Option<StepId>) -> &mut Self {
        self.current_step = step;
        self
    }

    /// Binds a label to the current address.
    pub fn label(&mut self, name: impl Into<String>) -> &mut Self {
        let name = name.into();
        self.labels.insert(name, self.here());
        self
    }

    /// Pushes any instruction, returning its address.
    pub fn push(&mut self, instr: impl Into<Instruction>) -> u32 {
        let addr = self.here();
        self.instructions.push(instr.into());
        self.step_map.push(self.current_step);
        addr
    }

    /// Pushes a timed quantum instruction.
    pub fn quantum(&mut self, timing: u32, op: crate::QuantumOp) -> u32 {
        self.push(Instruction::quantum(timing, op))
    }

    /// Pushes `FMR r<rd>, q<qubit>`.
    pub fn fmr(&mut self, rd: u8, qubit: u16) -> u32 {
        self.push(ClassicalOp::Fmr {
            rd: crate::Reg::new(rd),
            qubit: crate::Qubit::new(qubit),
        })
    }

    /// Pushes `CMPI r<rs>, imm`.
    pub fn cmpi(&mut self, rs: u8, imm: i16) -> u32 {
        self.push(ClassicalOp::Cmpi {
            rs: crate::Reg::new(rs),
            imm,
        })
    }

    /// Pushes an unconditional jump to a (possibly forward) label.
    pub fn jmp_to(&mut self, label: impl Into<String>) -> u32 {
        let addr = self.push(ClassicalOp::Jmp { target: 0 });
        self.fixups.push((addr as usize, label.into()));
        addr
    }

    /// Pushes a conditional branch to a (possibly forward) label.
    pub fn br_to(&mut self, cond: Cond, label: impl Into<String>) -> u32 {
        let addr = self.push(ClassicalOp::Br { cond, target: 0 });
        self.fixups.push((addr as usize, label.into()));
        addr
    }

    /// Pushes a subroutine call to a (possibly forward) label.
    pub fn call_to(&mut self, label: impl Into<String>) -> u32 {
        let addr = self.push(ClassicalOp::Call { target: 0 });
        self.fixups.push((addr as usize, label.into()));
        addr
    }

    /// Opens a program block starting at the current address.
    ///
    /// Dependencies expressed with [`Dependency::Direct`] may reference
    /// blocks by *name* via [`ProgramBuilder::begin_block_named_deps`]; this
    /// variant takes resolved ids/priorities directly.
    pub fn begin_block(&mut self, name: impl Into<String>, dependency: Dependency) -> &mut Self {
        debug_assert!(self.open_block.is_none(), "nested blocks are not supported");
        self.blocks
            .push((name.into(), self.here(), None, dependency));
        self.open_block = Some(self.blocks.len() - 1);
        self
    }

    /// True while a block is open (begun and not yet ended).
    pub fn in_block(&self) -> bool {
        self.open_block.is_some()
    }

    /// True if a block with this name has been declared.
    pub fn has_block(&self, name: &str) -> bool {
        self.blocks.iter().any(|(n, ..)| n == name)
    }

    /// Opens a block whose direct dependencies are given by the *names* of
    /// previously declared blocks.
    ///
    /// # Panics
    ///
    /// Panics if a named dependency has not been declared yet.
    pub fn begin_block_named_deps(&mut self, name: impl Into<String>, deps: &[&str]) -> &mut Self {
        let ids: Vec<BlockId> = deps
            .iter()
            .map(|d| {
                let idx = self
                    .blocks
                    .iter()
                    .position(|(n, ..)| n == d)
                    .unwrap_or_else(|| panic!("dependency block `{d}` not declared"));
                BlockId(idx as u16)
            })
            .collect();
        self.begin_block(name, Dependency::Direct(ids))
    }

    /// Closes the currently open block at the current address.
    pub fn end_block(&mut self) -> &mut Self {
        if let Some(idx) = self.open_block.take() {
            self.blocks[idx].2 = Some(self.here());
        }
        self
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::UndefinedLabel`] for unresolved references,
    /// [`ProgramError::UnclosedBlock`] when a block is still open, and any
    /// validation error from [`Program::with_parts`].
    pub fn finish(mut self) -> Result<Program, ProgramError> {
        if let Some(idx) = self.open_block {
            return Err(ProgramError::UnclosedBlock {
                name: self.blocks[idx].0.clone(),
            });
        }
        for (addr, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| ProgramError::UndefinedLabel {
                    label: label.clone(),
                })?;
            if let Instruction::Classical(op) = self.instructions[*addr] {
                self.instructions[*addr] = Instruction::Classical(op.with_target(target));
            }
        }
        let mut table = BlockInfoTable::new();
        for (name, start, end, dep) in self.blocks {
            let end = end.expect("closed block has an end");
            table.push(BlockInfo::new(name, start..end, dep))?;
        }
        Program::with_parts(self.instructions, table, self.step_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate1;
    use crate::instruction::QuantumOp;
    use crate::types::Qubit;

    fn h(q: u16) -> Instruction {
        Instruction::quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(q)))
    }

    #[test]
    fn counts_and_steps() {
        let mut b = ProgramBuilder::new();
        b.set_step(Some(StepId(0)));
        b.push(h(0));
        b.push(h(1));
        b.set_step(Some(StepId(1)));
        b.push(h(2));
        b.set_step(None);
        b.push(ClassicalOp::Halt);
        let p = b.finish().unwrap();
        assert_eq!(p.quantum_count(), 3);
        assert_eq!(p.classical_count(), 1);
        assert_eq!(p.num_steps(), 2);
        assert_eq!(p.step_of(0), Some(StepId(0)));
        assert_eq!(p.step_of(2), Some(StepId(1)));
        assert_eq!(p.step_of(3), None);
    }

    #[test]
    fn forward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        b.jmp_to("end");
        b.push(h(0));
        b.label("end");
        b.push(ClassicalOp::Halt);
        let p = b.finish().unwrap();
        match p.instruction(0) {
            Instruction::Classical(ClassicalOp::Jmp { target }) => assert_eq!(*target, 2),
            other => panic!("expected JMP, got {other}"),
        }
    }

    #[test]
    fn undefined_label_is_reported() {
        let mut b = ProgramBuilder::new();
        b.jmp_to("nowhere");
        let err = b.finish().unwrap_err();
        assert_eq!(
            err,
            ProgramError::UndefinedLabel {
                label: "nowhere".into()
            }
        );
    }

    #[test]
    fn out_of_bounds_target_rejected() {
        let err =
            Program::new(vec![Instruction::Classical(ClassicalOp::Jmp { target: 9 })]).unwrap_err();
        assert!(matches!(
            err,
            ProgramError::TargetOutOfBounds { at: 0, target: 9 }
        ));
    }

    #[test]
    fn unclosed_block_rejected() {
        let mut b = ProgramBuilder::new();
        b.begin_block("w1", Dependency::none());
        b.push(h(0));
        let err = b.finish().unwrap_err();
        assert_eq!(err, ProgramError::UnclosedBlock { name: "w1".into() });
    }

    #[test]
    fn named_deps_resolve_to_ids() {
        let mut b = ProgramBuilder::new();
        b.begin_block("w1", Dependency::none());
        b.push(h(0));
        b.end_block();
        b.begin_block_named_deps("w2", &["w1"]);
        b.push(h(1));
        b.end_block();
        let p = b.finish().unwrap();
        let w2 = p.blocks().get(BlockId(1)).unwrap();
        assert_eq!(w2.dependency, Dependency::Direct(vec![BlockId(0)]));
    }

    #[test]
    fn encode_decode_whole_program() {
        let mut b = ProgramBuilder::new();
        b.push(h(0));
        b.push(h(1));
        b.push(ClassicalOp::Halt);
        let p = b.finish().unwrap();
        let words = p.encode_all().unwrap();
        let q = Program::from_words(&words).unwrap();
        assert_eq!(p.instructions(), q.instructions());
    }

    #[test]
    fn display_roundtrips_through_assembler() {
        let mut b = ProgramBuilder::new();
        b.begin_block("w1", Dependency::Priority(0));
        b.set_step(Some(StepId(0)));
        b.push(h(0));
        b.push(h(1));
        b.set_step(None);
        b.push(ClassicalOp::Stop);
        b.end_block();
        b.begin_block("w2", Dependency::Priority(1));
        b.set_step(Some(StepId(1)));
        b.push(h(2));
        b.set_step(None);
        b.push(ClassicalOp::Stop);
        b.end_block();
        let p = b.finish().unwrap();
        let text = p.to_string();
        let q = crate::assemble(&text).unwrap();
        assert_eq!(p, q);
    }
}
