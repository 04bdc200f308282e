//! # quape-isa — timed-QASM instruction set for the QuAPE control processor
//!
//! This crate defines the executable quantum instruction set architecture
//! (QISA) used by the QuAPE quantum control microarchitecture (Zhang, Xie
//! et al., MICRO 2021). Per §2 of the paper, the ISA has two properties
//! required by current NISQ hardware:
//!
//! 1. **Explicit timing**: every quantum instruction carries a *timing
//!    label* — the interval, in control-processor clock cycles, between the
//!    issue of the previous quantum operation and this one. The control
//!    processor constructs the nanosecond-scale operation timeline by
//!    accumulating these labels ([`Cycles`], [`QuantumInstruction`]).
//! 2. **Auxiliary classical instructions**: control flow (jumps, branches,
//!    subroutines), data transfer, logic and arithmetic, plus the
//!    quantum-specific `FMR` (fetch measurement result) synchronization and
//!    the `MRCE` fast-context-switch instruction ([`ClassicalOp`]).
//!
//! Instructions are a fixed 32-bit RISC-style word ([`encode`]/[`decode`]), which is
//! the property the paper leverages to prefer a superscalar over a VLIW
//! design (§9). A text assembler/disassembler round-trips the human-readable
//! form used throughout the paper:
//!
//! ```text
//! 0 H q0
//! 0 H q1
//! 1 CNOT q0, q1
//! ```
//!
//! Programs ([`Program`]) bundle instructions with the *block information
//! table* ([`BlockInfoTable`]) consumed by the multiprocessor scheduler, and
//! with an optional instruction→circuit-step map used to measure the
//! paper's CES / TR metrics.
//!
//! ## Example
//!
//! ```
//! use quape_isa::{assemble, Instruction};
//!
//! let program = assemble(
//!     "0 H q0\n\
//!      0 H q1\n\
//!      1 CNOT q0, q1\n\
//!      2 MEAS q1\n\
//!      FMR r0, q1\n\
//!      STOP\n",
//! )?;
//! assert_eq!(program.len(), 6);
//! assert!(matches!(program.instruction(0), Instruction::Quantum(_)));
//! # Ok::<(), quape_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod block;
mod digest;
mod encoding;
mod error;
mod gate;
mod instruction;
mod lowered;
mod object;
mod program;
mod timing;
mod types;

pub use asm::{assemble, scan_qubit_count, AsmError};
pub use block::{
    BlockId, BlockInfo, BlockInfoTable, BlockStatus, BlockTableError, Dependency, DependencyMode,
};
pub use digest::{content_hash_128, content_hash_64, fnv1a_64, Fnv64, ProgramDigest};
pub use encoding::{decode, encode, DecodeError, EncodeError};
pub use error::IsaError;
pub use gate::{Angle, CondOp, Gate1, Gate2};
pub use instruction::{qubit_span, ClassicalOp, Cond, Instruction, QuantumInstruction, QuantumOp};
pub use lowered::{
    flags as micro_flags, waveform_index, LoweredBlock, LoweredProgram, MicroOp, MicroWord,
};
pub use object::{read_object, write_object, ObjectError};
pub use program::{Program, ProgramBuilder, ProgramError, StepId};
pub use timing::OpTimings;
pub use types::{Cycles, Qubit, Reg, SharedReg};

/// Number of general-purpose registers in each QuAPE processor.
pub const REG_COUNT: usize = 32;
/// Number of shared registers visible to all processors.
pub const SHARED_REG_COUNT: usize = 16;
/// Maximum number of qubits addressable by the 7-bit qubit fields.
pub const MAX_QUBITS: usize = 128;
/// Maximum timing label encodable in a quantum instruction (7 bits).
/// Longer intervals are expressed with `QWAIT`.
pub const MAX_TIMING: u32 = 127;
/// Default capacity of the block information table (64 × 32-bit entries on
/// the paper's FPGA prototype).
pub const BLOCK_TABLE_CAPACITY: usize = 64;
/// Most blocks any table can hold: one per distinct 16-bit
/// [`BlockId`].
pub const MAX_BLOCKS: usize = 1 << 16;
