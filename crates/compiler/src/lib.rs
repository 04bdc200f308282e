//! # quape-compiler — circuits to timed-QASM programs
//!
//! The paper's evaluation relies on a "preliminary compiler \[written\] to
//! generate instructions for the evaluation and experiment" (§7). This
//! crate is that compiler: it lowers step-scheduled circuits into timed
//! programs for the QuAPE machine and performs the *program block
//! division* that the multiprocessor scheduler consumes.
//!
//! Lowering rules:
//!
//! * each circuit step becomes one quantum-instruction group: the first
//!   instruction carries a timing label equal to the previous step's
//!   duration (in clock cycles); the rest carry label 0;
//! * labels that exceed the 7-bit field are materialized as `QWAIT`;
//! * every instruction is tagged with its circuit step so the machine can
//!   meter CES/TR;
//! * for the two-block partition of Fig. 12, the circuit is cut into
//!   *sections*: runs of steps whose operations stay within one half of
//!   the qubits become two parallel blocks (same priority), steps with
//!   cross-half operations become a joint block at the next priority.
//!
//! ```
//! use quape_circuit::Circuit;
//! use quape_compiler::Compiler;
//!
//! let mut c = Circuit::new(2);
//! c.h(0)?.h(1)?.cnot(0, 1)?.measure(1)?;
//! let program = Compiler::new().compile(&c)?;
//! assert_eq!(program.quantum_count(), 4);
//! assert!(program.num_steps() >= 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lower;
mod partition;
mod vliw;

pub use lower::{CompileError, Compiler, CompilerOptions, TimedStepOps};
pub use partition::{partition_two_blocks, PartitionReport};
pub use vliw::{somq_report, vliw_report, SomqReport, VliwReport};
