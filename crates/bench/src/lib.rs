//! # quape-bench — the experiment harness
//!
//! One runner per table/figure of the paper's evaluation. Each runner
//! returns typed rows; the binaries under `src/bin/` print them in the
//! layout of the corresponding figure and can dump JSON for plotting.
//!
//! | Paper artifact | Runner | Binary |
//! |---|---|---|
//! | Fig. 2 (feedback latency breakdown) | [`fig02`] | `fig02_feedback_latency` |
//! | Table 1 (block information table) | [`tables`] | `table1_block_info` |
//! | Fig. 7 (scheduler status flow) | [`fig07`] | `fig07_status_flow` |
//! | Fig. 11 (multiprocessor speedup) | [`fig11`] | `fig11_multiprocessor` |
//! | Fig. 12 (two-core benchmarks) | [`fig12`] | `fig12_two_core` |
//! | Fig. 13 (superscalar TR) | [`fig13`] | `fig13_superscalar` |
//! | Fig. 14 (RB / simRB) | [`fig14`] | `fig14_simrb` |
//! | Table 2 (QuAPE vs QuMA_v2) | [`tables`] | `table2_comparison` |
//! | §7 fast context switch | [`fcs`] | `fcs_context_switch` |
//!
//! Beyond the paper, [`mixed`] / `mixed_traffic` benchmark the
//! multi-tenant job service (`quape-server`) against a naive
//! per-request client on a heterogeneous traffic stream, and
//! [`sharded`] / `sharded_traffic` benchmark the HiMA-style front
//! router (`quape-router`): shard-count scaling and warm-cache sticky
//! placement against round-robin.
//!
//! Every timed comparison — fig02's cycle vs lowered executors and the
//! serving benches' scenarios — runs through [`measure::measure`]:
//! warm-up, alternating measured rounds, aggregates asserted equal in
//! every pass, medians with their spread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fcs;
pub mod fig02;
pub mod fig07;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod measure;
pub mod mixed;
pub mod sharded;
mod support;
pub mod sweep;
pub mod table;
pub mod tables;

pub use support::ServingRow;
