//! # quape-core — the QuAPE control microarchitecture
//!
//! A cycle-accurate model of **QuAPE** (Quantum control microArchitecture
//! for Parallelism Exploitation), the MICRO 2021 design by Zhang, Xie
//! et al. for superconducting-qubit control. The three mechanisms of the
//! paper are implemented faithfully:
//!
//! 1. **Multiprocessor** (Circuit Level Parallelism): processing units
//!    share a centralized instruction memory; a hardware scheduler
//!    dynamically allocates *program blocks* using the block information
//!    table (direct or priority dependencies), with dual-bank private
//!    instruction caches and prefetching for fast block switching.
//! 2. **Quantum superscalar** (Quantum Operation Level Parallelism):
//!    W-way fetch, timing-label grouping and recombination in the
//!    pre-decoder, multiple quantum pipelines, and separate
//!    classical-instruction dispatch with lookahead to absorb branch
//!    latency — all without speculation, preserving deterministic
//!    operation supply.
//! 3. **Fast context switch** for simple feedback control: the `MRCE`
//!    instruction parks conditional operations in a context store and a
//!    3-cycle switch fires them when the measurement result lands.
//!
//! The machine drives AWG/DAQ device models and a pluggable
//! [`QpuBackend`]; run results ([`RunReport`]) feed the paper's metrics:
//! execution time & speedup (Figs. 11/12) and CES / TR (Fig. 13) via
//! [`ces_report`].
//!
//! ```
//! use quape_core::{ces_report_paper, Machine, QuapeConfig};
//! use quape_qpu::{BehavioralQpu, MeasurementModel};
//! use quape_isa::assemble;
//!
//! // Two parallel H gates, then a CNOT — the paper's §2.2 listing.
//! let program = assemble(".step 0\n0 H q0\n0 H q1\n.step 1\n1 CNOT q0, q1\n.step none\nSTOP\n")?;
//! let cfg = QuapeConfig::superscalar(8);
//! let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
//! let report = Machine::new(cfg, program, Box::new(qpu))?.run();
//! let ces = ces_report_paper(&report);
//! assert!(ces.meets_deadline());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod devices;
mod engine;
mod fast;
mod icache;
pub mod machdesc;
mod machine;
mod metrics;
mod pool;
mod processor;
mod report;
mod scheduler;
mod timeline;

pub use backend::{IssueStream, QpuBackend, QpuCounters, StateVectorQpu};
pub use config::QuapeConfig;
pub use devices::{
    AwgBank, AwgViolation, AwgViolationKind, ChannelMap, Daq, MeasurementFile, MrrEntry,
    PendingResult, PlaybackEvent, QubitChannels,
};
pub use machdesc::{
    ChannelLayout, DaqDesc, DescriptionError, ICacheDesc, MachineDescription, ProcessorDesc,
    SchedulerDesc, BUILTIN_NAMES,
};

pub use engine::{
    shot_seed, BatchAggregate, BatchReport, DistributionSummary, EngineObs, QpuFactory,
    QubitHistogram, ShotAccumulator, ShotEngine, StateVectorQpuFactory, StopCounts, WorkerScratch,
};
pub use machine::{
    CompiledJob, HostWork, LoweredShotRunner, Machine, MachineError, MeasurementRecord, ReportMode,
    Shot, ShotOutcome, StepMode,
};
pub use metrics::{ces_report, ces_report_paper, CesReport, StepMetrics, TR_GATE_NS};
pub use report::{BlockEvent, MachineStats, ProcessorStats, RunReport, StepDispatch, StopReason};
pub use timeline::{render_timeline, TimelineOptions};
