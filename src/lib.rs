//! # quape — a full reproduction of the QuAPE quantum control microarchitecture
//!
//! This facade crate re-exports the whole stack built for the MICRO 2021
//! paper *"Exploiting Different Levels of Parallelism in the Quantum
//! Control Microarchitecture for Superconducting Qubits"* (Zhang, Xie
//! et al.):
//!
//! * [`isa`] — the timed-QASM instruction set (timing labels, auxiliary
//!   classical instructions, 32-bit encoding, assembler);
//! * [`circuit`] — gate-level circuit IR and the circuit-step scheduler;
//! * [`compiler`] — circuit → timed-program lowering and program-block
//!   partitioning;
//! * [`qpu`] — QPU substrates: behavioural/PRNG backend, noisy
//!   state-vector simulator, Clifford group, RB + decay fitting;
//! * [`core`] — the cycle-accurate QuAPE machine: multiprocessor
//!   scheduler with block information table and prefetching, quantum
//!   superscalar pre-decoder, timing queue/controller, MRCE fast context
//!   switch, AWG/DAQ device models, CES/TR metrics;
//! * [`workloads`] — the paper's benchmarks: Shor syndrome measurement
//!   (Steane code), the seven suite circuits, RB programs;
//! * [`server`] — the multi-tenant job service: compile cache, fair
//!   shot-quantum scheduling, and the streaming job lifecycle;
//! * [`router`] — the HiMA-style sharded front router placing jobs
//!   across multiple serving shards;
//! * [`obs`] — fleet-wide telemetry: wait-free metrics, per-job
//!   lifecycle tracing with Chrome trace-event export, and the
//!   trace-correctness audits.
//!
//! ## Quickstart
//!
//! ```
//! use quape::prelude::*;
//!
//! // The paper's §2.2 listing, on an 8-way superscalar QuAPE.
//! let program = assemble("0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n")?;
//! let cfg = QuapeConfig::superscalar(8);
//! let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
//! let report = Machine::new(cfg, program, Box::new(qpu))?.run();
//! assert_eq!(report.issued_count(), 3);
//! assert!(report.timing_clean());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios and
//! `crates/bench` for the binaries that regenerate every table and figure
//! of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use quape_circuit as circuit;
pub use quape_compiler as compiler;
pub use quape_core as core;
pub use quape_isa as isa;
pub use quape_obs as obs;
pub use quape_qpu as qpu;
pub use quape_router as router;
pub use quape_server as server;
pub use quape_workloads as workloads;

/// Declarative machine descriptions: the serializable config surface
/// covering every microarchitectural knob, with named builtins and
/// lossless [`QuapeConfig`](quape_core::QuapeConfig) round trips.
pub use quape_core::machdesc as machine;

/// The most common imports in one place.
pub mod prelude {
    pub use quape_circuit::{Circuit, CircuitOp, ScheduledCircuit};
    pub use quape_compiler::{partition_two_blocks, Compiler};
    pub use quape_core::{
        ces_report_paper, AwgViolation, AwgViolationKind, BatchAggregate, BatchReport, CompiledJob,
        DescriptionError, Machine, MachineDescription, PlaybackEvent, QpuFactory, QuapeConfig,
        RunReport, Shot, ShotEngine, StateVectorQpu, StateVectorQpuFactory, StepMode, StopReason,
    };
    pub use quape_isa::{
        assemble, ClassicalOp, Cond, CondOp, Cycles, Gate1, Gate2, Instruction, Program,
        ProgramBuilder, QuantumOp, Qubit,
    };
    pub use quape_obs::{
        audit_complete, audit_lifecycle, chrome_trace, flight_recorder, MetricsSnapshot, ObsScope,
        Recorder, TraceEvent, TraceKind,
    };
    pub use quape_qpu::{
        fit_decay, run_simrb_experiment, BehavioralQpu, BehavioralQpuFactory, CliffordGroup,
        MeasurementModel, RbConfig, StateVector,
    };
    pub use quape_router::{
        AdmissionConfig, FaultPlan, FleetHandle, FleetSnapshot, FrontDoor, Placement, RoutedJob,
        RoutedResult, Router, RouterConfig, ShardProfile, ShardSnapshot, ShardStatus, StealConfig,
        TenantStatsRow,
    };
    pub use quape_server::{
        JobError, JobHandle, JobProgress, JobRequest, JobServer, JobSource, MachineSpec,
        PackerConfig, PackerStats, Priority, ServerConfig, ServingServer,
    };
    pub use quape_workloads::{benchmark_suite, ShorSyndrome, ShorSyndromeConfig};
}
