//! Run reports: everything a benchmark needs to compute the paper's
//! metrics after a machine run.

use crate::devices::{AwgViolation, AwgViolationKind, PlaybackEvent};
use crate::machine::ShotOutcome;
use quape_isa::{BlockId, BlockStatus, StepId};
use quape_qpu::{IssuedOp, TimingViolation};
use serde::{Deserialize, Serialize};

/// A change of a block's scheduler status (drives the Fig. 7 status-flow
/// reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockEvent {
    /// Cycle at which the transition happened.
    pub cycle: u64,
    /// The block.
    pub block: BlockId,
    /// The new status.
    pub status: BlockStatus,
    /// Processor involved, if any.
    pub processor: Option<usize>,
}

/// Dispatch record of one quantum instruction (feeds CES/TR metering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepDispatch {
    /// Cycle at which the instruction left the pre-decoder.
    pub cycle: u64,
    /// The circuit step it belongs to (from the compiler's step map).
    pub step: Option<StepId>,
    /// Dispatching processor.
    pub processor: usize,
}

/// Per-processor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorStats {
    /// Quantum instructions dispatched.
    pub dispatched_quantum: u64,
    /// Classical instructions executed.
    pub dispatched_classical: u64,
    /// Cycles spent waiting for a measurement result (Stage I/II; excluded
    /// from CES per §3.2.1).
    pub measure_wait_cycles: u64,
    /// Cycles the quantum dispatch was blocked by an MRCE-context qubit
    /// dependency.
    pub context_dependency_stalls: u64,
    /// MRCE fast context switches performed.
    pub context_switches: u64,
    /// Taken control transfers.
    pub branches_taken: u64,
    /// Blocks executed to completion.
    pub blocks_completed: u64,
    /// Cycles with at least one instruction dispatched.
    pub active_cycles: u64,
}

/// Machine-wide counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MachineStats {
    /// Per-processor counters.
    pub processors: Vec<ProcessorStats>,
    /// Quantum operations that reached their timing queue *after* their
    /// scheduled issue time (the decoherence hazard the paper designs
    /// against).
    pub late_issues: u64,
    /// Total lateness across all late issues, in cycles.
    pub late_cycles: u64,
    /// Cycles the scheduler spent busy on allocation/prefetch work.
    pub scheduler_busy_cycles: u64,
    /// Waveform playbacks the AWG bank recorded.
    pub awg_triggers: u64,
    /// Highest number of simultaneously playing waveforms (the per-channel
    /// occupancy pressure a hierarchical controller would shard on).
    pub awg_max_concurrent: u64,
    /// Measurement results whose demodulation waited for a DAQ server.
    pub daq_contended_results: u64,
    /// Total delivery delay caused by DAQ demod contention, in ns.
    pub daq_contention_delay_ns: u64,
    /// Completed block-to-block switches that hit a prefetched bank.
    pub prefetch_hits: u64,
    /// Block starts that had to fill a cache bank on demand.
    pub prefetch_misses: u64,
}

impl ProcessorStats {
    /// Fraction of the run this processor spent dispatching instructions.
    pub fn busy_fraction(&self, total_cycles: u64) -> f64 {
        if total_cycles == 0 {
            0.0
        } else {
            self.active_cycles as f64 / total_cycles as f64
        }
    }
}

impl MachineStats {
    /// Sum of quantum instructions dispatched across processors.
    pub fn total_quantum(&self) -> u64 {
        self.processors.iter().map(|p| p.dispatched_quantum).sum()
    }
}

/// Why the run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// All blocks done, all queues drained.
    Completed,
    /// A `HALT` instruction was executed.
    Halted,
    /// The cycle budget ran out first.
    CycleLimit,
    /// A processor hit an execution error (e.g. `RET` with an empty call
    /// stack).
    Error,
}

/// The result of one machine run.
///
/// `PartialEq` compares every field — the step-mode differential suite
/// relies on it to assert that lowered and cycle-stepped executions
/// are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Wall-clock program time in nanoseconds (cycles × clock period).
    pub ns: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Every quantum operation issued to the QPU, time-stamped. Left
    /// empty in [`ReportMode::Lean`](crate::ReportMode) runs — use
    /// [`issued_ops`](RunReport::issued_ops) for the count, which is
    /// exact in both modes.
    pub issued: Vec<IssuedOp>,
    /// Number of quantum operations issued (counted at the backend, so
    /// it is exact even when `issued` is not materialised).
    pub issued_ops: u64,
    /// Timing violations detected by the QPU occupancy model.
    pub violations: Vec<TimingViolation>,
    /// The AWG bank's recorded playback timeline: every waveform trigger
    /// with the extent it occupied its channel (what
    /// [`crate::render_timeline`] streams from). Left empty in
    /// [`ReportMode::Lean`](crate::ReportMode) runs — `stats.awg_triggers`
    /// holds the exact count in both modes.
    pub playback: Vec<PlaybackEvent>,
    /// Occupancy conflicts detected at the AWG bank (channel overlaps on
    /// shared lines, plus the device-side twin of the QPU qubit model).
    pub awg_violations: Vec<AwgViolation>,
    /// Counters.
    pub stats: MachineStats,
    /// Quantum-instruction dispatch records for CES/TR metering. Left
    /// empty in [`ReportMode::Lean`](crate::ReportMode) runs —
    /// `stats.processors[i].dispatched_quantum` stays exact.
    pub step_dispatches: Vec<StepDispatch>,
    /// Cycles during which a processor was blocked waiting on a
    /// measurement result (one entry per processor-cycle). Left empty in
    /// [`ReportMode::Lean`](crate::ReportMode) runs —
    /// `stats.processors[i].measure_wait_cycles` stays exact in both
    /// modes.
    pub wait_cycles: Vec<u64>,
    /// Measurement outcomes in issue order.
    pub measurements: Vec<crate::machine::MeasurementRecord>,
    /// Scheduler status transitions.
    pub block_events: Vec<BlockEvent>,
    /// When the QPU finished its last operation.
    pub qpu_makespan_ns: u64,
}

impl RunReport {
    /// End-to-end execution time: program time or QPU drain, whichever is
    /// later (the metric of Fig. 11/12).
    pub fn execution_time_ns(&self) -> u64 {
        self.ns.max(self.qpu_makespan_ns)
    }

    /// The report's counters and measurements as the borrowed
    /// [`ShotOutcome`] a lean lowered shot returns, so both fold into a
    /// [`ShotAccumulator`](crate::ShotAccumulator) the same way.
    pub fn outcome(&self) -> ShotOutcome<'_> {
        ShotOutcome {
            cycles: self.cycles,
            ns: self.ns,
            stop: self.stop,
            issued_ops: self.issued_ops,
            late_issues: self.stats.late_issues,
            late_cycles: self.stats.late_cycles,
            violations: self.violations.len() as u64,
            awg_violations: self.awg_violations.len() as u64,
            daq_contended: self.stats.daq_contended_results,
            qpu_makespan_ns: self.qpu_makespan_ns,
            measurements: &self.measurements,
        }
    }

    /// Number of quantum operations issued (exact in both report modes).
    pub fn issued_count(&self) -> usize {
        self.issued_ops as usize
    }

    /// True if no operation missed its deadline and the QPU saw no
    /// overlapping operations.
    pub fn timing_clean(&self) -> bool {
        self.stats.late_issues == 0 && self.violations.is_empty()
    }

    /// True if the analog devices saw no conflicts either: no AWG
    /// channel/qubit overlap and no DAQ demod contention. Stricter than
    /// [`RunReport::timing_clean`] on multiplexed-readout setups, where
    /// line contention is invisible to the per-qubit QPU model.
    pub fn device_clean(&self) -> bool {
        self.awg_violations.is_empty() && self.stats.daq_contended_results == 0
    }

    /// The AWG violations of one [`AwgViolationKind`].
    pub fn awg_violations_of(&self, kind: AwgViolationKind) -> impl Iterator<Item = &AwgViolation> {
        self.awg_violations.iter().filter(move |v| v.kind == kind)
    }
}
