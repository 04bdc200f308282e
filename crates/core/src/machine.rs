//! The QuAPE machine, split into a compile-once job and per-shot state.
//!
//! [`CompiledJob`] owns the immutable, shareable artifacts of a run — the
//! validated [`QuapeConfig`], the block-wrapped [`Program`] (with its
//! block information table), and the [`ChannelMap`] — all behind `Arc` so
//! that cloning a job is O(1). A [`Shot`] is the mutable machine state of
//! one execution (processors, scheduler, MRR/DAQ/AWG devices, PRNG,
//! counters) built from a job in O(state) instead of
//! O(revalidate-everything); the multi-shot experiments of §7/§8 construct
//! one job and then run thousands of shots from it (see
//! [`crate::ShotEngine`]).
//!
//! A shot runs on one of two executors ([`StepMode`]). The default,
//! [`StepMode::Lowered`], walks the job's pre-decoded micro-ops on the
//! fast core and jumps the clock over provably idle spans.
//! [`StepMode::Cycle`] ticks the reference processor, which decodes
//! [`Instruction`] words itself, on every cycle; it shares no code with
//! the lowering pass and is the oracle the differential suites compare
//! the fast path against.
//!
//! [`Machine`] remains the single-shot convenience wrapper the rest of
//! the workspace was written against: `Machine::new(cfg, program, qpu)`
//! compiles a job and builds its one shot.

use crate::backend::{IssueStream, QpuBackend, QpuCounters};
use crate::config::QuapeConfig;
use crate::devices::{AwgBank, ChannelMap, Daq, MeasurementFile};
use crate::fast::{FastProcessor, StallInfo};
use crate::processor::{draw_demod_ns, Env, Processor, ProcessorCore};
use crate::report::{MachineStats, RunReport, StepDispatch, StopReason};
use crate::scheduler::Scheduler;
use quape_isa::{
    BlockInfo, BlockInfoTable, Dependency, LoweredProgram, Program, ProgramError, QuantumOp,
    SHARED_REG_COUNT,
};
use quape_qpu::IssuedOp;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which executor runs a shot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum StepMode {
    /// The reference processor decodes
    /// [`Instruction`](quape_isa::Instruction) words itself and every
    /// component ticks on every clock cycle. Independent of the
    /// lowering pass, so it is the differential-testing oracle for
    /// [`StepMode::Lowered`].
    Cycle,
    /// Pre-decoded micro-op executor: the shot runs the job's
    /// [`LoweredProgram`] — operands pre-resolved, durations baked in,
    /// dispatch predicates pre-classified into flag bits — and, when
    /// every component is provably idle, jumps the clock straight to the
    /// earliest event horizon (DAQ delivery, timing-queue head, scheduler
    /// fill completion, switch deadline) instead of stepping through the
    /// idle span. Produces bit-identical [`RunReport`]s to
    /// [`StepMode::Cycle`] (differential-tested).
    #[default]
    Lowered,
}

/// How much of a run a [`RunReport`] materialises.
///
/// The per-shot event vectors (`wait_cycles`, `issued`, `playback`,
/// `step_dispatches`) are what figure-level analysis reads, but batch
/// and serving paths fold every shot's counters and measurements into a
/// [`ShotAccumulator`](crate::ShotAccumulator) —
/// materialising the vectors there is pure allocation cost. Lean mode
/// skips them while keeping every counter (and therefore every
/// [`BatchAggregate`](crate::BatchAggregate)) bit-identical to a full
/// run: execution is unchanged, only the record-keeping is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// Materialise everything — the default for [`Machine`]/[`Shot`]
    /// figure-level runs.
    #[default]
    Full,
    /// Summary-only: leave `wait_cycles`, `issued`, `playback` and
    /// `step_dispatches` empty in the report; counters (`issued_ops`,
    /// `stats.awg_triggers`, `stats.*`) stay exact. What every
    /// [`ShotEngine`](crate::ShotEngine) shot runs in.
    Lean,
}

/// A per-shot event trace: a plain `Vec` in full mode, a no-op sink in
/// lean mode. Backs the report's `wait_cycles` (pushed from the
/// processors' stall paths and bulk-filled by the lowered loop's time
/// skip), `step_dispatches` (pushed per quantum dispatch) and `issued`
/// (pushed per issue; also the stream shot replay records) vectors.
#[derive(Debug, Default)]
pub(crate) struct EventSink<T> {
    events: Vec<T>,
    record: bool,
}

impl<T> EventSink<T> {
    fn new(record: bool) -> Self {
        EventSink {
            events: Vec::new(),
            record,
        }
    }

    pub(crate) fn push(&mut self, event: T) {
        if self.record {
            self.events.push(event);
        }
    }

    fn into_vec(self) -> Vec<T> {
        self.events
    }

    /// Empties the sink in place, keeping the record flag and the
    /// allocation (arena reuse across shots).
    fn clear(&mut self) {
        self.events.clear();
    }
}

impl EventSink<u64> {
    /// Bulk-accounts a skipped span `start..end` during which `waiting`
    /// processors were measure-wait stalled — exactly the entries a
    /// cycle-stepped run would have pushed one by one.
    fn extend_span(&mut self, start: u64, end: u64, waiting: usize) {
        if !self.record || waiting == 0 {
            return;
        }
        if waiting == 1 {
            self.events.extend(start..end);
        } else {
            self.events.reserve(waiting * (end - start) as usize);
            for cyc in start..end {
                for _ in 0..waiting {
                    self.events.push(cyc);
                }
            }
        }
    }
}

/// Errors from machine construction.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineError {
    /// The configuration is inconsistent.
    Config(String),
    /// The program failed validation.
    Program(ProgramError),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            MachineError::Program(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<ProgramError> for MachineError {
    fn from(e: ProgramError) -> Self {
        MachineError::Program(e)
    }
}

/// A recorded measurement outcome (time, qubit, value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MeasurementRecord {
    /// Issue time of the measurement operation.
    pub time_ns: u64,
    /// Measured qubit.
    pub qubit: quape_isa::Qubit,
    /// Classical outcome.
    pub value: bool,
}

/// Wraps a block-less program into a single implicit block so the
/// scheduler always has a table to work from. The program's vectors
/// move into the wrapped program; nothing is copied.
fn ensure_blocks(program: Program) -> Result<Program, ProgramError> {
    if !program.blocks().is_empty() {
        return Ok(program);
    }
    let len = program.len() as u32;
    let mut table = BlockInfoTable::new();
    table.push(BlockInfo::new("main", 0..len, Dependency::none()))?;
    program.with_blocks(table)
}

/// The immutable, shareable half of a run: validated configuration,
/// block-wrapped program, and channel map, each behind an `Arc`.
///
/// Compile once, then build any number of [`Shot`]s (possibly from many
/// threads — a job is `Send + Sync` and clones in O(1)).
///
/// The artifact also owns its **replay slot**, shared by every clone and
/// set at most once: the issue stream the first successful recording
/// shot of a feedback-free job took (see [`LoweredShotRunner`]), or the
/// verdict that the job never replays (it reads measurements, or its
/// recording failed for a reason that repeats on every shot). Every
/// runner on the artifact — on any thread, in any batch, in any server
/// worker — replays from the one trace, so a job is recorded once for as
/// long as it is cached.
///
/// ```
/// use quape_core::{CompiledJob, QuapeConfig};
/// use quape_qpu::{BehavioralQpu, MeasurementModel};
/// use quape_isa::assemble;
///
/// let program = assemble("0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n")?;
/// let job = CompiledJob::compile(QuapeConfig::superscalar(4), program)?;
/// for shot_index in 0..4u64 {
///     let qpu = BehavioralQpu::new(job.cfg().timings, MeasurementModel::AlwaysZero, shot_index);
///     let report = job.shot(Box::new(qpu), shot_index).run();
///     assert_eq!(report.issued_count(), 3);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledJob {
    cfg: Arc<QuapeConfig>,
    /// The block-wrapped program. The reference core's icache banks
    /// address block ranges of this one shared copy.
    program: Arc<Program>,
    /// Micro-op artifact for [`StepMode::Lowered`], lowered once here and
    /// `Arc`-shared by every shot (and the server's compile cache).
    lowered: Arc<LoweredProgram>,
    chan: Arc<ChannelMap>,
    num_qubits: u16,
    /// [`Program::num_qubits`] of the program itself, recorded by the
    /// one span pass a compile makes.
    qubit_span: u16,
    /// Whether any block carries a [`Dependency::Priority`].
    priority_blocks: bool,
    /// The replay slot, set once by the first recording that decides it.
    replay: Arc<OnceLock<Replay>>,
}

impl CompiledJob {
    /// Validates `cfg` and `program` once and freezes the shareable
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] for inconsistent configurations
    /// (including a `num_qubits` override smaller than what the program
    /// touches, and a program or override wider than
    /// [`quape_isa::MAX_QUBITS`]) and [`MachineError::Program`] when
    /// wrapping a block-less program fails.
    pub fn compile(cfg: QuapeConfig, program: Program) -> Result<Self, MachineError> {
        cfg.validate().map_err(MachineError::Config)?;
        let program = ensure_blocks(program)?;
        let qubit_span = program.num_qubits();
        let scanned = qubit_span.max(1);
        // Channel arithmetic is u16: an unbounded span would wrap.
        if usize::from(scanned) > quape_isa::MAX_QUBITS {
            return Err(MachineError::Config(format!(
                "the program touches {scanned} qubits, beyond the {} the ISA addresses",
                quape_isa::MAX_QUBITS
            )));
        }
        let num_qubits = match cfg.num_qubits {
            None => scanned,
            Some(n) if n >= scanned => n,
            Some(n) => {
                return Err(MachineError::Config(format!(
                "num_qubits override {n} is smaller than the {scanned} qubits the program touches"
            )))
            }
        };
        let chan = match cfg.readout_lines {
            None => ChannelMap::linear(num_qubits),
            Some(lines) => ChannelMap::multiplexed(num_qubits, lines),
        };
        let priority_blocks = program
            .blocks()
            .iter()
            .any(|(_, info)| matches!(info.dependency, Dependency::Priority(_)));
        let lowered = Arc::new(LoweredProgram::lower(&program, &cfg.timings));
        let replay = if lowered.reads_measurements() {
            OnceLock::from(Replay::Never)
        } else {
            OnceLock::new()
        };
        Ok(CompiledJob {
            cfg: Arc::new(cfg),
            program: Arc::new(program),
            lowered,
            chan: Arc::new(chan),
            num_qubits,
            qubit_span,
            priority_blocks,
            replay: Arc::new(replay),
        })
    }

    /// The validated configuration.
    pub fn cfg(&self) -> &QuapeConfig {
        &self.cfg
    }

    /// Stable content digest of the compiled job: the program's
    /// [`digest`](Program::digest) combined with the configuration's
    /// [`content_digest`](QuapeConfig::content_digest).
    ///
    /// Two jobs compiled from structurally equal programs under
    /// execution-equivalent configurations hash identically across
    /// processes, so the digest is a sound compile-cache key. The
    /// config's `seed` is deliberately excluded — it is a runtime
    /// parameter (batch runs override it per request), not part of the
    /// compiled artifact.
    ///
    /// Computed on each call: it walks the whole program, so nothing on a
    /// per-shot or per-submit path reads it. Per-worker state is keyed
    /// on the shared artifact instead (see `is_same_artifact`).
    pub fn digest(&self) -> u64 {
        let mut h = quape_isa::Fnv64::new();
        h.write_u64(self.program.digest().0)
            .write_u64(self.cfg.content_digest());
        h.finish()
    }

    /// True when `other` is this compiled artifact or a clone of it (the
    /// same `Arc`-shared lowering and configuration), not merely a job
    /// with an equal [`digest`](Self::digest). Per-worker state derived
    /// from a job, such as a simulation arena, is keyed on this: the
    /// 64-bit digest is not collision-resistant, and tenants choose the
    /// program text.
    pub(crate) fn is_same_artifact(&self, other: &CompiledJob) -> bool {
        Arc::ptr_eq(&self.lowered, &other.lowered) && Arc::ptr_eq(&self.cfg, &other.cfg)
    }

    /// The block-wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The block information table the scheduler works from.
    pub fn blocks(&self) -> &BlockInfoTable {
        self.program.blocks()
    }

    /// The qubit→channel map.
    pub fn channel_map(&self) -> &ChannelMap {
        &self.chan
    }

    /// Number of qubits the setup is sized for.
    pub fn num_qubits(&self) -> u16 {
        self.num_qubits
    }

    /// Number of qubits the program itself touches: its
    /// [`Program::num_qubits`], recorded at compile time. Unlike
    /// [`num_qubits`](Self::num_qubits) it is 0 for a program without
    /// qubit references and ignores the configuration's override.
    pub fn qubit_span(&self) -> u16 {
        self.qubit_span
    }

    /// True when some block of the program has a
    /// [`Dependency::Priority`] dependency, recorded at compile time.
    pub fn has_priority_blocks(&self) -> bool {
        self.priority_blocks
    }

    /// The pre-decoded micro-op artifact backing [`StepMode::Lowered`].
    pub fn lowered(&self) -> &LoweredProgram {
        &self.lowered
    }

    /// Builds a shot core generically: fresh processors, a scheduler with
    /// the pre-task initial load applied, fresh devices and counters.
    fn core<P: ProcessorCore>(
        &self,
        qpu: Box<dyn QpuBackend>,
        rng_seed: u64,
        code: Arc<P::Code>,
        new_proc: impl FnMut(usize) -> P,
    ) -> ShotCore<P> {
        let cfg = &self.cfg;
        let mut processors: Vec<P> = (0..cfg.num_processors).map(new_proc).collect();
        let mut scheduler = Scheduler::new(&self.program, cfg.dependency_mode);
        // Pre-task load of the first num_processors blocks (§7).
        scheduler.initial_load(&mut processors, &*code, cfg.num_processors);
        let stats = MachineStats {
            processors: vec![Default::default(); cfg.num_processors],
            ..Default::default()
        };
        ShotCore {
            job: self.clone(),
            code,
            processors,
            scheduler,
            mrr: MeasurementFile::new(),
            daq: Daq::new(cfg.daq_demod_slots, self.chan.readout_lines()),
            awg: AwgBank::new(cfg.timings),
            qpu,
            rng: SmallRng::seed_from_u64(rng_seed),
            shared_regs: [0; SHARED_REG_COUNT],
            cycle: 0,
            halt: false,
            error: false,
            stats,
            step_dispatches: EventSink::new(true),
            wait_cycles: EventSink::new(true),
            issued: EventSink::new(true),
            issued_ops: 0,
            settle: Settle::Off,
            late_issues: 0,
            late_cycles: 0,
            measurements: Vec::new(),
            skip_scratch: Vec::with_capacity(cfg.num_processors),
            work: HostWork::default(),
        }
    }

    /// Builds the per-shot machine state for one execution, driving `qpu`
    /// and seeding the shot's PRNG (DAQ jitter) with `rng_seed`.
    pub fn shot(&self, qpu: Box<dyn QpuBackend>, rng_seed: u64) -> Shot {
        Shot {
            core: self.core(qpu, rng_seed, self.program.clone(), |id| {
                Processor::new(id, self.cfg.icache_banks)
            }),
            rng_seed,
            mode: ReportMode::default(),
        }
    }

    /// Builds the per-shot state directly on the lowered fast core — the
    /// engine-internal twin of `shot(..)` + [`StepMode::Lowered`].
    pub(crate) fn fast_core(
        &self,
        qpu: Box<dyn QpuBackend>,
        rng_seed: u64,
    ) -> ShotCore<FastProcessor> {
        let lowered = self.lowered.clone();
        let banks = self.cfg.icache_banks;
        self.core(qpu, rng_seed, lowered.clone(), move |id| {
            FastProcessor::new(id, lowered.clone(), banks)
        })
    }
}

/// The mutable state of one execution: processors, scheduler, devices,
/// QPU, PRNG, and statistics — generic over the processor implementation
/// ([`ProcessorCore`]). [`Shot`] wraps `ShotCore<Processor>` as the
/// public single-type façade; [`StepMode::Lowered`] runs on
/// `ShotCore<FastProcessor>` over the job's [`LoweredProgram`].
pub(crate) struct ShotCore<P: ProcessorCore> {
    job: CompiledJob,
    /// The compiled artifact cache fills read, shared with the job (the
    /// program for the reference core, the micro-op program for the fast
    /// one).
    code: Arc<P::Code>,
    processors: Vec<P>,
    scheduler: Scheduler,
    mrr: MeasurementFile,
    daq: Daq,
    awg: AwgBank,
    qpu: Box<dyn QpuBackend>,
    rng: SmallRng,
    shared_regs: [i32; SHARED_REG_COUNT],
    cycle: u64,
    halt: bool,
    error: bool,
    stats: MachineStats,
    step_dispatches: EventSink<StepDispatch>,
    wait_cycles: EventSink<u64>,
    /// Every operation issued to the QPU, with its time: the report's
    /// `issued` and a recording shot's replay stream.
    issued: EventSink<IssuedOp>,
    /// Operations issued to the QPU, in every report mode.
    issued_ops: u64,
    /// What a recording lowered run saw of the processor side of the
    /// stop condition (see [`ReplayTrace`]).
    settle: Settle,
    late_issues: u64,
    late_cycles: u64,
    measurements: Vec<MeasurementRecord>,
    /// Scratch for the lowered loop's per-processor stall verdicts
    /// (allocated once per shot, reused across skip checks).
    skip_scratch: Vec<StallInfo>,
    /// How the lowered loop covered this shot's cycles.
    work: HostWork,
}

impl<P: ProcessorCore> ShotCore<P> {
    /// Selects how much of the run the report materialises (see
    /// [`ReportMode`]).
    fn set_report_mode(&mut self, mode: ReportMode) {
        let lean = mode == ReportMode::Lean;
        self.wait_cycles.record = !lean;
        self.step_dispatches.record = !lean;
        self.issued.record = !lean;
        self.awg.set_record_timeline(!lean);
    }

    /// One clock cycle, returning a *progress hint*: `false` means no
    /// component observably acted (delivery, block event, issue, dispatch,
    /// fetch, state transition), so the stop conditions cannot have
    /// changed.
    fn step_with_progress(&mut self) -> bool {
        let now = self.cycle;
        let cfg: &QuapeConfig = &self.job.cfg;
        let program: &Program = &self.job.program;
        let mut progress = self.daq.tick(now * cfg.clock_ns, &mut self.mrr) != 0;
        // AWG playback: retire waveforms that finished by this cycle.
        // Retirement is *not* observable progress — it has no
        // report-visible effect and no stop condition reads the playback
        // queue.
        self.awg.tick(now * cfg.clock_ns);
        // Every observable scheduler action records a block event.
        let events = self.scheduler.events.len();
        self.scheduler.tick(
            now,
            &mut self.processors,
            program,
            &self.code,
            cfg,
            &mut self.stats,
        );
        progress |= events != self.scheduler.events.len();
        let mut env = Env {
            cfg,
            program,
            mrr: &mut self.mrr,
            daq: &mut self.daq,
            awg: &mut self.awg,
            qpu: &mut *self.qpu,
            chan: &self.job.chan,
            rng: &mut self.rng,
            shared_regs: &mut self.shared_regs,
            step_dispatches: &mut self.step_dispatches,
            wait_cycles: &mut self.wait_cycles,
            issued: &mut self.issued,
            issued_ops: &mut self.issued_ops,
            late_issues: &mut self.late_issues,
            late_cycles: &mut self.late_cycles,
            measurements: &mut self.measurements,
            halt: &mut self.halt,
            error: &mut self.error,
            readout_scheduled: false,
        };
        for p in &mut self.processors {
            progress |= p.tick(now, &mut env);
        }
        self.cycle += 1;
        progress
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget,
    /// stepping every cycle — the [`StepMode::Cycle`] oracle.
    pub(crate) fn run_loop(mut self, max_cycles: u64) -> RunReport {
        // `maybe_stalled` tracks whether the previous cycle observably
        // did nothing. While it holds, the stop conditions cannot have
        // changed (their inputs are all observable state), so only the
        // cycle budget needs re-checking.
        let mut maybe_stalled = false;
        let stop = loop {
            if !maybe_stalled {
                if self.error {
                    break StopReason::Error;
                }
                let all_done = self.scheduler.all_done();
                if let Some(stop) = processor_stop(&self.processors, all_done, self.halt) {
                    if self.daq.in_flight() == 0 {
                        break stop;
                    }
                }
            }
            if self.cycle >= max_cycles {
                break StopReason::CycleLimit;
            }
            maybe_stalled = !self.step_with_progress();
        };
        self.into_report(stop)
    }

    fn into_report(mut self, stop: StopReason) -> RunReport {
        for (i, p) in self.processors.iter().enumerate() {
            self.stats.processors[i] = *p.stats();
        }
        self.stats.late_issues = self.late_issues;
        self.stats.late_cycles = self.late_cycles;
        self.stats.awg_max_concurrent = self.awg.max_concurrent() as u64;
        self.stats.daq_contended_results = self.daq.contended_results();
        self.stats.daq_contention_delay_ns = self.daq.contention_delay_ns();
        // End-of-shot handover: the AWG and scheduler give up their
        // accumulated vectors by value instead of being copied. The
        // trigger/issue counters are kept apart from the vectors, so lean
        // runs report the same numbers with the vectors left empty.
        let (playback, awg_violations) = self.awg.take_results();
        self.stats.awg_triggers = self.awg.triggers();
        RunReport {
            cycles: self.cycle,
            ns: self.cycle * self.job.cfg.clock_ns,
            stop,
            issued: self.issued.into_vec(),
            issued_ops: self.issued_ops,
            violations: self.qpu.violations().to_vec(),
            playback,
            awg_violations,
            stats: self.stats,
            step_dispatches: self.step_dispatches.into_vec(),
            wait_cycles: self.wait_cycles.into_vec(),
            measurements: self.measurements,
            block_events: std::mem::take(&mut self.scheduler.events),
            qpu_makespan_ns: self.qpu.makespan_ns(),
        }
    }
}

impl ShotCore<FastProcessor> {
    /// Returns the core to the state `CompiledJob::fast_core(qpu,
    /// rng_seed)` would construct, but in place: every buffer, queue,
    /// table and sink is cleared rather than reallocated. The
    /// differential suites hold a reset core bit-identical to a fresh
    /// one (see [`LoweredShotRunner`]).
    fn reset_for_shot(&mut self, qpu: Box<dyn QpuBackend>, rng_seed: u64) {
        let num_processors = self.job.cfg.num_processors;
        for p in &mut self.processors {
            p.reset();
        }
        self.scheduler.reset();
        self.scheduler
            .initial_load(&mut self.processors, &self.code, num_processors);
        self.mrr.reset();
        self.daq.reset();
        self.awg.reset();
        self.qpu = qpu;
        self.rng = SmallRng::seed_from_u64(rng_seed);
        self.shared_regs = [0; SHARED_REG_COUNT];
        self.cycle = 0;
        self.halt = false;
        self.error = false;
        let processors = std::mem::take(&mut self.stats.processors);
        self.stats = MachineStats {
            processors,
            ..Default::default()
        };
        self.stats.processors.fill(Default::default());
        self.step_dispatches.clear();
        self.wait_cycles.clear();
        self.issued.clear();
        self.issued_ops = 0;
        self.settle = Settle::Off;
        self.late_issues = 0;
        self.late_cycles = 0;
        self.measurements.clear();
        self.skip_scratch.clear();
        self.work = HostWork::default();
    }

    /// Reduces the finished shot to a borrowed [`ShotOutcome`]: the exact
    /// counters [`into_report`](ShotCore::into_report) would surface,
    /// without materialising an owned [`RunReport`].
    fn finish_outcome(&self, stop: StopReason) -> ShotOutcome<'_> {
        let qpu = QpuCounters::of(&*self.qpu);
        ShotOutcome {
            cycles: self.cycle,
            ns: self.cycle * self.job.cfg.clock_ns,
            stop,
            issued_ops: self.issued_ops,
            late_issues: self.late_issues,
            late_cycles: self.late_cycles,
            violations: qpu.violations,
            awg_violations: self.awg.violations().len() as u64,
            daq_contended: self.daq.contended_results(),
            qpu_makespan_ns: qpu.makespan_ns,
            measurements: &self.measurements,
        }
    }

    /// Turns a finished recording shot, seeded `rng_seed`, into a
    /// [`ReplayTrace`] built from the issued stream the core recorded,
    /// which it moves out rather than copies. Returns `None` when the
    /// shot cannot serve as one: it did not stop by the processor side
    /// holding unchanged since it first held, it issued an operation
    /// after that point or more than [`MAX_RECORDED_ISSUES`], the backend
    /// did not answer every measurement, or running its own readouts
    /// through a fresh DAQ does not reproduce its stop cycle and DAQ
    /// contention.
    fn take_trace(&mut self, stop: StopReason, rng_seed: u64) -> Option<ReplayTrace> {
        let Settle::Held {
            cycle: settled_cycle,
            reason,
        } = self.settle
        else {
            return None;
        };
        let cfg: &QuapeConfig = &self.job.cfg;
        debug_assert!(self.issued.record, "a recording shot records its issues");
        let mut issues = std::mem::take(&mut self.issued.events);
        let measured = issues
            .iter()
            .filter(|i| matches!(i.op, QuantumOp::Measure(_)))
            .count();
        if reason != stop
            || issues.len() > MAX_RECORDED_ISSUES
            || measured != self.measurements.len()
            || issues
                .iter()
                .any(|i| i.time_ns >= settled_cycle * cfg.clock_ns)
        {
            return None;
        }
        // The artifact keeps the trace as long as it is cached.
        issues.shrink_to_fit();
        let stream = IssueStream::new(issues, cfg.timings);
        let mut readouts: Vec<Readout> = stream
            .measures()
            .iter()
            .filter_map(|issued| match issued.op {
                QuantumOp::Measure(q) => Some(Readout {
                    line: self.job.chan.readout_line(q),
                    ready_ns: issued.time_ns + cfg.timings.readout_pulse_ns,
                }),
                _ => None,
            })
            .collect();
        readouts.shrink_to_fit();
        let trace = ReplayTrace {
            stream,
            readouts,
            settled_cycle,
            // Once every block is done, no processor can act again; after
            // a `HALT`, the others may still run past the recorded stop.
            held_until: match stop {
                StopReason::Completed => u64::MAX,
                _ => self.cycle,
            },
            stop,
            late_issues: self.late_issues,
            late_cycles: self.late_cycles,
            awg_violations: self.awg.violations().len() as u64,
        };
        let mut daq = Daq::new(cfg.daq_demod_slots, self.job.chan.readout_lines());
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let latest = trace.route(cfg, &mut rng, &mut daq);
        let reproduced = trace.stop_cycle(latest, cfg.clock_ns) == Some(self.cycle)
            && daq.contended_results() == self.daq.contended_results();
        debug_assert!(reproduced, "replay missed a recorded shot's stop");
        reproduced.then_some(trace)
    }

    /// The lowered run loop — [`StepMode::Lowered`]'s whole-shot entry
    /// point.
    ///
    /// It has the stop conditions of [`run_loop`](ShotCore::run_loop),
    /// and it pays per event rather than per cycle. Each loop iteration
    /// covers its cycles in one of three ways ([`HostWork`] counts them):
    ///
    /// - a **step** ticks every component for one cycle;
    /// - a **run** extends a step by the cycles in which one processor is
    ///   the only component that can act, ticking it alone in a tight
    ///   loop with none of the per-cycle machine checks;
    /// - a **time skip** jumps the clock over a span in which every
    ///   component provably stalls, to the earliest event horizon
    ///   (bounded by the cycle budget), bulk-accounting the per-cycle
    ///   statistics a cycle-stepped run would have accumulated.
    ///
    /// A feedback round on one processor thus costs a step (the DAQ
    /// delivers), a run (the `FMR` → `CMPI` → `BR` tail, the conditional
    /// gate, the next measurement and the fetches up to the next stall,
    /// or the context switch's aftermath) and a skip (the readout wait),
    /// instead of one loop iteration per pipeline cycle.
    ///
    /// Skip soundness: during a span in which no processor dispatches, no
    /// timing queue issues, the DAQ delivers nothing and the scheduler
    /// starts nothing, the machine state is constant except for those
    /// statistics — so every skipped cycle would have been identical, and
    /// the first cycle at which anything *can* change is the minimum of
    /// the component horizons. The skip is attempted as soon as the last
    /// step left every processor *inert* (see [`FastProcessor::tick`]):
    /// either its tick made no progress, or the tick itself proved the
    /// next one a repeat of its stall — it entered a context-switch or
    /// block-switch countdown, or it stalled on a measurement or a context
    /// dependency with nothing left to fetch. Either way the
    /// *cycle-independent* activity of every processor (dispatch, fetch,
    /// context resolution) is proved inactive without stepping a further
    /// tick that only shows it, so the skip only re-examines the *clocked*
    /// events: timing-queue heads, countdown deadlines, the DAQ, and
    /// scheduler busy spans. A scheduler that acted or came off a busy
    /// span in the last step is asked for real ([`Scheduler::would_act`]).
    /// When the last step made progress, the loop-top stop check runs
    /// before the skip is tried; the skip leaves every stop input as it
    /// was, so the loop top it lands on needs no check.
    ///
    /// Run soundness: after a step at cycle `c` that made progress, the
    /// loop ticks one processor alone through `c + 1..limit` when nothing
    /// else can act there — it is running and not inert, every other
    /// processor is dormant (idle or halted with nothing queued, so its
    /// tick is a no-op), the scheduler settled with no block finish
    /// pending (so its tick would be elided), no `HALT` or error is
    /// pending, and `limit` is the earlier of the next DAQ delivery and
    /// the cycle budget. Each cycle of the run is that processor's full
    /// tick, so it accounts dispatches, issues, branches, fetches and
    /// stalls exactly as the cycle-stepped run does. The run ends after the tick that leaves
    /// the processor inert or not running (a block finished, a context
    /// switch began, a `HALT` or an error), and an issue that schedules a
    /// readout pulls `limit` in to that delivery. The skipped loop tops
    /// see unchanged stop inputs: a running processor keeps the shot from
    /// completing, no `HALT` is pending, and the settled scheduler and
    /// the dormant processors stay as they were. The `FMR` → `CMPI` →
    /// `BR` tail of every feedback round, whose classical ops dispatch
    /// one per cycle, runs this way with the rest of the round.
    ///
    /// AWG retirement is not among the events either, and this loop never
    /// ticks the AWG. A waveform's end changes only the bank's in-flight
    /// queue, which nothing reads but an emission (for its overlap checks
    /// and the concurrency peak), and no stop condition reads at all.
    /// Each emission first retires every waveform that ended by its time
    /// ([`AwgBank::emit`]), once per instant, so it sees the queue the
    /// cycle-stepped run's per-cycle tick would have left. The
    /// from-first-principles verifiers ([`FastProcessor::stall_info`],
    /// [`Scheduler::would_act`]) cross-check every trusted verdict under
    /// `debug_assertions`.
    ///
    /// The host-side cost of a stepped cycle is kept low as well:
    ///
    /// - The [`Env`] is built **once per shot** instead of once per tick
    ///   (`step_with_progress` re-borrows all nineteen fields on every
    ///   stepped cycle).
    /// - A scheduler tick is **elided** when it is provably a no-op: the
    ///   scheduler settled on its last real tick and no processor has a
    ///   finished-block notification pending ([`Scheduler::is_settled`]),
    ///   cross-checked against [`Scheduler::would_act`] under
    ///   `debug_assertions`.
    /// - A real scheduler tick costs per event, not per block: the
    ///   dependency state is kept in bit-vectors and counts updated as
    ///   blocks start and finish, and the priority counter moves only
    ///   when a block completes (see the scheduler module).
    /// - The DAQ event horizon is cached and refreshed only after a
    ///   delivery or an issue that scheduled a readout; the
    ///   timing queues, the DAQ queue and the pre-decode buffer append
    ///   and pop in O(1) unless an entry arrives out of order, and
    ///   dispatch reads a classical candidate the buffer keeps up to date
    ///   instead of rescanning it.
    /// - The AWG's playback queue is not an event horizon and is retired
    ///   at emissions (see the soundness argument above), so waveform
    ///   ends never cut a skip and no cycle pays for retirement.
    ///
    /// The differential suites (`step_mode_equivalence`,
    /// `proptest_executors`) hold this loop bit-identical to the
    /// cycle-stepped oracle.
    pub(crate) fn run_fast(mut self, max_cycles: u64) -> RunReport {
        let stop = self.run_fast_loop(max_cycles);
        self.into_report(stop)
    }

    /// The borrowed body of [`run_fast`]: runs the shot to its stop
    /// reason without consuming the core, so a reusable arena
    /// ([`LoweredShotRunner`]) can run many shots through one allocation.
    pub(crate) fn run_fast_loop(&mut self, max_cycles: u64) -> StopReason {
        fn merge(h: &mut Option<u64>, at: u64) {
            *h = Some(h.map_or(at, |x| x.min(at)));
        }
        let clock_ns = self.job.cfg.clock_ns;
        let cfg: &QuapeConfig = &self.job.cfg;
        let program: &Program = &self.job.program;
        let code: &LoweredProgram = &self.code;
        let processors = &mut self.processors;
        let scheduler = &mut self.scheduler;
        let stats = &mut self.stats;
        let skip_scratch = &mut self.skip_scratch;
        let cycle = &mut self.cycle;
        let settle = &mut self.settle;
        let work = &mut self.work;
        let mut env = Env {
            cfg,
            program,
            mrr: &mut self.mrr,
            daq: &mut self.daq,
            awg: &mut self.awg,
            qpu: &mut *self.qpu,
            chan: &self.job.chan,
            rng: &mut self.rng,
            shared_regs: &mut self.shared_regs,
            step_dispatches: &mut self.step_dispatches,
            wait_cycles: &mut self.wait_cycles,
            issued: &mut self.issued,
            issued_ops: &mut self.issued_ops,
            late_issues: &mut self.late_issues,
            late_cycles: &mut self.late_cycles,
            measurements: &mut self.measurements,
            halt: &mut self.halt,
            error: &mut self.error,
            readout_scheduled: false,
        };
        // False while the stop inputs are known unchanged since the last
        // loop top that checked them (they are all observable state, so
        // a step without progress or a skip leaves them as they were).
        let mut stop_may_change = true;
        // True when the last step left every processor inert: a time skip
        // is worth attempting.
        let mut inert = false;
        // Cached DAQ event horizon (`u64::MAX` = none pending). The queue
        // only changes by delivering (guarded below) or by an issue that
        // schedules a readout (flagged in the env); the cache is refreshed
        // at exactly those points, so steps, skips and runs read a local
        // instead of probing the queue.
        let mut daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
        let watch_settle = *settle != Settle::Off;
        loop {
            if stop_may_change {
                if *env.error {
                    break StopReason::Error;
                }
                let stop = processor_stop(processors, scheduler.all_done(), *env.halt);
                if watch_settle {
                    settle.observe(*cycle, stop);
                }
                if let Some(stop) = stop {
                    if env.daq.in_flight() == 0 {
                        break stop;
                    }
                }
            }
            if *cycle >= max_cycles {
                break StopReason::CycleLimit;
            }
            // Time skip (see the soundness argument on `run_fast`).
            if inert {
                let skipped = 'skip: {
                    let now = *cycle;
                    let mut horizon: Option<u64> = None;
                    if daq_next != u64::MAX {
                        if daq_next <= now * clock_ns {
                            break 'skip false;
                        }
                        merge(&mut horizon, daq_next.div_ceil(clock_ns));
                    }
                    debug_assert_eq!(
                        daq_next,
                        env.daq.next_delivery_ns().unwrap_or(u64::MAX),
                        "stale DAQ horizon cache"
                    );
                    // A processor finishing a block leaves itself not
                    // inert (and only that moves the priority counter),
                    // so it needs no re-check here.
                    debug_assert!(!processors.iter().any(|p| p.finished_pending()));
                    let cross_check =
                        |p: &FastProcessor, verdict: &Option<StallInfo>, mrr: &MeasurementFile| {
                            let full = p.stall_info(now, mrr, cfg);
                            match (verdict, full) {
                                (None, None) => true,
                                (Some(a), Some(b)) => {
                                    a.horizon == b.horizon
                                        && a.measure_wait == b.measure_wait
                                        && a.context_stall == b.context_stall
                                }
                                _ => false,
                            }
                        };
                    // Uniprocessor fast path: one verdict on the stack, no
                    // scratch traffic.
                    let mut solo = StallInfo::default();
                    let single = processors.len() == 1;
                    if single {
                        let verdict = processors[0].skip_check(now);
                        debug_assert!(
                            cross_check(&processors[0], &verdict, env.mrr),
                            "trusted skip check diverged from the full stall verifier"
                        );
                        match verdict {
                            None => break 'skip false,
                            Some(s) => {
                                if let Some(h) = s.horizon {
                                    merge(&mut horizon, h);
                                }
                                solo = s;
                            }
                        }
                    } else {
                        skip_scratch.clear();
                        for p in processors.iter() {
                            let verdict = p.skip_check(now);
                            debug_assert!(
                                cross_check(p, &verdict, env.mrr),
                                "trusted skip check diverged from the full stall verifier"
                            );
                            match verdict {
                                None => break 'skip false,
                                Some(s) => {
                                    if let Some(h) = s.horizon {
                                        merge(&mut horizon, h);
                                    }
                                    skip_scratch.push(s);
                                }
                            }
                        }
                    }
                    // Scheduler: only its clocked busy span can fire
                    // within a stall.
                    let mut scheduler_busy = true;
                    if let Some(finish) = scheduler.job_finish() {
                        if now >= finish {
                            break 'skip false;
                        }
                        merge(&mut horizon, finish);
                    } else if scheduler.is_busy(now) {
                        merge(&mut horizon, scheduler.busy_until());
                    } else {
                        scheduler_busy = false;
                        // A free scheduler that settled on its last tick
                        // stays inactive until machine state changes; one
                        // that acted or just came off a busy span has not
                        // proved that yet — ask it for real.
                        if !scheduler.is_settled()
                            && scheduler.would_act(now, processors, program, cfg)
                        {
                            break 'skip false;
                        }
                        debug_assert!(
                            !scheduler.would_act(now, processors, program, cfg),
                            "settled scheduler would still act"
                        );
                    }
                    // No event horizon at all means the machine can only
                    // spin to the cycle budget (e.g. an FMR waiting on a
                    // result that never comes).
                    let target = horizon.unwrap_or(max_cycles).min(max_cycles);
                    if target <= now {
                        break 'skip false;
                    }
                    let span = target - now;
                    // The span never crosses the scheduler's
                    // `busy_until`/`finish` (both are in the horizon), so
                    // every skipped cycle counts as busy.
                    if scheduler_busy {
                        stats.scheduler_busy_cycles += span;
                    }
                    let mut waiting = 0usize;
                    if single {
                        if solo.measure_wait {
                            waiting = 1;
                        }
                        processors[0].account_stall_span(&solo, span);
                    } else {
                        for (p, s) in processors.iter_mut().zip(skip_scratch.iter()) {
                            if s.measure_wait {
                                waiting += 1;
                            }
                            p.account_stall_span(s, span);
                        }
                    }
                    env.wait_cycles.extend_span(now, target, waiting);
                    work.skips += 1;
                    work.skipped_cycles += span;
                    *cycle = target;
                    true
                };
                // Whether taken or refused, the next iteration steps: a
                // skip lands on the first cycle something can act at.
                inert = false;
                if skipped {
                    stop_may_change = false;
                    continue;
                }
            }
            // Inline `step_with_progress`, with the settled-scheduler tick
            // elision, the DAQ tick guarded by its cached horizon (a tick
            // with nothing due is a no-op by construction: it only pops
            // entries whose time has been reached), and no AWG tick (each
            // emission retires what ended before it).
            let now = *cycle;
            let now_ns = now * clock_ns;
            let mut progress = false;
            if daq_next <= now_ns {
                progress = env.daq.tick(now_ns, env.mrr) != 0;
                daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
            }
            if !scheduler.is_settled() || processors.iter().any(|p| p.finished_pending()) {
                let events = scheduler.events.len();
                scheduler.tick(now, processors, program, code, cfg, stats);
                progress |= events != scheduler.events.len();
            } else {
                // A settled scheduler with no pending done-notification
                // cannot act: nothing that feeds its picker (block
                // statuses, processor idle/bank state) has changed since
                // it last proved itself inactive, and settling implies no
                // fill job in flight and no busy span.
                debug_assert!(
                    !scheduler.would_act(now, processors, program, cfg),
                    "settled scheduler would act on a stepped cycle"
                );
            }
            inert = true;
            for p in processors.iter_mut() {
                progress |= p.tick(now, &mut env);
                inert &= p.is_inert();
            }
            if env.readout_scheduled {
                env.readout_scheduled = false;
                daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
            }
            // Run (see the soundness argument on `run_fast`).
            let mut end = now + 1;
            if progress && !inert && !*env.halt && !*env.error && scheduler.is_settled() {
                if let Some(solo) = sole_active(processors) {
                    debug_assert!(
                        !scheduler.would_act(end, processors, program, cfg),
                        "a run starts under a scheduler that would act"
                    );
                    let p = &mut processors[solo];
                    // A cycle is in range while no delivery is due at it.
                    while p.is_running()
                        && !p.is_inert()
                        && end < max_cycles
                        && end * clock_ns < daq_next
                    {
                        p.tick(end, &mut env);
                        if env.readout_scheduled {
                            env.readout_scheduled = false;
                            daq_next = env.daq.next_delivery_ns().unwrap_or(u64::MAX);
                        }
                        end += 1;
                    }
                    // The dormant processors' last ticks left them inert.
                    inert = p.is_inert();
                }
            }
            if end == now + 1 {
                work.stepped_cycles += 1;
            } else {
                work.runs += 1;
                work.run_cycles += end - now;
            }
            *cycle = end;
            stop_may_change = progress;
        }
    }
}

/// The one processor that is not dormant, when every other one is and
/// none has a finished block awaiting the scheduler: the only processor
/// that can act while the scheduler stays settled.
fn sole_active(processors: &[FastProcessor]) -> Option<usize> {
    let mut active = None;
    for (i, p) in processors.iter().enumerate() {
        if p.finished_pending() {
            return None;
        }
        if !p.is_dormant() {
            if active.is_some() {
                return None;
            }
            active = Some(i);
        }
    }
    active
}

/// How the [`StepMode::Lowered`] run loop covered one shot's cycles:
/// each loop iteration either steps one cycle, extends a step into a run
/// of one processor ticking alone, or jumps the clock over a provable
/// stall, so the three cycle counts add up to the shot's cycles.
///
/// These describe the host's work, not the machine: the
/// [`StepMode::Cycle`] oracle steps every cycle, so they are kept out of
/// [`RunReport`] and its equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostWork {
    /// Cycles the loop stepped one at a time (machine-wide).
    pub stepped_cycles: u64,
    /// Runs: loop iterations that stepped a cycle and then ticked one
    /// processor alone through at least one more.
    pub runs: u64,
    /// Cycles covered by runs, their opening step included.
    pub run_cycles: u64,
    /// Time skips taken.
    pub skips: u64,
    /// Cycles jumped by time skips.
    pub skipped_cycles: u64,
    /// 1 when the shot was replayed rather than simulated (see
    /// [`LoweredShotRunner`]); its cycle counts are then all zero.
    pub replayed: u64,
}

impl HostWork {
    /// Every cycle the loop covered: stepped + run + skipped.
    pub fn cycles(&self) -> u64 {
        self.stepped_cycles + self.run_cycles + self.skipped_cycles
    }
}

/// The processor side of the stop condition, shared by both run loops:
/// `Completed` once every block is done and every processor is idle with
/// nothing queued, else `Halted` once a `HALT` executed and no processor
/// has anything queued. A shot stops at the first loop top at which this
/// holds and the DAQ has no result in flight.
#[inline]
fn processor_stop<P: ProcessorCore>(
    processors: &[P],
    all_done: bool,
    halt: bool,
) -> Option<StopReason> {
    if all_done
        && processors
            .iter()
            .all(|p| p.is_idle() && !p.has_pending_work())
    {
        Some(StopReason::Completed)
    } else if halt && processors.iter().all(|p| !p.has_pending_work()) {
        Some(StopReason::Halted)
    } else {
        None
    }
}

/// What a recording lowered run saw of [`processor_stop`] at its loop
/// tops (see [`ReplayTrace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settle {
    /// The run is not recording.
    Off,
    /// Recording; the processor side has not held yet.
    Watching,
    /// The processor side first held at loop top `cycle`, with `reason`,
    /// and has held unchanged at every loop top since.
    Held { cycle: u64, reason: StopReason },
    /// It held, then changed: the stop-cycle rule cannot replay the job.
    Broken,
}

impl Settle {
    #[inline]
    fn observe(&mut self, cycle: u64, stop: Option<StopReason>) {
        match (*self, stop) {
            (Settle::Watching, Some(reason)) => *self = Settle::Held { cycle, reason },
            (Settle::Held { reason, .. }, now) if now != Some(reason) => *self = Settle::Broken,
            _ => {}
        }
    }
}

/// The borrowed result view of one arena shot (see
/// [`LoweredShotRunner`]): every counter a batch digest needs, plus the
/// measurement records in issue order, without the owned vectors of a
/// [`RunReport`]. The numbers are bit-identical to the corresponding
/// fields of the report a fresh [`Shot`] run would produce.
#[derive(Debug)]
pub struct ShotOutcome<'a> {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Program time in nanoseconds (cycles × clock period).
    pub ns: u64,
    /// Why the shot stopped.
    pub stop: StopReason,
    /// Quantum operations issued (counted at issue).
    pub issued_ops: u64,
    /// Operations that reached their timing queue after their deadline.
    pub late_issues: u64,
    /// Total lateness across late issues, in cycles.
    pub late_cycles: u64,
    /// Timing violations detected by the QPU occupancy model.
    pub violations: u64,
    /// Occupancy conflicts detected at the AWG bank.
    pub awg_violations: u64,
    /// Results delayed by DAQ demod contention.
    pub daq_contended: u64,
    /// When the QPU finished its last operation.
    pub qpu_makespan_ns: u64,
    /// Measurement outcomes in issue order.
    pub measurements: &'a [MeasurementRecord],
}

impl ShotOutcome<'_> {
    /// End-to-end execution time: program time or QPU drain, whichever
    /// is later (the [`RunReport::execution_time_ns`] twin).
    pub fn execution_time_ns(&self) -> u64 {
        self.ns.max(self.qpu_makespan_ns)
    }
}

/// Longest issue stream a compiled artifact keeps for replay. Tenants
/// choose the program, and a feedback-free loop can issue millions of
/// operations within its cycle budget; a job whose stream outgrows this
/// is simulated on every shot instead.
///
/// The cap bounds what a cached artifact holds: a trace stores its
/// operations (16 bytes each, kept without growth slack), their
/// measurement subsequence and one readout (16 bytes each) per
/// measurement, so at most 48 bytes × 2^14 = 768 KiB, and a compile cache
/// of 64 artifacts at most 48 MiB of traces. The largest stream of the
/// benchmark workloads is about 9,100 operations (a 100 KB pulse train);
/// the paper's kernels issue at most a few hundred.
const MAX_RECORDED_ISSUES: usize = 1 << 14;

/// One measurement of a recorded stream as the DAQ sees it: the readout
/// line it is read out on and when its readout pulse ends.
#[derive(Debug, Clone, Copy)]
struct Readout {
    line: u16,
    ready_ns: u64,
}

/// What replaying a feedback-free job needs from one fully simulated
/// shot.
///
/// Without `FMR` or `MRCE` no instruction reads a measurement value
/// ([`LoweredProgram::reads_measurements`]), the scheduler never does,
/// and the machine PRNG only draws DAQ jitter. So the processors, the
/// scheduler, the timing queues and the AWG follow the same trajectory on
/// every shot, and issue the same `(t_ns, op)` stream. Only the backend's
/// outcomes, the jitter draws and the DAQ contention those draws cause
/// differ per shot, and the DAQ only decides *when* the shot stops.
///
/// The recording shot checked that [`processor_stop`] held, with the
/// same reason, at every loop top from `settled_cycle` to its own stop,
/// and that every operation was issued before `settled_cycle`. So up to
/// `held_until`, a shot stops at the first loop top from `settled_cycle`
/// on at which no result is in flight ([`stop_cycle`](Self::stop_cycle)).
///
/// Everything a replayed shot walks is computed once, when the trace is
/// taken: the readout plan, all the DAQ pass needs (a jitter draw and a
/// demod-server decision per measurement); and the stream's measurement
/// subsequence and the QPU counters it leaves, all the behavioural
/// backend needs (an outcome draw per measurement; see [`IssueStream`]).
#[derive(Debug)]
struct ReplayTrace {
    /// Every operation sent to the QPU, with its issue time, in order;
    /// the measurements among them; and the QPU counters they leave.
    stream: IssueStream,
    /// The measurements' readouts, in issue order.
    readouts: Vec<Readout>,
    /// First loop top at which the processor side of the stop condition
    /// held.
    settled_cycle: u64,
    /// Last loop top up to which it is known to keep holding.
    held_until: u64,
    stop: StopReason,
    late_issues: u64,
    late_cycles: u64,
    awg_violations: u64,
}

impl ReplayTrace {
    /// Runs the readout plan through `daq`'s demod servers in issue
    /// order, drawing each readout's jitter from `rng` as the issue path
    /// does, and returns the latest delivery time. Nothing is queued:
    /// replay never delivers.
    fn route(&self, cfg: &QuapeConfig, rng: &mut SmallRng, daq: &mut Daq) -> Option<u64> {
        self.readouts
            .iter()
            .map(|r| daq.demodulate(r.line, r.ready_ns, draw_demod_ns(cfg, rng)))
            .max()
    }

    /// The cycle at which a shot whose last readout lands at
    /// `latest_delivery_ns` stops: the settled cycle, or the loop top
    /// after the cycle that delivers the last result
    /// (`⌈latest / clock⌉ + 1`), whichever is later. `None` past
    /// `held_until`, where the recording cannot tell.
    fn stop_cycle(&self, latest_delivery_ns: Option<u64>, clock_ns: u64) -> Option<u64> {
        let drained = latest_delivery_ns.map_or(0, |ns| ns.div_ceil(clock_ns) + 1);
        let stop = self.settled_cycle.max(drained);
        (stop <= self.held_until).then_some(stop)
    }
}

/// A compiled artifact's replay verdict (see [`CompiledJob`]).
#[derive(Debug)]
enum Replay {
    /// Shots replay this trace.
    Trace(ReplayTrace),
    /// Every shot is simulated.
    Never,
}

/// What a replayed shot writes: the DAQ's demod servers, the machine
/// PRNG and the measurement log. A runner builds it on its first replayed
/// shot, apart from the simulation arena, which a runner that only
/// replays never builds.
struct ReplayArena {
    daq: Daq,
    rng: SmallRng,
    measurements: Vec<MeasurementRecord>,
}

impl ReplayArena {
    /// An arena sized for `trace`, so that no replay grows it.
    fn new(job: &CompiledJob, trace: &ReplayTrace) -> Self {
        ReplayArena {
            daq: Daq::new(job.cfg.daq_demod_slots, job.chan.readout_lines()),
            rng: SmallRng::seed_from_u64(0),
            measurements: Vec::with_capacity(trace.stream.measures().len()),
        }
    }

    /// Replays `trace` as the shot that drives `qpu` with the machine
    /// PRNG seeded `rng_seed`. The outcome has the recorded issue count,
    /// lateness, AWG violations and stop reason, and this shot's stop
    /// cycle, DAQ contention, outcomes and backend counters.
    ///
    /// Readout timing depends on when and on which line each measurement
    /// was read out and on the jitter draws, never on outcomes. So the
    /// trace's readout plan runs through the DAQ's demod servers first, a
    /// jitter draw and a server decision per measurement with nothing
    /// queued for delivery, and fixes the stop cycle before the backend
    /// sees an operation. A shot whose stop the trace cannot tell, or
    /// that would reach `max_cycles`, hands `qpu` back untouched, to be
    /// simulated in full. Otherwise the backend receives the whole stream
    /// through [`QpuBackend::replay`] and is dropped.
    fn replay(
        &mut self,
        cfg: &QuapeConfig,
        trace: &ReplayTrace,
        mut qpu: Box<dyn QpuBackend>,
        rng_seed: u64,
        max_cycles: u64,
    ) -> Result<ShotOutcome<'_>, Box<dyn QpuBackend>> {
        self.daq.reset();
        self.rng = SmallRng::seed_from_u64(rng_seed);
        let latest = trace.route(cfg, &mut self.rng, &mut self.daq);
        let Some(stop_cycle) = trace
            .stop_cycle(latest, cfg.clock_ns)
            .filter(|&c| c < max_cycles)
        else {
            return Err(qpu);
        };
        self.measurements.clear();
        let qpu = qpu.replay(&trace.stream, &mut self.measurements);
        Ok(ShotOutcome {
            cycles: stop_cycle,
            ns: stop_cycle * cfg.clock_ns,
            stop: trace.stop,
            issued_ops: trace.stream.ops().len() as u64,
            late_issues: trace.late_issues,
            late_cycles: trace.late_cycles,
            violations: qpu.violations,
            awg_violations: trace.awg_violations,
            daq_contended: self.daq.contended_results(),
            qpu_makespan_ns: qpu.makespan_ns,
            measurements: &self.measurements,
        })
    }
}

/// A reusable [`StepMode::Lowered`] shot arena.
///
/// [`CompiledJob::shot`] rebuilds the whole per-shot state — processors,
/// scheduler table, device queues, event sinks, measurement log — on the
/// heap for every shot. In a batch engine that cost is pure churn: the
/// shapes are identical from shot to shot because they derive from the
/// job, not from the outcomes. A worker thread keeps one
/// `LoweredShotRunner` instead and pumps shots through it; the first
/// simulated shot builds the state, every later one resets it **in
/// place** (buffers cleared, tables refilled, counters zeroed) so the
/// steady-state per-shot allocation count does not depend on the
/// program — only the backend construction and the caller's digest
/// remain (see the `engine_heap` integration test, which pins this with
/// a counting allocator).
///
/// Reset fidelity is load-bearing and differential-tested: a reused
/// runner's outcomes are bit-identical to fresh
/// [`Shot`]-per-shot runs, and [`ShotEngine`](crate::ShotEngine)
/// aggregates stay bit-identical across both step modes.
///
/// **Shot replay.** A job whose program never reads a measurement value
/// (no `FMR`, no `MRCE`: [`LoweredProgram::reads_measurements`]) issues
/// the same timed operation stream on every shot. While the job's
/// artifact holds no trace, a runner records that stream where the
/// control stack issues it, on a shot that stops `Completed` or
/// `Halted`, and publishes it in the artifact's replay slot (see
/// [`CompiledJob`]); the first trace published stays. From then on every
/// runner on the artifact, a fresh runner's first shot included, replays
/// instead of simulating, without building the simulation arena:
///
/// 1. the trace's readout plan (each recorded measurement's readout
///    line and readout-pulse end) runs through the runner's own DAQ
///    demod servers, with this shot's jitter draws, which fixes its DAQ
///    contention and its last delivery; nothing is queued for delivery;
/// 2. the stop cycle is the *settled* cycle (the first loop top at which
///    the recording saw the processor side of the stop condition hold,
///    the same check the run loop breaks on) or the loop top after the
///    cycle that delivers the last result (`⌈last delivery / clock⌉ +
///    1`), whichever is later;
/// 3. the recorded stream goes to this shot's backend through
///    [`QpuBackend::replay`], which yields the outcomes
///    and its [`QpuCounters`] (violations, makespan). By
///    default that applies every operation; a pristine behavioural
///    backend with the job's timings instead draws only the outcomes, one
///    per recorded measurement in stream order, the same draws `apply`
///    makes, and returns the counters recorded with the stream.
///
/// So a replayed shot costs, per measurement, one jitter draw, one
/// demod-server decision and one outcome draw, not one backend call per
/// operation; its only allocation is the caller's boxed backend.
///
/// Late issues, AWG violations and the stop reason are the recorded
/// ones. The rule in step 2 is exact only if the processor side kept
/// holding, with the same reason, from the settled cycle to the stop,
/// and nothing was issued from the settled cycle on. The recording shot
/// checks both, and checks that the rule reproduces its own stop; after a
/// `HALT` the other processors may still run, so there the rule is
/// trusted only up to the recorded stop. These run in full instead:
/// every shot of a job that reads measurements, whose recording fails a
/// check, or that issues more than `MAX_RECORDED_ISSUES` operations in a
/// shot; shots before a trace exists; and any shot whose stop the trace
/// cannot tell or that would reach the cycle budget.
pub struct LoweredShotRunner {
    job: CompiledJob,
    /// The simulation arena, built by the first simulated shot.
    core: Option<ShotCore<FastProcessor>>,
    /// The replay arena, built by the first replayed shot.
    replay: Option<ReplayArena>,
    /// How the last shot was covered.
    work: HostWork,
}

impl LoweredShotRunner {
    /// Creates an empty runner for `job` (each arena is built lazily by
    /// the first [`run_shot`](LoweredShotRunner::run_shot) that needs it).
    pub fn new(job: CompiledJob) -> Self {
        LoweredShotRunner {
            job,
            core: None,
            replay: None,
            work: HostWork::default(),
        }
    }

    /// The job this runner executes.
    pub fn job(&self) -> &CompiledJob {
        &self.job
    }

    /// How the run loop covered the last shot's cycles (all zero before
    /// the first shot and after a replayed one, which simulates none and
    /// counts itself [`replayed`](HostWork::replayed)).
    pub fn host_work(&self) -> HostWork {
        self.work
    }

    /// Runs one lean shot, driving `qpu` and seeding the machine PRNG
    /// with `rng_seed`, and returns the borrowed outcome digest.
    /// Equivalent to
    /// `job.shot(qpu, rng_seed).report_mode(ReportMode::Lean)
    /// .run_with_mode(StepMode::Lowered, max_cycles)` reduced to its
    /// summary counters, whether the shot is simulated or replayed.
    pub fn run_shot(
        &mut self,
        qpu: Box<dyn QpuBackend>,
        rng_seed: u64,
        max_cycles: u64,
    ) -> ShotOutcome<'_> {
        let cfg: &QuapeConfig = &self.job.cfg;
        let qpu = match self.job.replay.get() {
            Some(Replay::Trace(trace)) => {
                let arena = self
                    .replay
                    .get_or_insert_with(|| ReplayArena::new(&self.job, trace));
                match arena.replay(cfg, trace, qpu, rng_seed, max_cycles) {
                    Ok(outcome) => {
                        self.work = HostWork {
                            replayed: 1,
                            ..HostWork::default()
                        };
                        return outcome;
                    }
                    Err(qpu) => qpu,
                }
            }
            _ => qpu,
        };
        match &mut self.core {
            Some(core) => core.reset_for_shot(qpu, rng_seed),
            slot @ None => *slot = Some(self.job.fast_core(qpu, rng_seed)),
        }
        let core = self.core.as_mut().expect("core just ensured");
        core.set_report_mode(ReportMode::Lean);
        let record = self.job.replay.get().is_none();
        if record {
            // The core's issue record is the stream later shots replay.
            core.issued.record = true;
            core.settle = Settle::Watching;
        }
        let stop = core.run_fast_loop(max_cycles);
        if record {
            // A shot cut short by the budget (or an error) may be followed
            // by one that completes; any other reason to keep no trace
            // would repeat on every shot. A runner that loses the race to
            // publish drops its own trace: any published one is exact.
            let verdict = match core.take_trace(stop, rng_seed) {
                Some(trace) => Some(Replay::Trace(trace)),
                None if matches!(stop, StopReason::Completed | StopReason::Halted)
                    || core.issued_ops > MAX_RECORDED_ISSUES as u64 =>
                {
                    Some(Replay::Never)
                }
                None => None,
            };
            if let Some(verdict) = verdict {
                let _ = self.job.replay.set(verdict);
            }
        }
        self.work = core.work;
        core.finish_outcome(stop)
    }
}

/// The per-shot machine state of one execution. Built from a
/// [`CompiledJob`]; stepped at clock-cycle granularity.
///
/// Internally this wraps the reference `ShotCore<Processor>`, which
/// [`Shot::step`] and [`StepMode::Cycle`] drive. [`Shot::run_with_mode`]
/// with [`StepMode::Lowered`] (the default) runs an un-stepped shot on a
/// fresh micro-op fast core built from the same job, backend, seed and
/// report mode.
pub struct Shot {
    core: ShotCore<Processor>,
    rng_seed: u64,
    mode: ReportMode,
}

impl Shot {
    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.core.cycle
    }

    /// The job this shot executes.
    pub fn job(&self) -> &CompiledJob {
        &self.core.job
    }

    /// Selects how much of the run the report materialises (see
    /// [`ReportMode`]). Call before stepping: events recorded while the
    /// previous mode was in force are kept as-is.
    pub fn report_mode(mut self, mode: ReportMode) -> Self {
        self.core.set_report_mode(mode);
        self.mode = mode;
        self
    }

    /// Advances the machine by one clock cycle.
    pub fn step(&mut self) {
        let _ = self.core.step_with_progress();
    }

    /// Runs until completion with a default budget of 10 million cycles.
    pub fn run(self) -> RunReport {
        self.run_with_limit(10_000_000)
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget,
    /// using the default [`StepMode`] (lowered).
    pub fn run_with_limit(self, max_cycles: u64) -> RunReport {
        self.run_with_mode(StepMode::default(), max_cycles)
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget,
    /// on the executor `mode` selects. Both produce bit-identical
    /// reports; [`StepMode::Cycle`] is the slow oracle.
    pub fn run_with_mode(self, mode: StepMode, max_cycles: u64) -> RunReport {
        // The fast core starts from shot-initial state: a shot the caller
        // already stepped manually cannot be transplanted mid-run, so it
        // continues on the reference core instead (the report is
        // identical either way). An un-stepped core has touched neither
        // its backend nor its PRNG, so the fast core takes the backend
        // and the seed as they came.
        if mode == StepMode::Lowered && self.core.cycle == 0 {
            let mut fast = self.core.job.fast_core(self.core.qpu, self.rng_seed);
            fast.set_report_mode(self.mode);
            fast.run_fast(max_cycles)
        } else {
            self.core.run_loop(max_cycles)
        }
    }

    /// Measurement outcomes observed so far (delivered results).
    pub fn measurements(&self) -> &[MeasurementRecord] {
        &self.core.measurements
    }

    /// The AWG bank's device state (diagnostic; tests cross-check its
    /// occupancy view against the QPU shadow model).
    pub fn awg(&self) -> &AwgBank {
        &self.core.awg
    }

    /// The QPU occupancy model's view of when `qubit` becomes free
    /// (diagnostic twin of [`AwgBank::qubit_busy_until`]).
    pub fn qpu_busy_until(&self, qubit: quape_isa::Qubit) -> u64 {
        self.core.qpu.busy_until(qubit)
    }
}

/// The full control stack of Fig. 5/9 as a single-shot convenience: one
/// compiled job driving one [`Shot`].
///
/// For multi-shot experiments, compile the job once with
/// [`CompiledJob::compile`] and use [`crate::ShotEngine`] instead of
/// re-validating everything per repetition.
///
/// ```
/// use quape_core::{Machine, QuapeConfig};
/// use quape_qpu::{BehavioralQpu, MeasurementModel};
/// use quape_isa::assemble;
///
/// let program = assemble("0 H q0\n0 H q1\n2 CNOT q0, q1\nSTOP\n")?;
/// let cfg = QuapeConfig::superscalar(4);
/// let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, 1);
/// let report = Machine::new(cfg, program, Box::new(qpu))?.run();
/// assert_eq!(report.issued_count(), 3);
/// assert!(report.timing_clean());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Machine {
    shot: Shot,
}

impl Machine {
    /// Builds a machine for `program` driving `qpu`.
    ///
    /// The shot's PRNG is seeded from `cfg.seed`, exactly as before the
    /// job/shot split.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Config`] for inconsistent configurations and
    /// [`MachineError::Program`] when wrapping a block-less program fails.
    pub fn new(
        cfg: QuapeConfig,
        program: Program,
        qpu: Box<dyn QpuBackend>,
    ) -> Result<Self, MachineError> {
        let seed = cfg.seed;
        let job = CompiledJob::compile(cfg, program)?;
        Ok(Machine {
            shot: job.shot(qpu, seed),
        })
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.shot.cycle()
    }

    /// Advances the machine by one clock cycle.
    pub fn step(&mut self) {
        self.shot.step();
    }

    /// Runs until completion with a default budget of 10 million cycles.
    pub fn run(self) -> RunReport {
        self.shot.run()
    }

    /// Runs until completion, a `HALT`, an error, or the cycle budget.
    pub fn run_with_limit(self, max_cycles: u64) -> RunReport {
        self.shot.run_with_limit(max_cycles)
    }

    /// Runs with an explicit [`StepMode`] (differential testing hook).
    pub fn run_with_mode(self, mode: StepMode, max_cycles: u64) -> RunReport {
        self.shot.run_with_mode(mode, max_cycles)
    }

    /// Measurement outcomes observed so far (delivered results).
    pub fn measurements(&self) -> &[MeasurementRecord] {
        self.shot.measurements()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_qpu::{BehavioralQpu, MeasurementModel};

    fn coin(cfg: &QuapeConfig, seed: u64) -> Box<dyn QpuBackend> {
        Box::new(BehavioralQpu::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            seed,
        ))
    }

    fn two_qubit_program() -> Program {
        quape_isa::assemble("0 H q0\n2 CNOT q0, q1\n2 MEAS q0\nSTOP\n").expect("valid program")
    }

    #[test]
    fn num_qubits_scanned_by_default() {
        let job = CompiledJob::compile(QuapeConfig::superscalar(4), two_qubit_program())
            .expect("compiles");
        assert_eq!(job.num_qubits(), 2);
        assert_eq!(job.channel_map().channel_count(), 6);
    }

    #[test]
    fn num_qubits_override_expands_channel_map() {
        let cfg = QuapeConfig::superscalar(4).with_num_qubits(10);
        let job = CompiledJob::compile(cfg, two_qubit_program()).expect("compiles");
        assert_eq!(job.num_qubits(), 10);
        assert_eq!(job.channel_map().channel_count(), 30);
    }

    #[test]
    fn readout_lines_config_builds_multiplexed_map() {
        let cfg = QuapeConfig::superscalar(4)
            .with_num_qubits(10)
            .with_readout_lines(8);
        let job = CompiledJob::compile(cfg, two_qubit_program()).expect("compiles");
        assert_eq!(job.channel_map().readout_lines(), 8);
        assert_eq!(job.channel_map().channel_count(), 28);
    }

    #[test]
    fn awg_occupancy_tracks_qpu_shadow_model() {
        // Step a shot manually: at every cycle the AWG bank's device-side
        // qubit occupancy must match the QPU shadow model exactly.
        let cfg = QuapeConfig::superscalar(4).with_seed(3);
        let job = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        let mut shot = job.shot(coin(&cfg, 5), cfg.seed);
        for _ in 0..2_000 {
            shot.step();
            for q in 0..job.num_qubits() {
                let q = quape_isa::Qubit::new(q);
                assert_eq!(
                    shot.awg().qubit_busy_until(q),
                    shot.qpu_busy_until(q),
                    "device and QPU occupancy diverged on {q} at cycle {}",
                    shot.cycle()
                );
            }
        }
        assert!(shot.awg().playing() == 0, "all playbacks retired at rest");
        assert_eq!(shot.awg().retired(), shot.awg().timeline().len());
    }

    #[test]
    fn job_digest_is_stable_and_content_keyed() {
        let cfg = QuapeConfig::superscalar(4);
        let a = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        let b = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        assert_eq!(a.digest(), b.digest());
        // Different seed, same compiled artifact.
        let reseeded =
            CompiledJob::compile(cfg.clone().with_seed(5), two_qubit_program()).expect("compiles");
        assert_eq!(a.digest(), reseeded.digest());
        // Different program or different config: different key.
        let other = CompiledJob::compile(
            cfg.clone(),
            quape_isa::assemble("0 H q0\nSTOP\n").expect("valid"),
        )
        .expect("compiles");
        assert_ne!(a.digest(), other.digest());
        let wider = CompiledJob::compile(QuapeConfig::superscalar(8), two_qubit_program())
            .expect("compiles");
        assert_ne!(a.digest(), wider.digest());
    }

    #[test]
    fn over_wide_machines_are_rejected_at_compile_time() {
        use quape_isa::{ClassicalOp, Gate1, Instruction, QuantumOp, Qubit};
        let touching = |q: u16| {
            Program::new(vec![
                Instruction::quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(q))),
                Instruction::Classical(ClassicalOp::Stop),
            ])
            .expect("valid program")
        };
        let widest = quape_isa::MAX_QUBITS as u16;
        for base in [
            QuapeConfig::superscalar(4),
            QuapeConfig::superscalar(4).with_readout_lines(8),
        ] {
            for q in [widest, u16::MAX] {
                let err = CompiledJob::compile(base.clone(), touching(q)).unwrap_err();
                assert!(matches!(err, MachineError::Config(_)), "q{q}: {err}");
            }
            for n in [widest + 1, 40_000] {
                let cfg = base.clone().with_num_qubits(n);
                assert!(cfg.validate().is_err(), "override {n} validated");
                let err = CompiledJob::compile(cfg, two_qubit_program()).unwrap_err();
                assert!(
                    matches!(err, MachineError::Config(_)),
                    "override {n}: {err}"
                );
            }
            // The full ISA width still compiles, on either layout.
            let job = CompiledJob::compile(base.clone(), touching(widest - 1)).expect("fits");
            assert_eq!(usize::from(job.num_qubits()), quape_isa::MAX_QUBITS);
            CompiledJob::compile(base.with_num_qubits(widest), two_qubit_program()).expect("fits");
        }
    }

    #[test]
    fn num_qubits_override_too_small_rejected() {
        let cfg = QuapeConfig::superscalar(4).with_num_qubits(1);
        let err = CompiledJob::compile(cfg, two_qubit_program()).unwrap_err();
        assert!(matches!(err, MachineError::Config(_)), "{err}");
    }

    #[test]
    fn machine_wrapper_matches_job_shot() {
        let cfg = QuapeConfig::superscalar(4).with_seed(9);
        let program = two_qubit_program();
        let via_machine = Machine::new(cfg.clone(), program.clone(), coin(&cfg, 5))
            .expect("machine builds")
            .run();
        let job = CompiledJob::compile(cfg.clone(), program).expect("compiles");
        let via_shot = job.shot(coin(&cfg, 5), cfg.seed).run();
        assert_eq!(via_machine.cycles, via_shot.cycles);
        assert_eq!(via_machine.measurements, via_shot.measurements);
        let a: Vec<(u64, String)> = via_machine
            .issued
            .iter()
            .map(|o| (o.time_ns, o.op.to_string()))
            .collect();
        let b: Vec<(u64, String)> = via_shot
            .issued
            .iter()
            .map(|o| (o.time_ns, o.op.to_string()))
            .collect();
        assert_eq!(a, b);
    }

    /// `outer × inner × 8` single-qubit gates in two counted loops, no
    /// feedback.
    fn gate_loop(outer: i16, inner: i16) -> Program {
        use quape_isa::{ClassicalOp, Cond, Gate1, ProgramBuilder, QuantumOp, Qubit, Reg};
        let mut b = ProgramBuilder::new();
        b.push(ClassicalOp::Ldi {
            rd: Reg::new(2),
            imm: outer,
        });
        b.label("outer");
        b.push(ClassicalOp::Ldi {
            rd: Reg::new(1),
            imm: inner,
        });
        b.label("inner");
        for q in 0..8 {
            b.quantum(1, QuantumOp::Gate1(Gate1::X, Qubit::new(q % 4)));
        }
        for (reg, label) in [(1, "inner"), (2, "outer")] {
            b.push(ClassicalOp::Addi {
                rd: Reg::new(reg),
                rs: Reg::new(reg),
                imm: -1,
            });
            b.cmpi(reg, 0);
            b.br_to(Cond::Ne, label);
        }
        b.push(ClassicalOp::Stop);
        b.finish().expect("valid loop program")
    }

    #[test]
    fn a_job_issuing_too_much_to_record_is_simulated_on_every_shot() {
        let cfg = QuapeConfig::superscalar(4);
        let run = |program: Program, shots: u64| {
            let job = CompiledJob::compile(cfg.clone(), program).expect("compiles");
            let mut runner = LoweredShotRunner::new(job.clone());
            for shot in 0..shots {
                let replayed = runner.run_shot(coin(&cfg, shot), shot, u64::MAX).cycles;
                let fresh = job
                    .shot(coin(&cfg, shot), shot)
                    .report_mode(ReportMode::Lean)
                    .run_with_mode(StepMode::Lowered, u64::MAX)
                    .cycles;
                assert_eq!(replayed, fresh, "shot {shot}");
            }
            match job.replay.get() {
                Some(Replay::Trace(_)) => "trace",
                Some(Replay::Never) => "never",
                None => "undecided",
            }
        };
        assert_eq!(run(gate_loop(4, 8), 2), "trace");
        let (outer, inner) = (4, 1000);
        assert!(outer as usize * inner as usize * 8 > MAX_RECORDED_ISSUES);
        assert_eq!(run(gate_loop(outer, inner), 2), "never");
    }

    #[test]
    fn shots_from_one_job_are_independent() {
        let cfg = QuapeConfig::superscalar(4);
        let job = CompiledJob::compile(cfg.clone(), two_qubit_program()).expect("compiles");
        let first = job.shot(coin(&cfg, 1), 1).run();
        let second = job.shot(coin(&cfg, 1), 1).run();
        // Same seeds ⇒ identical; fresh state ⇒ no leakage between shots.
        assert_eq!(first.cycles, second.cycles);
        assert_eq!(first.measurements, second.measurements);
        assert_eq!(first.issued.len(), 3);
    }
}
