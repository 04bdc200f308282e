//! One QuAPE processing unit.
//!
//! Implements the §5 pipeline at dispatch-level cycle accuracy:
//!
//! * **fetch** — up to `fetch_width` instructions per cycle from the
//!   active private-cache bank into the pre-decode buffer; fetch stops at
//!   a control transfer (no speculation: deterministic operation supply);
//! * **pre-decode / dispatch** — quantum instructions at the buffer front
//!   are grouped by timing label (head + following zero-label
//!   instructions) and dispatched to up to `quantum_pipes` pipelines in
//!   one cycle; leftover group members are buffered and *recombined* the
//!   next cycle; one classical instruction per cycle may dispatch, with
//!   *lookahead* past buffered quantum instructions so branch latency is
//!   absorbed;
//! * **timing queue / controller** — dispatched operations carry an
//!   absolute issue cycle built from their timing labels; the controller
//!   releases them to the emitter exactly on time and records lateness
//!   when the pipeline fell behind;
//! * **MRCE context unit** — simple feedback control parks in a context
//!   store; when the measurement result lands, a 3-cycle context switch
//!   issues the selected conditional operation.

use crate::devices::{AwgBank, ChannelMap, Daq, MeasurementFile};
use crate::icache::PrivateICache;
use crate::report::{ProcessorStats, StepDispatch};
use crate::{backend::QpuBackend, config::QuapeConfig};
use quape_isa::{
    BlockId, ClassicalOp, CondOp, Cycles, Instruction, Program, QuantumOp, Qubit, REG_COUNT,
};
use quape_qpu::IssuedOp;
use rand::rngs::SmallRng;
use rand::Rng;
use std::ops::Range;

/// Mutable machine state a processor touches during its tick.
pub(crate) struct Env<'a> {
    pub cfg: &'a QuapeConfig,
    pub program: &'a Program,
    pub mrr: &'a mut MeasurementFile,
    pub daq: &'a mut Daq,
    pub awg: &'a mut AwgBank,
    pub qpu: &'a mut dyn QpuBackend,
    pub chan: &'a ChannelMap,
    pub rng: &'a mut SmallRng,
    pub shared_regs: &'a mut [i32; quape_isa::SHARED_REG_COUNT],
    pub step_dispatches: &'a mut crate::machine::EventSink<StepDispatch>,
    pub wait_cycles: &'a mut crate::machine::EventSink<u64>,
    /// The issued stream: every operation sent to the QPU, with its issue
    /// time (recorded in full reports and on a replay-recording shot).
    pub issued: &'a mut crate::machine::EventSink<IssuedOp>,
    /// Operations sent to the QPU, counted in every report mode.
    pub issued_ops: &'a mut u64,
    pub late_issues: &'a mut u64,
    pub late_cycles: &'a mut u64,
    pub measurements: &'a mut Vec<crate::machine::MeasurementRecord>,
    pub halt: &'a mut bool,
    pub error: &'a mut bool,
    /// Set when an issue scheduled a readout, which may have moved the
    /// DAQ's next delivery: the lowered loop refreshes its cached horizon
    /// then, and only then.
    pub readout_scheduled: bool,
}

impl Env<'_> {
    /// Issues an operation to the analog front end at `cycle`.
    fn issue(&mut self, cycle: u64, op: QuantumOp) {
        let t_ns = cycle * self.cfg.clock_ns;
        self.awg.emit(self.chan, t_ns, &op);
        self.apply(t_ns, op);
    }

    /// [`Env::issue`] with the waveform codeword and nominal duration
    /// pre-resolved at lowering time (micro-op fast path). Observable
    /// behavior — AWG triggers, the issue record, QPU application, RNG
    /// draw order, DAQ scheduling — is identical to [`Env::issue`].
    pub(crate) fn issue_pre(&mut self, cycle: u64, op: QuantumOp, waveform: u16, dur_ns: u64) {
        let t_ns = cycle * self.cfg.clock_ns;
        self.awg.emit_pre(self.chan, t_ns, &op, waveform, dur_ns);
        self.apply(t_ns, op);
    }

    /// The QPU side shared by both issue paths: the one place an issued
    /// operation is recorded and counted, then the backend call and, for
    /// a measurement, the readout. Consumes one RNG draw per measurement
    /// when DAQ jitter is configured, so it must run in issue order.
    fn apply(&mut self, t_ns: u64, op: QuantumOp) {
        *self.issued_ops += 1;
        self.issued.push(IssuedOp { time_ns: t_ns, op });
        if let (QuantumOp::Measure(q), Some(value)) = (op, self.qpu.apply(t_ns, op)) {
            route_readout(self.cfg, self.chan, self.rng, self.daq, t_ns, q, value);
            self.readout_scheduled = true;
            self.measurements.push(crate::machine::MeasurementRecord {
                time_ns: t_ns,
                qubit: q,
                value,
            });
        }
    }
}

/// Sends the readout of a measurement issued at `t_ns` through the DAQ
/// and returns its delivery time. Consumes one `rng` draw when DAQ jitter
/// is configured, so calls must come in issue order.
#[inline]
fn route_readout(
    cfg: &QuapeConfig,
    chan: &ChannelMap,
    rng: &mut SmallRng,
    daq: &mut Daq,
    t_ns: u64,
    q: Qubit,
    value: bool,
) -> u64 {
    // The readout pulse ends at `ready_ns`; the result then runs through
    // the demod pipeline of the qubit's readout line (bounded
    // concurrency — contention delays the delivery).
    let ready_ns = t_ns + cfg.timings.readout_pulse_ns;
    let demod_ns = draw_demod_ns(cfg, rng);
    daq.schedule_readout(chan.readout_line(q), q, value, ready_ns, demod_ns)
}

/// One readout's demodulation + integration + thresholding time: the
/// DAQ's base latency plus a jitter draw from `rng` (no draw without
/// jitter). Shared by the issue paths and by shot replay, so the jitter
/// stream is the same on both.
#[inline]
pub(crate) fn draw_demod_ns(cfg: &QuapeConfig, rng: &mut SmallRng) -> u64 {
    let jitter = if cfg.daq_jitter_ns == 0 {
        0
    } else {
        rng.gen_range(0..=cfg.daq_jitter_ns)
    };
    cfg.daq_base_ns + jitter
}

/// The per-processor surface the generic scheduler and shot core drive.
///
/// Two implementations exist: the reference [`Processor`], which walks
/// [`Instruction`] words out of its icache banks, and the lowered fast
/// path's [`FastProcessor`](crate::fast::FastProcessor), which walks the
/// pre-decoded micro-ops of a
/// [`LoweredProgram`](quape_isa::LoweredProgram). `Code` is the compiled
/// artifact cache fills read block ranges from: the [`Program`] for the
/// reference core, the `LoweredProgram` for the fast one.
pub(crate) trait ProcessorCore {
    /// Compiled artifact the instruction-cache fill engine reads.
    type Code: ?Sized + Send + Sync;

    /// Advances the processor by one clock cycle (see [`Processor::tick`]).
    fn tick(&mut self, cycle: u64, env: &mut Env<'_>) -> bool;
    /// True when no block is assigned and nothing is in flight.
    fn is_idle(&self) -> bool;
    /// True when the timing queue or context store still holds work.
    fn has_pending_work(&self) -> bool;
    /// True while a done-notification awaits the scheduler.
    fn finished_pending(&self) -> bool;
    /// Takes the pending done-notification, if any.
    fn take_finished(&mut self) -> Option<BlockId>;
    /// The block currently executing (or being switched to).
    fn current_block(&self) -> Option<BlockId>;
    /// True when a cache bank is free for a prefetch fill.
    fn has_free_bank(&self) -> bool;
    /// Pre-task initial load: installs `block` into the active bank.
    fn install_initial(&mut self, block: BlockId, code: &Self::Code);
    /// Installs `block` into the active bank and runs it immediately.
    fn load_and_run(&mut self, block: BlockId, code: &Self::Code, now: u64);
    /// Installs `block` into the free bank. False when none is free.
    fn prefetch_block(&mut self, block: BlockId, code: &Self::Code) -> bool;
    /// Switches to a prefetched block. False when it is not resident.
    fn start_prefetched(&mut self, block: BlockId, switch_cycles: u64, now: u64) -> bool;
    /// Drops a prefetched block (never the one in execution).
    fn discard_prefetched(&mut self, block: BlockId);
    /// The processor's accumulated statistics.
    fn stats(&self) -> &ProcessorStats;
}

/// The address range of `block` in `program`'s block table.
fn block_range(program: &Program, block: BlockId) -> Range<u32> {
    program
        .blocks()
        .get(block)
        .expect("the scheduler only loads blocks of its own table")
        .range
        .clone()
}

impl ProcessorCore for Processor {
    type Code = Program;

    fn tick(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        Processor::tick(self, cycle, env)
    }

    fn is_idle(&self) -> bool {
        Processor::is_idle(self)
    }

    fn has_pending_work(&self) -> bool {
        Processor::has_pending_work(self)
    }

    fn finished_pending(&self) -> bool {
        Processor::finished_pending(self)
    }

    fn take_finished(&mut self) -> Option<BlockId> {
        Processor::take_finished(self)
    }

    fn current_block(&self) -> Option<BlockId> {
        Processor::current_block(self)
    }

    fn has_free_bank(&self) -> bool {
        self.icache.free_bank().is_some()
    }

    fn install_initial(&mut self, block: BlockId, code: &Self::Code) {
        self.icache.install_active(block, block_range(code, block));
    }

    fn load_and_run(&mut self, block: BlockId, code: &Self::Code, now: u64) {
        Processor::load_and_run(self, block, block_range(code, block), now);
    }

    fn prefetch_block(&mut self, block: BlockId, code: &Self::Code) -> bool {
        Processor::prefetch_block(self, block, block_range(code, block))
    }

    fn start_prefetched(&mut self, block: BlockId, switch_cycles: u64, now: u64) -> bool {
        Processor::start_prefetched(self, block, switch_cycles, now)
    }

    fn discard_prefetched(&mut self, block: BlockId) {
        Processor::discard_prefetched(self, block);
    }

    fn stats(&self) -> &ProcessorStats {
        &self.stats
    }
}

/// A stored simple-feedback context (§5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoredContext {
    qubit: Qubit,
    target: Qubit,
    op_if_one: CondOp,
    op_if_zero: CondOp,
}

/// Execution state of the processor. Countdown states carry absolute
/// deadlines (cycle numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// No block assigned.
    Idle,
    /// Switching onto a prefetched cache bank; runs normally from cycle
    /// `until` onward.
    Switching { until: u64 },
    /// Executing the current block.
    Running,
    /// Performing an MRCE context switch; the conditional op (if any)
    /// issues during cycle `fires_at`, and the processor returns to
    /// `Running` or `Idle` depending on where it was interrupted.
    ContextSwitch {
        fires_at: u64,
        op: Option<QuantumOp>,
        resume_idle: bool,
    },
    /// Stopped by HALT or an execution error.
    Halted,
}

/// An entry of the timing queue.
#[derive(Debug, Clone, Copy)]
struct TimedOp {
    issue_cycle: u64,
    op: QuantumOp,
}

/// A buffered, pre-decoded instruction.
#[derive(Debug, Clone, Copy)]
struct Slot {
    addr: u32,
    instr: Instruction,
}

/// One processing unit of the multiprocessor.
#[derive(Debug)]
pub struct Processor {
    id: usize,
    regs: [i32; REG_COUNT],
    flag_zero: bool,
    flag_neg: bool,
    call_stack: Vec<u32>,
    icache: PrivateICache,
    pc: u32,
    state: State,
    buffer: std::collections::VecDeque<Slot>,
    fetch_blocked: bool,
    /// Absolute cycle of the most recent quantum-operation issue slot.
    timeline: u64,
    /// False right after a block start or a synchronization point: the
    /// next quantum group re-anchors the timeline instead of counting as
    /// late (the compiler cannot pre-schedule across those boundaries).
    timeline_anchored: bool,
    tqueue: std::collections::VecDeque<TimedOp>,
    contexts: Vec<StoredContext>,
    current_block: Option<BlockId>,
    finished_block: Option<BlockId>,
    pub(crate) stats: ProcessorStats,
}

impl Processor {
    /// Creates an idle processor with an `icache_banks`-bank cache.
    pub fn new(id: usize, icache_banks: usize) -> Self {
        Processor {
            id,
            regs: [0; REG_COUNT],
            flag_zero: false,
            flag_neg: false,
            call_stack: Vec::new(),
            icache: PrivateICache::new(icache_banks),
            pc: 0,
            state: State::Idle,
            buffer: std::collections::VecDeque::new(),
            fetch_blocked: false,
            timeline: 0,
            timeline_anchored: false,
            tqueue: std::collections::VecDeque::new(),
            contexts: Vec::new(),
            current_block: None,
            finished_block: None,
            stats: ProcessorStats::default(),
        }
    }

    /// Processor index.
    #[allow(dead_code)] // diagnostic accessor
    pub fn id(&self) -> usize {
        self.id
    }

    /// True when no block is assigned and nothing is in flight.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, State::Idle)
    }

    /// True when the timing queue has undelivered operations or contexts
    /// are still parked.
    pub fn has_pending_work(&self) -> bool {
        !self.tqueue.is_empty() || !self.contexts.is_empty()
    }

    /// The block currently executing (or being switched to).
    pub fn current_block(&self) -> Option<BlockId> {
        self.current_block
    }

    /// Takes the done-notification for the scheduler, if one is pending.
    pub fn take_finished(&mut self) -> Option<BlockId> {
        self.finished_block.take()
    }

    /// True while a done-notification awaits the scheduler (consuming it
    /// records a block event, so it counts as progress).
    pub fn finished_pending(&self) -> bool {
        self.finished_block.is_some()
    }

    /// Starts executing `block`, whose instructions are resident in
    /// `bank`. `switch_cycles = 0` starts immediately (used by the ideal
    /// scheduler and for the pre-task initial load).
    pub(crate) fn start_block(
        &mut self,
        block: BlockId,
        bank: usize,
        switch_cycles: u64,
        now: u64,
    ) {
        self.icache.switch_to(bank);
        let base = self.icache.active().base();
        self.pc = base;
        self.current_block = Some(block);
        self.buffer.clear();
        self.fetch_blocked = false;
        self.timeline = self.timeline.max(now + switch_cycles);
        self.timeline_anchored = false;
        self.state = if switch_cycles == 0 {
            State::Running
        } else {
            State::Switching {
                until: now + switch_cycles,
            }
        };
    }

    /// Installs a block into the active bank and runs it (on-demand
    /// allocation path; the fill latency was modeled by the scheduler's
    /// busy period).
    pub(crate) fn load_and_run(&mut self, block: BlockId, range: Range<u32>, now: u64) {
        self.icache.retire_active();
        self.icache.install_active(block, range);
        let active = self.icache.bank_of(block).expect("just installed");
        self.start_block(block, active, 0, now);
    }

    /// Installs a block into the free cache bank (prefetch). Returns
    /// false when no bank is free.
    pub(crate) fn prefetch_block(&mut self, block: BlockId, range: Range<u32>) -> bool {
        match self.icache.free_bank() {
            Some(bank) => {
                self.icache.install(bank, block, range);
                true
            }
            None => false,
        }
    }

    /// Switches to a previously prefetched block. Returns false when the
    /// block is not resident.
    pub(crate) fn start_prefetched(
        &mut self,
        block: BlockId,
        switch_cycles: u64,
        now: u64,
    ) -> bool {
        match self.icache.bank_of(block) {
            Some(bank) => {
                self.start_block(block, bank, switch_cycles, now);
                true
            }
            None => false,
        }
    }

    /// Drops a prefetched block from its bank (the scheduler decided to
    /// run it elsewhere). Never evicts the block in execution.
    pub(crate) fn discard_prefetched(&mut self, block: BlockId) {
        if self.current_block != Some(block) {
            self.icache.evict(block);
        }
    }

    fn finish_block(&mut self) {
        self.stats.blocks_completed += 1;
        self.finished_block = self.current_block.take();
        self.buffer.clear();
        self.fetch_blocked = false;
        self.state = State::Idle;
        self.icache.retire_active();
    }

    fn fail(&mut self, env: &mut Env<'_>) {
        *env.error = true;
        self.state = State::Halted;
    }

    /// Advances the processor by one clock cycle.
    ///
    /// Returns a *progress hint*: `false` means the tick observably did
    /// nothing (a stall or idle cycle), so the run loop's stop conditions
    /// cannot have changed. A conservative `true` is always safe.
    pub(crate) fn tick(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        let mut progress = self.tick_timing_controller(cycle, env);

        match self.state {
            State::Halted => return progress,
            State::Switching { until } => {
                if cycle < until {
                    return progress;
                }
                // Switch complete: this cycle already runs normally.
                self.state = State::Running;
                progress = true;
            }
            State::ContextSwitch {
                fires_at,
                op,
                resume_idle,
            } => {
                if cycle < fires_at {
                    return progress;
                }
                if let Some(op) = op {
                    self.enqueue_quantum(cycle, Cycles::ZERO, op, None, env, true);
                }
                self.state = if resume_idle {
                    State::Idle
                } else {
                    State::Running
                };
                return true;
            }
            State::Idle | State::Running => {}
        }

        // MRCE context unit: a resolved context triggers the 3-cycle
        // switch before any dispatch this cycle. The unit keeps watching
        // even after the block finished (the result may arrive late).
        if let Some(pos) = self.contexts.iter().position(|c| env.mrr.is_valid(c.qubit)) {
            progress = true;
            let ctx = self.contexts.remove(pos);
            let chosen = if env.mrr.read(ctx.qubit).value {
                ctx.op_if_one
            } else {
                ctx.op_if_zero
            };
            let op = chosen.gate().map(|g| QuantumOp::Gate1(g, ctx.target));
            self.stats.context_switches += 1;
            let resume_idle = matches!(self.state, State::Idle);
            if env.cfg.context_switch_cycles == 0 {
                if let Some(op) = op {
                    self.enqueue_quantum(cycle, Cycles::ZERO, op, None, env, true);
                }
            } else {
                self.state = State::ContextSwitch {
                    fires_at: cycle + env.cfg.context_switch_cycles,
                    op,
                    resume_idle,
                };
                return true;
            }
        }
        if matches!(self.state, State::Idle) {
            return progress;
        }

        let dispatched = self.dispatch(cycle, env);
        let mut fetched = false;
        if matches!(self.state, State::Running) {
            let buffered = self.buffer.len();
            self.fetch(env);
            // Supplied instructions, or the implicit end-of-block STOP.
            fetched = self.buffer.len() != buffered || !matches!(self.state, State::Running);
        }
        if dispatched {
            self.stats.active_cycles += 1;
        }
        progress || dispatched || fetched
    }

    /// Releases due operations from the timing queue to the emitter.
    /// Returns true if anything issued.
    fn tick_timing_controller(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        let mut issued = false;
        while let Some(front) = self.tqueue.front() {
            if front.issue_cycle > cycle {
                break;
            }
            let t = self.tqueue.pop_front().expect("checked front");
            env.issue(t.issue_cycle, t.op);
            issued = true;
        }
        issued
    }

    /// Computes the issue slot for a quantum group and pushes it into the
    /// timing queue. `catch_up` issues "as soon as possible" (used by
    /// MRCE conditionals).
    fn enqueue_quantum(
        &mut self,
        cycle: u64,
        label: Cycles,
        op: QuantumOp,
        step_addr: Option<u32>,
        env: &mut Env<'_>,
        catch_up: bool,
    ) {
        // +1: dispatch-to-issue latency of the quantum pipeline.
        let earliest = cycle + 1;
        let issue_cycle = if catch_up {
            // Out-of-band operation (MRCE conditional): issues as soon as
            // possible, independent of the pre-scheduled timeline.
            earliest
        } else if !self.timeline_anchored {
            // First group after a block start / sync point: anchors the
            // timeline, never counts as late.
            (self.timeline + u64::from(label.count())).max(earliest)
        } else {
            let scheduled = self.timeline + u64::from(label.count());
            if scheduled < earliest {
                *env.late_issues += 1;
                *env.late_cycles += earliest - scheduled;
                earliest
            } else {
                scheduled
            }
        };
        if !catch_up {
            self.timeline = issue_cycle;
            self.timeline_anchored = true;
        }
        if let QuantumOp::Measure(q) = op {
            // Invalidate at dispatch so a following FMR cannot read the
            // previous, stale result.
            env.mrr.invalidate(q);
        }
        // Keep the queue ordered by issue time: out-of-band operations may
        // be earlier than already-queued pre-scheduled ones.
        let pos = self
            .tqueue
            .iter()
            .rposition(|t| t.issue_cycle <= issue_cycle)
            .map_or(0, |p| p + 1);
        self.tqueue.insert(pos, TimedOp { issue_cycle, op });
        self.stats.dispatched_quantum += 1;
        env.step_dispatches.push(StepDispatch {
            cycle,
            step: step_addr.and_then(|a| env.program.step_of(a as usize)),
            processor: self.id,
        });
    }

    /// True if dispatching `op` must wait for a stored context touching
    /// the same qubits.
    fn conflicts_with_context(&self, op: &QuantumOp) -> bool {
        op.qubits()
            .any(|q| self.contexts.iter().any(|c| c.qubit == q || c.target == q))
    }

    /// Dispatch stage. Returns true if any instruction left the buffer.
    fn dispatch(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        let mut any = false;

        // ---- Quantum dispatch: group at the buffer front. ----
        if let Some(front) = self.buffer.front().copied() {
            match front.instr {
                Instruction::Classical(ClassicalOp::Qwait { cycles }) => {
                    // QWAIT advances the timeline in quantum program order.
                    self.timeline += u64::from(cycles.count());
                    self.buffer.pop_front();
                    self.stats.dispatched_classical += 1;
                    any = true;
                }
                Instruction::Quantum(head) => {
                    if self.conflicts_with_context(&head.op) {
                        self.stats.context_dependency_stalls += 1;
                    } else {
                        // Group: head + following zero-label quantum
                        // instructions, up to the pipe count, stopping at
                        // any context conflict. Members are popped and
                        // enqueued one at a time (group membership does
                        // not depend on the enqueues), so no group buffer
                        // is materialized on this per-dispatch hot path.
                        self.buffer.pop_front();
                        self.enqueue_quantum(
                            cycle,
                            head.timing,
                            head.op,
                            Some(front.addr),
                            env,
                            false,
                        );
                        let mut grouped = 1;
                        while grouped < env.cfg.quantum_pipes {
                            match self.buffer.front() {
                                Some(slot) => match slot.instr {
                                    Instruction::Quantum(q)
                                        if q.timing == Cycles::ZERO
                                            && !self.conflicts_with_context(&q.op) =>
                                    {
                                        let addr = slot.addr;
                                        self.buffer.pop_front();
                                        self.enqueue_quantum(
                                            cycle,
                                            Cycles::ZERO,
                                            q.op,
                                            Some(addr),
                                            env,
                                            false,
                                        );
                                        grouped += 1;
                                    }
                                    _ => break,
                                },
                                None => break,
                            }
                        }
                        any = true;
                    }
                }
                Instruction::Classical(_) => {}
            }
        }

        // ---- Classical dispatch with lookahead. ----
        // Find the first classical instruction; it may bypass buffered
        // quantum instructions unless bypass is illegal for it.
        let mut idx = None;
        for (i, slot) in self.buffer.iter().enumerate() {
            if let Instruction::Classical(op) = slot.instr {
                if matches!(op, ClassicalOp::Qwait { .. }) {
                    // QWAIT lives in the quantum stream; classical
                    // instructions may bypass it, keep scanning.
                    continue;
                }
                let needs_front = matches!(op, ClassicalOp::Stop | ClassicalOp::Halt)
                    || (matches!(op, ClassicalOp::Fmr { .. } | ClassicalOp::Mrce { .. })
                        && self.buffer.iter().take(i).any(|s| {
                            matches!(
                                s.instr,
                                Instruction::Quantum(q) if q.op.is_measure()
                            )
                        }));
                if needs_front && i != 0 {
                    // Must wait until it reaches the buffer front.
                    break;
                }
                idx = Some(i);
                break;
            }
        }
        if let Some(i) = idx {
            let slot = self.buffer[i];
            if let Instruction::Classical(op) = slot.instr {
                let consumed = self.execute_classical(cycle, slot.addr, op, i, env);
                if consumed {
                    any = true;
                }
            }
        }
        any
    }

    /// Executes one classical instruction. Returns false when the
    /// instruction stalled (stays in the buffer).
    fn execute_classical(
        &mut self,
        cycle: u64,
        addr: u32,
        op: ClassicalOp,
        buf_index: usize,
        env: &mut Env<'_>,
    ) -> bool {
        use ClassicalOp as C;
        let mut taken_target: Option<u32> = None;
        match op {
            C::Nop => {}
            C::Stop => {
                // A block is only done once its queued operations have
                // issued and its feedback contexts resolved; otherwise a
                // dependent block could race the in-flight operations.
                if !self.tqueue.is_empty() || !self.contexts.is_empty() {
                    return false;
                }
                self.stats.dispatched_classical += 1;
                self.finish_block();
                return true;
            }
            C::Halt => {
                self.stats.dispatched_classical += 1;
                *env.halt = true;
                self.state = State::Halted;
                return true;
            }
            C::Jmp { target } => taken_target = Some(target),
            C::Br { cond, target } => {
                if cond.eval(self.flag_zero, self.flag_neg) {
                    taken_target = Some(target);
                }
            }
            C::Call { target } => {
                self.call_stack.push(addr + 1);
                taken_target = Some(target);
            }
            C::Ret => match self.call_stack.pop() {
                Some(ret) => taken_target = Some(ret),
                None => {
                    self.fail(env);
                    return true;
                }
            },
            C::Ldi { rd, imm } => self.regs[rd.index() as usize] = i32::from(imm),
            C::Mov { rd, rs } => self.regs[rd.index() as usize] = self.regs[rs.index() as usize],
            C::Add { rd, rs1, rs2 } => {
                let v =
                    self.regs[rs1.index() as usize].wrapping_add(self.regs[rs2.index() as usize]);
                self.write_alu(rd.index(), v);
            }
            C::Addi { rd, rs, imm } => {
                let v = self.regs[rs.index() as usize].wrapping_add(i32::from(imm));
                self.write_alu(rd.index(), v);
            }
            C::Sub { rd, rs1, rs2 } => {
                let v =
                    self.regs[rs1.index() as usize].wrapping_sub(self.regs[rs2.index() as usize]);
                self.write_alu(rd.index(), v);
            }
            C::And { rd, rs1, rs2 } => {
                let v = self.regs[rs1.index() as usize] & self.regs[rs2.index() as usize];
                self.write_alu(rd.index(), v);
            }
            C::Or { rd, rs1, rs2 } => {
                let v = self.regs[rs1.index() as usize] | self.regs[rs2.index() as usize];
                self.write_alu(rd.index(), v);
            }
            C::Xor { rd, rs1, rs2 } => {
                let v = self.regs[rs1.index() as usize] ^ self.regs[rs2.index() as usize];
                self.write_alu(rd.index(), v);
            }
            C::Not { rd, rs } => {
                let v = !self.regs[rs.index() as usize];
                self.write_alu(rd.index(), v);
            }
            C::Cmp { rs1, rs2 } => {
                let v =
                    self.regs[rs1.index() as usize].wrapping_sub(self.regs[rs2.index() as usize]);
                self.set_flags(v);
            }
            C::Cmpi { rs, imm } => {
                let v = self.regs[rs.index() as usize].wrapping_sub(i32::from(imm));
                self.set_flags(v);
            }
            C::Fmr { rd, qubit } => {
                let entry = env.mrr.read(qubit);
                if !entry.valid {
                    // Stage I/II synchronization stall: stays in buffer.
                    self.stats.measure_wait_cycles += 1;
                    env.wait_cycles.push(cycle);
                    return false;
                }
                self.regs[rd.index() as usize] = i32::from(entry.value);
                // FMR is a synchronization point: the wait duration was
                // unknowable at compile time, so the quantum timeline
                // re-anchors at the next issued group.
                self.timeline_anchored = false;
            }
            C::Qwait { .. } => unreachable!("QWAIT handled in the quantum stream"),
            C::Lds { rd, sreg } => {
                self.regs[rd.index() as usize] = env.shared_regs[sreg.index() as usize];
            }
            C::Sts { sreg, rs } => {
                env.shared_regs[sreg.index() as usize] = self.regs[rs.index() as usize];
            }
            C::Mrce {
                qubit,
                target,
                op_if_one,
                op_if_zero,
            } => {
                let entry = env.mrr.read(qubit);
                if entry.valid {
                    let chosen = if entry.value { op_if_one } else { op_if_zero };
                    if let Some(g) = chosen.gate() {
                        self.enqueue_quantum(
                            cycle,
                            Cycles::ZERO,
                            QuantumOp::Gate1(g, target),
                            None,
                            env,
                            true,
                        );
                    }
                } else if env.cfg.fast_context_switch {
                    if self.contexts.len() >= env.cfg.context_capacity {
                        self.stats.measure_wait_cycles += 1;
                        env.wait_cycles.push(cycle);
                        return false; // context store full: stall
                    }
                    self.contexts.push(StoredContext {
                        qubit,
                        target,
                        op_if_one,
                        op_if_zero,
                    });
                } else {
                    // Fast context switch disabled: stall like FMR.
                    self.stats.measure_wait_cycles += 1;
                    env.wait_cycles.push(cycle);
                    return false;
                }
            }
        }
        self.stats.dispatched_classical += 1;
        self.buffer.remove(buf_index);
        if let Some(target) = taken_target {
            self.stats.branches_taken += 1;
            self.redirect(target, env);
        } else if op.is_control_flow() {
            // Untaken branch: fetch resumes at the fall-through PC.
            self.fetch_blocked = false;
        }
        true
    }

    fn write_alu(&mut self, rd: u8, v: i32) {
        self.regs[rd as usize] = v;
        self.set_flags(v);
    }

    fn set_flags(&mut self, v: i32) {
        self.flag_zero = v == 0;
        self.flag_neg = v < 0;
    }

    /// Redirects fetch after a taken control transfer.
    fn redirect(&mut self, target: u32, env: &mut Env<'_>) {
        // No speculation: only instructions up to the transfer were ever
        // buffered, so nothing needs squashing — but any not-yet
        // dispatched younger entries (quantum instructions the transfer
        // bypassed) must be preserved. By construction the transfer was
        // the only classical instruction dispatched this cycle and fetch
        // was blocked, so the buffer holds only *older* instructions.
        self.pc = target;
        self.fetch_blocked = false;
        if !self.icache.active().contains(target) {
            // Transfer outside the resident block: unsupported (the
            // compiler keeps control flow block-local).
            self.fail(env);
        }
    }

    /// Fetch stage: refills the pre-decode buffer.
    fn fetch(&mut self, env: &mut Env<'_>) {
        if self.fetch_blocked {
            return;
        }
        let free = env.cfg.predecode_buffer.saturating_sub(self.buffer.len());
        let n = free.min(env.cfg.fetch_width);
        for _ in 0..n {
            match self.icache.fetch(self.pc, env.program) {
                Some(&instr) => {
                    self.buffer.push_back(Slot {
                        addr: self.pc,
                        instr,
                    });
                    self.pc += 1;
                    if let Instruction::Classical(op) = instr {
                        if op.is_control_flow() {
                            // Deterministic supply: never fetch past an
                            // unresolved control transfer.
                            self.fetch_blocked = true;
                            break;
                        }
                    }
                }
                None => {
                    // Walked past the end of the block: implicit STOP
                    // (subject to the same drain conditions as STOP).
                    if self.buffer.is_empty() && self.tqueue.is_empty() && self.contexts.is_empty()
                    {
                        self.finish_block();
                    }
                    break;
                }
            }
        }
    }
}
