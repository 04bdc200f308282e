//! The `StepMode::Lowered` fast-path processor.
//!
//! [`FastProcessor`] is a cycle-exact port of [`Processor`] that walks the
//! pre-decoded micro-ops of a [`LoweredProgram`] instead of layered
//! [`quape_isa::Instruction`] words:
//!
//! * dispatch-stage predicates (quantum? `QWAIT`? needs the buffer front?
//!   synchronizes on a measure?) are single bit tests on the flags byte a
//!   fetch slot caches, instead of nested enum matches;
//! * quantum issues carry the waveform codeword and pulse duration baked
//!   in at lowering time, so the emit path skips the per-op waveform/
//!   duration derivation ([`crate::processor::Env::issue_pre`]);
//! * the circuit-step index of every dispatch is pre-resolved, replacing
//!   the per-dispatch binary search over the program's step map;
//! * icache banks track `start..end` address ranges into the shared
//!   micro-op array ([`FastBank`]), so bank installs copy two integers
//!   instead of cloning `Arc` slices.
//!
//! Everything observable — counters, event timelines, RNG draw order,
//! stall accounting — matches the reference processor bit for bit; the
//! Cycle-vs-Lowered step-mode equivalence tests and the
//! `debug_assertions` cross-checks in the run loop enforce it.
//!
//! Unlike the reference processor, this one also carries the machinery
//! the lowered run loop uses to cover many cycles per step:
//!
//! * [`StallFlags`] recorded at the stall bump sites, including whether
//!   the tick left the processor provably inert;
//! * the trusted [`FastProcessor::skip_check`], its from-first-principles
//!   verifier [`FastProcessor::stall_info`], and
//!   [`FastProcessor::account_stall_span`] for bulk accounting;
//! * [`FastProcessor::is_dormant`] and [`FastProcessor::is_running`],
//!   which let the loop tick one processor alone over consecutive cycles.
//!
//! The pre-decode buffer keeps its classical-dispatch candidate up to
//! date as slots arrive and leave ([`Predecode`]), so dispatch does not
//! rescan the buffer every cycle.

use crate::config::QuapeConfig;
use crate::devices::{insert_sorted, MeasurementFile};
use crate::processor::{Env, ProcessorCore};
use crate::report::{ProcessorStats, StepDispatch};
use quape_isa::{
    micro_flags as f, BlockId, CondOp, LoweredProgram, MicroOp, MicroWord, QuantumOp, Qubit,
    StepId, REG_COUNT,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// One icache bank of the fast path: a resident block is an address range
/// into the shared micro-op array (mirrors `CacheBank` semantics).
#[derive(Debug, Clone, Copy, Default)]
struct FastBank {
    block: Option<BlockId>,
    start: u32,
    end: u32,
}

impl FastBank {
    fn is_free(&self) -> bool {
        self.block.is_none()
    }

    fn contains(&self, pc: u32) -> bool {
        self.block.is_some() && pc >= self.start && pc < self.end
    }

    fn clear(&mut self) {
        self.block = None;
        self.start = 0;
        self.end = 0;
    }
}

/// A stored simple-feedback context (fast-path copy of `StoredContext`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FastContext {
    qubit: Qubit,
    target: Qubit,
    op_if_one: CondOp,
    op_if_zero: CondOp,
}

/// Execution state (fast-path copy of the reference `State`; absolute
/// deadlines so the time skip can jump over countdowns).
#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Idle,
    Switching {
        until: u64,
    },
    Running,
    ContextSwitch {
        fires_at: u64,
        op: Option<QuantumOp>,
        resume_idle: bool,
    },
    Halted,
}

/// A timing-queue entry with the emission parameters pre-resolved.
#[derive(Debug, Clone, Copy)]
struct FastTimedOp {
    issue_cycle: u64,
    op: QuantumOp,
    waveform: u16,
    dur_ns: u64,
}

/// A buffered fetch slot: address plus the cached classification flags,
/// so lookahead scans never touch the micro-op array.
#[derive(Debug, Clone, Copy)]
struct FastSlot {
    addr: u32,
    flags: u8,
}

/// True for slots of the quantum stream (quantum ops and `QWAIT`), which
/// classical lookahead bypasses.
#[inline]
fn in_quantum_stream(flags: u8) -> bool {
    flags & (f::QUANTUM | f::QWAIT) != 0
}

/// The pre-decode buffer. It keeps its classical-dispatch candidate up to
/// date as slots arrive and leave, so dispatch reads the candidate
/// instead of rescanning the buffer (and the measurements ahead of it)
/// every cycle. Slots enter at the back; the quantum stream leaves from
/// the front, a classical op from wherever the candidate is.
#[derive(Debug, Default)]
struct Predecode {
    slots: VecDeque<FastSlot>,
    /// Index of the first classical slot (outside the quantum stream), or
    /// `slots.len()` when none is buffered.
    first_classical: usize,
    /// Measurements buffered ahead of `first_classical`.
    measures_ahead: usize,
}

impl Predecode {
    fn len(&self) -> usize {
        self.slots.len()
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn front(&self) -> Option<FastSlot> {
        self.slots.front().copied()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.first_classical = 0;
        self.measures_ahead = 0;
    }

    /// True when a classical slot is buffered (the candidate exists).
    fn has_classical(&self) -> bool {
        self.first_classical < self.slots.len()
    }

    fn push_back(&mut self, slot: FastSlot) {
        if !self.has_classical() && in_quantum_stream(slot.flags) {
            self.first_classical += 1;
            self.measures_ahead += usize::from(slot.flags & f::MEASURE != 0);
        }
        self.slots.push_back(slot);
    }

    /// Removes the front slot, which belongs to the quantum stream.
    fn pop_quantum(&mut self) {
        let slot = self.slots.pop_front().expect("a buffered quantum slot");
        debug_assert!(in_quantum_stream(slot.flags));
        self.first_classical -= 1;
        self.measures_ahead -= usize::from(slot.flags & f::MEASURE != 0);
    }

    /// The slot classical dispatch picks, with its index: the first
    /// classical slot, unless it may only dispatch from the front (`STOP`,
    /// `HALT`, or a `SYNC` op behind a buffered measurement) and is not
    /// there.
    fn classical_pick(&self) -> Option<(usize, FastSlot)> {
        let i = self.first_classical;
        let slot = *self.slots.get(i)?;
        let needs_front = slot.flags & f::NEEDS_FRONT != 0
            || (slot.flags & f::SYNC != 0 && self.measures_ahead > 0);
        let pick = (i == 0 || !needs_front).then_some((i, slot));
        debug_assert_eq!(
            pick.map(|(i, _)| i),
            self.scan_pick().map(|(i, _)| i),
            "classical candidate diverged from the buffer scan"
        );
        pick
    }

    /// The buffer scan `classical_pick` keeps up incrementally: the
    /// from-first-principles pick the stall verifier and the
    /// `debug_assertions` cross-check read.
    fn scan_pick(&self) -> Option<(usize, FastSlot)> {
        for (i, slot) in self.slots.iter().enumerate() {
            if in_quantum_stream(slot.flags) {
                continue;
            }
            let needs_front = slot.flags & f::NEEDS_FRONT != 0
                || (slot.flags & f::SYNC != 0
                    && self.slots.iter().take(i).any(|s| s.flags & f::MEASURE != 0));
            return (i == 0 || !needs_front).then_some((i, *slot));
        }
        None
    }

    /// Removes the picked classical slot at `index` and moves the
    /// candidate to the next classical slot behind it. Each quantum slot
    /// is walked past once, so this is O(1) amortized.
    fn remove_pick(&mut self, index: usize) {
        debug_assert_eq!(index, self.first_classical);
        if index == 0 {
            self.slots.pop_front();
        } else {
            self.slots.remove(index);
        }
        let mut next = index;
        while let Some(slot) = self.slots.get(next) {
            if !in_quantum_stream(slot.flags) {
                break;
            }
            self.measures_ahead += usize::from(slot.flags & f::MEASURE != 0);
            next += 1;
        }
        self.first_classical = next;
    }
}

/// Per-cycle stall counters the last tick bumped, recorded at the bump
/// sites so the run loop's time skip can replicate them in bulk without
/// re-deriving the dispatch decision.
#[derive(Debug, Clone, Copy, Default)]
struct StallFlags {
    /// Bumped `measure_wait_cycles` and recorded a wait cycle.
    measure_wait: bool,
    /// Bumped `context_dependency_stalls`.
    context_stall: bool,
    /// Until a clocked event (a timing-queue head, a countdown deadline)
    /// or an external one (a DAQ delivery, a scheduler action) arrives,
    /// every later tick repeats this one minus its progress: no issue, no
    /// dispatch, no fetch, no transition, the same counter bumps. True
    /// after a tick that made no progress, and after one that entered a
    /// countdown or left the processor stalled with nothing to fetch (see
    /// [`FastProcessor::tick`]).
    inert: bool,
}

/// Verdict of [`FastProcessor::stall_info`]: the processor provably does
/// nothing this cycle except the flagged per-cycle counter bumps, until
/// `horizon` (or an external event) arrives.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StallInfo {
    /// Earliest future cycle at which this processor itself acts
    /// (timing-queue head, switch deadline). `None`: externally driven.
    pub horizon: Option<u64>,
    /// Stalled on an invalid measurement result (FMR / blocked MRCE):
    /// bumps `measure_wait_cycles` and records one wait-cycle per cycle.
    pub measure_wait: bool,
    /// Quantum dispatch blocked by a parked MRCE context on the same
    /// qubits: bumps `context_dependency_stalls` per cycle.
    pub context_stall: bool,
}

impl StallInfo {
    fn merge_horizon(&mut self, at: u64) {
        self.horizon = Some(self.horizon.map_or(at, |h| h.min(at)));
    }
}

/// The lowered-program processing unit. See the module docs.
#[derive(Debug)]
pub(crate) struct FastProcessor {
    id: usize,
    ops: Arc<LoweredProgram>,
    regs: [i32; REG_COUNT],
    flag_zero: bool,
    flag_neg: bool,
    call_stack: Vec<u32>,
    banks: Vec<FastBank>,
    active: usize,
    pc: u32,
    state: State,
    buffer: Predecode,
    fetch_blocked: bool,
    timeline: u64,
    timeline_anchored: bool,
    tqueue: VecDeque<FastTimedOp>,
    contexts: Vec<FastContext>,
    current_block: Option<BlockId>,
    finished_block: Option<BlockId>,
    stall_flags: StallFlags,
    stats: ProcessorStats,
}

impl FastProcessor {
    /// Creates an idle fast processor over the shared micro-op array with
    /// an `icache_banks`-bank block cache.
    pub(crate) fn new(id: usize, ops: Arc<LoweredProgram>, icache_banks: usize) -> Self {
        FastProcessor {
            id,
            ops,
            regs: [0; REG_COUNT],
            flag_zero: false,
            flag_neg: false,
            call_stack: Vec::new(),
            banks: vec![FastBank::default(); icache_banks],
            active: 0,
            pc: 0,
            state: State::Idle,
            buffer: Predecode::default(),
            fetch_blocked: false,
            timeline: 0,
            timeline_anchored: false,
            tqueue: VecDeque::new(),
            contexts: Vec::new(),
            current_block: None,
            finished_block: None,
            stall_flags: StallFlags::default(),
            stats: ProcessorStats::default(),
        }
    }

    /// Returns the processor to its just-constructed state, keeping the
    /// buffer/queue/stack allocations (the arena-reuse twin of
    /// [`FastProcessor::new`]; `id` and the shared micro-op array
    /// survive).
    pub(crate) fn reset(&mut self) {
        self.regs = [0; REG_COUNT];
        self.flag_zero = false;
        self.flag_neg = false;
        self.call_stack.clear();
        self.banks.fill(FastBank::default());
        self.active = 0;
        self.pc = 0;
        self.state = State::Idle;
        self.buffer.clear();
        self.fetch_blocked = false;
        self.timeline = 0;
        self.timeline_anchored = false;
        self.tqueue.clear();
        self.contexts.clear();
        self.current_block = None;
        self.finished_block = None;
        self.stall_flags = StallFlags::default();
        self.stats = ProcessorStats::default();
    }

    /// Copies out the micro-op at `addr` (micro-ops are small and `Copy`).
    #[inline]
    fn micro(&self, addr: u32) -> MicroOp {
        self.ops.ops()[addr as usize]
    }

    /// True when the active bank holds `pc` (mirror of `icache.fetch()`).
    #[inline]
    fn active_contains(&self, pc: u32) -> bool {
        self.banks[self.active].contains(pc)
    }

    fn free_bank(&self) -> Option<usize> {
        (0..self.banks.len()).find(|&i| i != self.active && self.banks[i].is_free())
    }

    fn bank_of(&self, block: BlockId) -> Option<usize> {
        self.banks.iter().position(|b| b.block == Some(block))
    }

    fn install(&mut self, bank: usize, block: BlockId, start: u32, end: u32) {
        self.banks[bank] = FastBank {
            block: Some(block),
            start,
            end,
        };
    }

    fn switch_to(&mut self, bank: usize) {
        if bank != self.active {
            self.banks[self.active].clear();
            self.active = bank;
        }
    }

    fn retire_active(&mut self) {
        self.banks[self.active].clear();
    }

    fn evict(&mut self, block: BlockId) {
        for bank in &mut self.banks {
            if bank.block == Some(block) {
                bank.clear();
            }
        }
    }

    fn start_block(&mut self, block: BlockId, bank: usize, switch_cycles: u64, now: u64) {
        self.switch_to(bank);
        self.pc = self.banks[self.active].start;
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

    fn finish_block(&mut self) {
        self.stats.blocks_completed += 1;
        self.finished_block = self.current_block.take();
        self.buffer.clear();
        self.fetch_blocked = false;
        self.state = State::Idle;
        self.retire_active();
    }

    fn fail(&mut self, env: &mut Env<'_>) {
        *env.error = true;
        self.state = State::Halted;
    }

    /// Enqueues an MRCE conditional "as soon as possible", deriving its
    /// emission parameters on the spot (cold path: context resolutions
    /// are rare relative to dispatches).
    fn enqueue_catch_up(&mut self, cycle: u64, op: QuantumOp, env: &mut Env<'_>) {
        let waveform = quape_isa::waveform_index(&op);
        let dur_ns = env.cfg.timings.duration_of(&op);
        self.enqueue_quantum(cycle, 0, op, waveform, dur_ns, MicroOp::NO_STEP, env, true);
    }

    /// Computes the issue slot for a quantum group and pushes it into the
    /// timing queue (port of the reference `enqueue_quantum`, with the
    /// waveform/duration/step pre-resolved by the lowering).
    #[allow(clippy::too_many_arguments)]
    fn enqueue_quantum(
        &mut self,
        cycle: u64,
        label: u32,
        op: QuantumOp,
        waveform: u16,
        dur_ns: u64,
        step: u32,
        env: &mut Env<'_>,
        catch_up: bool,
    ) {
        // +1: dispatch-to-issue latency of the quantum pipeline.
        let earliest = cycle + 1;
        let issue_cycle = if catch_up {
            earliest
        } else if !self.timeline_anchored {
            (self.timeline + u64::from(label)).max(earliest)
        } else {
            let scheduled = self.timeline + u64::from(label);
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
            env.mrr.invalidate(q);
        }
        // Keep the queue ordered by issue time: out-of-band operations may
        // be earlier than already-queued pre-scheduled ones.
        let timed = FastTimedOp {
            issue_cycle,
            op,
            waveform,
            dur_ns,
        };
        insert_sorted(&mut self.tqueue, timed, |t| t.issue_cycle);
        self.stats.dispatched_quantum += 1;
        env.step_dispatches.push(StepDispatch {
            cycle,
            step: (step != MicroOp::NO_STEP).then_some(StepId(step)),
            processor: self.id,
        });
    }

    fn conflicts_with_context(&self, op: &QuantumOp) -> bool {
        !self.contexts.is_empty()
            && op
                .qubits()
                .any(|q| self.contexts.iter().any(|c| c.qubit == q || c.target == q))
    }

    fn tick_timing_controller(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        let mut issued = false;
        while let Some(front) = self.tqueue.front() {
            if front.issue_cycle > cycle {
                break;
            }
            let t = self.tqueue.pop_front().expect("checked front");
            env.issue_pre(t.issue_cycle, t.op, t.waveform, t.dur_ns);
            issued = true;
        }
        issued
    }

    /// Advances the processor by one clock cycle (port of the reference
    /// `Processor::tick`; same progress-hint contract).
    ///
    /// It also records in the stall flags whether the processor is left
    /// *inert*: every later tick repeats this one minus its progress
    /// until a clocked or external event arrives, so the run loop may
    /// take a time skip at once instead of stepping a tick that only
    /// proves the stall. That holds after a tick without progress (the
    /// trusted skip's premise) and after one that
    ///
    /// - entered or stayed in a `ContextSwitch`/`Switching` countdown, or
    ///   left the processor `Idle` or `Halted` without resolving a
    ///   context: only the timing queue, the deadline and a DAQ delivery
    ///   (for the context store) can wake it;
    /// - ran with a non-empty buffer whose classical candidate was
    ///   already buffered (or to which nothing was fetched), dispatched
    ///   nothing, resolved no context, and ends with fetch closed (blocked
    ///   behind control flow, buffer full, or past the block end). The
    ///   next tick sees the same buffer front and the same classical
    ///   candidate — fetch only appends behind them — under the same
    ///   measurement results and contexts, so it stalls the same way and
    ///   bumps the same counters.
    ///
    /// [`FastProcessor::stall_info`] cross-checks every verdict the skip
    /// trusts under `debug_assertions`.
    fn tick(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        self.stall_flags = StallFlags::default();
        let (progress, inert) = self.tick_stages(cycle, env);
        self.stall_flags.inert = !progress || inert;
        progress
    }

    /// The stages of [`FastProcessor::tick`]: returns the progress hint
    /// and whether the tick left the processor inert.
    fn tick_stages(&mut self, cycle: u64, env: &mut Env<'_>) -> (bool, bool) {
        let mut progress = self.tick_timing_controller(cycle, env);

        match self.state {
            State::Halted => return (progress, true),
            State::Switching { until } => {
                if cycle < until {
                    return (progress, true);
                }
                self.state = State::Running;
                progress = true;
            }
            State::ContextSwitch {
                fires_at,
                op,
                resume_idle,
            } => {
                if cycle < fires_at {
                    return (progress, true);
                }
                if let Some(op) = op {
                    self.enqueue_catch_up(cycle, op, env);
                }
                self.state = if resume_idle {
                    State::Idle
                } else {
                    State::Running
                };
                return (true, false);
            }
            State::Idle | State::Running => {}
        }

        // MRCE context unit: a resolved context triggers the switch before
        // any dispatch this cycle. (Empty-store guard: feedback chains
        // without MRCE never pay for the scan.)
        let mut resolved = false;
        if !self.contexts.is_empty() {
            if let Some(pos) = self.contexts.iter().position(|c| env.mrr.is_valid(c.qubit)) {
                progress = true;
                resolved = true;
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
                        self.enqueue_catch_up(cycle, op, env);
                    }
                } else {
                    self.state = State::ContextSwitch {
                        fires_at: cycle + env.cfg.context_switch_cycles,
                        op,
                        resume_idle,
                    };
                    return (true, true);
                }
            }
        }
        if matches!(self.state, State::Idle) {
            return (progress, !resolved);
        }

        let buffered = self.buffer.len();
        let candidate_buffered = self.buffer.has_classical();
        let dispatched = self.dispatch(cycle, env);
        let mut fetched = false;
        if matches!(self.state, State::Running) {
            self.fetch(env);
            fetched = self.buffer.len() != buffered || !matches!(self.state, State::Running);
        }
        if dispatched {
            self.stats.active_cycles += 1;
        }
        let stalled = !dispatched
            && !resolved
            && buffered > 0
            && (candidate_buffered || !fetched)
            && matches!(self.state, State::Running)
            && self.fetch_closed(env.cfg);
        (progress || dispatched || fetched, stalled)
    }

    /// True when the fetch stage cannot add a slot: blocked behind
    /// control flow, buffer full, or walked past the block end (whose
    /// implicit `STOP` needs an empty buffer).
    fn fetch_closed(&self, cfg: &QuapeConfig) -> bool {
        self.fetch_blocked
            || self.buffer.len() >= cfg.predecode_buffer
            || !self.active_contains(self.pc)
    }

    /// True when the stall flags of the last tick say the processor is
    /// inert (see [`FastProcessor::tick`]).
    pub(crate) fn is_inert(&self) -> bool {
        self.stall_flags.inert
    }

    /// True when no tick can do anything until the scheduler starts a
    /// block here: idle or halted with an empty timing queue, and idle
    /// with an empty context store.
    pub(crate) fn is_dormant(&self) -> bool {
        match self.state {
            State::Idle => self.tqueue.is_empty() && self.contexts.is_empty(),
            State::Halted => self.tqueue.is_empty(),
            _ => false,
        }
    }

    /// True while the processor executes a block (not idle, halted, or
    /// counting down a switch).
    pub(crate) fn is_running(&self) -> bool {
        matches!(self.state, State::Running)
    }

    /// Dispatch stage (port of the reference `dispatch`; flag tests in
    /// place of enum matches).
    fn dispatch(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        let mut any = false;

        // ---- Quantum dispatch: group at the buffer front. ----
        if let Some(front) = self.buffer.front() {
            if front.flags & f::QWAIT != 0 {
                let MicroWord::Qwait { cycles } = self.micro(front.addr).word else {
                    unreachable!("QWAIT flag on non-QWAIT micro-op");
                };
                self.timeline += u64::from(cycles);
                self.buffer.pop_quantum();
                self.stats.dispatched_classical += 1;
                any = true;
            } else if front.flags & f::QUANTUM != 0 {
                let head = self.micro(front.addr);
                let MicroWord::Quantum {
                    op,
                    timing,
                    dur_ns,
                    waveform,
                } = head.word
                else {
                    unreachable!("QUANTUM flag on non-quantum micro-op");
                };
                if self.conflicts_with_context(&op) {
                    self.stats.context_dependency_stalls += 1;
                    self.stall_flags.context_stall = true;
                } else {
                    self.buffer.pop_quantum();
                    self.enqueue_quantum(
                        cycle, timing, op, waveform, dur_ns, head.step, env, false,
                    );
                    let mut grouped = 1;
                    while grouped < env.cfg.quantum_pipes {
                        let Some(slot) = self.buffer.front() else {
                            break;
                        };
                        if slot.flags & f::QUANTUM == 0 || slot.flags & f::TIMING_ZERO == 0 {
                            break;
                        }
                        let member = self.micro(slot.addr);
                        let MicroWord::Quantum {
                            op,
                            dur_ns,
                            waveform,
                            ..
                        } = member.word
                        else {
                            unreachable!("QUANTUM flag on non-quantum micro-op");
                        };
                        if self.conflicts_with_context(&op) {
                            break;
                        }
                        self.buffer.pop_quantum();
                        self.enqueue_quantum(
                            cycle,
                            0,
                            op,
                            waveform,
                            dur_ns,
                            member.step,
                            env,
                            false,
                        );
                        grouped += 1;
                    }
                    any = true;
                }
            }
        }

        // ---- Classical dispatch with lookahead. ----
        if let Some((i, slot)) = self.buffer.classical_pick() {
            if self.execute_classical(cycle, slot.addr, i, env) {
                any = true;
            }
        }
        any
    }

    /// Executes one classical micro-op. Returns false when it stalled
    /// (stays in the buffer). Port of the reference `execute_classical`.
    fn execute_classical(
        &mut self,
        cycle: u64,
        addr: u32,
        buf_index: usize,
        env: &mut Env<'_>,
    ) -> bool {
        use MicroWord as W;
        let mop = self.micro(addr);
        let mut taken_target: Option<u32> = None;
        match mop.word {
            W::Nop => {}
            W::Stop => {
                if !self.tqueue.is_empty() || !self.contexts.is_empty() {
                    return false;
                }
                self.stats.dispatched_classical += 1;
                self.finish_block();
                return true;
            }
            W::Halt => {
                self.stats.dispatched_classical += 1;
                *env.halt = true;
                self.state = State::Halted;
                return true;
            }
            W::Jmp { target } => taken_target = Some(target),
            W::Br { cond, target } => {
                if cond.eval(self.flag_zero, self.flag_neg) {
                    taken_target = Some(target);
                }
            }
            W::Call { target } => {
                self.call_stack.push(addr + 1);
                taken_target = Some(target);
            }
            W::Ret => match self.call_stack.pop() {
                Some(ret) => taken_target = Some(ret),
                None => {
                    self.fail(env);
                    return true;
                }
            },
            W::Ldi { rd, imm } => self.regs[rd as usize] = i32::from(imm),
            W::Mov { rd, rs } => self.regs[rd as usize] = self.regs[rs as usize],
            W::Add { rd, rs1, rs2 } => {
                let v = self.regs[rs1 as usize].wrapping_add(self.regs[rs2 as usize]);
                self.write_alu(rd, v);
            }
            W::Addi { rd, rs, imm } => {
                let v = self.regs[rs as usize].wrapping_add(i32::from(imm));
                self.write_alu(rd, v);
            }
            W::Sub { rd, rs1, rs2 } => {
                let v = self.regs[rs1 as usize].wrapping_sub(self.regs[rs2 as usize]);
                self.write_alu(rd, v);
            }
            W::And { rd, rs1, rs2 } => {
                let v = self.regs[rs1 as usize] & self.regs[rs2 as usize];
                self.write_alu(rd, v);
            }
            W::Or { rd, rs1, rs2 } => {
                let v = self.regs[rs1 as usize] | self.regs[rs2 as usize];
                self.write_alu(rd, v);
            }
            W::Xor { rd, rs1, rs2 } => {
                let v = self.regs[rs1 as usize] ^ self.regs[rs2 as usize];
                self.write_alu(rd, v);
            }
            W::Not { rd, rs } => {
                let v = !self.regs[rs as usize];
                self.write_alu(rd, v);
            }
            W::Cmp { rs1, rs2 } => {
                let v = self.regs[rs1 as usize].wrapping_sub(self.regs[rs2 as usize]);
                self.set_flags(v);
            }
            W::Cmpi { rs, imm } => {
                let v = self.regs[rs as usize].wrapping_sub(i32::from(imm));
                self.set_flags(v);
            }
            W::Fmr { rd, qubit } => {
                let entry = env.mrr.read(Qubit::new(qubit));
                if !entry.valid {
                    self.stats.measure_wait_cycles += 1;
                    self.stall_flags.measure_wait = true;
                    env.wait_cycles.push(cycle);
                    return false;
                }
                self.regs[rd as usize] = i32::from(entry.value);
                // FMR is a synchronization point: re-anchor the timeline.
                self.timeline_anchored = false;
            }
            W::Qwait { .. } => unreachable!("QWAIT handled in the quantum stream"),
            W::Lds { rd, sreg } => {
                self.regs[rd as usize] = env.shared_regs[sreg as usize];
            }
            W::Sts { sreg, rs } => {
                env.shared_regs[sreg as usize] = self.regs[rs as usize];
            }
            W::Mrce {
                qubit,
                target,
                op_if_one,
                op_if_zero,
            } => {
                let qubit = Qubit::new(qubit);
                let target = Qubit::new(target);
                let entry = env.mrr.read(qubit);
                if entry.valid {
                    let chosen = if entry.value { op_if_one } else { op_if_zero };
                    if let Some(g) = chosen.gate() {
                        self.enqueue_catch_up(cycle, QuantumOp::Gate1(g, target), env);
                    }
                } else if env.cfg.fast_context_switch {
                    if self.contexts.len() >= env.cfg.context_capacity {
                        self.stats.measure_wait_cycles += 1;
                        self.stall_flags.measure_wait = true;
                        env.wait_cycles.push(cycle);
                        return false; // context store full: stall
                    }
                    self.contexts.push(FastContext {
                        qubit,
                        target,
                        op_if_one,
                        op_if_zero,
                    });
                } else {
                    // Fast context switch disabled: stall like FMR.
                    self.stats.measure_wait_cycles += 1;
                    self.stall_flags.measure_wait = true;
                    env.wait_cycles.push(cycle);
                    return false;
                }
            }
            W::Quantum { .. } => unreachable!("quantum handled in the quantum stream"),
        }
        self.stats.dispatched_classical += 1;
        self.buffer.remove_pick(buf_index);
        if let Some(target) = taken_target {
            self.stats.branches_taken += 1;
            self.redirect(target, env);
        } else if mop.flags & f::CONTROL_FLOW != 0 {
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

    fn redirect(&mut self, target: u32, env: &mut Env<'_>) {
        self.pc = target;
        self.fetch_blocked = false;
        if !self.active_contains(target) {
            // Transfer outside the resident block: unsupported.
            self.fail(env);
        }
    }

    /// Fetch stage (port of the reference `fetch`; the fetched slot
    /// caches the micro-op's flags byte for the dispatch scans).
    fn fetch(&mut self, env: &mut Env<'_>) {
        if self.fetch_blocked {
            return;
        }
        let free = env.cfg.predecode_buffer.saturating_sub(self.buffer.len());
        let n = free.min(env.cfg.fetch_width);
        for _ in 0..n {
            if self.active_contains(self.pc) {
                let flags = self.ops.flags_at(self.pc);
                self.buffer.push_back(FastSlot {
                    addr: self.pc,
                    flags,
                });
                self.pc += 1;
                if flags & f::CONTROL_FLOW != 0 {
                    self.fetch_blocked = true;
                    break;
                }
            } else {
                // Walked past the end of the block: implicit STOP.
                if self.buffer.is_empty() && self.tqueue.is_empty() && self.contexts.is_empty() {
                    self.finish_block();
                }
                break;
            }
        }
    }

    /// The cycle-*dependent* half of the skip check, used on the trusted
    /// path: the immediately preceding tick left the processor inert
    /// (see [`FastProcessor::tick`]), which proves the cycle-independent
    /// state (dispatch, fetch, context resolution) inactive and leaves
    /// only this processor's clocked events to bound the jump. Returns `None` when one of them is due
    /// at `cycle` (the run loop must step), otherwise the stall verdict
    /// with the per-cycle counters the previous tick recorded.
    /// [`FastProcessor::stall_info`] is the from-first-principles verifier
    /// this is cross-checked against under `debug_assertions`.
    pub(crate) fn skip_check(&self, cycle: u64) -> Option<StallInfo> {
        let mut stall = StallInfo {
            horizon: None,
            measure_wait: self.stall_flags.measure_wait,
            context_stall: self.stall_flags.context_stall,
        };
        if let Some(front) = self.tqueue.front() {
            if front.issue_cycle <= cycle {
                return None;
            }
            stall.merge_horizon(front.issue_cycle);
        }
        match self.state {
            State::Switching { until } => {
                if cycle >= until {
                    return None;
                }
                stall.merge_horizon(until);
            }
            State::ContextSwitch { fires_at, .. } => {
                if cycle >= fires_at {
                    return None;
                }
                stall.merge_horizon(fires_at);
            }
            State::Idle | State::Running | State::Halted => {}
        }
        Some(stall)
    }

    /// Read-only twin of [`FastProcessor::tick`]: decides whether the tick
    /// at `cycle` would make *observable progress* (issue, dispatch,
    /// fetch, state transition, context resolution, block completion).
    ///
    /// Returns `None` when it would — the run loop must then step
    /// normally. Returns `Some(stall)` when the tick is provably a pure
    /// stall whose only effects are deterministic per-cycle counter bumps
    /// (`measure_wait` ⇒ `measure_wait_cycles` + one `wait_cycles` entry,
    /// `context_stall` ⇒ `context_dependency_stalls`), together with the
    /// earliest future cycle at which this processor *itself* could act
    /// (`horizon`; `None` = only external events can wake it).
    ///
    /// Soundness: a stall verdict only remains valid while no external
    /// state changes. The run loop therefore also bounds the skip by the
    /// DAQ's next delivery and the scheduler's next event, and re-checks
    /// every processor after each jump.
    pub(crate) fn stall_info(
        &self,
        cycle: u64,
        mrr: &MeasurementFile,
        cfg: &QuapeConfig,
    ) -> Option<StallInfo> {
        let mut stall = StallInfo::default();
        if let Some(front) = self.tqueue.front() {
            if front.issue_cycle <= cycle {
                return None;
            }
            stall.merge_horizon(front.issue_cycle);
        }
        match self.state {
            State::Halted => return Some(stall),
            State::Switching { until } => {
                if cycle >= until {
                    return None;
                }
                stall.merge_horizon(until);
                return Some(stall);
            }
            State::ContextSwitch { fires_at, .. } => {
                if cycle >= fires_at {
                    return None;
                }
                stall.merge_horizon(fires_at);
                return Some(stall);
            }
            State::Idle | State::Running => {}
        }
        if self.contexts.iter().any(|c| mrr.is_valid(c.qubit)) {
            return None;
        }
        if matches!(self.state, State::Idle) {
            return Some(stall);
        }

        // Running. Fast path: an unblocked fetch with buffer room always
        // makes progress.
        let fetch_open =
            !self.fetch_blocked && cfg.predecode_buffer > self.buffer.len() && cfg.fetch_width > 0;
        if fetch_open && self.active_contains(self.pc) {
            return None;
        }

        // Mirror the dispatch stage.
        if let Some(slot) = self.buffer.front() {
            if slot.flags & f::QWAIT != 0 {
                return None;
            }
            if slot.flags & f::QUANTUM != 0 {
                let MicroWord::Quantum { op, .. } = self.micro(slot.addr).word else {
                    unreachable!("QUANTUM flag on non-quantum micro-op");
                };
                if self.conflicts_with_context(&op) {
                    stall.context_stall = true;
                } else {
                    return None; // quantum group would dispatch
                }
            }
        }
        // Classical lookahead — the same pick as `dispatch`, by a scan.
        let pick = self.buffer.scan_pick().map(|(_, slot)| slot.addr);
        if let Some(addr) = pick {
            match self.micro(addr).word {
                MicroWord::Stop => {
                    if self.tqueue.is_empty() && self.contexts.is_empty() {
                        return None; // STOP would retire the block
                    }
                    // Drain stall: no counters, wake on tqueue/context events.
                }
                MicroWord::Fmr { qubit, .. } => {
                    if mrr.is_valid(Qubit::new(qubit)) {
                        return None;
                    }
                    stall.measure_wait = true;
                }
                MicroWord::Mrce { qubit, .. } => {
                    if mrr.is_valid(Qubit::new(qubit))
                        || (cfg.fast_context_switch && self.contexts.len() < cfg.context_capacity)
                    {
                        return None; // executes or parks a context
                    }
                    stall.measure_wait = true;
                }
                _ => return None, // any other classical op executes
            }
        }
        // Implicit end-of-block STOP once everything has drained.
        if fetch_open
            && self.buffer.is_empty()
            && self.tqueue.is_empty()
            && self.contexts.is_empty()
        {
            return None;
        }
        Some(stall)
    }

    /// Bulk-accounts `span` skipped stall cycles: the per-cycle counters a
    /// cycle-stepped run would have accumulated.
    pub(crate) fn account_stall_span(&mut self, stall: &StallInfo, span: u64) {
        if stall.measure_wait {
            self.stats.measure_wait_cycles += span;
        }
        if stall.context_stall {
            self.stats.context_dependency_stalls += span;
        }
    }
}

impl ProcessorCore for FastProcessor {
    type Code = LoweredProgram;

    fn tick(&mut self, cycle: u64, env: &mut Env<'_>) -> bool {
        FastProcessor::tick(self, cycle, env)
    }

    fn is_idle(&self) -> bool {
        matches!(self.state, State::Idle)
    }

    fn has_pending_work(&self) -> bool {
        !self.tqueue.is_empty() || !self.contexts.is_empty()
    }

    fn finished_pending(&self) -> bool {
        self.finished_block.is_some()
    }

    fn take_finished(&mut self) -> Option<BlockId> {
        self.finished_block.take()
    }

    fn current_block(&self) -> Option<BlockId> {
        self.current_block
    }

    fn has_free_bank(&self) -> bool {
        self.free_bank().is_some()
    }

    fn install_initial(&mut self, block: BlockId, code: &Self::Code) {
        let b = code.block(block.index());
        self.install(self.active, block, b.start, b.end);
    }

    fn load_and_run(&mut self, block: BlockId, code: &Self::Code, now: u64) {
        self.retire_active();
        let b = code.block(block.index());
        self.install(self.active, block, b.start, b.end);
        self.start_block(block, self.active, 0, now);
    }

    fn prefetch_block(&mut self, block: BlockId, code: &Self::Code) -> bool {
        match self.free_bank() {
            Some(bank) => {
                let b = code.block(block.index());
                self.install(bank, block, b.start, b.end);
                true
            }
            None => false,
        }
    }

    fn start_prefetched(&mut self, block: BlockId, switch_cycles: u64, now: u64) -> bool {
        match self.bank_of(block) {
            Some(bank) => {
                self.start_block(block, bank, switch_cycles, now);
                true
            }
            None => false,
        }
    }

    fn discard_prefetched(&mut self, block: BlockId) {
        if self.current_block != Some(block) {
            self.evict(block);
        }
    }

    fn stats(&self) -> &ProcessorStats {
        &self.stats
    }
}
