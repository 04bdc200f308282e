//! The multiprocessor scheduler (§5.2).
//!
//! Continuously reads the block information table, performs the dependency
//! check (direct bit-vector or priority counter), and allocates ready
//! program blocks to idle processors. It handles **one scheduling action
//! at a time** — while busy filling a cache it does not answer other
//! requests, which reproduces the paper's observation that overly
//! fine-grained blocks overwhelm the scheduler. Prefetching into the free
//! cache bank of a processor hides most of the allocation latency.
//!
//! The decision logic is split from its application: [`Scheduler::tick`]
//! applies whatever [`Scheduler::pick_action`] selects, and the
//! lowered run loop reuses the same picker read-only (via
//! [`Scheduler::would_act`]) to prove that skipped cycles are no-ops.
//! Cache fills hand out `Arc` slices from the job's pre-cut
//! [`BlockCode`](crate::machine::BlockCode) table instead of copying
//! instruction words per fill. The scheduler itself is generic over
//! [`ProcessorCore`], so the same allocation/prefetch state machine
//! drives both the reference processors and the lowered fast path.

use crate::config::QuapeConfig;
use crate::processor::ProcessorCore;
use crate::report::{BlockEvent, MachineStats};
use quape_isa::{BlockId, BlockStatus, Dependency, DependencyMode, Program};

/// Run-time status of one block, mirroring the status registers of §5.2.2
/// with an extra in-flight state for jobs the scheduler is working on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RtStatus {
    Wait,
    /// Fill job running toward a free bank of `proc`.
    Prefetching {
        proc: usize,
    },
    /// Resident in a bank of `proc`, waiting to become ready/started.
    Prefetched {
        proc: usize,
    },
    /// Fill job running; the block starts on `proc` when it completes.
    Allocating {
        proc: usize,
    },
    InExecution,
    Done,
}

impl RtStatus {
    fn public(self) -> BlockStatus {
        match self {
            RtStatus::Wait => BlockStatus::Wait,
            RtStatus::Prefetching { .. } | RtStatus::Prefetched { .. } => BlockStatus::Prefetch,
            RtStatus::Allocating { .. } | RtStatus::InExecution => BlockStatus::InExecution,
            RtStatus::Done => BlockStatus::Done,
        }
    }
}

/// An in-flight scheduling job (the scheduler is busy until `finish`).
#[derive(Debug, Clone, Copy)]
enum Job {
    Allocate {
        block: BlockId,
        proc: usize,
        finish: u64,
    },
    Prefetch {
        block: BlockId,
        proc: usize,
        finish: u64,
    },
}

impl Job {
    fn finish(self) -> u64 {
        match self {
            Job::Allocate { finish, .. } | Job::Prefetch { finish, .. } => finish,
        }
    }
}

/// A scheduling decision, separated from its application so the
/// lowered run loop can ask "would you act?" without side effects.
#[derive(Debug, Clone, Copy)]
enum SchedAction {
    /// Switch an idle processor onto the bank already holding `block`.
    StartPrefetched { block: BlockId, proc: usize },
    /// Fill-and-run `block` on idle `proc`; `abandon` names the processor
    /// holding a stranded prefetched copy to discard, if any.
    Allocate {
        block: BlockId,
        proc: usize,
        abandon: Option<usize>,
    },
    /// Fill `block` into a free bank of `proc` ahead of time.
    Prefetch { block: BlockId, proc: usize },
}

/// The dynamic block scheduler.
#[derive(Debug)]
pub(crate) struct Scheduler {
    status: Vec<RtStatus>,
    mode: Option<DependencyMode>,
    priority_counter: u16,
    busy_until: u64,
    job: Option<Job>,
    /// True when the most recent tick evaluated the action picker and
    /// found nothing to do while free — the trusted-skip fast path may
    /// then assume the scheduler stays inactive until machine state
    /// changes, without re-running the picker.
    settled: bool,
    pub(crate) events: Vec<BlockEvent>,
}

impl Scheduler {
    /// Builds the scheduler state from a validated block table.
    /// `override_mode` (the [`QuapeConfig::dependency_mode`] knob) takes
    /// precedence over the program-derived dependency mode when set.
    ///
    /// [`QuapeConfig::dependency_mode`]: crate::QuapeConfig::dependency_mode
    pub fn new(program: &Program, override_mode: Option<DependencyMode>) -> Self {
        let n = program.blocks().len();
        Scheduler {
            status: vec![RtStatus::Wait; n],
            mode: override_mode.or(program.blocks().mode()),
            priority_counter: 0,
            busy_until: 0,
            job: None,
            settled: false,
            events: Vec::new(),
        }
    }

    /// Returns the scheduler to its just-constructed state for the same
    /// program, keeping the status-table and event allocations (the
    /// arena-reuse twin of [`Scheduler::new`]; the resolved dependency
    /// mode survives).
    pub fn reset(&mut self) {
        self.status.fill(RtStatus::Wait);
        self.priority_counter = 0;
        self.busy_until = 0;
        self.job = None;
        self.settled = false;
        self.events.clear();
    }

    /// Pre-task initial load: the first `count` blocks of the table are
    /// installed directly into the active banks of processors 0..count
    /// (the paper allows prefetching the first N blocks before the task
    /// starts).
    pub fn initial_load<P: ProcessorCore>(
        &mut self,
        processors: &mut [P],
        code: &P::Code,
        count: usize,
    ) {
        let n = count.min(self.status.len()).min(processors.len());
        for (i, proc) in processors.iter_mut().enumerate().take(n) {
            let id = BlockId(i as u16);
            proc.install_initial(id, code);
            self.set_status(0, id, RtStatus::Prefetched { proc: i });
        }
    }

    fn set_status(&mut self, cycle: u64, block: BlockId, status: RtStatus) {
        let proc = match status {
            RtStatus::Prefetching { proc }
            | RtStatus::Prefetched { proc }
            | RtStatus::Allocating { proc } => Some(proc),
            _ => None,
        };
        self.status[block.index()] = status;
        self.events.push(BlockEvent {
            cycle,
            block,
            status: status.public(),
            processor: proc,
        });
    }

    /// True once every block has completed.
    pub fn all_done(&self) -> bool {
        self.status.iter().all(|s| matches!(s, RtStatus::Done))
    }

    /// True when a scheduling job is in flight.
    pub fn is_busy(&self, cycle: u64) -> bool {
        cycle < self.busy_until
    }

    /// Completion cycle of the in-flight fill job, if any.
    pub fn job_finish(&self) -> Option<u64> {
        self.job.map(Job::finish)
    }

    /// Cycle at which the scheduler stops being busy.
    pub fn busy_until(&self) -> u64 {
        self.busy_until
    }

    /// True when the last tick proved there is nothing to schedule (see
    /// the `settled` field).
    pub fn is_settled(&self) -> bool {
        self.settled
    }

    fn dependency_met(&self, dep: &Dependency) -> bool {
        match dep {
            Dependency::Direct(deps) => deps
                .iter()
                .all(|d| matches!(self.status[d.index()], RtStatus::Done)),
            Dependency::Priority(p) => *p == self.priority_counter,
        }
    }

    /// A block is a prefetch candidate when all of its dependencies are at
    /// least in execution (so it is plausibly next).
    fn prefetch_candidate(&self, dep: &Dependency) -> bool {
        match dep {
            Dependency::Direct(deps) => deps.iter().all(|d| {
                matches!(
                    self.status[d.index()],
                    RtStatus::InExecution | RtStatus::Allocating { .. } | RtStatus::Done
                )
            }),
            Dependency::Priority(p) => {
                *p == self.priority_counter || *p == self.priority_counter + 1
            }
        }
    }

    /// Where the priority counter should sit given the current statuses.
    fn priority_counter_target(&self, program: &Program) -> u16 {
        if self.mode != Some(DependencyMode::Priority) {
            return self.priority_counter;
        }
        let mut counter = self.priority_counter;
        loop {
            let mut current_level_open = false;
            let mut next_level: Option<u16> = None;
            for (id, info) in program.blocks().iter() {
                if let Dependency::Priority(p) = info.dependency {
                    let done = matches!(self.status[id.index()], RtStatus::Done);
                    if p == counter && !done {
                        current_level_open = true;
                    }
                    if p > counter && !done {
                        next_level = Some(next_level.map_or(p, |n| n.min(p)));
                    }
                }
            }
            if current_level_open {
                return counter;
            }
            match next_level {
                Some(next) => counter = next,
                None => return counter, // everything done
            }
        }
    }

    /// True when the next tick would move the priority counter (a level
    /// just completed) — observable progress for the lowered loop's time skip.
    pub fn counter_would_advance(&self, program: &Program) -> bool {
        self.priority_counter_target(program) != self.priority_counter
    }

    fn advance_priority_counter(&mut self, program: &Program) {
        self.priority_counter = self.priority_counter_target(program);
    }

    fn fill_cycles(&self, len: usize, cfg: &QuapeConfig) -> u64 {
        cfg.scheduler_response_cycles + (len as u64).div_ceil(cfg.fill_words_per_cycle as u64)
    }

    /// The one scheduling action the scheduler would start right now,
    /// were it free: start a prefetched ready block, allocate a ready
    /// block to an idle processor, or prefetch an upcoming block.
    fn pick_action<P: ProcessorCore>(
        &self,
        processors: &[P],
        program: &Program,
        cfg: &QuapeConfig,
    ) -> Option<SchedAction> {
        // Allocation-free: this runs inside the lowered loop's skip check
        // on every potential jump, so the ready set is scanned in place.
        let ready = || {
            program.blocks().iter().filter(|(id, info)| {
                matches!(
                    self.status[id.index()],
                    RtStatus::Wait | RtStatus::Prefetched { .. }
                ) && self.dependency_met(&info.dependency)
            })
        };

        for (block, _) in ready() {
            if let RtStatus::Prefetched { proc } = self.status[block.index()] {
                if processors[proc].is_idle() {
                    return Some(SchedAction::StartPrefetched { block, proc });
                }
            }
        }
        // No prefetched block could start; allocate the first waiting
        // ready block (or a stranded prefetch) to an idle processor.
        for (block, _) in ready() {
            let abandon = match self.status[block.index()] {
                RtStatus::Wait => None,
                RtStatus::Prefetched { proc } if !processors[proc].is_idle() => Some(proc),
                _ => continue,
            };
            if let Some(proc) = processors.iter().position(P::is_idle) {
                return Some(SchedAction::Allocate {
                    block,
                    proc,
                    abandon,
                });
            }
        }

        // Otherwise prefetch an upcoming block into a free bank.
        if !cfg.prefetch {
            return None;
        }
        let candidate = program.blocks().iter().find(|(id, info)| {
            matches!(self.status[id.index()], RtStatus::Wait)
                && self.prefetch_candidate(&info.dependency)
        })?;
        let (block, info) = candidate;
        // Prefer a processor executing one of the block's direct
        // dependencies; otherwise any processor with a free bank.
        let dep_proc = match &info.dependency {
            Dependency::Direct(deps) => processors.iter().position(|p| {
                p.current_block().is_some_and(|b| deps.contains(&b)) && p.has_free_bank()
            }),
            Dependency::Priority(_) => None,
        };
        let target = dep_proc.or_else(|| processors.iter().position(P::has_free_bank))?;
        Some(SchedAction::Prefetch {
            block,
            proc: target,
        })
    }

    /// Read-only twin of [`Scheduler::tick`] for the lowered loop:
    /// would the tick at `cycle` take any observable action? (Pending
    /// done-notifications and priority-counter movement are the caller's
    /// checks; this covers fill-job completion and new actions.)
    pub fn would_act<P: ProcessorCore>(
        &self,
        cycle: u64,
        processors: &[P],
        program: &Program,
        cfg: &QuapeConfig,
    ) -> bool {
        if cfg.ideal_scheduler {
            return self.ideal_pick(processors, program).is_some();
        }
        if let Some(job) = self.job {
            return cycle >= job.finish();
        }
        if self.is_busy(cycle) {
            // Only the per-cycle busy counter moves; whether an action
            // fires at `busy_until` is re-checked there by the caller.
            return false;
        }
        self.pick_action(processors, program, cfg).is_some()
    }

    /// One scheduler cycle.
    pub fn tick<P: ProcessorCore>(
        &mut self,
        cycle: u64,
        processors: &mut [P],
        program: &Program,
        code: &P::Code,
        cfg: &QuapeConfig,
        stats: &mut MachineStats,
    ) {
        // Pessimistic until this tick proves otherwise (any early return
        // leaves the trusted-skip path re-verifying for itself).
        self.settled = false;

        // 1. Consume done notifications.
        for p in processors.iter_mut() {
            if let Some(block) = p.take_finished() {
                self.set_status(cycle, block, RtStatus::Done);
            }
        }
        self.advance_priority_counter(program);

        if cfg.ideal_scheduler {
            self.tick_ideal(cycle, processors, program, code);
            self.settled = true;
            return;
        }

        // 2. Complete an in-flight job.
        if let Some(job) = self.job {
            stats.scheduler_busy_cycles += 1;
            match job {
                Job::Allocate {
                    block,
                    proc,
                    finish,
                } if cycle >= finish => {
                    processors[proc].load_and_run(block, code, cycle);
                    self.set_status(cycle, block, RtStatus::InExecution);
                    stats.prefetch_misses += 1;
                    self.job = None;
                }
                Job::Prefetch {
                    block,
                    proc,
                    finish,
                } if cycle >= finish => {
                    if processors[proc].prefetch_block(block, code) {
                        self.set_status(cycle, block, RtStatus::Prefetched { proc });
                    } else {
                        // Bank got occupied in the meantime: back to wait.
                        self.set_status(cycle, block, RtStatus::Wait);
                    }
                    self.job = None;
                }
                _ => return, // still busy
            }
        }
        if self.is_busy(cycle) {
            stats.scheduler_busy_cycles += 1;
            return;
        }

        // 3./4. Start one scheduling action.
        match self.pick_action(processors, program, cfg) {
            Some(SchedAction::StartPrefetched { block, proc }) => {
                processors[proc].start_prefetched(block, cfg.switch_cycles, cycle);
                self.set_status(cycle, block, RtStatus::InExecution);
                stats.prefetch_hits += 1;
                self.busy_until = cycle + 1;
            }
            Some(SchedAction::Allocate {
                block,
                proc,
                abandon,
            }) => {
                if let Some(holder) = abandon {
                    // Abandon the stranded prefetch and run elsewhere.
                    processors[holder].discard_prefetched(block);
                }
                let info = program.blocks().get(block).expect("block in table");
                let finish = cycle + self.fill_cycles(info.len(), cfg);
                self.job = Some(Job::Allocate {
                    block,
                    proc,
                    finish,
                });
                self.busy_until = finish;
                self.set_status(cycle, block, RtStatus::Allocating { proc });
            }
            Some(SchedAction::Prefetch { block, proc }) => {
                let info = program.blocks().get(block).expect("block in table");
                let finish = cycle + self.fill_cycles(info.len(), cfg);
                self.job = Some(Job::Prefetch {
                    block,
                    proc,
                    finish,
                });
                self.busy_until = finish;
                self.set_status(cycle, block, RtStatus::Prefetching { proc });
            }
            None => self.settled = true,
        }
    }

    /// The next start the zero-cost scheduler would perform.
    fn ideal_pick<P: ProcessorCore>(
        &self,
        processors: &[P],
        program: &Program,
    ) -> Option<(BlockId, usize)> {
        let (block, _) = program.blocks().iter().find(|(id, info)| {
            matches!(
                self.status[id.index()],
                RtStatus::Wait | RtStatus::Prefetched { .. }
            ) && self.dependency_met(&info.dependency)
        })?;
        let proc = processors.iter().position(P::is_idle)?;
        Some((block, proc))
    }

    /// Zero-cost scheduling for the ideal-speedup series of Fig. 11b.
    fn tick_ideal<P: ProcessorCore>(
        &mut self,
        cycle: u64,
        processors: &mut [P],
        program: &Program,
        code: &P::Code,
    ) {
        while let Some((block, proc)) = self.ideal_pick(processors, program) {
            processors[proc].load_and_run(block, code, cycle);
            self.set_status(cycle, block, RtStatus::InExecution);
        }
    }
}
