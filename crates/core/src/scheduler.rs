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
//! Like the hardware's status registers, the scheduler keeps its view of
//! the table as bit-vectors over block indices, updated per event rather
//! than re-derived by scanning the table: which blocks wait, which are
//! prefetched, and which have their dependencies met (or nearly met, for
//! prefetch). A block's direct dependencies are counted down as they
//! finish and start; the priority counter moves only in a tick that
//! consumed a done-notification, and the done count answers "all done".
//! Ready and prefetch candidates are the lowest set bits of the combined
//! words, so the choice is in block-index order, as the scan it replaces
//! made it. That scan survives only as a `debug_assertions` verifier of
//! every pick: both executors share this scheduler, so the cycle-stepped
//! oracle cannot catch a scheduler bug.
//!
//! The decision logic is split from its application: [`Scheduler::tick`]
//! applies whatever [`Scheduler::pick_action`] selects, and the
//! lowered run loop reuses the same picker read-only (via
//! [`Scheduler::would_act`]) to prove that skipped cycles are no-ops.
//! Cache fills hand a block's address range into the job's one shared
//! program (or micro-op array) instead of copying instruction words per
//! fill. The scheduler itself is generic over
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
    /// In execution, being allocated, or done: the status never returns
    /// to waiting once here.
    fn started(self) -> bool {
        matches!(
            self,
            RtStatus::InExecution | RtStatus::Allocating { .. } | RtStatus::Done
        )
    }

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Sentinel for "no priority level" in [`DepTables::level_of`].
const NO_LEVEL: u32 = u32::MAX;

/// The block table's dependency structure, derived once from the
/// program: the direct-dependency graph as a dependents list, and the
/// priority levels with their members. Shot resets keep it.
#[derive(Debug)]
struct DepTables {
    /// Number of direct dependencies of each block (0 for priority
    /// blocks).
    dep_count: Vec<u32>,
    /// `dependents[dependents_at[b]..dependents_at[b + 1]]`: the blocks
    /// that list `b` as a direct dependency (once per listing).
    dependents_at: Vec<u32>,
    dependents: Vec<u16>,
    /// The distinct priorities in ascending order, each with its blocks
    /// (`level_blocks[level_at[i]..level_at[i + 1]]`).
    levels: Vec<u16>,
    level_at: Vec<u32>,
    level_blocks: Vec<u16>,
    /// Index into `levels` of each priority block, [`NO_LEVEL`] for a
    /// direct one.
    level_of: Vec<u32>,
}

impl DepTables {
    fn new(program: &Program) -> Self {
        let blocks = program.blocks();
        let mut levels: Vec<u16> = blocks
            .iter()
            .filter_map(|(_, info)| match info.dependency {
                Dependency::Priority(p) => Some(p),
                Dependency::Direct(_) => None,
            })
            .collect();
        levels.sort_unstable();
        levels.dedup();
        let mut dep_count = vec![0u32; blocks.len()];
        let mut level_of = vec![NO_LEVEL; blocks.len()];
        let mut edges = Vec::new();
        let mut members = Vec::new();
        for (id, info) in blocks.iter() {
            match &info.dependency {
                Dependency::Direct(deps) => {
                    dep_count[id.index()] = deps.len() as u32;
                    edges.extend(deps.iter().map(|d| (d.index(), id.0)));
                }
                Dependency::Priority(p) => {
                    let level = levels.binary_search(p).expect("level listed");
                    level_of[id.index()] = level as u32;
                    members.push((level, id.0));
                }
            }
        }
        let (dependents_at, dependents) = group(blocks.len(), &edges);
        let (level_at, level_blocks) = group(levels.len(), &members);
        DepTables {
            dep_count,
            dependents_at,
            dependents,
            levels,
            level_at,
            level_blocks,
            level_of,
        }
    }

    fn dependents(&self, block: usize) -> &[u16] {
        &self.dependents[self.dependents_at[block] as usize..self.dependents_at[block + 1] as usize]
    }

    /// The blocks at priority `value` (none if no block has it).
    fn at_priority(&self, value: Option<u16>) -> &[u16] {
        match value.and_then(|v| self.levels.binary_search(&v).ok()) {
            Some(i) => &self.level_blocks[self.level_at[i] as usize..self.level_at[i + 1] as usize],
            None => &[],
        }
    }

    fn level_size(&self, level: usize) -> u32 {
        self.level_at[level + 1] - self.level_at[level]
    }
}

/// Groups `(key, item)` pairs, keys below `keys`, into one array: the
/// items of key `k` are `items[at[k]..at[k + 1]]`, in pair order.
fn group(keys: usize, pairs: &[(usize, u16)]) -> (Vec<u32>, Vec<u16>) {
    let mut at = vec![0u32; keys + 1];
    for &(k, _) in pairs {
        at[k + 1] += 1;
    }
    for k in 0..keys {
        at[k + 1] += at[k];
    }
    let mut fill = at.clone();
    let mut items = vec![0u16; pairs.len()];
    for &(k, item) in pairs {
        items[fill[k] as usize] = item;
        fill[k] += 1;
    }
    (at, items)
}

fn put_bit(bits: &mut [u64], i: usize, on: bool) {
    if on {
        bits[i / 64] |= 1 << (i % 64);
    } else {
        bits[i / 64] &= !(1 << (i % 64));
    }
}

/// The indices set in the words `word(0..words)`, ascending.
fn set_bits(words: usize, word: impl Fn(usize) -> u64) -> impl Iterator<Item = usize> {
    (0..words).flat_map(move |w| {
        let mut bits = word(w);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + b
            })
        })
    })
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
    tables: DepTables,
    /// Status bit-vectors: blocks in `Wait`, and in `Prefetched`.
    waiting: Vec<u64>,
    prefetched: Vec<u64>,
    /// Blocks whose dependency is met (every direct dependency done, or
    /// the priority equal to the counter), and blocks that are prefetch
    /// candidates (every direct dependency started, or the priority at
    /// the counter or one above).
    met: Vec<u64>,
    near: Vec<u64>,
    /// Per block, its direct dependencies not yet done and not yet
    /// started.
    undone_deps: Vec<u32>,
    unstarted_deps: Vec<u32>,
    /// Per priority level, its blocks not yet done.
    level_open: Vec<u32>,
    done: usize,
}

impl Scheduler {
    /// Builds the scheduler state from a validated block table.
    /// `override_mode` (the [`QuapeConfig::dependency_mode`] knob) takes
    /// precedence over the program-derived dependency mode when set.
    ///
    /// [`QuapeConfig::dependency_mode`]: crate::QuapeConfig::dependency_mode
    pub fn new(program: &Program, override_mode: Option<DependencyMode>) -> Self {
        let n = program.blocks().len();
        let words = n.div_ceil(64);
        let tables = DepTables::new(program);
        let mut scheduler = Scheduler {
            status: vec![RtStatus::Wait; n],
            mode: override_mode.or(program.blocks().mode()),
            priority_counter: 0,
            busy_until: 0,
            job: None,
            settled: false,
            events: Vec::new(),
            waiting: vec![0; words],
            prefetched: vec![0; words],
            met: vec![0; words],
            near: vec![0; words],
            undone_deps: tables.dep_count.clone(),
            unstarted_deps: tables.dep_count.clone(),
            level_open: vec![0; tables.levels.len()],
            done: 0,
            tables,
        };
        scheduler.reset();
        scheduler
    }

    /// Returns the scheduler to its just-constructed state for the same
    /// program, keeping the status-table and event allocations (the
    /// arena-reuse twin of [`Scheduler::new`]; the resolved dependency
    /// mode survives).
    pub fn reset(&mut self) {
        let n = self.status.len();
        self.status.fill(RtStatus::Wait);
        self.priority_counter = 0;
        self.busy_until = 0;
        self.job = None;
        self.settled = false;
        self.events.clear();
        self.waiting.fill(!0);
        if n % 64 != 0 {
            *self.waiting.last_mut().expect("n > 0") = (1 << (n % 64)) - 1;
        }
        self.prefetched.fill(0);
        self.met.fill(0);
        self.near.fill(0);
        let tables = &self.tables;
        self.undone_deps.copy_from_slice(&tables.dep_count);
        self.unstarted_deps.copy_from_slice(&tables.dep_count);
        for b in 0..n {
            if tables.level_of[b] == NO_LEVEL && tables.dep_count[b] == 0 {
                put_bit(&mut self.met, b, true);
                put_bit(&mut self.near, b, true);
            }
        }
        for (level, open) in self.level_open.iter_mut().enumerate() {
            *open = tables.level_size(level);
        }
        self.done = 0;
        self.mark_priority(true);
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
        self.advance_priority_counter();
    }

    fn set_status(&mut self, cycle: u64, block: BlockId, status: RtStatus) {
        let proc = match status {
            RtStatus::Prefetching { proc }
            | RtStatus::Prefetched { proc }
            | RtStatus::Allocating { proc } => Some(proc),
            _ => None,
        };
        let b = block.index();
        let old = std::mem::replace(&mut self.status[b], status);
        put_bit(&mut self.waiting, b, status == RtStatus::Wait);
        put_bit(
            &mut self.prefetched,
            b,
            matches!(status, RtStatus::Prefetched { .. }),
        );
        if !old.started() && status.started() {
            for &d in self.tables.dependents(b) {
                let d = usize::from(d);
                self.unstarted_deps[d] -= 1;
                if self.unstarted_deps[d] == 0 {
                    put_bit(&mut self.near, d, true);
                }
            }
        }
        if old != RtStatus::Done && status == RtStatus::Done {
            self.done += 1;
            if let Some(open) = self.level_open.get_mut(self.tables.level_of[b] as usize) {
                *open -= 1;
            }
            for &d in self.tables.dependents(b) {
                let d = usize::from(d);
                self.undone_deps[d] -= 1;
                if self.undone_deps[d] == 0 {
                    put_bit(&mut self.met, d, true);
                }
            }
        }
        self.events.push(BlockEvent {
            cycle,
            block,
            status: status.public(),
            processor: proc,
        });
    }

    /// True once every block has completed.
    pub fn all_done(&self) -> bool {
        let done = self.done == self.status.len();
        debug_assert_eq!(
            done,
            self.status.iter().all(|s| matches!(s, RtStatus::Done)),
            "done count diverged from the status table"
        );
        done
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

    /// Sets (`on`) or clears the `met` bits of the blocks at the counter's
    /// priority and the `near` bits of those at it and one above.
    fn mark_priority(&mut self, on: bool) {
        let counter = self.priority_counter;
        let tables = &self.tables;
        let mark = |bits: &mut [u64], blocks: &[u16]| {
            for &b in blocks {
                put_bit(bits, usize::from(b), on);
            }
        };
        mark(&mut self.met, tables.at_priority(Some(counter)));
        mark(&mut self.near, tables.at_priority(Some(counter)));
        mark(&mut self.near, tables.at_priority(counter.checked_add(1)));
    }

    /// Moves the priority counter to the lowest level, at or above it,
    /// that still has a block not done (it stays put when none has).
    fn advance_priority_counter(&mut self) {
        if self.mode != Some(DependencyMode::Priority) {
            return;
        }
        let from = self
            .tables
            .levels
            .partition_point(|&p| p < self.priority_counter);
        let Some(level) = (from..self.level_open.len()).find(|&i| self.level_open[i] > 0) else {
            return;
        };
        let target = self.tables.levels[level];
        if target != self.priority_counter {
            self.mark_priority(false);
            self.priority_counter = target;
            self.mark_priority(true);
        }
    }

    /// Scan verifier of the `met` bits: a block's dependency holds.
    fn dependency_met_scan(&self, dep: &Dependency) -> bool {
        match dep {
            Dependency::Direct(deps) => deps
                .iter()
                .all(|d| matches!(self.status[d.index()], RtStatus::Done)),
            Dependency::Priority(p) => *p == self.priority_counter,
        }
    }

    /// Scan verifier of the `near` bits: a block is a prefetch candidate
    /// when all of its dependencies are at least in execution (so it is
    /// plausibly next).
    fn prefetch_candidate_scan(&self, dep: &Dependency) -> bool {
        match dep {
            Dependency::Direct(deps) => deps.iter().all(|d| self.status[d.index()].started()),
            Dependency::Priority(p) => {
                *p == self.priority_counter || Some(*p) == self.priority_counter.checked_add(1)
            }
        }
    }

    /// Scan verifier of the counter: where it should sit given the
    /// current statuses.
    fn priority_counter_scan(&self, program: &Program) -> u16 {
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

    /// Blocks in `Wait` or `Prefetched` whose dependency is met, in
    /// block-index order.
    fn ready(&self) -> impl Iterator<Item = BlockId> + '_ {
        set_bits(self.met.len(), |w| {
            (self.waiting[w] | self.prefetched[w]) & self.met[w]
        })
        .map(|b| BlockId(b as u16))
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
        let action = self.pick_from_bits(processors, program, cfg);
        debug_assert_eq!(
            action,
            self.pick_action_scan(processors, program, cfg),
            "status bit-vectors diverged from the table scan"
        );
        action
    }

    /// [`pick_action`](Self::pick_action) on the status bit-vectors.
    /// Allocation-free: this runs inside the lowered loop's skip check.
    fn pick_from_bits<P: ProcessorCore>(
        &self,
        processors: &[P],
        program: &Program,
        cfg: &QuapeConfig,
    ) -> Option<SchedAction> {
        let prefetched_ready = set_bits(self.met.len(), |w| self.prefetched[w] & self.met[w]);
        for b in prefetched_ready {
            if let RtStatus::Prefetched { proc } = self.status[b] {
                if processors[proc].is_idle() {
                    let block = BlockId(b as u16);
                    return Some(SchedAction::StartPrefetched { block, proc });
                }
            }
        }
        // No prefetched block could start; allocate the first waiting
        // ready block (or a stranded prefetch) to an idle processor.
        if let Some(proc) = processors.iter().position(P::is_idle) {
            for block in self.ready() {
                let abandon = match self.status[block.index()] {
                    RtStatus::Wait => None,
                    RtStatus::Prefetched { proc } if !processors[proc].is_idle() => Some(proc),
                    _ => continue,
                };
                return Some(SchedAction::Allocate {
                    block,
                    proc,
                    abandon,
                });
            }
        }
        if !cfg.prefetch {
            return None;
        }
        let b = set_bits(self.near.len(), |w| self.waiting[w] & self.near[w]).next()?;
        self.prefetch_into(BlockId(b as u16), processors, program)
    }

    /// Where a prefetch of `block` goes: a processor executing one of
    /// its direct dependencies, else any processor with a free bank.
    fn prefetch_into<P: ProcessorCore>(
        &self,
        block: BlockId,
        processors: &[P],
        program: &Program,
    ) -> Option<SchedAction> {
        let info = program.blocks().get(block).expect("block in table");
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

    /// Scan verifier of [`ready`](Self::ready).
    fn ready_scan<'a>(&'a self, program: &'a Program) -> impl Iterator<Item = BlockId> + 'a {
        program
            .blocks()
            .iter()
            .filter(|(id, info)| {
                matches!(
                    self.status[id.index()],
                    RtStatus::Wait | RtStatus::Prefetched { .. }
                ) && self.dependency_met_scan(&info.dependency)
            })
            .map(|(id, _)| id)
    }

    /// Scan verifier of [`pick_from_bits`](Self::pick_from_bits): the
    /// same choice, made by walking the whole table.
    fn pick_action_scan<P: ProcessorCore>(
        &self,
        processors: &[P],
        program: &Program,
        cfg: &QuapeConfig,
    ) -> Option<SchedAction> {
        for block in self.ready_scan(program) {
            if let RtStatus::Prefetched { proc } = self.status[block.index()] {
                if processors[proc].is_idle() {
                    return Some(SchedAction::StartPrefetched { block, proc });
                }
            }
        }
        for block in self.ready_scan(program) {
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
        if !cfg.prefetch {
            return None;
        }
        let (block, _) = program.blocks().iter().find(|(id, info)| {
            matches!(self.status[id.index()], RtStatus::Wait)
                && self.prefetch_candidate_scan(&info.dependency)
        })?;
        self.prefetch_into(block, processors, program)
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

        // 1. Consume done notifications; only a completion moves the
        // priority counter.
        let mut finished = false;
        for p in processors.iter_mut() {
            if let Some(block) = p.take_finished() {
                self.set_status(cycle, block, RtStatus::Done);
                finished = true;
            }
        }
        if finished {
            self.advance_priority_counter();
        }
        debug_assert_eq!(
            self.priority_counter,
            self.priority_counter_scan(program),
            "priority counter diverged from the table scan"
        );

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
                if processors[proc].start_prefetched(block, cfg.switch_cycles, cycle) {
                    self.set_status(cycle, block, RtStatus::InExecution);
                    stats.prefetch_hits += 1;
                } else {
                    // An allocation to this processor replaced the bank
                    // holding the block (a pre-task load that was not
                    // ready yet): back to wait, to be allocated afresh.
                    self.set_status(cycle, block, RtStatus::Wait);
                }
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
        let block = self.ready().next();
        debug_assert_eq!(
            block,
            self.ready_scan(program).next(),
            "status bit-vectors diverged from the table scan"
        );
        let proc = processors.iter().position(P::is_idle)?;
        Some((block?, proc))
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
