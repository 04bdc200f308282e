//! The shot-batched execution engine.
//!
//! Real experiments are multi-shot: randomized benchmarking averages many
//! repetitions per sequence length, multiprogramming studies average over
//! seeds, and a control processor in production replays the same compiled
//! job thousands of times (the process-level parallelism axis that
//! HiMA-style architectures scale along). The [`ShotEngine`] runs `n`
//! shots of one [`CompiledJob`] on the calling thread and on helper
//! threads from a process-wide pool:
//!
//! * each shot gets its own QPU backend from a [`QpuFactory`] and its own
//!   deterministic RNG stream (SplitMix64 of `base_seed ^ shot_index`), so
//!   the batch is **schedule-independent** — the same `base_seed` yields a
//!   bit-identical [`BatchAggregate`] whether it ran on 1 thread or 16;
//! * the helpers park between batches, as the paper's processing units
//!   wait on the block scheduler, so a batch pays per shot, not per
//!   thread: it spawns nothing once the pool has grown, and shots are
//!   claimed in guided chunks (large first, single shots last);
//! * each worker pushes its shots straight into its own
//!   [`ShotAccumulator`] (totals, per-qubit histograms and per-value
//!   counts), and the accumulators merge at the join; no per-shot record
//!   is kept, so memory is O(qubits + distinct values), not O(shots);
//! * the [`BatchReport`] carries per-qubit outcome histograms and survival
//!   estimates, cycle/lateness distributions (p50/p95/max), stop-reason
//!   counts, and the measured wall time / shots-per-second;
//! * each worker runs its shots on one reused [`LoweredShotRunner`]. A
//!   job without feedback (no `FMR`/`MRCE`) is simulated once per
//!   compiled artifact: the recorded issue stream lives on the
//!   [`CompiledJob`], and every later shot, on any worker of any batch,
//!   replays it into the shot's backend and DAQ; a shot whose stop would
//!   reach the cycle budget is simulated in full (see
//!   [`LoweredShotRunner`]). Aggregates are bit-identical to simulating
//!   every shot.

use crate::backend::{QpuBackend, StateVectorQpu};
use crate::machine::{CompiledJob, LoweredShotRunner, ReportMode, Shot, ShotOutcome, StepMode};
use crate::report::{RunReport, StopReason};
use quape_isa::OpTimings;
use quape_qpu::{BehavioralQpuFactory, DepolarizingNoise, ReadoutError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One SplitMix64 scramble (stateless form of the standard stream mixer).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-shot seed: SplitMix64 of `base_seed ^ shot_index`,
/// with the base pre-scrambled through SplitMix64 first.
///
/// The pre-scramble matters: with a raw XOR, nearby bases yield
/// *permutations* of each other's seed sets (`1 ^ 1 == 2 ^ 2`), which an
/// order-insensitive aggregate cannot distinguish. Scrambling the base
/// spreads it across all 64 bits so every `(base_seed, shot_index)` pair
/// maps to an unrelated stream.
///
/// Every shot derives its QPU seed and machine-PRNG seed from this value,
/// so a batch's outcome depends only on `(base_seed, shot_index)` — never
/// on which thread ran the shot or in what order.
pub fn shot_seed(base_seed: u64, shot_index: u64) -> u64 {
    splitmix64(splitmix64(base_seed) ^ shot_index)
}

/// Builds one QPU backend per shot.
///
/// The engine calls `create` once per shot, on the thread that runs the
/// shot, with that shot's deterministic seed. A factory may itself run
/// [`ShotEngine::run`]; nested batches share the helper pool.
pub trait QpuFactory: Send + Sync {
    /// Creates the backend for the shot seeded with `seed`.
    fn create(&self, seed: u64) -> Box<dyn QpuBackend>;
}

/// A shared factory handle is itself a factory, so one factory can serve
/// many concurrently scheduled jobs (the job-service layer hands each
/// job's engine an `Arc` clone of the request's factory).
impl QpuFactory for Arc<dyn QpuFactory> {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        self.as_ref().create(seed)
    }
}

impl QpuFactory for BehavioralQpuFactory {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        Box::new(BehavioralQpuFactory::create(self, seed))
    }
}

/// [`QpuFactory`] for the noisy state-vector backend
/// ([`StateVectorQpu`]).
#[derive(Debug, Clone)]
pub struct StateVectorQpuFactory {
    /// Number of simulated qubits (dense state — keep it small).
    pub num_qubits: u8,
    /// Nominal operation durations for the shadow timing model.
    pub timings: OpTimings,
    /// Depolarizing noise applied after every gate.
    pub noise: DepolarizingNoise,
    /// Readout assignment error.
    pub readout: ReadoutError,
}

impl QpuFactory for StateVectorQpuFactory {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        Box::new(StateVectorQpu::new(
            self.num_qubits,
            self.timings,
            self.noise,
            self.readout,
            seed,
        ))
    }
}

/// Aggregated outcome counts for one qubit across a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct QubitHistogram {
    /// Total `0` outcomes across all shots.
    pub zeros: u64,
    /// Total `1` outcomes across all shots.
    pub ones: u64,
    /// Shots in which this qubit was measured at least once.
    pub shots_measured: u64,
    /// Shots whose *first* measurement of this qubit read `0` (the RB
    /// survival event).
    pub first_zero_shots: u64,
}

impl QubitHistogram {
    /// Survival estimate: fraction of measuring shots whose first outcome
    /// was `0`. `None` if the qubit was never measured.
    pub fn survival(&self) -> Option<f64> {
        if self.shots_measured == 0 {
            None
        } else {
            Some(self.first_zero_shots as f64 / self.shots_measured as f64)
        }
    }

    /// Fraction of all outcomes that read `1`. `None` without outcomes.
    pub fn p_one(&self) -> Option<f64> {
        let total = self.zeros + self.ones;
        if total == 0 {
            None
        } else {
            Some(self.ones as f64 / total as f64)
        }
    }
}

/// Order statistics of a per-shot quantity.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct DistributionSummary {
    /// Smallest observed value.
    pub min: u64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// Largest observed value.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

/// Shots by stop reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct StopCounts {
    /// All blocks done, queues drained.
    pub completed: u64,
    /// `HALT` executed.
    pub halted: u64,
    /// Cycle budget ran out.
    pub cycle_limit: u64,
    /// Execution error.
    pub errors: u64,
}

/// The deterministic part of a batch result: identical for the same
/// `(job, factory, base_seed, shots)` regardless of thread count.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct BatchAggregate {
    /// Shots executed.
    pub shots: u64,
    /// Base seed the per-shot streams derive from.
    pub base_seed: u64,
    /// Per-qubit outcome histograms, indexed by qubit.
    pub qubits: Vec<QubitHistogram>,
    /// Shots by stop reason.
    pub stops: StopCounts,
    /// Distribution of per-shot cycle counts.
    pub cycles: DistributionSummary,
    /// Distribution of per-shot total lateness (cycles).
    pub lateness: DistributionSummary,
    /// Distribution of per-shot end-to-end execution times (ns).
    pub execution_time_ns: DistributionSummary,
    /// Quantum operations issued across all shots.
    pub issued_total: u64,
    /// Late issues across all shots.
    pub late_issues_total: u64,
    /// QPU timing violations across all shots.
    pub violations_total: u64,
    /// AWG-detected device violations across all shots.
    pub awg_violations_total: u64,
    /// DAQ demod-contended results across all shots.
    pub daq_contended_total: u64,
    /// Simulated nanoseconds across all shots.
    pub simulated_ns_total: u64,
}

impl BatchAggregate {
    /// Survival estimate for `qubit` (see [`QubitHistogram::survival`]).
    pub fn survival(&self, qubit: u16) -> Option<f64> {
        self.qubits
            .get(qubit as usize)
            .and_then(QubitHistogram::survival)
    }

    /// True when no shot issued late and no QPU violation occurred.
    pub fn timing_clean(&self) -> bool {
        self.late_issues_total == 0 && self.violations_total == 0
    }
}

/// How often each value occurred among the shots folded so far, with
/// the values' exact sum: enough for nearest-rank order statistics and
/// the mean, and independent of the order the shots arrived in.
#[derive(Debug, Clone, Default)]
struct ValueCounts {
    counts: BTreeMap<u64, u64>,
    sum: u128,
}

impl ValueCounts {
    fn push(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.sum += u128::from(value);
    }

    fn merge(&mut self, other: &ValueCounts) {
        for (&value, &count) in &other.counts {
            *self.counts.entry(value).or_insert(0) += count;
        }
        self.sum += other.sum;
    }

    /// The order statistics of the `n` values counted.
    fn summary(&self, n: u64) -> DistributionSummary {
        let (Some((&min, _)), Some((&max, _))) =
            (self.counts.first_key_value(), self.counts.last_key_value())
        else {
            return DistributionSummary::default();
        };
        // Nearest rank: the value at 0-based position (n-1)·p/100 of the
        // sorted values.
        let rank = |p: u64| {
            let position = (n - 1) * p / 100;
            let mut seen = 0;
            self.counts
                .iter()
                .find(|(_, &count)| {
                    seen += count;
                    seen > position
                })
                .map_or(max, |(&value, _)| value)
        };
        DistributionSummary {
            min,
            p50: rank(50),
            p95: rank(95),
            max,
            mean: self.sum as f64 / n as f64,
        }
    }
}

/// The batch fold: shots pushed one at a time, kept only as totals,
/// per-qubit histograms and value counts, never as per-shot records.
///
/// Every field of [`BatchAggregate`] is independent of shot order, so
/// accumulators over any split of a batch's shots [`merge`] in any
/// order into the accumulator of the whole batch, and [`finish`] yields
/// the same aggregate bit for bit. Engine workers each fold their own
/// shots and merge at the join; the job service merges quanta into a
/// job's completed prefix. The state is O(qubits + distinct per-shot
/// values), whatever the number of shots.
///
/// [`merge`]: ShotAccumulator::merge
/// [`finish`]: ShotAccumulator::finish
#[derive(Debug, Clone, Default)]
pub struct ShotAccumulator {
    /// Every count and total in its final form; `finish` fills in the
    /// base seed and the distributions.
    totals: BatchAggregate,
    cycles: ValueCounts,
    lateness: ValueCounts,
    execution_time_ns: ValueCounts,
    /// Per-qubit "measured yet" flags of the shot being pushed, reused
    /// across pushes.
    measured: Vec<bool>,
}

impl ShotAccumulator {
    /// Folds in one shot of a job with `width` qubits. A measurement of
    /// a qubit at or past `width` is ignored; the aggregate's histograms
    /// are as wide as the widest shot pushed.
    pub fn push(&mut self, width: u16, shot: &ShotOutcome<'_>) {
        let t = &mut self.totals;
        let width = usize::from(width);
        if t.qubits.len() < width {
            t.qubits.resize(width, QubitHistogram::default());
        }
        self.measured.clear();
        self.measured.resize(width, false);
        for m in shot.measurements {
            let q = usize::from(m.qubit.index());
            let Some(measured) = self.measured.get_mut(q) else {
                continue;
            };
            let h = &mut t.qubits[q];
            if m.value {
                h.ones += 1;
            } else {
                h.zeros += 1;
            }
            if !*measured {
                *measured = true;
                h.shots_measured += 1;
                h.first_zero_shots += u64::from(!m.value);
            }
        }
        match shot.stop {
            StopReason::Completed => t.stops.completed += 1,
            StopReason::Halted => t.stops.halted += 1,
            StopReason::CycleLimit => t.stops.cycle_limit += 1,
            StopReason::Error => t.stops.errors += 1,
        }
        t.shots += 1;
        t.issued_total += shot.issued_ops;
        t.late_issues_total += shot.late_issues;
        t.violations_total += shot.violations;
        t.awg_violations_total += shot.awg_violations;
        t.daq_contended_total += shot.daq_contended;
        t.simulated_ns_total += shot.execution_time_ns();
        self.cycles.push(shot.cycles);
        self.lateness.push(shot.late_cycles);
        self.execution_time_ns.push(shot.execution_time_ns());
    }

    /// Adds `other`'s shots to this accumulator.
    pub fn merge(&mut self, other: &ShotAccumulator) {
        let (t, o) = (&mut self.totals, &other.totals);
        if t.qubits.len() < o.qubits.len() {
            t.qubits.resize(o.qubits.len(), QubitHistogram::default());
        }
        for (h, o) in t.qubits.iter_mut().zip(&o.qubits) {
            h.zeros += o.zeros;
            h.ones += o.ones;
            h.shots_measured += o.shots_measured;
            h.first_zero_shots += o.first_zero_shots;
        }
        t.stops.completed += o.stops.completed;
        t.stops.halted += o.stops.halted;
        t.stops.cycle_limit += o.stops.cycle_limit;
        t.stops.errors += o.stops.errors;
        t.shots += o.shots;
        t.issued_total += o.issued_total;
        t.late_issues_total += o.late_issues_total;
        t.violations_total += o.violations_total;
        t.awg_violations_total += o.awg_violations_total;
        t.daq_contended_total += o.daq_contended_total;
        t.simulated_ns_total += o.simulated_ns_total;
        self.cycles.merge(&other.cycles);
        self.lateness.merge(&other.lateness);
        self.execution_time_ns.merge(&other.execution_time_ns);
    }

    /// The aggregate of every shot pushed or merged in, for a batch
    /// whose per-shot streams derive from `base_seed`.
    pub fn finish(&self, base_seed: u64) -> BatchAggregate {
        let n = self.totals.shots;
        BatchAggregate {
            base_seed,
            cycles: self.cycles.summary(n),
            lateness: self.lateness.summary(n),
            execution_time_ns: self.execution_time_ns.summary(n),
            ..self.totals.clone()
        }
    }
}

/// The result of a batched run: the deterministic [`BatchAggregate`] plus
/// host-side measurements (wall time, thread count).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The schedule-independent aggregate.
    pub aggregate: BatchAggregate,
    /// Threads the batch could use: the caller plus the helpers it asked
    /// the pool for.
    pub threads: usize,
    /// Host wall time for the whole batch.
    pub wall_time: Duration,
}

impl BatchReport {
    /// Host throughput in shots per second.
    pub fn shots_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.aggregate.shots as f64 / secs
        }
    }
}

/// Cheap telemetry handles for the engine's shot hot path.
///
/// The default ([`EngineObs::off`]) is compile-time inert: every update
/// is an inlined no-op on `None`-backed handles, so an uninstrumented
/// engine pays one predictable branch per shot. The job service wires
/// live handles from its shard's `quape-obs` registry when that scope
/// traces; an untraced scope leaves the per-shot path inert.
#[derive(Debug, Clone, Default)]
pub struct EngineObs {
    /// Per-shot simulated cycle counts (log2 buckets); its count is the
    /// number of shots executed through this engine.
    pub shot_cycles: quape_obs::Histogram,
}

impl EngineObs {
    /// The inert default.
    pub const fn off() -> Self {
        EngineObs {
            shot_cycles: quape_obs::Histogram::off(),
        }
    }

    /// Handles registered in `scope`'s metric registry (inert when
    /// `scope` does not trace).
    pub fn in_scope(scope: &quape_obs::ObsScope) -> Self {
        EngineObs {
            shot_cycles: scope.histogram("engine.shot_cycles"),
        }
    }
}

/// Per-worker reusable machine state for
/// [`ShotEngine::run_shot_reusing`].
///
/// One scratch per worker thread; every thread of a [`ShotEngine::run`]
/// keeps one for its part of the batch. The scratch lazily holds a
/// [`LoweredShotRunner`] keyed by job identity: shots of the same
/// compiled job (or a clone of it) reuse its arenas, and any other job
/// rebuilds it, so external pools may hold one scratch across jobs (the
/// job service's workers each keep one for their whole life). The replay
/// trace is not the scratch's: it lives on the compiled artifact, so a
/// rebuilt runner replays from its first shot. Identity is the shared
/// artifact itself, not the content digest: a digest collision must
/// never put one job's arena to work for another.
#[derive(Default)]
pub struct WorkerScratch {
    runner: Option<LoweredShotRunner>,
}

impl WorkerScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch's runner for `job`, (re)built if the held one serves
    /// a different job.
    fn runner_for(&mut self, job: &CompiledJob) -> &mut LoweredShotRunner {
        let stale = self
            .runner
            .as_ref()
            .is_none_or(|r| !r.job().is_same_artifact(job));
        if stale {
            self.runner = Some(LoweredShotRunner::new(job.clone()));
        }
        self.runner.as_mut().expect("runner just ensured")
    }
}

/// Runs `n` shots of one [`CompiledJob`] on the calling thread and
/// pooled helper threads.
///
/// ```
/// use quape_core::{CompiledJob, QuapeConfig, ShotEngine};
/// use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
/// use quape_isa::assemble;
///
/// let program = assemble("0 H q0\n1 MEAS q0\nSTOP\n")?;
/// let cfg = QuapeConfig::superscalar(4);
/// let factory = BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
/// let job = CompiledJob::compile(cfg, program)?;
/// let report = ShotEngine::new(job, factory).base_seed(7).threads(2).run(64);
/// assert_eq!(report.aggregate.shots, 64);
/// assert_eq!(report.aggregate.stops.completed, 64);
/// let h = &report.aggregate.qubits[0];
/// assert_eq!(h.shots_measured, 64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct ShotEngine {
    job: CompiledJob,
    factory: Arc<dyn QpuFactory>,
    threads: usize,
    base_seed: u64,
    cycle_limit: u64,
    step_mode: StepMode,
    obs: EngineObs,
}

impl ShotEngine {
    /// Creates an engine for `job` with backends from `factory`.
    ///
    /// Defaults: automatic thread count (`available_parallelism`), base
    /// seed from the job's config, 10-million-cycle budget per shot, and
    /// the lowered executor ([`StepMode::Lowered`]).
    pub fn new(job: CompiledJob, factory: impl QpuFactory + 'static) -> Self {
        let base_seed = job.cfg().seed;
        ShotEngine {
            job,
            factory: Arc::new(factory),
            threads: 0,
            base_seed,
            cycle_limit: 10_000_000,
            step_mode: StepMode::default(),
            obs: EngineObs::off(),
        }
    }

    /// Sets how many threads run a batch (`0` = `available_parallelism`):
    /// the calling thread plus up to `threads - 1` helpers from the
    /// process-wide pool (see [`run`](Self::run)). A batch of fewer shots
    /// uses at most one thread per shot.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the base seed of the per-shot SplitMix64 streams.
    pub fn base_seed(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the per-shot cycle budget.
    pub fn cycle_limit(mut self, cycle_limit: u64) -> Self {
        self.cycle_limit = cycle_limit;
        self
    }

    /// Sets which executor runs the shots. [`StepMode::Lowered`] (the
    /// default) runs pre-decoded micro-ops and skips provably idle spans;
    /// [`StepMode::Cycle`] is the bit-identical slow oracle for
    /// differential testing and perf comparisons.
    pub fn step_mode(mut self, step_mode: StepMode) -> Self {
        self.step_mode = step_mode;
        self
    }

    /// Attaches telemetry handles. Recording is observation-only: it
    /// never changes seeds or scheduling, so aggregates stay
    /// bit-identical to an uninstrumented run.
    pub fn obs(mut self, obs: EngineObs) -> Self {
        self.obs = obs;
        self
    }

    /// The job this engine runs.
    pub fn job(&self) -> &CompiledJob {
        &self.job
    }

    /// Helper threads the process-wide shot pool holds, parked or
    /// running: the largest `min(threads, shots) - 1` any
    /// [`run`](Self::run) has asked for so far (fewer only if a spawn
    /// failed).
    pub fn pooled_helpers() -> usize {
        crate::pool::helpers()
    }

    fn effective_threads(&self, shots: u64) -> usize {
        let auto = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let t = if self.threads == 0 {
            auto()
        } else {
            self.threads
        };
        t.clamp(1, shots.max(1) as usize)
    }

    /// Shot `shot`'s backend and machine-PRNG seed. Both derive from
    /// [`shot_seed`], through distinct streams so that the backend and
    /// the machine's DAQ jitter never correlate.
    fn shot_inputs(&self, shot: u64) -> (Box<dyn QpuBackend>, u64) {
        let seed = shot_seed(self.base_seed, shot);
        (self.factory.create(seed), splitmix64(seed ^ 0x51AE_17E5))
    }

    /// Shot `shot` of the batch as a fresh [`Shot`], ready to step or
    /// run with any [`ReportMode`]: it executes exactly what the batch
    /// folds for that index, so a full report can be taken of any one
    /// shot of a batch.
    pub fn shot(&self, shot: u64) -> Shot {
        let (qpu, machine_seed) = self.shot_inputs(shot);
        self.job.shot(qpu, machine_seed)
    }

    /// Runs exactly one shot of the batch and returns it folded into a
    /// fresh [`ShotAccumulator`].
    ///
    /// The result depends only on `(job, factory, base_seed, shot)`, so
    /// callers may run any subset of a batch's shots, in any order, on
    /// any thread, and merge the accumulators into the batch aggregate.
    ///
    /// This is the full-simulation oracle: each call runs a fresh lean
    /// [`Shot`] on the engine's executor, with no runner and no replay
    /// trace, even when the job's artifact holds one. So a merge of
    /// `run_shot` accumulators checks replayed batches against
    /// simulation. A worker running many shots should hold a
    /// [`WorkerScratch`] and call
    /// [`run_shot_reusing`](ShotEngine::run_shot_reusing) instead.
    pub fn run_shot(&self, shot: u64) -> ShotAccumulator {
        let mut acc = ShotAccumulator::default();
        let report = self.simulate(shot);
        self.fold(&report.outcome(), &mut acc);
        acc
    }

    /// Shot `shot` as a fresh lean [`Shot`], run on the engine's executor.
    fn simulate(&self, shot: u64) -> RunReport {
        self.shot(shot)
            .report_mode(ReportMode::Lean)
            .run_with_mode(self.step_mode, self.cycle_limit)
    }

    /// Records a finished shot and pushes it into `acc`.
    fn fold(&self, outcome: &ShotOutcome<'_>, acc: &mut ShotAccumulator) {
        self.obs.shot_cycles.record(outcome.cycles);
        acc.push(self.job.num_qubits(), outcome);
    }

    /// Runs shot `shot` and pushes it into `acc` — the *shot quantum*
    /// primitive the engine's workers and the job service's workers
    /// loop over.
    ///
    /// With the lowered executor (the default) the shot runs on
    /// `scratch`'s [`LoweredShotRunner`], so machine state is reset in
    /// place instead of reallocated per shot, and a feedback-free job's
    /// shots replay the issue stream its artifact recorded once. The
    /// cycle oracle runs a fresh lean [`Shot`] instead. The pushed shot is
    /// bit-identical either way: `scratch` affects host cost only, and
    /// it revalidates itself against the engine's job, so one scratch
    /// may serve engines of different jobs sequentially.
    pub fn run_shot_reusing(
        &self,
        shot: u64,
        scratch: &mut WorkerScratch,
        acc: &mut ShotAccumulator,
    ) {
        if self.step_mode == StepMode::Lowered {
            let (qpu, machine_seed) = self.shot_inputs(shot);
            let outcome =
                scratch
                    .runner_for(&self.job)
                    .run_shot(qpu, machine_seed, self.cycle_limit);
            self.fold(&outcome, acc);
        } else {
            self.fold(&self.simulate(shot).outcome(), acc);
        }
    }

    /// Runs `shots` shots and aggregates them.
    ///
    /// The calling thread runs shots itself and posts help requests for
    /// up to `threads - 1` helpers to a process-wide pool of parked
    /// threads. The pool grows lazily to the most helpers any batch has
    /// asked for, never beyond, so a warmed engine spawns no thread. A
    /// helper joins only while shots are left; the caller waits for the
    /// helpers that joined and for no other, so a helper busy elsewhere
    /// costs it nothing, and nested (a factory that runs a batch) and
    /// concurrent batches cannot deadlock. Shots are claimed in guided
    /// chunks, large at the start and single shots at the end.
    ///
    /// Each thread folds its shots into its own [`ShotAccumulator`], and
    /// the accumulators merge at the end. The fold is independent of shot
    /// order, so the result is bit-identical for any thread count. A
    /// panic in a helper's shot resumes on the caller, once every joined
    /// helper has finished; the helper thread survives it.
    pub fn run(&self, shots: u64) -> BatchReport {
        let start = Instant::now();
        let threads = self.effective_threads(shots);
        let acc = crate::pool::run(self, shots, threads);
        BatchReport {
            aggregate: acc.finish(self.base_seed),
            threads,
            wall_time: start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuapeConfig;
    use quape_qpu::MeasurementModel;

    fn tiny_job(seed: u64) -> CompiledJob {
        let program =
            quape_isa::assemble("0 H q0\n2 MEAS q0\n0 MEAS q1\nSTOP\n").expect("valid program");
        CompiledJob::compile(QuapeConfig::superscalar(4).with_seed(seed), program)
            .expect("job compiles")
    }

    fn coin_factory(job: &CompiledJob) -> BehavioralQpuFactory {
        BehavioralQpuFactory::new(
            job.cfg().timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
        )
    }

    #[test]
    fn shot_seeds_are_spread() {
        let a = shot_seed(1, 0);
        let b = shot_seed(1, 1);
        let c = shot_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn nearby_bases_do_not_permute_each_others_streams() {
        // With a raw `base ^ shot` derivation, bases 1 and 2 produce the
        // same seed *multiset* over shots 0..n (1^1 == 2^2 == 0), which
        // collides order-insensitive aggregates.
        let set = |base: u64| {
            let mut v: Vec<u64> = (0..64).map(|i| shot_seed(base, i)).collect();
            v.sort_unstable();
            v
        };
        assert_ne!(set(1), set(2));
        assert_ne!(set(0), set(1));
    }

    #[test]
    fn aggregate_counts_are_consistent() {
        let job = tiny_job(3);
        let factory = coin_factory(&job);
        let report = ShotEngine::new(job, factory).threads(1).run(100);
        let agg = &report.aggregate;
        assert_eq!(agg.shots, 100);
        assert_eq!(agg.stops.completed, 100);
        assert_eq!(agg.qubits.len(), 2);
        for h in &agg.qubits {
            assert_eq!(h.zeros + h.ones, 100);
            assert_eq!(h.shots_measured, 100);
        }
        // A fair coin over 100 shots should not be degenerate.
        let p = agg.qubits[0].p_one().expect("measured");
        assert!((0.2..=0.8).contains(&p), "p_one = {p}");
        assert_eq!(agg.issued_total, 300);
    }

    #[test]
    fn thread_count_does_not_change_the_aggregate() {
        let job = tiny_job(9);
        let sequential = ShotEngine::new(job.clone(), coin_factory(&job))
            .threads(1)
            .run(64);
        let parallel = ShotEngine::new(job.clone(), coin_factory(&job))
            .threads(4)
            .run(64);
        assert_eq!(sequential.aggregate, parallel.aggregate);
        assert_eq!(parallel.threads, 4);
    }

    #[test]
    fn shot_quantum_api_reproduces_the_batch_aggregate() {
        // Running shots individually (in scrambled order) and merging
        // their accumulators is bit-identical to ShotEngine::run — the
        // contract the multi-tenant job service is built on.
        let job = tiny_job(11);
        let engine = ShotEngine::new(job.clone(), coin_factory(&job)).base_seed(42);
        let whole = engine.run(40);
        let mut folded = ShotAccumulator::default();
        for shot in (0..40).rev() {
            folded.merge(&engine.run_shot(shot));
        }
        assert_eq!(whole.aggregate, folded.finish(42));
    }

    #[test]
    fn one_scratch_serves_alternating_jobs_exactly() {
        // Two feedback-free jobs (each artifact records an issue stream
        // once, and every runner on it replays it) and two clones of one
        // of them: however the scratch alternates, every shot equals a
        // fresh shot.
        let other = CompiledJob::compile(
            QuapeConfig::superscalar(4),
            quape_isa::assemble("0 X q1\n3 MEAS q1\n0 H q0\n5 MEAS q0\nSTOP\n")
                .expect("valid program"),
        )
        .expect("job compiles");
        let job = tiny_job(5);
        let engines = [
            ShotEngine::new(job.clone(), coin_factory(&job)),
            ShotEngine::new(other.clone(), coin_factory(&other)),
            ShotEngine::new(job.clone(), coin_factory(&job)),
        ];
        let mut scratch = WorkerScratch::new();
        let mut shot = 0;
        for _round in 0..4 {
            for (i, engine) in engines.iter().enumerate() {
                // A few back-to-back shots, so the runner replays; the
                // clone (engine 2) keeps engine 0's runner.
                for _ in 0..3 {
                    let mut reused = ShotAccumulator::default();
                    engine.run_shot_reusing(shot, &mut scratch, &mut reused);
                    assert_eq!(
                        reused.finish(0),
                        engine.run_shot(shot).finish(0),
                        "engine {i}, shot {shot}"
                    );
                    shot += 1;
                }
            }
        }
    }

    #[test]
    fn base_seed_changes_outcomes() {
        let job = tiny_job(0);
        let a = ShotEngine::new(job.clone(), coin_factory(&job))
            .base_seed(1)
            .threads(1)
            .run(32);
        let b = ShotEngine::new(job.clone(), coin_factory(&job))
            .base_seed(2)
            .threads(1)
            .run(32);
        assert_ne!(a.aggregate.qubits, b.aggregate.qubits);
    }

    #[test]
    fn distribution_summary_ranks() {
        // Each of 1..=100 three times: 300 values held as 100 counts.
        let mut counts = ValueCounts::default();
        for v in (1..=100).rev().cycle().take(300) {
            counts.push(v);
        }
        assert_eq!(counts.counts.len(), 100);
        let d = counts.summary(300);
        assert_eq!(d.min, 1);
        assert_eq!(d.p50, 50);
        assert_eq!(d.p95, 95);
        assert_eq!(d.max, 100);
        assert!((d.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn an_empty_accumulator_finishes_to_the_empty_aggregate() {
        // What a router reports mid-re-route, and a batch of no shots.
        let empty = BatchAggregate {
            shots: 0,
            base_seed: 9,
            qubits: Vec::new(),
            stops: StopCounts::default(),
            cycles: DistributionSummary::default(),
            lateness: DistributionSummary::default(),
            execution_time_ns: DistributionSummary::default(),
            issued_total: 0,
            late_issues_total: 0,
            violations_total: 0,
            awg_violations_total: 0,
            daq_contended_total: 0,
            simulated_ns_total: 0,
        };
        assert_eq!(ShotAccumulator::default().finish(9), empty);
        let job = tiny_job(1);
        let engine = ShotEngine::new(job.clone(), coin_factory(&job)).base_seed(9);
        assert_eq!(engine.run(0).aggregate, empty);
    }

    #[test]
    fn state_vector_factory_runs_shots() {
        let program = quape_isa::assemble("0 X q0\n2 MEAS q0\nSTOP\n").expect("valid program");
        let job = CompiledJob::compile(QuapeConfig::superscalar(4), program).expect("job compiles");
        let factory = StateVectorQpuFactory {
            num_qubits: 1,
            timings: job.cfg().timings,
            noise: DepolarizingNoise {
                pauli_error_prob: 0.0,
            },
            readout: ReadoutError::default(),
        };
        let report = ShotEngine::new(job, factory).threads(2).run(16);
        let h = &report.aggregate.qubits[0];
        // Noiseless X then measure: every shot reads 1.
        assert_eq!(h.ones, 16);
        assert_eq!(h.zeros, 0);
    }
}
