//! The `kernels` workload: a closed loop that calls `ShotEngine::run`
//! directly on the paper's programs, plus the paper's two modelled
//! results and the core probe the serving workloads reuse for the ledger.

use crate::rng::mix_all;
use crate::stats::{median, us};
use crate::trace::{SpanLog, BATCH};
use crate::{Args, Report};
use quape::core::BatchAggregate;
use quape::prelude::*;
use quape::workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};
use std::time::{Duration, Instant};

/// The paper's six-core Shor syndrome-measurement speedup (Fig. 11).
const PAPER_SHOR6: f64 = 2.59;
/// The paper's 8-way superscalar Time-Ratio gain over the suite (Fig. 13).
const PAPER_SUITE_TR: f64 = 4.04;
/// This model's values of the two, as recorded when the benchmark was
/// defined. They are modelled results: any change to them is a change to
/// the model, and fails the run.
const RECORDED_SHOR6: f64 = 2.5284347333591675;
const RECORDED_SUITE_TR: f64 = 4.100491558169256;

/// Verification failure rate of the Shor kernels (the middle of Fig. 11's
/// three rates).
const SHOR_FAILURE_RATE: f64 = 0.25;

/// The kernel groups, in ledger order. Each group is one `core.shot_us.*`
/// and one `core.sim_cycles_p50.*` metric.
const GROUPS: [&str; 7] = [
    "shor_1core",
    "shor_6core",
    "suite_scalar",
    "suite_ss8",
    "fmr_chain",
    "mrce_chain",
    "fig02",
];

/// Kernel-set builds per set-up sample.
const SETUP_BUILDS: usize = 10;

/// Shots per batch, chosen so that every program's batch takes a similar
/// host time (7-10 ms on a quiet 2-CPU host at the default step mode).
fn shots_for(label: &str) -> u64 {
    match label {
        "shor_1core" => 30,
        "shor_6core" => 44,
        "fmr_chain" => 44,
        "mrce_chain" => 40,
        "fig02" => 6600,
        "suite_scalar/bv_16" | "suite_scalar/hs16" | "suite_scalar/rd84_143" => 1000,
        "suite_ss8/bv_16" | "suite_ss8/hs16" => 1000,
        "suite_ss8/rd84_143" => 760,
        "suite_scalar/ising_16" | "suite_scalar/qft_10" | "suite_ss8/qft_10" => 680,
        "suite_ss8/ising_16" => 500,
        "suite_scalar/adder_8" | "suite_ss8/adder_8" => 520,
        "suite_scalar/sym9_146" => 780,
        "suite_ss8/sym9_146" => 720,
        other => panic!("no shot count for kernel {other}"),
    }
}

/// One program of the kernel set, compiled and ready to run.
struct Kernel {
    group: &'static str,
    label: String,
    job: CompiledJob,
    model: MeasurementModel,
    shots: u64,
    base_seed: u64,
}

impl Kernel {
    /// The engine at library defaults (threads, step mode, report mode).
    fn engine(&self) -> ShotEngine {
        let factory = BehavioralQpuFactory::new(self.job.cfg().timings, self.model.clone());
        ShotEngine::new(self.job.clone(), factory).base_seed(self.base_seed)
    }
}

/// The compiled kernel set.
struct KernelSet {
    kernels: Vec<Kernel>,
}

/// Builds and compiles every kernel; base seeds derive from `seed`.
fn kernel_set(seed: u64) -> KernelSet {
    let coin = MeasurementModel::Bernoulli { p_one: 0.5 };
    let mut programs: Vec<(&'static str, String, QuapeConfig, Program, MeasurementModel)> =
        Vec::new();
    let shor = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("Shor generates");
    let shor_model = ShorSyndrome::measurement_model(SHOR_FAILURE_RATE);
    for (group, cores) in [("shor_1core", 1), ("shor_6core", 6)] {
        programs.push((
            group,
            group.to_string(),
            QuapeConfig::multiprocessor(cores),
            shor.program.clone(),
            shor_model.clone(),
        ));
    }
    let compiler = Compiler::new();
    let suite: Vec<(&'static str, Program)> = benchmark_suite()
        .into_iter()
        .map(|b| {
            (
                b.name,
                compiler.compile(&b.circuit).expect("suite compiles"),
            )
        })
        .collect();
    for (group, cfg) in [
        ("suite_scalar", QuapeConfig::scalar_baseline()),
        ("suite_ss8", QuapeConfig::superscalar(8)),
    ] {
        for (name, program) in &suite {
            programs.push((
                group,
                format!("{group}/{name}"),
                cfg.clone(),
                program.clone(),
                coin.clone(),
            ));
        }
    }
    let uni = QuapeConfig::uniprocessor();
    for (group, program) in [
        ("fmr_chain", feedback_chain(0, 1000)),
        ("mrce_chain", mrce_feedback_chain(0, 1000)),
        ("fig02", conditional_x(0)),
    ] {
        let program = program.expect("feedback workload generates");
        programs.push((group, group.to_string(), uni.clone(), program, coin.clone()));
    }
    let kernels = programs
        .into_iter()
        .enumerate()
        .map(|(i, (group, label, cfg, program, model))| Kernel {
            group,
            shots: shots_for(&label),
            base_seed: mix_all(&[seed, i as u64]),
            label,
            job: CompiledJob::compile(cfg, program).expect("kernel compiles"),
            model,
        })
        .collect();
    KernelSet { kernels }
}

/// Exact modelled counts of the reference aggregates.
struct ModelCounts {
    cycles_p50: [u64; 7],
    late_issues: u64,
    violations: u64,
}

fn model_counts(set: &KernelSet, refs: &[BatchAggregate]) -> ModelCounts {
    let mut cycles_p50 = [0u64; 7];
    let (mut late_issues, mut violations) = (0, 0);
    for (k, agg) in set.kernels.iter().zip(refs) {
        let g = group_index(k.group);
        cycles_p50[g] += agg.cycles.p50;
        late_issues += agg.late_issues_total;
        violations += agg.violations_total;
    }
    ModelCounts {
        cycles_p50,
        late_issues,
        violations,
    }
}

fn group_index(group: &str) -> usize {
    GROUPS
        .iter()
        .position(|g| *g == group)
        .expect("known kernel group")
}

/// Counts recorded at the two seeds the benchmark was defined with
/// (development seed 1, held-out seed 2): (seed, Σ cycles p50 per group,
/// late issues, violations).
const RECORDED_COUNTS: [(u64, [u64; 7], u64, u64); 2] = [
    (
        1,
        [2411, 943, 2453, 2136, 46937, 46930, 51],
        314_577,
        21_049,
    ),
    (
        2,
        [2416, 1008, 2454, 2136, 46937, 46935, 51],
        314_642,
        21_143,
    ),
];

/// Checks the counts against the recorded ones when `seed` was recorded.
fn counts_match_record(seed: u64, counts: &ModelCounts) -> Option<bool> {
    RECORDED_COUNTS
        .iter()
        .find(|(s, ..)| *s == seed)
        .map(|(_, p50, late, viol)| {
            *p50 == counts.cycles_p50 && *late == counts.late_issues && *viol == counts.violations
        })
}

/// The Fig. 11 headline: the best six-core speedup over the three failure
/// rates, from the mean simulated execution time of 200 shots per cell
/// at a fixed base seed (independent of the workload seed).
fn shor6_speedup() -> f64 {
    let shor = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("Shor generates");
    let mean_ns = |cores: usize, rate: f64| {
        let cfg = QuapeConfig::multiprocessor(cores);
        let factory = BehavioralQpuFactory::new(cfg.timings, ShorSyndrome::measurement_model(rate));
        let job = CompiledJob::compile(cfg, shor.program.clone()).expect("Shor compiles");
        let agg = ShotEngine::new(job, factory)
            .base_seed(1)
            .run(200)
            .aggregate;
        assert_eq!(agg.stops.completed, 200, "every Shor shot completes");
        agg.execution_time_ns.mean
    };
    [0.1, 0.25, 0.5]
        .iter()
        .map(|&rate| mean_ns(1, rate) / mean_ns(6, rate))
        .fold(0.0, f64::max)
}

/// The Fig. 13 headline: the suite's mean ratio of scalar-baseline to
/// 8-way-superscalar average Time Ratio.
fn suite_tr_gain() -> f64 {
    let compiler = Compiler::new();
    let suite = benchmark_suite();
    let gains: Vec<f64> = suite
        .iter()
        .map(|b| {
            let program = compiler.compile(&b.circuit).expect("suite compiles");
            let tr = |cfg: QuapeConfig| {
                let qpu =
                    BehavioralQpu::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }, 7);
                let report = Machine::new(cfg, program.clone(), Box::new(qpu))
                    .expect("valid machine")
                    .run();
                ces_report_paper(&report).average_tr()
            };
            tr(QuapeConfig::scalar_baseline()) / tr(QuapeConfig::superscalar(8))
        })
        .collect();
    gains.iter().sum::<f64>() / gains.len() as f64
}

/// Computes both paper results, checks each against its record, and notes
/// its error against the paper. Returns (shor6, suite_tr).
pub fn paper_results(report: &mut Report) -> (f64, f64) {
    let shor6 = shor6_speedup();
    let tr = suite_tr_gain();
    for (name, value, paper, recorded) in [
        ("shor6_speedup", shor6, PAPER_SHOR6, RECORDED_SHOR6),
        ("suite_tr_gain", tr, PAPER_SUITE_TR, RECORDED_SUITE_TR),
    ] {
        report.note(format!(
            "{name} = {value:.4}x (paper {paper:.2}x, error {:+.2}%)",
            (value / paper - 1.0) * 100.0
        ));
        report.check(
            value == recorded,
            &format!("{name} differs from its record {recorded}"),
        );
    }
    (shor6, tr)
}

/// Runs every kernel once; returns each batch's aggregate.
fn warm(set: &KernelSet) -> Vec<BatchAggregate> {
    set.kernels
        .iter()
        .map(|k| k.engine().run(k.shots).aggregate)
        .collect()
}

/// Runs whole rounds (every kernel's batch once, in order) until `window`
/// has passed. Each aggregate must equal its kernel's reference; a
/// mismatch counts as a failed job.
fn run_window(
    set: &KernelSet,
    engines: &[ShotEngine],
    refs: &[BatchAggregate],
    window: Duration,
    next_id: &mut u64,
    log: Option<&SpanLog>,
    out: &mut Window,
) {
    let start = Instant::now();
    out.best.resize(set.kernels.len(), Duration::MAX);
    while start.elapsed() < window {
        let round = Instant::now();
        for (i, k) in set.kernels.iter().enumerate() {
            let t0 = Instant::now();
            let batch = engines[i].run(k.shots);
            let t1 = Instant::now();
            let ok = batch.aggregate == refs[i];
            let t2 = Instant::now();
            out.best[i] = out.best[i].min(t1 - t0);
            out.jobs += 1;
            out.failed += u64::from(!ok);
            let g = &mut out.group_wall[group_index(k.group)];
            g.0 += t1 - t0;
            g.1 += k.shots;
            out.sim_cycles += batch.aggregate.cycles.mean * k.shots as f64;
            if let Some(log) = log {
                log.record(*next_id, BATCH, "", t0, t2);
                log.record(*next_id, "core.engine_run", BATCH, t0, t1);
            }
            *next_id += 1;
        }
        out.round_secs.push(round.elapsed().as_secs_f64());
    }
}

#[derive(Default)]
struct Window {
    jobs: u64,
    failed: u64,
    /// Wall time of each whole round.
    round_secs: Vec<f64>,
    /// Each kernel's fastest batch.
    best: Vec<Duration>,
    group_wall: [(Duration, u64); 7],
    sim_cycles: f64,
}

impl Window {
    /// The fastest round the run could make: every kernel's fastest batch
    /// added up. A shared host slows its CPUs in bursts of tens of
    /// milliseconds to minutes; a 10 ms batch often runs between bursts,
    /// so each kernel's fastest batch measures the program, not its
    /// neighbours, where a median round still follows the host's load.
    fn best_round(&self) -> Duration {
        self.best.iter().sum()
    }

    /// Each kernel's fastest batch, µs.
    fn best_us(&self) -> Vec<f64> {
        self.best.iter().map(|d| us(*d)).collect()
    }
}

/// Core-layer ledger metrics from one set of batch timings.
fn core_metrics(report: &mut Report, group_wall: &[(Duration, u64); 7], sim_cycles: f64) {
    for (g, (wall, shots)) in GROUPS.iter().zip(group_wall) {
        let per_shot = if *shots > 0 {
            us(*wall) / *shots as f64
        } else {
            0.0
        };
        report.metric(format!("core.shot_us.{g}"), per_shot, "us");
    }
    let total: Duration = group_wall.iter().map(|(w, _)| *w).sum();
    report.metric(
        "core.host_ns_per_sim_cycle",
        total.as_secs_f64() * 1e9 / sim_cycles.max(1.0),
        "ns",
    );
}

/// Exact modelled counts as ledger metrics.
fn count_metrics(report: &mut Report, counts: &ModelCounts) {
    for (g, p50) in GROUPS.iter().zip(counts.cycles_p50) {
        report.metric(format!("core.sim_cycles_p50.{g}"), p50 as f64, "cycles");
    }
    report.metric("core.late_issues_total", counts.late_issues as f64, "count");
    report.metric("core.violations_total", counts.violations as f64, "count");
}

/// Shots/s of one FMR-chain batch at `nproc` threads over one thread,
/// median of alternating pairs.
fn thread_scaling(set: &KernelSet) -> f64 {
    let k = set
        .kernels
        .iter()
        .find(|k| k.group == "fmr_chain")
        .expect("fmr chain kernel");
    let nproc = crate::host::nproc();
    let shots = (8 * nproc) as u64;
    let time = |threads: usize| {
        let engine = k.engine().threads(threads);
        let t = Instant::now();
        std::hint::black_box(engine.run(shots));
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..5).map(|_| time(1) / time(nproc)).collect();
    median(&ratios)
}

/// The core probe: the kernel set run for half a second, for the ledger
/// of a serving workload's traced run (core metrics, exact counts, thread
/// scaling).
pub fn core_probe(seed: u64, report: &mut Report) {
    let set = kernel_set(seed);
    let refs = warm(&set);
    let engines: Vec<ShotEngine> = set.kernels.iter().map(Kernel::engine).collect();
    let mut w = Window::default();
    let window = Duration::from_millis(500);
    run_window(&set, &engines, &refs, window, &mut 0, None, &mut w);
    report.attempted += w.jobs;
    report.failed += w.failed;
    core_metrics(report, &w.group_wall, w.sim_cycles);
    report.metric("core.thread_scaling", thread_scaling(&set), "x");
    count_metrics(report, &model_counts(&set, &refs));
}

/// Replays `Compiler::compile` on the suite circuits: the median of five
/// passes over all seven, in ms.
pub fn compiler_metric(report: &mut Report, log: Option<&SpanLog>) {
    let compiler = Compiler::new();
    let suite = benchmark_suite();
    let mut id = crate::trace::REPLAY_IDS + (1 << 32);
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for b in &suite {
                let t0 = Instant::now();
                std::hint::black_box(compiler.compile(&b.circuit).expect("suite compiles"));
                if let Some(log) = log {
                    log.record(id, "compiler.compile", "", t0, Instant::now());
                }
                id += 1;
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric("compiler.compile_ms", median(&passes), "ms");
}

/// One set-up sample: builds and compiles the kernel set `SETUP_BUILDS`
/// times (one build takes a few milliseconds) and pushes the time per
/// build. The workload takes a sample before every timed window, so that
/// `setup_s`, the median sample, sees the same host as the rates do.
fn timed_setup(seed: u64, samples: &mut Vec<f64>) -> KernelSet {
    let start = Instant::now();
    let mut set = kernel_set(seed);
    for _ in 1..SETUP_BUILDS {
        set = kernel_set(seed);
    }
    samples.push(start.elapsed().as_secs_f64() / SETUP_BUILDS as f64);
    set
}

/// The `kernels` workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let set = timed_setup(args.seed, &mut setups);
    // Warm-up pass, outside the timed window: the reference aggregates.
    let refs = warm(&set);
    let engines: Vec<ShotEngine> = set.kernels.iter().map(Kernel::engine).collect();

    let log = SpanLog::new();
    let mut plain = Window::default();
    let mut traced = Window::default();
    let mut id = 0;
    for (len, is_traced) in crate::epochs(args, Duration::from_secs(2)) {
        timed_setup(args.seed, &mut setups);
        if is_traced {
            run_window(&set, &engines, &refs, len, &mut id, Some(&log), &mut traced);
        } else {
            run_window(&set, &engines, &refs, len, &mut id, None, &mut plain);
        }
    }

    // Correctness gate, outside the timed windows: the reference
    // aggregates against solo single-thread engines, and a prefix of each
    // kernel against the cycle-stepped oracle.
    for (k, reference) in set.kernels.iter().zip(&refs) {
        let solo = k.engine().threads(1).run(k.shots).aggregate;
        report.check(
            &solo == reference,
            &format!("{} differs from its solo run", k.label),
        );
        let prefix = k.shots.min(2);
        let cycle = k
            .engine()
            .threads(1)
            .step_mode(StepMode::Cycle)
            .run(prefix)
            .aggregate;
        let default = k.engine().threads(1).run(prefix).aggregate;
        report.check(
            cycle == default,
            &format!("{} differs from the cycle oracle", k.label),
        );
        report.check(
            reference.stops.completed == k.shots,
            &format!("{} has shots that did not complete", k.label),
        );
    }
    let counts = model_counts(&set, &refs);
    report.note(format!(
        "modelled counts: cycles p50 {:?}, late issues {}, violations {}",
        counts.cycles_p50, counts.late_issues, counts.violations
    ));
    if let Some(matches) = counts_match_record(args.seed, &counts) {
        report.check(
            matches,
            "modelled counts differ from the record for this seed",
        );
    }
    let (shor6, tr) = paper_results(&mut report);
    let measured = if args.trace { &traced } else { &plain };
    report.attempted += plain.jobs + traced.jobs;
    report.failed += plain.failed + traced.failed;
    let round_shots: u64 = set.kernels.iter().map(|k| k.shots).sum();
    let best_round_s = measured.best_round().as_secs_f64();
    report.note(format!(
        "kernels: {} rounds of {} batches ({round_shots} shots), median round {:.1} ms, fastest batches add up to {:.1} ms",
        measured.round_secs.len(),
        set.kernels.len(),
        median(&measured.round_secs) * 1e3,
        best_round_s * 1e3
    ));
    for (g, (wall, shots)) in GROUPS.iter().zip(&measured.group_wall) {
        report.note(format!(
            "  {g:<13} {:>9.2} us/shot over {shots} shots",
            us(*wall) / (*shots).max(1) as f64
        ));
    }
    if args.trace {
        core_metrics(&mut report, &traced.group_wall, traced.sim_cycles);
        report.metric("core.thread_scaling", thread_scaling(&set), "x");
        count_metrics(&mut report, &counts);
        let texts: Vec<(QuapeConfig, String)> = set
            .kernels
            .iter()
            .map(|k| (k.job.cfg().clone(), k.job.program().to_string()))
            .collect();
        crate::serve::replay_text_metrics(&mut report, &texts, 5, Some(&log));
        compiler_metric(&mut report, Some(&log));
        crate::serve::idle_serving_metrics(&mut report);
        report.metric(
            "ledger.unattributed_share",
            log.unattributed_share(BATCH),
            "ratio",
        );
        let overhead = traced.best_round().as_secs_f64() / plain.best_round().as_secs_f64();
        report.metric("trace.overhead_ratio", overhead, "x");
        report.spans = Some(log);
    } else {
        // Rates and latencies of each kernel's fastest batch (see
        // `Window::best_round`); latency percentiles are over the kernels.
        report.metric("shots_per_sec", round_shots as f64 / best_round_s, "1/s");
        report.metric(
            "jobs_per_sec",
            set.kernels.len() as f64 / best_round_s,
            "1/s",
        );
        let best_us = plain.best_us();
        report.metric("latency_p50_us", median(&best_us), "us");
        report.metric(
            "latency_p99_us",
            crate::stats::percentile(&best_us, 99.0),
            "us",
        );
        report.metric("setup_s", median(&setups), "s");
        report.end_to_end_common(shor6, tr);
    }
    report
}
