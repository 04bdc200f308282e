//! Regenerates the Fig. 2 feedback-control latency breakdown (§7 measures
//! the total at ≈ 450 ns on the prototype).
//!
//! Usage: `fig02_feedback_latency [--json] [--json-out <path>]
//! [--compare-step-modes] [--repeats <k>] [--min-speedup <x>]`.
//!
//! `--compare-step-modes` instead benchmarks the execution core: it runs
//! the feedback workloads under `StepMode::Cycle` and `StepMode::Lowered`,
//! asserts their aggregates agree, and prints shots/sec per mode.
//! `--json-out BENCH_engine.json` is the one-command refresh of the
//! committed baseline, and `--min-speedup 1.0` turns the run into a CI
//! gate that fails when any lowered-vs-cycle speedup drops below the
//! threshold times the row's gate floor (a correctness-of-claim check:
//! the fast path must never be slower than the cycle oracle).
//!
//! Each workload is timed by `quape_bench::measure`: one warm-up round,
//! then `--repeats` (default 1) measured rounds that run both modes
//! once each, starting from the other mode in turn. Shots/sec is taken
//! at each mode's median wall time, and the gated speedup is the median
//! of the per-round cycle/lowered wall-time ratios, so host-speed drift
//! cancels instead of gating. Pair the gate with `--repeats 3`.

use quape_bench::fig02;
use quape_bench::table::{to_json, write_json, TextTable};
use quape_core::QuapeConfig;

struct Args {
    json: bool,
    json_out: Option<String>,
    compare: bool,
    repeats: usize,
    min_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        json: false,
        json_out: None,
        compare: false,
        repeats: 1,
        min_speedup: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(it.next().expect("--json-out needs a path"));
            }
            "--compare-step-modes" => args.compare = true,
            "--repeats" => {
                let v = it.next().expect("--repeats needs a number");
                args.repeats = v.parse().expect("--repeats needs a number");
            }
            "--min-speedup" => {
                let v = it.next().expect("--min-speedup needs a number");
                args.min_speedup = Some(v.parse().expect("--min-speedup needs a number"));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = QuapeConfig::uniprocessor();
    if args.compare {
        let results = fig02::compare_executors(&cfg, 1, args.repeats);
        if let Some(path) = &args.json_out {
            write_json(path, &results);
        }
        if args.json {
            println!("{}", to_json(&results));
        } else {
            println!("Execution-core step-mode comparison (single worker thread):");
            let mut t = TextTable::new([
                "workload",
                "rounds",
                "shots",
                "p50 cycles",
                "cycle shots/s",
                "lowered shots/s",
                "cycle ms (min-max, n)",
                "lowered ms (min-max, n)",
                "speedup",
            ]);
            for r in &results {
                t.row([
                    r.workload.clone(),
                    r.rounds.to_string(),
                    r.shots.to_string(),
                    r.p50_cycles.to_string(),
                    format!("{:.0}", r.cycle_shots_per_sec),
                    format!("{:.0}", r.lowered_shots_per_sec),
                    r.cycle_wall.to_string(),
                    r.lowered_wall.to_string(),
                    format!("{:.2}x", r.speedup),
                ]);
            }
            println!("{}", t.render());
        }
        if let Some(min) = args.min_speedup {
            // Each workload's threshold is `--min-speedup` scaled by its
            // gate_floor (0.9 for the simulated, device-saturated pulse
            // train, 1.0 for every other workload).
            let failing: Vec<&fig02::StepModeComparison> = results
                .iter()
                .filter(|r| r.speedup < min * r.gate_floor)
                .collect();
            if !failing.is_empty() {
                for r in &failing {
                    eprintln!(
                        "FAIL: {} lowered-vs-cycle speedup {:.3} < required {:.3}",
                        r.workload,
                        r.speedup,
                        min * r.gate_floor
                    );
                }
                std::process::exit(1);
            }
            eprintln!(
                "all {} workloads at speedup >= {min:.2} x their gate floor",
                results.len()
            );
        }
        return;
    }
    let b = fig02::run(&cfg);
    if let Some(path) = &args.json_out {
        write_json(path, &b);
    }
    if args.json {
        println!("{}", to_json(&b));
        return;
    }
    println!("Fig. 2 — feedback-control latency breakdown (deterministic DAQ):");
    let mut t = TextTable::new(["stage", "latency (ns)"]);
    t.row([
        "I   readout pulse".to_string(),
        b.stage1_readout_ns.to_string(),
    ]);
    t.row([
        "II  digital acquisition".to_string(),
        b.stage2_acquisition_ns.to_string(),
    ]);
    t.row([
        "III conditional logic+branch".to_string(),
        b.stage3_conditional_ns.to_string(),
    ]);
    t.row([
        "IV  determined operation at".to_string(),
        b.total_ns.to_string(),
    ]);
    println!("{}", t.render());
    let mean = fig02::mean_total_with_jitter(&cfg, 200);
    println!("mean total with DAQ jitter over 200 runs: {mean:.1} ns   (paper: ~450 ns)");
}
