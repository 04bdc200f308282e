//! Machine-description scenario sweep: run the fixed workload grid
//! (Fig. 2 feedback chain, pulse train, readout burst, mixed-traffic
//! slice) across a set of declarative machine descriptions and print a
//! comparison table.
//!
//! Usage: `sweep [--machines <dir>] [--seed S] [--repeats K] [--json]
//! [--json-out <path>] [--check-roundtrip] [--dry-run]`.
//!
//! Without `--machines` the builtin grid (baseline, superscalar,
//! multiprocessor-4) runs; with it, every `machines/*.json` description
//! is swept in file-stem order. Every machine × workload cell executes
//! `--repeats` times (min 2) and the run exits nonzero if any repeat's
//! aggregate diverges — the sweep is also the determinism gate for the
//! whole declarative config surface. The repeats merge fresh per-shot
//! accumulators, so they also prove shot replay equal to full simulation. `--check-roundtrip` additionally
//! verifies each committed description file re-serializes
//! byte-identically. `--dry-run` stops after those static checks
//! (loading, validation, round-trip) without executing the sweep —
//! the fast path for a CI baselines job. `--json-out
//! BENCH_machines.json` refreshes the committed baseline in one
//! command.

use quape_bench::sweep::{
    builtin_grid, check_roundtrip_dir, load_machines_dir, run_sweep, WORKLOAD_NAMES,
};
use quape_bench::table::{to_json, write_json, TextTable};

struct Args {
    machines: Option<String>,
    seed: u64,
    repeats: usize,
    json: bool,
    json_out: Option<String>,
    check_roundtrip: bool,
    dry_run: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        machines: None,
        seed: 7,
        repeats: 2,
        json: false,
        json_out: None,
        check_roundtrip: false,
        dry_run: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--machines" => args.machines = Some(it.next().expect("--machines needs a directory")),
            "--seed" => args.seed = num("--seed"),
            "--repeats" => args.repeats = num("--repeats") as usize,
            "--json" => args.json = true,
            "--json-out" => args.json_out = Some(it.next().expect("--json-out needs a path")),
            "--check-roundtrip" => args.check_roundtrip = true,
            "--dry-run" => args.dry_run = true,
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
    let machines = match &args.machines {
        Some(dir) => {
            if args.check_roundtrip {
                match check_roundtrip_dir(dir) {
                    Ok(n) => eprintln!("{n} description files round-trip byte-identically"),
                    Err(e) => {
                        eprintln!("FAIL: {e}");
                        std::process::exit(1);
                    }
                }
            }
            match load_machines_dir(dir) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("FAIL: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => builtin_grid(),
    };
    if args.dry_run {
        eprintln!(
            "dry run: {} machine descriptions load and validate",
            machines.len()
        );
        return;
    }
    let rows = match run_sweep(&machines, args.seed, args.repeats) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("FAIL: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.json_out {
        write_json(path, &rows);
    }
    if args.json {
        println!("{}", to_json(&rows));
    } else {
        println!(
            "Machine sweep: {} machines x {} workloads, seed {}, {} repeats \
             (aggregates verified identical across repeats):",
            machines.len(),
            WORKLOAD_NAMES.len(),
            args.seed,
            args.repeats.max(2)
        );
        let mut t = TextTable::new([
            "machine",
            "workload",
            "shots",
            "mean cycles",
            "max cycles",
            "late",
            "daq contended",
            "simulated",
            "fingerprint",
        ]);
        for r in &rows {
            t.row([
                r.machine.clone(),
                r.workload.clone(),
                r.shots.to_string(),
                format!("{:.1}", r.mean_cycles),
                r.max_cycles.to_string(),
                r.late_issues.to_string(),
                r.daq_contended.to_string(),
                format!("{:.2} ms", r.simulated_ns as f64 / 1e6),
                r.fingerprint[..16].to_string(),
            ]);
        }
        println!("{}", t.render());
    }
}
