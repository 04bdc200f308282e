//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels|catalog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the workload's inputs from the
//! seed, sets up several times (`setup_s` is the median), measures for
//! `--seconds`, checks every output against a solo oracle outside the
//! timed windows, and prints one JSON result as the last line of standard
//! output. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
//! untraced and traced windows alternately and reports the per-layer
//! ledger, with the spans written to `.bench_out/`. `BENCHMARK.json` lists
//! every metric; `perfbench/README.md` says what each one should move.

mod host;
mod kernels;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// The timed windows of a run: (length, traced). An untraced run splits
/// `--seconds` into windows of at most `longest`; a traced run alternates
/// untraced and traced windows (at least one of each) so that both see
/// the same host conditions.
pub fn epochs(args: &Args, longest: Duration) -> Vec<(Duration, bool)> {
    let total = Duration::from_secs_f64(args.seconds);
    let mut n = (args.seconds / longest.as_secs_f64()).ceil().max(1.0) as u32;
    if args.trace {
        n = (n + n % 2).max(2);
    }
    (0..n)
        .map(|i| (total / n, args.trace && i % 2 == 1))
        .collect()
}

/// Everything a run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    pub spans: Option<trace::SpanLog>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// One correctness check outside the timed windows: attempted, and
    /// failed (with a note) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    /// The end-to-end metrics every workload reports the same way.
    pub fn end_to_end_common(&mut self, shor6: f64, suite_tr: f64) {
        self.metric("peak_rss_mib", host::peak_rss_mib(), "MiB");
        self.metric("shor6_speedup", shor6, "x");
        self.metric("suite_tr_gain", suite_tr, "x");
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    host::json_str(name),
                    host::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "kernels" => kernels::run(&args),
        "catalog" => serve::run_catalog(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (kernels, catalog)");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let host = host::HostRecord::collect(&root);
    let result = report.result_json();
    for line in &report.notes {
        eprintln!("# {line}");
    }
    if let Err(e) = write_outputs(&args, &host, &report, &result) {
        eprintln!("perfbench: could not write {}: {e}", args.out.display());
    }
    println!("{{\"host\": {}}}", host.to_json());
    println!("{result}");
    ExitCode::SUCCESS
}

/// Writes the result with its host record and notes, and the spans of a
/// traced run, under `args.out`.
fn write_outputs(
    args: &Args,
    host: &host::HostRecord,
    report: &Report,
    result: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let notes: Vec<String> = report.notes.iter().map(|n| host::json_str(n)).collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {},\n \"notes\": [{}],\n \"result\": {}}}\n",
        host::json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        notes.join(", "),
        result
    );
    std::fs::write(args.out.join(format!("{stem}.json")), record)?;
    if let Some(spans) = &report.spans {
        std::fs::write(args.out.join(format!("spans-{stem}.json")), spans.to_json())?;
    }
    Ok(())
}
