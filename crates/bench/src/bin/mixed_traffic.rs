//! Mixed-traffic serving benchmark: `JobServer` (cache-cold and
//! cache-warm) versus a naive per-request compile+run client on one
//! deterministic heterogeneous request stream.
//!
//! Usage: `mixed_traffic [--requests N] [--seed S] [--threads T]
//! [--repeats K] [--machine <file-or-name>] [--json] [--json-out <path>]
//! [--min-warm-speedup <x>] [--pack] [--min-pack-ratio <x>]
//! [--check-schema <path>] [--trace-out <path>] [--metrics-out <path>]
//! [--min-obs-ratio <x>] [--check-trace-schema <path>]
//! [--trace-schema-out <path>]`.
//!
//! `--machine` runs every scenario on a declarative machine description
//! instead of the uniprocessor baseline: a `machines/*.json` path or a
//! builtin name (`baseline`, `superscalar-8`, `multiprocessor-4`, ...).
//!
//! `--pack` switches to the §3.1.2 space-multiplexing comparison: one
//! small-job-heavy stream served twice — time-interleaved only versus
//! with the multiprogramming packer — with every packed aggregate
//! asserted bit-identical to its interleaved oracle.
//! `--min-pack-ratio` exits nonzero when packed jobs/sec fails to reach
//! the given multiple of interleaved jobs/sec.
//!
//! `--check-schema <path>` verifies a committed baseline's JSON schema
//! fingerprint against this binary's current row type and exits (0
//! match / 1 drift) without running the benchmark.
//!
//! `--trace-out <path>` records every job's lifecycle (works with and
//! without `--pack`), audits the trace — first event accepted, exactly
//! one terminal, no quantum outside the span — and writes Chrome
//! trace-event JSON loadable in Perfetto (`ui.perfetto.dev`);
//! `--metrics-out <path>` writes the recorder's per-scope counter and
//! latency-histogram snapshot as JSON. `--min-obs-ratio <x>` runs the
//! obs-overhead comparison instead (the same stream served obs-off and
//! obs-on, aggregates asserted bit-identical) and exits nonzero when
//! obs-on throughput falls below `x` times obs-off.
//! `--check-trace-schema <path>` verifies the committed trace baseline's
//! fingerprint (refresh it with `--trace-schema-out`).
//!
//! Every comparison is timed by `quape_bench::measure`: one warm-up
//! round, then `--repeats` (default 3) measured rounds that run every
//! scenario once each, starting from the next scenario in turn. Rows
//! report each scenario's median wall time with its min, max and pass
//! count; every gate ratio is the median of the per-round ratios, so
//! host-speed drift cancels instead of gating.
//!
//! Every pass's per-request aggregates are asserted bit-identical to the
//! first pass's (the run is a differential test of the serving layer),
//! so the throughput numbers compare *equal work*. After every server pass
//! the drained server's counters must satisfy the conservation laws of
//! `ShardSnapshot::check` — the binary exits nonzero before writing any
//! output otherwise. `--json-out BENCH_traffic.json` refreshes the
//! committed baseline in one command;
//! `--min-warm-speedup` exits nonzero when the cache-warm server fails
//! to beat the naive client by the given factor.

use quape_bench::mixed::{
    run_mixed_traffic_observed, run_obs_overhead, run_packed_traffic_observed,
};
use quape_bench::sweep::resolve_machine;
use quape_bench::table::{check_schema, to_json, write_json, TextTable};
use quape_bench::ServingRow;
use quape_obs::{audit_complete, chrome_trace, Recorder, TraceKind};

struct Args {
    requests: usize,
    seed: u64,
    threads: usize,
    repeats: usize,
    machine: Option<String>,
    json: bool,
    json_out: Option<String>,
    min_warm_speedup: Option<f64>,
    pack: bool,
    min_pack_ratio: Option<f64>,
    check_schema: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    min_obs_ratio: Option<f64>,
    check_trace_schema: Option<String>,
    trace_schema_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 48,
        seed: 7,
        threads: 0,
        repeats: 3,
        machine: None,
        json: false,
        json_out: None,
        min_warm_speedup: None,
        pack: false,
        min_pack_ratio: None,
        check_schema: None,
        trace_out: None,
        metrics_out: None,
        min_obs_ratio: None,
        check_trace_schema: None,
        trace_schema_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{name} needs a number"))
        };
        match arg.as_str() {
            "--requests" => args.requests = num("--requests") as usize,
            "--seed" => args.seed = num("--seed") as u64,
            "--threads" => args.threads = num("--threads") as usize,
            "--repeats" => args.repeats = num("--repeats") as usize,
            "--min-warm-speedup" => args.min_warm_speedup = Some(num("--min-warm-speedup")),
            "--pack" => args.pack = true,
            "--min-pack-ratio" => args.min_pack_ratio = Some(num("--min-pack-ratio")),
            "--machine" => {
                args.machine = Some(it.next().expect("--machine needs a file or builtin name"))
            }
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(it.next().expect("--json-out needs a path"));
            }
            "--check-schema" => {
                args.check_schema = Some(it.next().expect("--check-schema needs a path"));
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().expect("--trace-out needs a path"));
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            "--min-obs-ratio" => args.min_obs_ratio = Some(num("--min-obs-ratio")),
            "--check-trace-schema" => {
                args.check_trace_schema =
                    Some(it.next().expect("--check-trace-schema needs a path"));
            }
            "--trace-schema-out" => {
                args.trace_schema_out = Some(it.next().expect("--trace-schema-out needs a path"));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

/// A value-free sample row: its rendered JSON carries this binary's
/// current schema, the committed baseline must fingerprint identically.
fn sample_rows() -> Vec<ServingRow> {
    vec![ServingRow::default()]
}

/// A synthetic trace covering every [`TraceKind`] once: its rendered
/// Chrome JSON carries every event shape and argument key this binary
/// can emit, so the committed `BENCH_trace.json` baseline must
/// fingerprint identically. Values are placeholders — the fingerprint
/// compares key paths only.
fn sample_trace_json() -> String {
    let rec = Recorder::new();
    let fleet = rec.fleet_scope();
    let shard = rec.scope(0);
    let kinds = [
        TraceKind::Accepted,
        TraceKind::Admitted,
        TraceKind::Shed,
        TraceKind::Dispatched,
        TraceKind::DrrRound,
        TraceKind::Placed,
        TraceKind::Compiled,
        TraceKind::CacheHit,
        TraceKind::Packed,
        TraceKind::Quantum,
        TraceKind::Finalized,
        TraceKind::Cancelled,
        TraceKind::ReRouted,
        TraceKind::Stolen,
        TraceKind::ShardDown,
        TraceKind::ShardRetiring,
    ];
    for kind in kinds {
        shard.event(kind, 0, 1, 0, 0);
        fleet.event_tenant(kind, 0, 1, 0, 0, "tenant");
    }
    shard.span(TraceKind::Quantum, 1, 1, 0, 8, std::time::Instant::now());
    chrome_trace(&rec)
}

/// Audits the recorded lifecycles and writes the requested trace /
/// metrics artifacts. Exits nonzero when the trace is malformed — the
/// export paths double as the trace-correctness gate at bench scale.
fn export_obs(recorder: &Recorder, args: &Args, min_jobs: usize) {
    let events = recorder.events();
    if events.is_empty() {
        return;
    }
    match audit_complete(&events, min_jobs) {
        Ok(a) => eprintln!(
            "trace audit OK: {} lifecycles, {} quanta, {} events ({} dropped)",
            a.jobs,
            a.quanta,
            events.len(),
            recorder.dropped_events()
        ),
        Err(e) => {
            eprintln!("FAIL: trace audit: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &args.trace_out {
        let json = chrome_trace(recorder);
        // Every real export must stay within the shapes the committed
        // baseline fingerprints (values differ, key paths must not).
        let want = quape_bench::table::schema_fingerprint(&sample_trace_json())
            .expect("sample trace renders valid JSON");
        let have = quape_bench::table::schema_fingerprint(&json)
            .unwrap_or_else(|e| panic!("exported trace is malformed JSON: {e}"));
        let rogue: Vec<_> = have.iter().filter(|p| !want.contains(p)).collect();
        if !rogue.is_empty() {
            eprintln!("FAIL: exported trace has unbaselined key paths: {rogue:?}");
            std::process::exit(1);
        }
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("chrome trace written: {path}");
    }
    if let Some(path) = &args.metrics_out {
        write_json(path, &recorder.metrics());
        eprintln!("metrics snapshot written: {path}");
    }
}

fn render_rows(rows: &[ServingRow]) -> String {
    let mut t = TextTable::new([
        "scenario",
        "jobs/s",
        "wall ms (min-max, n)",
        "p50 latency",
        "p95 latency",
        "hits",
        "misses",
        "evict",
        "compiles",
    ]);
    for r in rows {
        t.row([
            r.scenario.clone(),
            format!("{:.1}", r.jobs_per_sec),
            r.wall.to_string(),
            format!("{:.1} ms", r.p50_latency_us as f64 / 1000.0),
            format!("{:.1} ms", r.p95_latency_us as f64 / 1000.0),
            r.cache_hits.to_string(),
            r.cache_misses.to_string(),
            r.cache_evictions.to_string(),
            r.compiles.to_string(),
        ]);
    }
    t.render()
}

fn run_packed(args: &Args, recorder: &Recorder) {
    let outcome = run_packed_traffic_observed(
        args.seed,
        args.requests,
        args.threads,
        args.repeats,
        recorder,
    );
    // Both servers trace a warm-up pass plus every measured pass.
    export_obs(recorder, args, 2 * args.requests);
    if let Some(path) = &args.json_out {
        write_json(path, &outcome.rows);
    }
    if args.json {
        println!("{}", to_json(&outcome.rows));
    } else {
        println!(
            "Multiprogramming packing: {} small jobs, seed {} (packed aggregates verified \
             bit-identical to interleaved):",
            args.requests, args.seed
        );
        println!("{}", render_rows(&outcome.rows));
        let p = &outcome.packer;
        println!(
            "packs formed: {} ({} jobs, {} shots packed; {} combined-compile cache hits; \
             {} declined)",
            p.packs_formed, p.jobs_packed, p.packed_shots, p.combine_cache_hits, p.declined
        );
    }
    eprintln!(
        "packed over interleaved: {:.2}x jobs/sec",
        outcome.pack_ratio
    );
    if let Some(min) = args.min_pack_ratio {
        if outcome.pack_ratio.is_nan() || outcome.pack_ratio < min {
            eprintln!(
                "FAIL: pack ratio {:.3} < required {min:.3}",
                outcome.pack_ratio
            );
            std::process::exit(1);
        }
    }
}

/// The obs-overhead gate: serve the stream obs-off and obs-on
/// (bit-identity asserted inside) and require the throughput ratio to
/// stay above the floor.
fn run_obs_gate(args: &Args, min_ratio: f64) {
    let o = run_obs_overhead(args.seed, args.requests, args.threads, args.repeats);
    export_obs(&o.recorder, args, args.requests);
    if args.json {
        println!("{}", to_json(&o.rows));
    } else {
        println!(
            "Observability overhead: {} requests, seed {} (obs-on aggregates verified \
             bit-identical to obs-off):",
            args.requests, args.seed
        );
        println!("{}", render_rows(&o.rows));
    }
    eprintln!(
        "obs-on over obs-off: {:.3}x jobs/sec ({} trace events recorded)",
        o.obs_ratio, o.trace_events
    );
    if o.obs_ratio.is_nan() || o.obs_ratio < min_ratio {
        eprintln!(
            "FAIL: obs-on throughput ratio {:.3} < required {min_ratio:.3}",
            o.obs_ratio
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check_schema {
        match check_schema(path, &to_json(&sample_rows())) {
            Ok(()) => {
                eprintln!("schema OK: {path}");
                return;
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.trace_schema_out {
        std::fs::write(path, sample_trace_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("trace schema baseline written: {path}");
        return;
    }
    if let Some(path) = &args.check_trace_schema {
        match check_schema(path, &sample_trace_json()) {
            Ok(()) => {
                eprintln!("trace schema OK: {path}");
                return;
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(min) = args.min_obs_ratio {
        run_obs_gate(&args, min);
        return;
    }
    // Recording stays off unless an export asked for it — the default
    // run measures the exact pre-obs code path.
    let recorder = if args.trace_out.is_some() || args.metrics_out.is_some() {
        Recorder::new()
    } else {
        Recorder::off()
    };
    if args.pack {
        run_packed(&args, &recorder);
        return;
    }
    let machine = args.machine.as_deref().map(|spec| {
        resolve_machine(spec)
            .and_then(|m| m.to_config().map_err(|e| e.to_string()).map(|_| m))
            .unwrap_or_else(|e| {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            })
    });
    if let Some(spec) = &args.machine {
        eprintln!("machine: {spec}");
    }
    let outcome = run_mixed_traffic_observed(
        machine.as_ref(),
        args.seed,
        args.requests,
        args.threads,
        args.repeats,
        &recorder,
    );
    // Every server pass traced a full pass of lifecycles; the weakest
    // floor is one pass.
    export_obs(&recorder, &args, args.requests);
    if let Some(path) = &args.json_out {
        write_json(path, &outcome.rows);
    }
    if args.json {
        println!("{}", to_json(&outcome.rows));
    } else {
        println!(
            "Mixed-traffic serving: {} requests, seed {} (aggregates verified identical):",
            args.requests, args.seed
        );
        println!("{}", render_rows(&outcome.rows));
        println!("Per-tenant compile-cache accounting (warm server, all passes):");
        let mut tt = TextTable::new(["tenant", "hits", "misses", "evict", "compiles", "hit rate"]);
        for (tenant, s) in &outcome.tenants {
            let lookups = s.hits + s.misses;
            let rate = if lookups == 0 {
                0.0
            } else {
                s.hits as f64 / lookups as f64
            };
            tt.row([
                tenant.clone(),
                s.hits.to_string(),
                s.misses.to_string(),
                s.evictions.to_string(),
                s.compiles.to_string(),
                format!("{:.0}%", rate * 100.0),
            ]);
        }
        println!("{}", tt.render());
    }
    let speedup = outcome.warm_speedup;
    eprintln!("cache-warm server over naive client: {speedup:.2}x jobs/sec");
    if let Some(min) = args.min_warm_speedup {
        if speedup.is_nan() || speedup < min {
            eprintln!("FAIL: warm speedup {speedup:.3} < required {min:.3}");
            std::process::exit(1);
        }
    }
}
