//! Sharded-router serving benchmark: shard-count scaling (round-robin
//! at 1..N shards) and placement policy (sticky-by-digest and
//! least-loaded vs round-robin at N shards) on one deterministic
//! multi-program traffic stream, plus the fleet's fault-tolerance
//! scenarios.
//!
//! Usage: `sharded_traffic [--requests N] [--seed S] [--shards N]
//! [--threads-per-shard T] [--programs P] [--cache-capacity C]
//! [--repeats K] [--machine <file-or-name>] [--kill-shard]
//! [--hot-tenant] [--json] [--json-out <path>]
//! [--min-sticky-ratio <x>] [--check-schema <path>]
//! [--metrics-out <path>] [--trace-out <path>]
//! [--check-fleet-schema <path>] [--fleet-schema-out <path>]`.
//!
//! `--check-schema <path>` verifies a committed baseline's JSON schema
//! fingerprint against this binary's current report type and exits (0
//! match / 1 drift) without running the benchmark.
//!
//! `--metrics-out <path>` / `--trace-out <path>` additionally serve the
//! stream once through the admission front door with full telemetry on
//! (losing a shard mid-stream when `--kill-shard` is also set), audit
//! every job's traced lifecycle, print the merged fleet snapshot table,
//! and write the snapshot JSON / Perfetto-loadable Chrome trace.
//! `--check-fleet-schema <path>` verifies the committed snapshot
//! baseline's fingerprint (refresh it with `--fleet-schema-out`).
//!
//! `--machine` serves the whole fleet on a declarative machine
//! description instead of the uniprocessor baseline: a `machines/*.json`
//! path or a builtin name (`baseline`, `superscalar-8`, ...).
//!
//! The grid is timed by `quape_bench::measure`: one priming round, then
//! `--repeats` (default 3) measured rounds that run every configuration
//! once each, starting from the next configuration in turn. Rows report
//! each configuration's median wall time with its min, max and pass
//! count, and the sticky ratio is the median of the per-round ratios.
//! Every pass's per-request aggregates are asserted bit-identical to the
//! 1-shard oracle (the run is a differential test of the router), so
//! the throughput numbers compare *equal work*. Every fleet's counters
//! must also satisfy the conservation laws of `FleetSnapshot::check`
//! once its jobs settle — the binary exits nonzero before writing any
//! output otherwise. `--kill-shard` re-runs the stream while a shard is
//! killed mid-submission and exits nonzero
//! unless every job completes bit-identically on a survivor;
//! `--hot-tenant` floods the admission front door from one tenant and
//! exits nonzero unless every interactive probe dispatches within the
//! documented starvation bound. `--json-out BENCH_router.json`
//! refreshes the committed baseline (grid + scenarios) in one command;
//! `--min-sticky-ratio` exits nonzero when warm sticky placement fails
//! to reach the given multiple of warm round-robin jobs/sec at the
//! maximum shard count.

use quape_bench::sharded::{
    run_hot_tenant, run_kill_shard, run_observed_fleet, run_sharded_traffic,
    AdmissionScenarioResult, FailoverScenarioResult, RouterBenchReport, ShardedTrafficConfig,
};
use quape_bench::sweep::resolve_machine;
use quape_bench::table::{check_schema, schema_fingerprint, to_json, write_json, TextTable};
use quape_bench::ServingRow;
use quape_obs::{chrome_trace, CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use quape_router::{FleetSnapshot, ShardSnapshot, TenantStatsRow};
use quape_server::{CacheStats, PackerStats};

struct Args {
    bench: ShardedTrafficConfig,
    kill_shard: bool,
    hot_tenant: bool,
    json: bool,
    json_out: Option<String>,
    min_sticky_ratio: Option<f64>,
    check_schema: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    check_fleet_schema: Option<String>,
    fleet_schema_out: Option<String>,
}

/// A value-free fleet snapshot with every collection populated once:
/// its rendered JSON carries the full schema — per-shard rows with
/// cache/packer/metrics, tenant attribution, fleet-level metrics — so
/// the committed `BENCH_fleet.json` must fingerprint identically and
/// every real `--metrics-out` export must stay within its key paths.
fn sample_fleet_snapshot() -> FleetSnapshot {
    let metrics = MetricsSnapshot {
        counters: vec![CounterSample {
            name: String::new(),
            value: 0,
        }],
        gauges: vec![GaugeSample {
            name: String::new(),
            value: 0,
        }],
        histograms: vec![HistogramSample {
            name: String::new(),
            count: 0,
            p50: 0,
            p95: 0,
            max: 0,
        }],
    };
    FleetSnapshot {
        shards: vec![ShardSnapshot {
            shard: 0,
            status: String::new(),
            backlog_shots: 0,
            pending_jobs: 0,
            cache: CacheStats::default(),
            packer: PackerStats::default(),
            metrics: metrics.clone(),
        }],
        tenants: vec![TenantStatsRow {
            tenant: String::new(),
            cache: CacheStats::default(),
        }],
        recovered_jobs: 0,
        stolen_jobs: 0,
        fleet_metrics: metrics,
        trace_events_dropped: 0,
    }
}

/// A value-free sample report: its rendered JSON carries this binary's
/// current schema (grid rows plus both optional scenarios populated,
/// matching how the committed baseline is refreshed), so the committed
/// `BENCH_router.json` must fingerprint identically.
fn sample_report() -> RouterBenchReport {
    RouterBenchReport {
        grid: vec![ServingRow::default()],
        failover: Some(FailoverScenarioResult {
            scenario: String::new(),
            shards: 0,
            victim: 0,
            kill_after_submits: 0,
            submitted: 0,
            completed: 0,
            recovered_jobs: 0,
            aggregates_match: false,
            wall_ms: 0.0,
        }),
        admission: Some(AdmissionScenarioResult {
            scenario: String::new(),
            hog_jobs: 0,
            mouse_jobs: 0,
            shed_jobs: 0,
            max_mouse_wait_shots: 0,
            starvation_bound_shots: 0,
            within_bound: false,
            wall_ms: 0.0,
        }),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        bench: ShardedTrafficConfig::default(),
        kill_shard: false,
        hot_tenant: false,
        json: false,
        json_out: None,
        min_sticky_ratio: None,
        check_schema: None,
        metrics_out: None,
        trace_out: None,
        check_fleet_schema: None,
        fleet_schema_out: None,
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
            "--requests" => args.bench.requests = num("--requests") as usize,
            "--seed" => args.bench.seed = num("--seed") as u64,
            "--shards" => args.bench.max_shards = (num("--shards") as usize).max(1),
            "--threads-per-shard" => {
                args.bench.threads_per_shard = num("--threads-per-shard") as usize
            }
            "--programs" => args.bench.distinct_programs = (num("--programs") as usize).max(1),
            "--cache-capacity" => {
                args.bench.cache_capacity = (num("--cache-capacity") as usize).max(1)
            }
            "--repeats" => args.bench.repeats = (num("--repeats") as usize).max(1),
            "--min-sticky-ratio" => args.min_sticky_ratio = Some(num("--min-sticky-ratio")),
            "--machine" => {
                let spec = it.next().expect("--machine needs a file or builtin name");
                let machine = resolve_machine(&spec)
                    .and_then(|m| m.to_config().map_err(|e| e.to_string()).map(|_| m))
                    .unwrap_or_else(|e| {
                        eprintln!("FAIL: {e}");
                        std::process::exit(1);
                    });
                eprintln!("machine: {spec}");
                args.bench.machine = Some(machine);
            }
            "--kill-shard" => args.kill_shard = true,
            "--hot-tenant" => args.hot_tenant = true,
            "--json" => args.json = true,
            "--json-out" => {
                args.json_out = Some(it.next().expect("--json-out needs a path"));
            }
            "--check-schema" => {
                args.check_schema = Some(it.next().expect("--check-schema needs a path"));
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().expect("--metrics-out needs a path"));
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().expect("--trace-out needs a path"));
            }
            "--check-fleet-schema" => {
                args.check_fleet_schema =
                    Some(it.next().expect("--check-fleet-schema needs a path"));
            }
            "--fleet-schema-out" => {
                args.fleet_schema_out = Some(it.next().expect("--fleet-schema-out needs a path"));
            }
            other => {
                eprintln!("unknown flag `{other}`");
                std::process::exit(2);
            }
        }
    }
    args
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// The one table every per-shard stat now rolls up into: cache and
/// packer counters, backlog, and the serving metrics, one row per
/// shard, plus per-tenant attribution and the fleet/front counters.
fn render_fleet_snapshot(snap: &FleetSnapshot) -> String {
    let mut out = String::new();
    let mut t = TextTable::new([
        "shard", "status", "backlog", "pending", "accepted", "quanta", "hits", "misses",
        "compiles", "packs", "p50 job", "p95 job",
    ]);
    for s in &snap.shards {
        let job_us = s
            .metrics
            .histograms
            .iter()
            .find(|h| h.name == "server.job_latency_us");
        let ms = |v: u64| format!("{:.1} ms", v as f64 / 1000.0);
        t.row([
            s.shard.to_string(),
            s.status.clone(),
            s.backlog_shots.to_string(),
            s.pending_jobs.to_string(),
            counter(&s.metrics, "server.jobs_accepted").to_string(),
            counter(&s.metrics, "server.quanta").to_string(),
            s.cache.hits.to_string(),
            s.cache.misses.to_string(),
            s.cache.compiles.to_string(),
            s.packer.packs_formed.to_string(),
            job_us.map_or("-".into(), |h| ms(h.p50)),
            job_us.map_or("-".into(), |h| ms(h.p95)),
        ]);
    }
    out.push_str(&t.render());
    let mut tt = TextTable::new(["tenant", "hits", "misses", "evict", "compiles"]);
    for row in &snap.tenants {
        tt.row([
            row.tenant.clone(),
            row.cache.hits.to_string(),
            row.cache.misses.to_string(),
            row.cache.evictions.to_string(),
            row.cache.compiles.to_string(),
        ]);
    }
    out.push_str(&tt.render());
    out.push_str(&format!(
        "fleet: {} placed, {} recoveries, {} stolen; front door: {} admitted, {} dispatched \
         over {} DRR rounds, {} shed; {} trace events dropped\n",
        counter(&snap.fleet_metrics, "router.jobs_placed"),
        snap.recovered_jobs,
        snap.stolen_jobs,
        counter(&snap.fleet_metrics, "front.jobs_admitted"),
        counter(&snap.fleet_metrics, "front.jobs_dispatched"),
        counter(&snap.fleet_metrics, "front.drr_rounds"),
        counter(&snap.fleet_metrics, "front.jobs_shed"),
        snap.trace_events_dropped,
    ));
    out
}

/// The observed-fleet pass behind `--metrics-out` / `--trace-out`: one
/// fully traced serve of the stream, audited, snapshotted, exported.
fn run_observed(args: &Args) {
    let o = run_observed_fleet(&args.bench, args.kill_shard);
    eprintln!(
        "trace audit OK: {} lifecycles, {} events ({} dropped)",
        o.audited_jobs,
        o.recorder.events().len(),
        o.recorder.dropped_events()
    );
    println!("Fleet snapshot (observed pass{}):", {
        if args.kill_shard {
            ", one shard killed mid-stream"
        } else {
            ""
        }
    });
    println!("{}", render_fleet_snapshot(&o.snapshot));
    if let Some(path) = &args.metrics_out {
        let json = to_json(&o.snapshot);
        // The export must stay within the committed baseline's shapes.
        let want = schema_fingerprint(&to_json(&sample_fleet_snapshot()))
            .expect("sample snapshot renders valid JSON");
        let have =
            schema_fingerprint(&json).unwrap_or_else(|e| panic!("snapshot is malformed: {e}"));
        let rogue: Vec<_> = have.iter().filter(|p| !want.contains(p)).collect();
        if !rogue.is_empty() {
            eprintln!("FAIL: fleet snapshot has unbaselined key paths: {rogue:?}");
            std::process::exit(1);
        }
        write_json(path, &o.snapshot);
        eprintln!("fleet snapshot written: {path}");
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, chrome_trace(&o.recorder))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("chrome trace written: {path}");
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.fleet_schema_out {
        write_json(path, &sample_fleet_snapshot());
        eprintln!("fleet schema baseline written: {path}");
        return;
    }
    if let Some(path) = &args.check_fleet_schema {
        match check_schema(path, &to_json(&sample_fleet_snapshot())) {
            Ok(()) => {
                eprintln!("fleet schema OK: {path}");
                return;
            }
            Err(e) => {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.check_schema {
        match check_schema(path, &to_json(&sample_report())) {
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
    let grid = run_sharded_traffic(&args.bench);
    // Both scenarios assert their own gate internally (lost job,
    // aggregate divergence, starvation-bound violation all panic), so
    // reaching the report below *is* the CI gate passing.
    let failover = args.kill_shard.then(|| run_kill_shard(&args.bench));
    let admission = args.hot_tenant.then(|| run_hot_tenant(&args.bench));
    let report = RouterBenchReport {
        grid: grid.rows,
        failover,
        admission,
    };
    if let Some(path) = &args.json_out {
        write_json(path, &report);
    }
    if args.json {
        println!("{}", to_json(&report));
    } else {
        println!(
            "Sharded-router serving: {} requests over {} distinct programs, \
             per-shard cache {} (aggregates verified identical):",
            args.bench.requests, args.bench.distinct_programs, args.bench.cache_capacity
        );
        let mut t = TextTable::new([
            "scenario",
            "shards",
            "jobs/s",
            "wall ms (min-max, n)",
            "p50 latency",
            "p95 latency",
            "steady misses",
            "steady compiles",
        ]);
        for r in &report.grid {
            t.row([
                r.scenario.clone(),
                r.shards.to_string(),
                format!("{:.1}", r.jobs_per_sec),
                r.wall.to_string(),
                format!("{:.1} ms", r.p50_latency_us as f64 / 1000.0),
                format!("{:.1} ms", r.p95_latency_us as f64 / 1000.0),
                r.cache_misses.to_string(),
                r.compiles.to_string(),
            ]);
        }
        println!("{}", t.render());
    }
    if let Some(f) = &report.failover {
        eprintln!(
            "kill-shard: {}/{} jobs completed after losing shard {} \
             ({} recoveries), aggregates match: {}",
            f.completed, f.submitted, f.victim, f.recovered_jobs, f.aggregates_match
        );
    }
    if let Some(a) = &report.admission {
        eprintln!(
            "hot-tenant: worst mouse wait {} dispatched shots \
             (bound {}), {} submissions shed",
            a.max_mouse_wait_shots, a.starvation_bound_shots, a.shed_jobs
        );
    }
    if args.metrics_out.is_some() || args.trace_out.is_some() {
        run_observed(&args);
    }
    let ratio = grid.sticky_ratio;
    eprintln!("warm sticky over warm round-robin at max shards: {ratio:.2}x jobs/sec");
    if let Some(min) = args.min_sticky_ratio {
        if ratio.is_nan() || ratio < min {
            eprintln!("FAIL: sticky ratio {ratio:.3} < required {min:.3}");
            std::process::exit(1);
        }
    }
}
