//! Observability end to end: serve a small job mix through the sharded
//! router with a live [`Recorder`], audit every job's lifecycle from
//! the trace alone, print the flight recorder, and export a Chrome
//! trace-event file loadable in Perfetto / `chrome://tracing`.
//!
//! Run with `cargo run --release --example traced_serving`.

use quape::prelude::*;
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = QuapeConfig::superscalar(4);
    let factory =
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });

    // One recorder observes the whole fleet: the router takes it in its
    // config and hands each shard its own scope. `Recorder::off()` here
    // would serve the identical schedule untraced: the same counters,
    // no events and no histograms.
    let recorder = Recorder::new();
    let router = Router::new(RouterConfig {
        shards: 2,
        placement: Placement::RoundRobin,
        obs: recorder.clone(),
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 4,
            cache_capacity: 8,
            machine: None,
            obs: Default::default(),
            packer: None,
        },
        ..RouterConfig::default()
    });

    let programs = [
        ("cond_x", conditional_x(0)?),
        ("chain5", feedback_chain(0, 5)?),
        ("chain8", feedback_chain(1, 8)?),
        ("mrce6", mrce_feedback_chain(0, 6)?),
    ];
    let mut handles = Vec::new();
    for (i, (name, program)) in programs.iter().enumerate() {
        let request = JobRequest::new(
            name.to_string(),
            JobSource::Program(program.clone()),
            cfg.clone(),
            factory.clone(),
            48 + i as u64 * 16,
        )
        .base_seed(300 + i as u64)
        .tenant(if i % 2 == 0 { "alice" } else { "bob" });
        handles.push(router.submit(request)?.handle);
    }
    for handle in &handles {
        handle.wait()?;
    }

    // The trace alone proves every job ran its full lifecycle:
    // accepted first, at most one compile/cache-hit, quanta only
    // in-flight, exactly one terminal event.
    let events = recorder.events();
    let audit = audit_complete(&events, programs.len())?;
    println!(
        "audit OK: {} lifecycles, {} quanta, {} re-routed ({} events, {} dropped)",
        audit.jobs,
        audit.quanta,
        audit.rerouted,
        events.len(),
        recorder.dropped_events()
    );

    // Human-readable dump of the same ring buffers.
    let dump = flight_recorder(&recorder);
    println!("\nflight recorder (first 12 lines):");
    for line in dump.lines().take(12) {
        println!("  {line}");
    }

    // Chrome trace-event JSON: pid = shard, tid = worker; open the file
    // in https://ui.perfetto.dev or chrome://tracing.
    let out = std::env::temp_dir().join("traced_serving_trace.json");
    std::fs::write(&out, chrome_trace(&recorder))?;
    println!("\nchrome trace written to {}", out.display());

    // The metrics side of the same recorder: wait-free counters and
    // log2-bucketed latency histograms, aggregated across shards. Every
    // job has settled, so the counters' conservation laws hold.
    let snapshot = router.fleet_snapshot();
    if let Err(violations) = snapshot.check() {
        return Err(format!("counters do not balance: {violations:?}").into());
    }
    for shard in &snapshot.shards {
        let accepted = shard
            .metrics
            .counters
            .iter()
            .find(|c| c.name == "server.jobs_accepted")
            .map_or(0, |c| c.value);
        println!(
            "shard {}: {} jobs accepted, {} cache hits, {} compiles",
            shard.shard, accepted, shard.cache.hits, shard.cache.compiles
        );
    }
    router.drain()?;
    Ok(())
}
