//! Trace-correctness suite: the lifecycle invariants every recorded
//! trace must satisfy — no quantum before accepted, exactly one
//! terminal per job, re-routed jobs placed on both their shards, a
//! stolen job terminating on its victim scope — plus determinism
//! (same-seed runs trace identically modulo timestamps) and the
//! obs-on/obs-off bit-identity differential.

use proptest::prelude::*;
use quape_core::{BatchAggregate, CompiledJob, QuapeConfig, ShotEngine};
use quape_isa::Program;
use quape_obs::{
    audit_complete, audit_lifecycle, flight_recorder, MetricsSnapshot, Recorder, TraceKind,
};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::{FaultPlan, Placement, Router, RouterConfig, ShardStatus};
use quape_server::{JobRequest, JobServer, JobSource, ServerConfig};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};

mod support;

fn cfg() -> QuapeConfig {
    QuapeConfig::superscalar(4)
}

fn coin(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

fn program(choice: u8) -> Program {
    match choice % 4 {
        0 => conditional_x(0).unwrap(),
        1 => feedback_chain(0, 5).unwrap(),
        2 => feedback_chain(1, 8).unwrap(),
        _ => mrce_feedback_chain(0, 6).unwrap(),
    }
}

fn solo(choice: u8, shots: u64, seed: u64) -> BatchAggregate {
    let c = cfg();
    let job = CompiledJob::compile(c.clone(), program(choice)).unwrap();
    ShotEngine::new(job, coin(&c))
        .base_seed(seed)
        .threads(1)
        .run(shots)
        .aggregate
}

fn request(name: &str, choice: u8, shots: u64, seed: u64) -> JobRequest {
    let c = cfg();
    let factory = coin(&c);
    JobRequest::new(name, JobSource::Program(program(choice)), c, factory, shots).base_seed(seed)
}

fn fleet(shards: usize, placement: Placement, recorder: Recorder) -> RouterConfig {
    RouterConfig {
        shards,
        placement,
        obs: recorder,
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 3,
            cache_capacity: 4,
            machine: None,
            obs: Default::default(),
            packer: None,
        },
        ..RouterConfig::default()
    }
}

/// One traced single-thread batch run; returns the normalized event
/// stream (everything except wall-clock timestamps).
fn traced_batch_run(seed_base: u64) -> Vec<String> {
    let recorder = Recorder::new();
    let server = JobServer::new(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 4,
        machine: None,
        packer: None,
        obs: recorder.scope(0),
    });
    for i in 0..6u64 {
        let _ = server
            .submit(
                request(&format!("j{i}"), (i % 4) as u8, 40 + i * 7, seed_base + i)
                    .tenant(if i % 2 == 0 { "even" } else { "odd" }),
            )
            .unwrap();
    }
    let results = server.run();
    assert_eq!(results.len(), 6);
    recorder
        .events()
        .iter()
        .map(|ev| format!("{:?}", ev.normalized()))
        .collect()
}

/// Two same-seed single-thread batch runs must record the same events
/// in the same order — the trace is as deterministic as the schedule
/// it observes, differing only in wall-clock fields.
#[test]
fn same_seed_batch_runs_trace_identically() {
    let a = traced_batch_run(500);
    let b = traced_batch_run(500);
    assert_eq!(a, b, "same-seed traces diverged");
    assert!(!a.is_empty());
    // And a different seed produces a different shot schedule but the
    // same lifecycle shape: both audit clean.
    let c = traced_batch_run(501);
    assert_eq!(a.len(), c.len(), "event counts are schedule-independent");
}

/// Tracing must not steer the schedule: the same jobs served with the
/// recorder on and off produce bit-identical aggregates.
#[test]
fn tracing_is_side_effect_free() {
    let run = |recorder: Recorder| -> Vec<BatchAggregate> {
        let router = Router::new(fleet(2, Placement::RoundRobin, recorder));
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                router
                    .submit(request(
                        &format!("j{i}"),
                        (i % 4) as u8,
                        60 + i * 11,
                        700 + i,
                    ))
                    .unwrap()
                    .handle
            })
            .collect();
        let aggs = handles
            .iter()
            .map(|h| h.wait().unwrap().aggregate)
            .collect();
        router.drain().unwrap();
        aggs
    };
    let observed = run(Recorder::new());
    let dark = run(Recorder::off());
    assert_eq!(observed, dark, "tracing steered the schedule");
    for (i, agg) in observed.iter().enumerate() {
        assert_eq!(
            agg,
            &solo((i % 4) as u8, 60 + i as u64 * 11, 700 + i as u64),
            "job {i} diverged from its solo oracle"
        );
    }
}

/// Counters and gauges are always on: one deterministic stream served
/// traced and untraced counts identically in every scope, and the
/// untraced snapshot is not empty. Histograms follow the trace switch,
/// so they are left out.
#[test]
fn counters_ignore_the_trace_switch() {
    fn counts(m: &MetricsSnapshot) -> Vec<(String, i64)> {
        m.counters
            .iter()
            .map(|c| (c.name.clone(), c.value as i64))
            .chain(m.gauges.iter().map(|g| (g.name.clone(), g.value)))
            .collect()
    }
    let run = |recorder: Recorder| {
        let router = Router::new(fleet(2, Placement::RoundRobin, recorder));
        let handles: Vec<_> = (0..8u64)
            .map(|i| {
                let req = request(&format!("j{i}"), (i % 4) as u8, 20 + i * 5, 40 + i);
                router.submit(req.tenant("t")).unwrap().handle
            })
            .collect();
        for handle in &handles {
            handle.wait().unwrap();
        }
        let snapshot = router.fleet_snapshot();
        assert_eq!(snapshot.check(), Ok(()));
        router.drain().unwrap();
        let shards: Vec<_> = snapshot.shards.iter().map(|s| counts(&s.metrics)).collect();
        (shards, counts(&snapshot.fleet_metrics))
    };
    let traced = run(Recorder::new());
    let untraced = run(Recorder::off());
    assert_eq!(traced, untraced, "the trace switch changed a count");
    assert!(untraced.0.iter().all(|s| !s.is_empty()));
    assert!(!untraced.1.is_empty());
}

/// Kill a shard mid-backlog: the trace must show every re-routed job
/// placed on both shards, the victim's copies cancelled, and every
/// lifecycle complete.
#[test]
fn failover_trace_carries_both_shards() {
    let recorder = Recorder::new();
    let router = Router::new(fleet(3, Placement::RoundRobin, recorder.clone()));
    let mut handles = Vec::new();
    let mut victim = None;
    for i in 0..8u64 {
        let routed = router
            .submit(request(
                &format!("j{i}"),
                (i % 4) as u8,
                300 + i * 50,
                900 + i,
            ))
            .unwrap();
        victim.get_or_insert(routed.shard);
        handles.push(routed.handle);
    }
    let victim = victim.unwrap();
    router.kill_shard(victim);
    assert_eq!(router.shard_status(victim), ShardStatus::Down);
    for handle in &handles {
        handle.wait().unwrap();
    }
    let events = recorder.events();
    let audit = audit_complete(&events, 8)
        .unwrap_or_else(|e| panic!("failover trace failed: {e}\n{}", flight_recorder(&recorder)));
    assert_eq!(
        audit.rerouted as u64,
        router.recovered_jobs(),
        "every re-route the router counted is in the trace"
    );
    assert!(
        events
            .iter()
            .any(|ev| ev.kind == TraceKind::ShardDown && ev.a == victim as u64),
        "the kill itself is traced"
    );
    router.drain().unwrap();
}

/// A stolen job's trace ends on the victim scope with a `Stolen`
/// terminal (no result was published there) and runs to `Finalized` on
/// the thief's scope.
#[test]
fn steal_trace_terminates_on_both_scopes() {
    let recorder = Recorder::new();
    let router = Router::new(fleet(2, Placement::StickyByDigest, recorder.clone()));
    // The pile's first job holds the victim's only worker on its first
    // shot until the steal has run, so the jobs behind it are still
    // queued when the idle shard looks for a backlog.
    let mut pile0 = request("pile0", 1, 2000, 80);
    let gate = support::stall_first_shot(&mut pile0, coin(&cfg()));
    let first = router.submit(pile0).unwrap();
    let victim = first.shard;
    let mut handles = vec![first.handle];
    for i in 1..5 {
        handles.push(
            router
                .submit(request(&format!("pile{i}"), 1, 300, 80 + i as u64))
                .unwrap()
                .handle,
        );
    }
    let stole = router.steal_once(1);
    gate.open();
    assert!(stole, "an idle shard and a backlog coexist");
    for handle in &handles {
        handle.wait().unwrap();
    }
    let events = recorder.events();
    audit_complete(&events, 5)
        .unwrap_or_else(|e| panic!("steal trace failed: {e}\n{}", flight_recorder(&recorder)));
    let stolen_on_victim = events
        .iter()
        .filter(|ev| ev.shard == victim as u32 && ev.kind == TraceKind::Stolen)
        .count();
    assert_eq!(stolen_on_victim, 1, "the victim traced the revocation");
    assert!(
        events.iter().any(|ev| ev.shard == quape_obs::FLEET_SCOPE
            && ev.kind == TraceKind::Stolen
            && ev.a == victim as u64),
        "the fleet traced the steal"
    );
    router.drain().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under random job mixes and a random kill point, the trace always
    /// audits clean: accepted-first, one terminal, re-routes placed on
    /// both shards — and every job still completes.
    #[test]
    fn trace_audits_clean_under_random_failover(
        jobs in proptest::collection::vec((0u8..4, 50u64..400, 0u64..1000), 2..7),
        kill_after in 1usize..7,
        victim in 0usize..3,
    ) {
        let recorder = Recorder::new();
        let router = Router::new(fleet(3, Placement::RoundRobin, recorder.clone()));
        let plan = FaultPlan { victim, after_submits: kill_after.min(jobs.len()) };
        let mut handles = Vec::new();
        for (i, (choice, shots, seed)) in jobs.iter().enumerate() {
            handles.push(
                router
                    .submit(request(&format!("p{i}"), *choice, *shots, *seed))
                    .unwrap()
                    .handle,
            );
            plan.fire_if_due(i + 1, &router);
        }
        for handle in &handles {
            handle.wait().unwrap();
        }
        let audit = audit_complete(&recorder.events(), jobs.len())
            .unwrap_or_else(|e| panic!("{e}\n{}", flight_recorder(&recorder)));
        prop_assert!(audit.jobs >= jobs.len());
        router.drain().unwrap();
        // The audit holds on the post-drain trace too (drain finalizes
        // nothing twice).
        audit_lifecycle(&recorder.events()).unwrap();
    }
}
