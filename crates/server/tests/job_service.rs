//! End-to-end properties of the job service: compile deduplication,
//! differential equivalence with solo `ShotEngine` runs, and scheduling
//! fairness.

use quape_core::{CompiledJob, QuapeConfig, ShotEngine};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_server::{JobError, JobRequest, JobServer, JobSource, Priority, ServerConfig};
use quape_workloads::feedback::{conditional_x, feedback_chain, rus_block};
use quape_workloads::multiprogramming::combine;
use std::sync::Arc;

fn coin(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

fn server(threads: usize, quantum: u64) -> JobServer {
    JobServer::new(ServerConfig {
        threads,
        shot_quantum: quantum,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer: None,
    })
}

/// Per-job aggregates from the server are bit-identical to solo
/// `ShotEngine` runs with the same parameters — for any worker count and
/// any quantum interleaving.
#[test]
fn per_job_aggregates_match_solo_engine_runs() {
    let cfg = QuapeConfig::multiprocessor(2);
    let programs = [
        ("cond_x", conditional_x(0).unwrap(), 70u64, Priority::High),
        (
            "chain",
            feedback_chain(0, 20).unwrap(),
            33,
            Priority::Normal,
        ),
        (
            "multiprog",
            combine(&[rus_block(0).unwrap(), rus_block(0).unwrap()]).unwrap(),
            41,
            Priority::Low,
        ),
    ];
    for (threads, quantum) in [(1usize, 4u64), (3, 8), (2, 1)] {
        let srv = server(threads, quantum);
        for (i, (name, program, shots, priority)) in programs.iter().enumerate() {
            let req = JobRequest::new(
                *name,
                JobSource::Program(program.clone()),
                cfg.clone(),
                coin(&cfg),
                *shots,
            )
            .base_seed(100 + i as u64)
            .cycle_limit(500_000)
            .priority(*priority);
            let _ = srv.submit(req).expect("submits");
        }
        let results = srv.run();
        assert_eq!(results.len(), programs.len());
        for (i, (name, program, shots, _)) in programs.iter().enumerate() {
            let job = CompiledJob::compile(cfg.clone(), program.clone()).unwrap();
            let solo = ShotEngine::new(job, coin(&cfg))
                .base_seed(100 + i as u64)
                .cycle_limit(500_000)
                .threads(2)
                .run(*shots);
            let served = &results[i];
            assert_eq!(served.name, *name);
            assert_eq!(served.shots, *shots);
            assert_eq!(
                served.aggregate, solo.aggregate,
                "{name} diverged with threads={threads} quantum={quantum}"
            );
        }
    }
}

/// Concurrent submissions of the same source text compile exactly once;
/// the submissions all succeed and run to completion.
#[test]
fn concurrent_same_program_submissions_compile_once() {
    let cfg = QuapeConfig::superscalar(4);
    let text = feedback_chain(0, 50).unwrap().to_string();
    let srv = Arc::new(server(2, 8));
    std::thread::scope(|scope| {
        for t in 0..6u64 {
            let srv = Arc::clone(&srv);
            let text = text.clone();
            let cfg = cfg.clone();
            scope.spawn(move || {
                let req = JobRequest::new(
                    format!("tenant{t}"),
                    JobSource::Text(text),
                    cfg.clone(),
                    coin(&cfg),
                    8,
                )
                .base_seed(t);
                let _ = srv.submit(req).expect("submits");
            });
        }
    });
    let stats = srv.cache_stats();
    assert_eq!(stats.compiles, 1, "one compilation served all tenants");
    assert_eq!(stats.hits + stats.misses, 6);
    let results = srv.run();
    assert_eq!(results.len(), 6);
    assert_eq!(results.iter().filter(|r| !r.cache_hit).count(), 1);
    // Same program, different seeds: aggregates generally differ, but
    // every tenant ran its full shot count.
    for r in &results {
        assert_eq!(r.aggregate.shots, 8);
    }
}

/// A huge job cannot starve a small one: with round-robin quanta the
/// small job finishes long before the big job's shots are exhausted.
#[test]
fn small_jobs_are_not_starved_by_huge_jobs() {
    let cfg = QuapeConfig::superscalar(4);
    let srv = server(1, 8);
    let big = JobRequest::new(
        "big",
        JobSource::Program(conditional_x(0).unwrap()),
        cfg.clone(),
        coin(&cfg),
        4000,
    )
    .base_seed(1);
    let small = JobRequest::new(
        "small",
        JobSource::Program(conditional_x(0).unwrap()),
        cfg.clone(),
        coin(&cfg),
        100,
    )
    .base_seed(2);
    let big_id = srv.submit(big).unwrap().id();
    let small_id = srv.submit(small).unwrap().id();
    let results = srv.run();
    let by_id = |id: u64| results.iter().find(|r| r.id == id).unwrap();
    assert!(
        by_id(small_id).completion_rank < by_id(big_id).completion_rank,
        "the 100-shot job must finish before the 4000-shot job"
    );
    // One compile: both jobs share the cached program.
    assert_eq!(srv.cache_stats().compiles, 1);
}

/// High priority drains faster than low priority at equal shot counts,
/// but the low-priority job still completes (share, not preemption).
#[test]
fn priority_weights_shape_completion_order() {
    let cfg = QuapeConfig::superscalar(4);
    let srv = server(1, 4);
    let mk = |name: &str, priority: Priority, seed: u64| {
        JobRequest::new(
            name,
            JobSource::Program(conditional_x(0).unwrap()),
            cfg.clone(),
            coin(&cfg),
            400,
        )
        .base_seed(seed)
        .priority(priority)
    };
    let low = srv.submit(mk("low", Priority::Low, 1)).unwrap().id();
    let high = srv.submit(mk("high", Priority::High, 2)).unwrap().id();
    let results = srv.run();
    let by_id = |id: u64| results.iter().find(|r| r.id == id).unwrap();
    assert!(by_id(high).completion_rank < by_id(low).completion_rank);
    assert_eq!(by_id(low).aggregate.shots, 400);
}

/// Submit-side error paths: zero shots, unparsable text, and a config
/// mismatch all fail fast without queueing anything.
#[test]
fn invalid_requests_are_rejected_at_submit() {
    let cfg = QuapeConfig::superscalar(4);
    let srv = server(1, 8);
    let zero = JobRequest::new(
        "zero",
        JobSource::Program(conditional_x(0).unwrap()),
        cfg.clone(),
        coin(&cfg),
        0,
    );
    assert_eq!(srv.submit(zero).unwrap_err(), JobError::EmptyJob);
    let bad_text = JobRequest::new(
        "bad",
        JobSource::Text("0 FROB q0\n".into()),
        cfg.clone(),
        coin(&cfg),
        4,
    );
    assert!(matches!(
        srv.submit(bad_text).unwrap_err(),
        JobError::Parse(_)
    ));
    // A qubit index beyond the ISA's 128-qubit address space is an
    // assemble error naming the line, not a job that runs.
    let wide = JobRequest::new(
        "wide",
        JobSource::Text("0 H q65535\nSTOP\n".into()),
        cfg.clone(),
        coin(&cfg),
        4,
    );
    match srv.submit(wide).unwrap_err() {
        JobError::Parse(e) => {
            assert_eq!(e.line, 1);
            assert!(e.message.contains("q65535"), "{}", e.message);
        }
        other => panic!("expected an assemble error, got {other:?}"),
    }
    let bad_cfg = JobRequest::new(
        "narrow",
        JobSource::Program(feedback_chain(1, 2).unwrap()),
        cfg.clone().with_num_qubits(1),
        coin(&cfg),
        4,
    );
    assert!(matches!(
        srv.submit(bad_cfg).unwrap_err(),
        JobError::Compile(_)
    ));
    assert_eq!(srv.pending_jobs(), 0);
    assert!(srv.run().is_empty());
}

/// The server survives multiple submit→run waves, and the second wave of
/// identical programs is fully cache-warm.
#[test]
fn repeated_waves_turn_cache_warm() {
    let cfg = QuapeConfig::superscalar(4);
    let srv = server(2, 8);
    let wave = |seed_base: u64| {
        for i in 0..3u64 {
            let req = JobRequest::new(
                format!("job{i}"),
                JobSource::Text(feedback_chain(0, 10 + i as usize).unwrap().to_string()),
                cfg.clone(),
                coin(&cfg),
                6,
            )
            .base_seed(seed_base + i);
            let _ = srv.submit(req).unwrap();
        }
        srv.run()
    };
    let first = wave(0);
    assert_eq!(first.iter().filter(|r| r.cache_hit).count(), 0);
    let second = wave(100);
    assert_eq!(second.iter().filter(|r| r.cache_hit).count(), 3);
    let stats = srv.cache_stats();
    assert_eq!(stats.compiles, 3);
    assert_eq!(stats.hits, 3);
}

/// A request can name its machine declaratively — by builtin name or
/// inline description — and runs identically to one built from the
/// equivalent `QuapeConfig` preset.
#[test]
fn requests_accept_machine_descriptions() {
    use quape_core::{DescriptionError, MachineDescription};
    use quape_server::MachineSpec;

    let cfg = QuapeConfig::superscalar(8);
    let program = feedback_chain(0, 12).unwrap();
    let srv = server(1, 8);
    let base = || {
        JobRequest::new(
            "by-preset",
            JobSource::Program(program.clone()),
            cfg.clone(),
            coin(&cfg),
            9,
        )
        .base_seed(7)
    };
    let by_preset = srv.submit(base()).unwrap();
    let by_name = srv
        .submit(
            base()
                .machine(&MachineSpec::Builtin("superscalar".into()))
                .unwrap(),
        )
        .unwrap();
    let by_inline = srv
        .submit(
            base()
                .machine(&MachineSpec::Inline(MachineDescription::superscalar(8)))
                .unwrap(),
        )
        .unwrap();
    let results = srv.run();
    let agg_of = |id| {
        results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.aggregate.clone())
            .unwrap()
    };
    assert_eq!(agg_of(by_preset.id()), agg_of(by_name.id()));
    assert_eq!(agg_of(by_preset.id()), agg_of(by_inline.id()));

    // Unknown builtins and invalid inline descriptions surface as
    // typed machine errors before anything is queued.
    assert!(matches!(
        base().machine(&MachineSpec::Builtin("warp-drive".into())),
        Err(JobError::Machine(DescriptionError::UnknownBuiltin(_)))
    ));
    let mut bad = MachineDescription::baseline();
    bad.daq.demod_slots = 0;
    assert!(matches!(
        base().machine(&MachineSpec::Inline(bad)),
        Err(JobError::Machine(DescriptionError::ZeroDemodSlots))
    ));
}
