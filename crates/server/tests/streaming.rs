//! The streaming job lifecycle: submit-while-serving, per-job progress
//! and prefix-consistent partial aggregates, cooperative cancellation,
//! and the `drain()` vs `shutdown()` semantics.

use quape_core::{CompiledJob, QpuBackend, QpuFactory, QuapeConfig, ShotEngine};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_server::{JobError, JobRequest, JobServer, JobSource, ServerConfig, ServingServer};
use quape_workloads::feedback::{conditional_x, feedback_chain};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn coin(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

fn cfg() -> QuapeConfig {
    QuapeConfig::superscalar(4)
}

fn request(name: &str, shots: u64, seed: u64) -> JobRequest {
    let cfg = cfg();
    let factory = coin(&cfg);
    JobRequest::new(
        name,
        JobSource::Program(conditional_x(0).unwrap()),
        cfg,
        factory,
        shots,
    )
    .base_seed(seed)
}

/// The solo-engine oracle: the aggregate of `shots` shots with the same
/// parameters as [`request`].
fn solo_aggregate(shots: u64, seed: u64) -> quape_core::BatchAggregate {
    let c = cfg();
    let job = CompiledJob::compile(c.clone(), conditional_x(0).unwrap()).unwrap();
    ShotEngine::new(job, coin(&c))
        .base_seed(seed)
        .threads(2)
        .run(shots)
        .aggregate
}

/// Jobs submitted while the pool is live start and finish without any
/// drain call; results arrive through the handles.
#[test]
fn submit_while_serving_is_live() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let first = serving.submit(request("first", 40, 1)).unwrap();
    // The first job is already executing; submit more mid-flight.
    let second = serving.submit(request("second", 24, 2)).unwrap();
    let r1 = first.wait();
    let r2 = second.wait();
    assert_eq!(r1.shots, 40);
    assert!(!r1.cancelled);
    assert_eq!(r1.aggregate, solo_aggregate(40, 1));
    assert_eq!(r2.aggregate, solo_aggregate(24, 2));
    // Handles are done, nothing queued; after the drain the handles
    // still hold the same results (the server keeps no copy).
    serving.drain().unwrap();
    assert_eq!(first.wait().aggregate, r1.aggregate);
    assert_eq!(second.wait().aggregate, r2.aggregate);
}

/// Progress and mid-flight partial aggregates are prefix-consistent:
/// at any observation point, the partial equals a solo run of exactly
/// that many shots.
#[test]
fn partial_aggregates_are_prefix_consistent_mid_flight() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 2,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let handle = serving.submit(request("long", 1_000_000, 7)).unwrap();
    // Wait until the *contiguous* completed prefix has real length
    // (shots_done alone can run ahead of the prefix when quanta land
    // out of order), then snapshot.
    let partial = loop {
        let p = handle.partial_aggregate();
        if p.shots >= 8 {
            break p;
        }
        std::thread::yield_now();
    };
    assert_eq!(partial, solo_aggregate(partial.shots, 7));
    handle.cancel();
    let result = handle.wait();
    assert!(result.cancelled);
    assert!(result.shots < result.shots_requested);
    drop(serving); // implicit shutdown
}

/// Cancelling mid-job stops the scheduler from claiming further quanta
/// and returns a prefix-consistent partial aggregate.
#[test]
fn cancel_mid_job_returns_prefix_consistent_partial() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let handle = serving.submit(request("cancel_me", 1_000_000, 3)).unwrap();
    while handle.progress().shots_done < 12 {
        std::thread::yield_now();
    }
    handle.cancel();
    let result = handle.wait();
    assert!(result.cancelled);
    assert!(result.shots >= 12);
    assert!(result.shots < 1_000_000, "cancel must cut the job short");
    assert_eq!(result.shots_requested, 1_000_000);
    assert_eq!(result.aggregate.shots, result.shots);
    assert_eq!(result.aggregate, solo_aggregate(result.shots, 3));
    // Progress reflects the final state; cancelling again is a no-op.
    handle.cancel();
    let p = handle.progress();
    assert!(p.finished && p.cancelled);
    assert_eq!(p.shots_done, result.shots);
    serving.drain().unwrap();
    assert!(handle.wait().cancelled);
}

/// Cancelling a queued job that never ran yields an empty (0-shot)
/// result instead of leaving the job stuck.
#[test]
fn cancel_before_execution_yields_empty_result() {
    // Batch mode: no workers are running, so nothing has executed.
    let server = JobServer::new(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let handle = server.submit(request("never_ran", 50, 1)).unwrap();
    handle.cancel();
    let result = handle.wait();
    assert!(result.cancelled);
    assert_eq!(result.shots, 0);
    assert_eq!(result.aggregate.shots, 0);
    // The queue is clean; a run() has nothing left of it.
    assert_eq!(server.pending_jobs(), 0);
}

/// `drain()` finishes everything accepted so far; the session is
/// terminal afterwards.
#[test]
fn drain_completes_all_accepted_jobs() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 8,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let server = serving.server().clone();
    let mut expected = Vec::new();
    let mut handles = Vec::new();
    for i in 0..5u64 {
        let shots = 20 + 4 * i;
        handles.push(
            serving
                .submit(request(&format!("job{i}"), shots, 10 + i))
                .unwrap(),
        );
        expected.push((shots, 10 + i));
    }
    serving.drain().unwrap();
    // Every job finished by the time the drain returned.
    let results: Vec<_> = handles
        .iter()
        .map(|h| {
            h.wait_timeout(Duration::ZERO)
                .expect("drained job finished")
        })
        .collect();
    for (r, (shots, seed)) in results.iter().zip(&expected) {
        assert!(!r.cancelled);
        assert_eq!(r.shots, *shots);
        assert_eq!(r.shots_requested, *shots);
        assert_eq!(r.aggregate, solo_aggregate(*shots, *seed));
    }
    // Terminal: later submissions are rejected deterministically.
    assert_eq!(
        server.submit(request("late", 4, 0)).unwrap_err(),
        JobError::NotAccepting
    );
}

/// `shutdown()` stops claiming new quanta: in-flight quanta land, and
/// unfinished jobs finalize as cancelled prefix partials.
#[test]
fn shutdown_finalizes_unfinished_jobs_as_cancelled_partials() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let small = serving.submit(request("small", 8, 5)).unwrap();
    let big = serving.submit(request("big", 1_000_000, 6)).unwrap();
    // Let the small job finish and the big one make some progress.
    let small_result = small.wait();
    while big.progress().shots_done == 0 {
        std::thread::yield_now();
    }
    serving.shutdown().unwrap();
    assert!(!small_result.cancelled);
    assert_eq!(small_result.shots, 8);
    let big_result = big.wait_timeout(Duration::from_secs(1)).unwrap();
    assert!(big_result.cancelled);
    assert!(big_result.shots > 0);
    assert!(big_result.shots < 1_000_000);
    assert_eq!(big_result.aggregate, solo_aggregate(big_result.shots, 6));
    // The handles keep their results after the shutdown.
    assert_eq!(small.wait().aggregate, small_result.aggregate);
    assert_eq!(big.wait().aggregate, big_result.aggregate);
}

/// A QPU factory that panics after its first `allow` backend builds —
/// models a buggy user-supplied backend.
struct PanickyFactory {
    calls: AtomicU64,
    allow: u64,
    inner: BehavioralQpuFactory,
}

impl QpuFactory for PanickyFactory {
    fn create(&self, seed: u64) -> Box<dyn QpuBackend> {
        if self.calls.fetch_add(1, Ordering::SeqCst) >= self.allow {
            panic!("injected QPU failure");
        }
        QpuFactory::create(&self.inner, seed)
    }
}

/// A panicking shot quantum fails its *job* (cancelled, prefix-
/// consistent partial), not the worker pool: the drain completes and
/// other jobs are unaffected.
#[test]
fn panicking_quantum_fails_the_job_not_the_server() {
    let serving = JobServer::serve(ServerConfig {
        threads: 1,
        shot_quantum: 4, // × Normal weight 2 ⇒ 8-shot quanta
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let c = cfg();
    let panicky = PanickyFactory {
        calls: AtomicU64::new(0),
        allow: 10, // first quantum (8 shots) succeeds, the second dies
        inner: coin(&c),
    };
    let doomed = serving
        .submit(
            JobRequest::new(
                "doomed",
                JobSource::Program(conditional_x(0).unwrap()),
                c.clone(),
                panicky,
                64,
            )
            .base_seed(21),
        )
        .unwrap();
    let healthy = serving.submit(request("healthy", 24, 22)).unwrap();
    let doomed_result = doomed.wait();
    assert!(doomed_result.cancelled, "lost quantum must cancel the job");
    assert_eq!(doomed_result.shots, 8, "one full quantum landed");
    assert_eq!(doomed_result.aggregate, solo_aggregate(8, 21));
    let healthy_result = healthy.wait();
    assert!(!healthy_result.cancelled);
    assert_eq!(healthy_result.shots, 24);
    // The pool survived: the drain returns cleanly without hanging.
    serving.drain().unwrap();
}

/// Cancelling after completion is a true no-op: neither the result nor
/// the progress view flips to cancelled.
#[test]
fn cancel_after_completion_is_a_noop() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 8,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let handle = serving.submit(request("done_first", 8, 9)).unwrap();
    let result = handle.wait();
    assert!(!result.cancelled);
    assert_eq!(result.shots, 8);
    handle.cancel();
    let p = handle.progress();
    assert!(p.finished);
    assert!(!p.cancelled, "cancel after completion must not relabel");
    assert!(!handle.wait().cancelled);
    serving.drain().unwrap();
    assert!(!handle.wait().cancelled);
}

/// `wait_timeout` on a job that cannot finish yet returns `None`
/// without blocking forever.
#[test]
fn wait_timeout_expires_on_unfinished_jobs() {
    let server = JobServer::new(ServerConfig::default());
    let handle = server.submit(request("parked", 4, 1)).unwrap();
    // Batch mode, no run(): the job cannot complete.
    assert!(handle.wait_timeout(Duration::from_millis(20)).is_none());
    assert!(!handle.is_finished());
    // A run() completes it; the handle then resolves instantly.
    let results = server.run();
    assert_eq!(results.len(), 1);
    assert_eq!(handle.wait().aggregate, results[0].aggregate);
}

/// The compile cache dedupes across streaming submissions exactly as in
/// batch mode, and a long chain job streams correctly.
#[test]
fn streaming_submissions_share_the_compile_cache() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let text = feedback_chain(0, 30).unwrap().to_string();
    let c = cfg();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let req = JobRequest::new(
                format!("tenant{i}"),
                JobSource::Text(text.clone()),
                c.clone(),
                coin(&c),
                6,
            )
            .base_seed(i)
            .tenant(format!("t{i}"));
            serving.submit(req).unwrap()
        })
        .collect();
    for h in &handles {
        let r = h.wait();
        assert_eq!(r.shots, 6);
    }
    let stats = serving.server().cache_stats();
    assert_eq!(stats.compiles, 1, "one compilation served all tenants");
    assert_eq!(stats.hits, 3);
    // Every tenant is attributed exactly one lookup.
    let tenants = serving.server().tenant_stats();
    assert_eq!(tenants.len(), 4);
    let total_lookups: u64 = tenants.iter().map(|(_, s)| s.hits + s.misses).sum();
    assert_eq!(total_lookups, 4);
    serving.drain().unwrap();
}

/// A finish hook that drops the last owner of a serving server runs on
/// a worker thread, so the implicit shutdown must not try to join that
/// worker (a self-join fails with a deadlock error and panics the
/// worker before the hook returns).
#[test]
fn dropping_the_last_owner_inside_a_finish_hook_does_not_self_join() {
    let serving = JobServer::serve(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 8,
        machine: None,
        obs: Default::default(),
        packer: None,
    });
    let server = serving.server().clone();
    let slot: Arc<Mutex<Option<ServingServer>>> = Arc::new(Mutex::new(Some(serving)));
    let (dropped_tx, dropped_rx) = mpsc::channel();
    let hook_slot = slot.clone();
    server.set_finish_hook(Arc::new(move |_| {
        let owner = hook_slot.lock().unwrap().take();
        drop(owner);
        let _ = dropped_tx.send(());
    }));
    let handle = server.submit(request("last-owner", 8, 1)).unwrap();
    assert_eq!(handle.wait().shots, 8);
    // The hook fires after the result is published, on the worker.
    assert!(
        dropped_rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        "the hook never returned from dropping the server"
    );
    assert!(slot.lock().unwrap().is_none());
}
