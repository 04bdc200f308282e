//! Fault-tolerance suite: kill-a-shard re-routing (deterministic and
//! property-based), planned retirement, capability filtering, work
//! stealing, and admission control — every surviving job's aggregate
//! bit-identical to a solo `ShotEngine` run.

use proptest::prelude::*;
use quape_core::{BatchAggregate, CompiledJob, QuapeConfig, ShotEngine};
use quape_isa::Program;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::{
    AdmissionConfig, FaultPlan, FrontDoor, JobError, Placement, Router, RouterConfig, ShardProfile,
    ShardStatus, StealConfig,
};
use quape_server::{JobRequest, JobSource, ServerConfig};
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

fn fleet(shards: usize, placement: Placement) -> RouterConfig {
    RouterConfig {
        shards,
        placement,
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

/// Kill a shard mid-stream: every accepted job still completes, with
/// aggregates bit-identical to solo runs, under every placement.
#[test]
fn killed_shard_jobs_reroute_bit_identically() {
    let jobs: Vec<(u8, u64, u64)> = vec![
        (0, 700, 21),
        (1, 300, 22),
        (2, 450, 23),
        (3, 350, 24),
        (0, 500, 25),
        (1, 250, 26),
        (2, 600, 27),
        (3, 400, 28),
    ];
    let oracles: Vec<BatchAggregate> = jobs
        .iter()
        .map(|(c, shots, seed)| solo(*c, *shots, *seed))
        .collect();
    for placement in [
        Placement::RoundRobin,
        Placement::LeastLoadedShots,
        Placement::StickyByDigest,
    ] {
        let router = Router::new(fleet(3, placement));
        let mut handles = Vec::new();
        let mut victim = None;
        for (i, (choice, shots, seed)) in jobs.iter().enumerate() {
            let routed = router
                .submit(request(&format!("job{i}"), *choice, *shots, *seed))
                .unwrap();
            // The first job's shard is the victim: with 1-thread shards
            // and hundreds of shots per job it is still busy (or has a
            // backlog) when the kill lands right after the submit loop.
            victim.get_or_insert(routed.shard);
            handles.push(routed.handle);
        }
        let victim = victim.unwrap();
        let plan = FaultPlan {
            victim,
            after_submits: jobs.len(),
        };
        assert!(plan.fire_if_due(jobs.len(), &router));
        assert_eq!(router.shard_status(victim), ShardStatus::Down);
        for (i, handle) in handles.iter().enumerate() {
            let result = handle.wait().unwrap_or_else(|e| {
                panic!("job{i} lost under {placement:?}: {e}");
            });
            assert_eq!(result.shots, jobs[i].1, "job{i} ran every shot");
            assert_eq!(
                result.aggregate, oracles[i],
                "job{i} diverged after the kill under {placement:?}"
            );
        }
        assert_eq!(router.fleet_snapshot().check(), Ok(()));
        let results = router.drain().unwrap();
        assert_eq!(results.len(), jobs.len());
        assert!(results.iter().all(|r| r.result.is_ok()));
    }
}

/// A planned retirement moves unstarted jobs immediately, finishes the
/// started ones in place, and takes the shard out of placement.
#[test]
fn retired_shard_finishes_and_stops_accepting() {
    let router = Router::new(fleet(2, Placement::RoundRobin));
    let mut handles = Vec::new();
    for i in 0..6 {
        handles.push(
            router
                .submit(request(&format!("job{i}"), i as u8 % 4, 400, 40 + i as u64))
                .unwrap()
                .handle,
        );
    }
    router.retire_shard(0);
    assert_eq!(router.shard_status(0), ShardStatus::Retiring);
    // New submissions only ever land on the survivor.
    for i in 6..10 {
        let routed = router
            .submit(request(&format!("job{i}"), i as u8 % 4, 50, 40 + i as u64))
            .unwrap();
        assert_eq!(routed.shard, 1, "retiring shard must not be placeable");
        handles.push(routed.handle);
    }
    for (i, handle) in handles.iter().enumerate() {
        let result = handle.wait().unwrap();
        let shots = if i < 6 { 400 } else { 50 };
        assert_eq!(result.shots, shots);
        assert_eq!(
            result.aggregate,
            solo(i as u8 % 4, shots, 40 + i as u64),
            "job{i} diverged across the retirement"
        );
    }
    assert_eq!(router.fleet_snapshot().check(), Ok(()));
    router.drain().unwrap();
}

/// The capability filter: an infeasible job is rejected fleet-wide, a
/// feasible one lands on the only capable shard whatever the policy.
#[test]
fn capability_filter_rejects_and_steers() {
    let small = ShardProfile {
        max_qubits: 1,
        ..ShardProfile::unconstrained()
    };
    let big = ShardProfile {
        max_qubits: 12,
        ..ShardProfile::unconstrained()
    };
    for placement in [
        Placement::RoundRobin,
        Placement::LeastLoadedShots,
        Placement::StickyByDigest,
    ] {
        let router = Router::new(RouterConfig {
            profiles: vec![small, big],
            ..fleet(2, placement)
        });
        // feedback_chain(1, 8) touches qubit 1 — a 2-qubit span, too
        // wide for the 1-qubit shard 0.
        for i in 0..4 {
            let routed = router
                .submit(request(&format!("wide{i}"), 2, 10, i))
                .unwrap();
            assert_eq!(routed.shard, 1, "only the big shard is capable");
        }
        // conditional_x(0) is single-qubit: fits anywhere.
        let narrow = router.submit(request("narrow", 0, 10, 9)).unwrap();
        assert!(narrow.shard < 2);
        // An explicit 13-qubit config overflows every profile.
        let c = cfg().with_num_qubits(13);
        let infeasible = JobRequest::new(
            "thirteen",
            JobSource::Program(conditional_x(0).unwrap()),
            c.clone(),
            coin(&c),
            4,
        );
        assert!(matches!(
            router.submit(infeasible),
            Err(JobError::NoCapableShard)
        ));
        router.drain().unwrap();
    }
}

/// Wire text naming a qubit past the ISA's range is refused at
/// placement, even by unconstrained shards: the lexical scan saturates
/// (`q70000` overflows `u16`) instead of dropping the token, so nothing
/// is assembled and no shard is handed a job it cannot compile.
#[test]
fn out_of_range_wire_qubits_have_no_capable_shard() {
    let router = Router::new(fleet(2, Placement::RoundRobin));
    for text in ["0 H q70000\nSTOP\n", "0 H q0\n0 X q128\nSTOP\n"] {
        let c = cfg();
        let req = JobRequest::new(
            "hostile",
            JobSource::Text(text.into()),
            c.clone(),
            coin(&c),
            4,
        );
        assert!(
            matches!(router.submit(req), Err(JobError::NoCapableShard)),
            "{text:?}"
        );
    }
    assert!(
        router.cache_stats().iter().all(|c| c.misses == 0),
        "nothing reached a shard's compile cache"
    );
    assert_eq!(router.fleet_snapshot().check(), Ok(()));
    router.drain().unwrap();
}

/// A job the front door admits but no shard can run is refused at
/// dispatch: the refusal reaches its ticket and is counted, so the
/// admission law still balances.
#[test]
fn refused_dispatch_is_counted() {
    let small = ShardProfile {
        max_qubits: 1,
        ..ShardProfile::unconstrained()
    };
    let door = FrontDoor::new(
        RouterConfig {
            profiles: vec![small, small],
            ..fleet(2, Placement::RoundRobin)
        },
        AdmissionConfig::default(),
    );
    let fits = door.submit(request("narrow", 0, 10, 1)).unwrap();
    let wide = door.submit(request("wide", 2, 10, 2)).unwrap();
    assert!(matches!(wide.wait(), Err(JobError::NoCapableShard)));
    fits.wait().unwrap();
    let snapshot = door.router().fleet_snapshot();
    assert_eq!(snapshot.check(), Ok(()));
    let failed = snapshot
        .fleet_metrics
        .counters
        .iter()
        .find(|c| c.name == "front.dispatch_failed")
        .map_or(0, |c| c.value);
    assert_eq!(failed, 1);
    door.drain().unwrap();
}

/// Killing the only capable shard strands its jobs as `ShardLost`;
/// universally-placeable jobs survive on the other shard.
#[test]
fn shard_lost_when_no_capable_survivor() {
    let small = ShardProfile {
        max_qubits: 1,
        ..ShardProfile::unconstrained()
    };
    let router = Router::new(RouterConfig {
        profiles: vec![ShardProfile::unconstrained(), small],
        ..fleet(2, Placement::RoundRobin)
    });
    // Wide jobs (2 qubits) can only run on shard 0; narrow on both.
    let wide: Vec<_> = (0..3)
        .map(|i| {
            router
                .submit(request(&format!("wide{i}"), 2, 4000, 60 + i))
                .unwrap()
        })
        .collect();
    assert!(wide.iter().all(|r| r.shard == 0));
    let narrow = router.submit(request("narrow", 0, 200, 70)).unwrap();
    router.kill_shard(0);
    let mut lost = 0;
    for routed in &wide {
        match routed.handle.wait() {
            Err(JobError::ShardLost) => lost += 1,
            Ok(result) => {
                // A wide job that fully completed before the kill is a
                // legitimate outcome; anything else is a bug.
                assert_eq!(result.shots, result.shots_requested);
            }
            Err(e) => panic!("unexpected terminal error: {e}"),
        }
    }
    // 3 × 4000 shots on one 1-thread shard cannot all have finished
    // before the kill that immediately followed the submits.
    assert!(lost > 0, "at least one wide job must be stranded");
    let narrow_result = narrow.handle.wait();
    if narrow.shard == 0 {
        // Placed on the doomed shard: it must have been re-routed to
        // the capable survivor, not lost.
        let result = narrow_result.expect("narrow job survives on shard 1");
        assert_eq!(result.aggregate, solo(0, 200, 70));
    } else {
        assert!(narrow_result.is_ok());
    }
    // Stranded wide jobs end their recoveries as failures.
    let snapshot = router.fleet_snapshot();
    assert_eq!(snapshot.check(), Ok(()));
    let failed = snapshot
        .fleet_metrics
        .counters
        .iter()
        .find(|c| c.name == "router.recoveries_failed")
        .map_or(0, |c| c.value);
    assert_eq!(failed, lost);
    let results = router.drain().unwrap();
    assert_eq!(results.len(), 4);
}

/// Work stealing moves one whole queued job to an idle shard, without
/// perturbing its aggregate.
#[test]
fn steal_moves_whole_job_bit_identically() {
    // Sticky placement pins every copy of one program to one shard,
    // piling a backlog there while the other shard idles.
    let router = Router::new(fleet(2, Placement::StickyByDigest));
    // The 1-thread victim holds pile0's first shot until the steal has
    // run, so everything behind it is still unstarted and stealable.
    let mut pile0 = request("pile0", 1, 2000, 80);
    let gate = support::stall_first_shot(&mut pile0, coin(&cfg()));
    let first = router.submit(pile0).unwrap();
    let victim = first.shard;
    let thief = 1 - victim;
    let mut handles = vec![first.handle];
    for i in 1..5 {
        let routed = router
            .submit(request(&format!("pile{i}"), 1, 300, 80 + i as u64))
            .unwrap();
        assert_eq!(routed.shard, victim, "sticky pins the pile to one shard");
        handles.push(routed.handle);
    }
    let stole = router.steal_once(1);
    gate.open();
    assert!(stole, "an idle shard and a backlog coexist");
    assert_eq!(router.stolen_jobs(), 1);
    let moved: Vec<_> = handles.iter().filter(|h| h.shard() == thief).collect();
    assert_eq!(moved.len(), 1, "exactly one whole job moved");
    for (i, handle) in handles.iter().enumerate() {
        let result = handle.wait().unwrap();
        let shots = if i == 0 { 2000 } else { 300 };
        assert_eq!(result.shots, shots);
        assert_eq!(
            result.aggregate,
            solo(1, shots, 80 + i as u64),
            "pile{i} diverged after the steal"
        );
    }
    let snapshot = router.fleet_snapshot();
    assert_eq!(snapshot.check(), Ok(()));
    let revoked = snapshot.shards[victim]
        .metrics
        .counters
        .iter()
        .find(|c| c.name == "server.jobs_revoked")
        .map_or(0, |c| c.value);
    assert_eq!(revoked, 1, "the victim counts the steal as a revoke");
    router.drain().unwrap();
}

/// The background stealer drains a pile-up without explicit calls.
#[test]
fn background_stealer_balances_a_sticky_pile() {
    let router = Router::new(RouterConfig {
        steal: Some(StealConfig::default()),
        ..fleet(2, Placement::StickyByDigest)
    });
    let mut handles = Vec::new();
    for i in 0..8 {
        handles.push(
            router
                .submit(request(&format!("pile{i}"), 1, 500, 90 + i as u64))
                .unwrap()
                .handle,
        );
    }
    for (i, handle) in handles.iter().enumerate() {
        let result = handle.wait().unwrap();
        assert_eq!(
            result.aggregate,
            solo(1, 500, 90 + i as u64),
            "pile{i} diverged under background stealing"
        );
    }
    assert_eq!(router.fleet_snapshot().check(), Ok(()));
    router.drain().unwrap();
}

/// Budget math: an over-budget submission is shed with the exact
/// retry-after figure, and completions refund the budget.
#[test]
fn over_budget_sheds_with_retry_after() {
    // Shots are sized so job "a" cannot race to completion (refunding
    // alice's budget) before the over-budget submission below lands —
    // tens of thousands of shots take milliseconds, the submit takes
    // microseconds.
    let door = FrontDoor::new(
        fleet(2, Placement::RoundRobin),
        AdmissionConfig {
            tenant_budget_shots: 100_000,
            quantum_shots: 32_000,
            fleet_window_shots: 1 << 30,
            weights: Vec::new(),
        },
    );
    let a = door
        .submit(request("a", 0, 80_000, 1).tenant("alice"))
        .unwrap();
    match door.submit(request("b", 0, 40_000, 2).tenant("alice")) {
        Err(JobError::OverBudget { retry_after_shots }) => {
            assert_eq!(retry_after_shots, 80_000 + 40_000 - 100_000);
        }
        other => panic!("expected OverBudget, got {other:?}"),
    }
    assert_eq!(door.shed_count(), 1);
    // Another tenant is unaffected.
    let b = door
        .submit(request("c", 0, 80_000, 3).tenant("bob"))
        .unwrap();
    a.wait().unwrap();
    // The finish hook refunds asynchronously right around wait()'s
    // return; poll briefly rather than racing it.
    let mut budget_freed = false;
    for _ in 0..1000 {
        if door.inflight_shots("alice") == 0 {
            budget_freed = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(budget_freed, "completion must refund the tenant budget");
    let retry = door
        .submit(request("b2", 0, 40_000, 2).tenant("alice"))
        .unwrap();
    retry.wait().unwrap();
    b.wait().unwrap();
    assert_eq!(door.router().fleet_snapshot().check(), Ok(()));
    door.drain().unwrap();
}

/// The documented DRR starvation bound: while a hog floods the fleet, a
/// 1-shot tenant's queue wait (in dispatched shots) stays bounded by
/// the hog's quantum — never by the hog's backlog.
#[test]
fn drr_bounds_mouse_wait_under_hog_flood() {
    let quantum = 64u64;
    let hog_job = 32u64;
    let door = FrontDoor::new(
        fleet(2, Placement::RoundRobin),
        AdmissionConfig {
            tenant_budget_shots: 1 << 30,
            quantum_shots: quantum,
            fleet_window_shots: 64,
            weights: Vec::new(),
        },
    );
    let mut hog_jobs = Vec::new();
    for i in 0..60 {
        hog_jobs.push(
            door.submit(request(&format!("hog{i}"), 0, hog_job, i).tenant("hog"))
                .unwrap(),
        );
    }
    let mut mice = Vec::new();
    for i in 0..20 {
        mice.push(
            door.submit(request(&format!("mouse{i}"), 0, 1, 1000 + i).tenant("mouse"))
                .unwrap(),
        );
    }
    // Per DRR round the hog earns `quantum` deficit and can overshoot by
    // at most one whole job; the mouse is served at latest on its
    // queue's next visit, one round later. Twice that covers an
    // arrival that just missed its queue's turn.
    let bound = 2 * (quantum + hog_job);
    for (i, mouse) in mice.iter().enumerate() {
        mouse.wait().unwrap();
        let waited = mouse.dispatch_seq().expect("dispatched") - mouse.arrival_seq();
        assert!(
            waited <= bound,
            "mouse{i} waited {waited} dispatched shots (> bound {bound})"
        );
    }
    for hog in &hog_jobs {
        hog.wait().unwrap();
    }
    let log = door.dispatch_log();
    assert_eq!(log.len(), 80, "every admitted job dispatched exactly once");
    assert_eq!(door.router().fleet_snapshot().check(), Ok(()));
    door.drain().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any kill schedule — random victim, random kill point in the
    /// submission stream, random placement — yields per-job aggregates
    /// bit-identical to the zero-failure (solo) run for every job that
    /// completes; and with an unconstrained fleet of ≥2 shards, every
    /// job completes.
    #[test]
    fn any_kill_schedule_is_bit_identical(
        jobs in proptest::collection::vec((0u8..4, 50u64..400, 0u64..1000), 2..7),
        shards in 2usize..=4,
        victim_pick in 0usize..4,
        kill_after in 0usize..7,
        placement_pick in 0u8..3,
    ) {
        let placement = match placement_pick {
            0 => Placement::RoundRobin,
            1 => Placement::LeastLoadedShots,
            _ => Placement::StickyByDigest,
        };
        let victim = victim_pick % shards;
        let kill_after = kill_after % (jobs.len() + 1);
        let plan = FaultPlan { victim, after_submits: kill_after };
        let router = Router::new(fleet(shards, placement));
        let mut handles = Vec::new();
        plan.fire_if_due(0, &router);
        for (i, (choice, shots, seed)) in jobs.iter().enumerate() {
            let routed = router
                .submit(request(&format!("job{i}"), *choice, *shots, *seed))
                .unwrap();
            handles.push(routed.handle);
            plan.fire_if_due(i + 1, &router);
        }
        for (i, handle) in handles.iter().enumerate() {
            let (choice, shots, seed) = jobs[i];
            let result = handle.wait().unwrap_or_else(|e| {
                panic!(
                    "job{i} lost ({e}) with an unconstrained survivor \
                     (shards={shards}, victim={victim}, kill_after={kill_after})"
                )
            });
            prop_assert_eq!(result.shots, shots, "job{} must run every shot", i);
            prop_assert_eq!(
                &result.aggregate,
                &solo(choice, shots, seed),
                "job{} diverged (shards={}, placement={:?}, victim={}, kill_after={})",
                i, shards, placement, victim, kill_after
            );
        }
        prop_assert_eq!(router.fleet_snapshot().check(), Ok(()));
        let results = router.drain().unwrap();
        prop_assert_eq!(results.len(), jobs.len());
    }
}

/// A fleet declared entirely by machine descriptions derives each
/// shard's capability profile from its description: the same
/// steer/reject behavior as hand-written profiles, driven by the
/// declarative surface.
#[test]
fn heterogeneous_fleet_from_machine_descriptions() {
    use quape_core::machdesc::{ChannelLayout, MachineDescription};

    // Shard 0: a 1-qubit fridge. Shard 1: a 12-qubit fridge.
    let mut small = MachineDescription::baseline();
    small.channels = ChannelLayout::Linear { qubits: Some(1) };
    let mut big = MachineDescription::multiprocessor(2);
    big.channels = ChannelLayout::Linear { qubits: Some(12) };
    let router = Router::new(RouterConfig {
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 3,
            cache_capacity: 4,
            machine: None,
            obs: Default::default(),
            packer: None,
        },
        ..RouterConfig::heterogeneous(vec![small, big])
    });
    // feedback_chain(1, 8) touches qubit 1 — too wide for shard 0.
    for i in 0..3 {
        let routed = router
            .submit(request(&format!("wide{i}"), 2, 10, i))
            .unwrap();
        assert_eq!(routed.shard, 1, "only the 12-qubit machine is capable");
    }
    // An explicit 13-qubit config overflows both described machines.
    let c = cfg().with_num_qubits(13);
    let infeasible = JobRequest::new(
        "thirteen",
        JobSource::Program(conditional_x(0).unwrap()),
        c.clone(),
        coin(&c),
        4,
    );
    assert!(matches!(
        router.submit(infeasible),
        Err(JobError::NoCapableShard)
    ));
    // Explicit profiles win over descriptions: unconstrain shard 0.
    drop(router);
    let mut small2 = MachineDescription::baseline();
    small2.channels = ChannelLayout::Linear { qubits: Some(1) };
    let router = Router::new(RouterConfig {
        profiles: vec![ShardProfile::unconstrained()],
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 3,
            cache_capacity: 4,
            machine: None,
            obs: Default::default(),
            packer: None,
        },
        placement: Placement::RoundRobin,
        ..RouterConfig::heterogeneous(vec![small2])
    });
    let routed = router.submit(request("wide", 2, 10, 99)).unwrap();
    assert_eq!(routed.shard, 0, "explicit profile overrides the machine");
    router.drain().unwrap();
}
