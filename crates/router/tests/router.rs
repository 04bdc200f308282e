//! Router differential suite: per-job aggregates are bit-identical to
//! solo `ShotEngine` runs regardless of shard count, placement policy,
//! or cancellation timing — plus placement-policy behavior and
//! fleet-wide tenant accounting.

use proptest::prelude::*;
use quape_core::{BatchAggregate, CompiledJob, QuapeConfig, ShotEngine};
use quape_isa::Program;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::{Placement, RoutedResult, Router, RouterConfig};
use quape_server::{JobRequest, JobResult, JobSource, ServerConfig};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};

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

fn router(shards: usize, placement: Placement, threads: usize) -> Router {
    Router::new(RouterConfig {
        shards,
        placement,
        shard: ServerConfig {
            threads,
            shot_quantum: 3,
            cache_capacity: 4,
            machine: None,
            obs: Default::default(),
            packer: None,
        },
        ..RouterConfig::default()
    })
}

/// Submits `(choice, shots, seed)` jobs (named by index) and returns the
/// drained results sorted back into submission order.
fn ok(r: &RoutedResult) -> &JobResult {
    r.result.as_ref().expect("job completed")
}

fn run_router(r: Router, jobs: &[(u8, u64, u64)]) -> Vec<RoutedResult> {
    let c = cfg();
    let mut handles = Vec::with_capacity(jobs.len());
    for (i, (choice, shots, seed)) in jobs.iter().enumerate() {
        let routed = r
            .submit(
                JobRequest::new(
                    format!("job{i}"),
                    JobSource::Program(program(*choice)),
                    c.clone(),
                    coin(&c),
                    *shots,
                )
                .base_seed(*seed),
            )
            .unwrap();
        handles.push(routed.handle);
    }
    // Once every job settled, the fleet's counters must balance.
    for handle in &handles {
        let _ = handle.wait();
    }
    assert_eq!(r.fleet_snapshot().check(), Ok(()));
    let mut results = r.drain().unwrap();
    results.sort_unstable_by_key(|r| {
        ok(r)
            .name
            .strip_prefix("job")
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap()
    });
    results
}

/// One fixed heterogeneous job set, every shard count × placement: all
/// aggregates bit-identical to solo engine runs (and therefore to each
/// other across configurations).
#[test]
fn aggregates_identical_across_shard_counts_and_placements() {
    let jobs: Vec<(u8, u64, u64)> = vec![
        (0, 40, 11),
        (1, 17, 12),
        (2, 9, 13),
        (3, 25, 14),
        (0, 5, 15),
        (1, 31, 16),
    ];
    let oracles: Vec<BatchAggregate> = jobs
        .iter()
        .map(|(c, shots, seed)| solo(*c, *shots, *seed))
        .collect();
    for shards in [1usize, 2, 3, 4] {
        for placement in [
            Placement::RoundRobin,
            Placement::LeastLoadedShots,
            Placement::StickyByDigest,
        ] {
            let results = run_router(router(shards, placement, 2), &jobs);
            assert_eq!(results.len(), jobs.len());
            for (i, r) in results.iter().enumerate() {
                assert!(r.shard < shards);
                assert_eq!(
                    ok(r).aggregate,
                    oracles[i],
                    "job{i} diverged with shards={shards} placement={placement:?}"
                );
            }
        }
    }
}

/// Least-loaded placement routes away from a shard with a huge backlog.
#[test]
fn least_loaded_avoids_the_busy_shard() {
    let r = router(3, Placement::LeastLoadedShots, 1);
    let c = cfg();
    let big = r
        .submit(
            JobRequest::new(
                "big",
                JobSource::Program(conditional_x(0).unwrap()),
                c.clone(),
                coin(&c),
                1_000_000,
            )
            .base_seed(1),
        )
        .unwrap();
    assert_eq!(big.shard, 0, "all-idle tie goes to the lowest index");
    // The big job's backlog keeps shard 0 maximally loaded; the next
    // submissions must avoid it.
    let next = r
        .submit(
            JobRequest::new(
                "small",
                JobSource::Program(conditional_x(0).unwrap()),
                c.clone(),
                coin(&c),
                4,
            )
            .base_seed(2),
        )
        .unwrap();
    assert_ne!(next.shard, 0, "least-loaded must avoid the busy shard");
    big.handle.cancel();
    let results = r.shutdown().unwrap();
    assert_eq!(results.len(), 2);
}

/// Sticky routing keeps one program's cache entries on one shard: the
/// fleet compiles each distinct program exactly once, wherever
/// round-robin would compile it on every shard it touches.
#[test]
fn sticky_routing_compiles_each_program_once_fleet_wide() {
    // 7 distinct programs over 3 shards: coprime, so round-robin really
    // does spread each program across shards (6 programs would alias the
    // cycle and pin programs by accident).
    let distinct = 7usize;
    let reps = 4usize;
    let submit_all = |r: &Router| {
        let c = cfg();
        for rep in 0..reps {
            for p in 0..distinct {
                let _ = r
                    .submit(
                        JobRequest::new(
                            format!("p{p}r{rep}"),
                            JobSource::Text(feedback_chain(0, 10 + p).unwrap().to_string()),
                            c.clone(),
                            coin(&c),
                            1,
                        )
                        .base_seed((p * reps + rep) as u64),
                    )
                    .unwrap();
            }
        }
    };
    let router = |placement| {
        Router::new(RouterConfig {
            shards: 3,
            placement,
            shard: ServerConfig {
                threads: 1,
                shot_quantum: 4,
                cache_capacity: 16,
                machine: None,
                obs: Default::default(),
                packer: None,
            },
            ..RouterConfig::default()
        })
    };
    let sticky = router(Placement::StickyByDigest);
    submit_all(&sticky);
    let compiles: u64 = sticky.cache_stats().iter().map(|s| s.compiles).sum();
    sticky.drain().unwrap();
    assert_eq!(
        compiles, distinct as u64,
        "sticky fleet compiles each program exactly once"
    );
    let rr = router(Placement::RoundRobin);
    submit_all(&rr);
    let rr_compiles: u64 = rr.cache_stats().iter().map(|s| s.compiles).sum();
    rr.drain().unwrap();
    assert!(
        rr_compiles > distinct as u64,
        "round-robin recompiles across shards ({rr_compiles} <= {distinct})"
    );
}

/// Per-tenant stats fold across shards.
#[test]
fn tenant_stats_fold_across_shards() {
    let r = router(2, Placement::RoundRobin, 1);
    let c = cfg();
    for i in 0..6u64 {
        let _ = r
            .submit(
                JobRequest::new(
                    format!("j{i}"),
                    JobSource::Program(conditional_x(0).unwrap()),
                    c.clone(),
                    coin(&c),
                    2,
                )
                .base_seed(i)
                .tenant(if i % 2 == 0 { "alice" } else { "bob" }),
            )
            .unwrap();
    }
    let tenants = r.tenant_stats();
    assert_eq!(tenants.len(), 2);
    assert_eq!(tenants[0].0, "alice");
    assert_eq!(tenants[1].0, "bob");
    // Round-robin over 2 shards: each tenant hits both shards; the fold
    // must account every lookup exactly once.
    for (name, stats) in &tenants {
        assert_eq!(stats.hits + stats.misses, 3, "{name}");
    }
    r.drain().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random heterogeneous job sets over 1..=4 shards: every routed
    /// job's aggregate is bit-identical to a solo `ShotEngine` run.
    #[test]
    fn router_matches_solo_engine_on_random_jobs(
        jobs in proptest::collection::vec((0u8..4, 1u64..24, 0u64..1000), 1..7),
        shards in 1usize..=4,
        placement_pick in 0u8..3,
    ) {
        let placement = match placement_pick {
            0 => Placement::RoundRobin,
            1 => Placement::LeastLoadedShots,
            _ => Placement::StickyByDigest,
        };
        let results = run_router(router(shards, placement, 2), &jobs);
        prop_assert_eq!(results.len(), jobs.len());
        for (i, r) in results.iter().enumerate() {
            let (choice, shots, seed) = jobs[i];
            prop_assert_eq!(
                &ok(r).aggregate,
                &solo(choice, shots, seed),
                "job{} diverged (shards={}, placement={:?})",
                i, shards, placement
            );
        }
    }
}

/// A capability-aware fleet clips each shard's packer cap to its
/// profile before the shard starts: the packer must never form a
/// combined program wider than the shard's own fridge (or, with
/// dedicated-line readout, than its readout lines).
#[test]
fn packer_cap_is_clipped_to_the_shard_profile() {
    use quape_router::ShardProfile;
    use quape_server::PackerConfig;
    let r = Router::new(RouterConfig {
        shards: 2,
        placement: Placement::RoundRobin,
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 3,
            cache_capacity: 4,
            machine: None,
            obs: Default::default(),
            packer: Some(PackerConfig::default()),
        },
        profiles: vec![
            ShardProfile {
                max_qubits: 5,
                ..ShardProfile::unconstrained()
            },
            ShardProfile {
                max_qubits: 32,
                readout_lines: Some(6),
                ..ShardProfile::unconstrained()
            },
        ],
        ..RouterConfig::default()
    });
    let cap = |i: usize| {
        r.shard(i)
            .config()
            .packer
            .as_ref()
            .expect("packer configured")
            .max_pack_qubits
    };
    assert_eq!(cap(0), 5);
    // Dedicated-line members need a readout line per packed qubit.
    assert_eq!(cap(1), 6);
    r.drain().unwrap();
}

/// With the packer live on every shard, routed aggregates stay
/// bit-identical to solo engine runs — whether or not any given pair
/// actually packed (the de-multiplexer is exact by construction).
#[test]
fn packer_enabled_fleet_matches_solo_engine() {
    use quape_server::PackerConfig;
    let r = Router::new(RouterConfig {
        shards: 2,
        placement: Placement::StickyByDigest,
        shard: ServerConfig {
            threads: 1,
            shot_quantum: 4,
            cache_capacity: 8,
            machine: None,
            obs: Default::default(),
            packer: Some(PackerConfig::default()),
        },
        ..RouterConfig::default()
    });
    // Identical program/config/shots with distinct seeds: one pack
    // class, so co-resident submissions are packable.
    let jobs: Vec<(u8, u64, u64)> = (0..10).map(|i| (1u8, 16, 100 + i)).collect();
    let results = run_router(r, &jobs);
    for (i, res) in results.iter().enumerate() {
        let (choice, shots, seed) = jobs[i];
        assert_eq!(
            ok(res).aggregate,
            solo(choice, shots, seed),
            "job{i} diverged"
        );
    }
}
