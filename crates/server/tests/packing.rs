//! Differential suite for the multiprogramming packer: every packed
//! job's `JobResult` — full runs, mid-flight partials, and
//! single-member cancels — is bit-identical to its solo `ShotEngine`
//! run, and the packer declines exactly when it should.

use proptest::prelude::*;
use quape_core::{BatchAggregate, CompiledJob, QuapeConfig, ShotEngine};
use quape_isa::{
    assemble, BlockId, BlockTableError, ClassicalOp, Dependency, Gate1, Program, ProgramBuilder,
    ProgramError, QuantumOp, Qubit, BLOCK_TABLE_CAPACITY,
};
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_server::{JobRequest, JobServer, JobSource, PackerConfig, Priority, ServerConfig};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};
use quape_workloads::multiprogramming::{combine, CombineError};

fn cfg() -> QuapeConfig {
    QuapeConfig::superscalar(4)
}

fn coin(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

fn packing_server(threads: usize, quantum: u64, packer: PackerConfig) -> JobServer {
    JobServer::new(ServerConfig {
        threads,
        shot_quantum: quantum,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer: Some(packer),
    })
}

fn program(choice: u8) -> Program {
    match choice % 4 {
        0 => conditional_x(0).unwrap(),
        1 => feedback_chain(0, 5).unwrap(),
        2 => feedback_chain(1, 8).unwrap(),
        _ => mrce_feedback_chain(0, 6).unwrap(),
    }
}

fn solo(program: &Program, shots: u64, seed: u64) -> BatchAggregate {
    let c = cfg();
    let job = CompiledJob::compile(c.clone(), program.clone()).unwrap();
    ShotEngine::new(job, coin(&c))
        .base_seed(seed)
        .threads(1)
        .run(shots)
        .aggregate
}

fn request(name: &str, program: Program, shots: u64, seed: u64) -> JobRequest {
    let c = cfg();
    JobRequest::new(
        name,
        JobSource::Program(program),
        c.clone(),
        coin(&c),
        shots,
    )
    .base_seed(seed)
}

/// Batch mode with one worker forms the pack deterministically (every
/// submission is unstarted when `run()` begins), and every packed
/// job's aggregate is bit-identical to its solo run.
#[test]
fn packed_batch_is_bit_identical_to_solo_runs() {
    let srv = packing_server(1, 4, PackerConfig::default());
    let jobs: Vec<(Program, u64, u64)> = (0..6)
        .map(|i| (program(i % 4), 24u64, 500 + u64::from(i)))
        .collect();
    for (i, (p, shots, seed)) in jobs.iter().enumerate() {
        let _ = srv
            .submit(request(&format!("j{i}"), p.clone(), *shots, *seed))
            .unwrap();
    }
    let results = srv.run();
    assert_eq!(results.len(), jobs.len());
    let stats = srv.packer_stats();
    // All six share config, step mode, priority and shot count — but
    // not programs; the pack class keys on the rest, so every job with
    // a packable span lands in one pack (span sum permitting).
    assert!(stats.packs_formed >= 1, "no pack formed: {stats:?}");
    assert!(stats.jobs_packed >= 2);
    for (i, (p, shots, seed)) in jobs.iter().enumerate() {
        let r = results
            .iter()
            .find(|r| r.name == format!("j{i}"))
            .expect("result present");
        assert_eq!(r.shots, *shots);
        assert!(!r.cancelled);
        assert_eq!(r.aggregate, solo(p, *shots, *seed), "j{i} diverged");
    }
}

/// Mid-flight partial aggregates of a packed member are
/// prefix-consistent: at any observation point the partial equals a
/// solo run of exactly that many shots.
#[test]
fn packed_partials_are_prefix_consistent_mid_flight() {
    let serving = JobServer::serve(ServerConfig {
        threads: 2,
        shot_quantum: 2,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer: Some(PackerConfig {
            max_member_shots: u64::MAX,
            ..PackerConfig::default()
        }),
    });
    let shots = 2_000_000u64;
    let a = serving.submit(request("a", program(1), shots, 41)).unwrap();
    let b = serving.submit(request("b", program(2), shots, 42)).unwrap();
    let partial = loop {
        let p = a.partial_aggregate();
        if p.shots >= 8 {
            break p;
        }
        std::thread::yield_now();
    };
    assert_eq!(partial, solo(&program(1), partial.shots, 41));
    a.cancel();
    b.cancel();
    let ra = a.wait();
    assert!(ra.cancelled);
    assert!(ra.shots < shots);
    drop(serving);
}

/// Cancelling one member of a pack must not perturb the others: the
/// cancelled member finalizes as a prefix-consistent partial while its
/// packmate runs to completion bit-identical to solo.
#[test]
fn cancelling_one_member_leaves_the_others_bit_identical() {
    let serving = JobServer::serve(ServerConfig {
        threads: 1,
        shot_quantum: 4,
        cache_capacity: 16,
        machine: None,
        obs: Default::default(),
        packer: Some(PackerConfig {
            max_member_shots: u64::MAX,
            ..PackerConfig::default()
        }),
    });
    let shots = 200_000u64;
    let victim = serving
        .submit(request("victim", program(0), shots, 7))
        .unwrap();
    let survivor = serving
        .submit(request("survivor", program(3), shots, 8))
        .unwrap();
    // Wait for both to make progress (if they packed, both advance in
    // lockstep; if not, the property must hold anyway).
    while victim.progress().shots_done == 0 || survivor.progress().shots_done == 0 {
        std::thread::yield_now();
    }
    victim.cancel();
    let rv = victim.wait();
    assert!(rv.cancelled);
    assert!(rv.shots < shots, "cancel must cut the victim short");
    // The victim's partial is prefix-consistent…
    assert_eq!(rv.aggregate, solo(&program(0), rv.shots, 7));
    // …and the survivor is untouched: full run, bit-identical.
    let rs = survivor.wait();
    assert!(!rs.cancelled);
    assert_eq!(rs.shots, shots);
    assert_eq!(rs.aggregate, solo(&program(3), shots, 8));
    drop(serving);
}

/// The packer declines exactly when it should: mismatched shot counts
/// (exact policy), mismatched configs, spans over the cap, and jobs
/// with priority-dependent blocks never pack — and every job still
/// completes bit-identical to solo.
#[test]
fn packer_declines_incompatible_jobs() {
    // Exact shot policy: different shot counts are different classes.
    let srv = packing_server(1, 4, PackerConfig::default());
    let _ = srv.submit(request("x", program(0), 10, 1)).unwrap();
    let _ = srv.submit(request("y", program(1), 11, 2)).unwrap();
    let results = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 0);
    assert_eq!(results.len(), 2);

    // Span cap: each member fits solo, the pair does not.
    let span = program(1).num_qubits();
    let srv = packing_server(
        1,
        4,
        PackerConfig {
            max_pack_qubits: 2 * span - 1,
            ..PackerConfig::default()
        },
    );
    let _ = srv.submit(request("x", program(1), 10, 1)).unwrap();
    let _ = srv.submit(request("y", program(1), 10, 2)).unwrap();
    let _ = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 0);

    // Shots over the candidate ceiling never enter the scan.
    let srv = packing_server(
        1,
        4,
        PackerConfig {
            max_member_shots: 9,
            ..PackerConfig::default()
        },
    );
    let _ = srv.submit(request("x", program(0), 10, 1)).unwrap();
    let _ = srv.submit(request("y", program(0), 10, 2)).unwrap();
    let _ = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 0);

    // Mismatched configs (different machine digests): never packed.
    let srv = packing_server(1, 4, PackerConfig::default());
    let other = QuapeConfig::multiprocessor(2);
    let _ = srv.submit(request("x", program(0), 10, 1)).unwrap();
    let _ = srv
        .submit(
            JobRequest::new(
                "y",
                JobSource::Program(program(0)),
                other.clone(),
                coin(&other),
                10,
            )
            .base_seed(2),
        )
        .unwrap();
    let _ = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 0);

    // Different priorities: different classes (no cross-priority packs).
    let srv = packing_server(1, 4, PackerConfig::default());
    let _ = srv
        .submit(request("x", program(0), 10, 1).priority(Priority::High))
        .unwrap();
    let _ = srv
        .submit(request("y", program(0), 10, 2).priority(Priority::Low))
        .unwrap();
    let _ = srv.run();
    assert_eq!(srv.packer_stats().packs_formed, 0);
}

/// A one-qubit program of `blocks` serial blocks (block `i` waits for
/// block `i − 1`), each a coin-flip measurement.
fn serial_blocks(blocks: u16) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..blocks {
        let dep = if i == 0 {
            Dependency::none()
        } else {
            Dependency::Direct(vec![BlockId(i - 1)])
        };
        b.begin_block(format!("b{i}"), dep);
        b.quantum(0, QuantumOp::Gate1(Gate1::H, Qubit::new(0)));
        b.quantum(1, QuantumOp::Measure(Qubit::new(0)));
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    b.finish().unwrap()
}

/// A pack whose combined program cannot be built is declined: two
/// 33-block members overflow the 64-entry block table, so the combined
/// compile fails. The decline is counted once, and both jobs still run
/// solo with aggregates bit-identical to their solo engines.
#[test]
fn pack_overflowing_the_block_table_is_declined() {
    let p = serial_blocks(33);
    assert!(2 * p.blocks().len() > BLOCK_TABLE_CAPACITY);
    assert!(matches!(
        combine(&[p.clone(), p.clone()]),
        Err(CombineError::Program(ProgramError::BlockTable(
            BlockTableError::CapacityExceeded { .. }
        )))
    ));
    let srv = packing_server(1, 4, PackerConfig::default());
    let _ = srv.submit(request("x", p.clone(), 10, 1)).unwrap();
    let _ = srv.submit(request("y", p.clone(), 10, 2)).unwrap();
    let results = srv.run();
    let stats = srv.packer_stats();
    assert_eq!(stats.packs_formed, 0);
    assert_eq!(stats.jobs_packed, 0);
    assert_eq!(stats.declined, 1);
    assert_eq!(results.len(), 2);
    for (name, seed) in [("x", 1u64), ("y", 2)] {
        let r = results
            .iter()
            .find(|r| r.name == name)
            .expect("result present");
        assert!(!r.cancelled);
        assert_eq!(r.shots, 10);
        assert_eq!(r.aggregate, solo(&p, 10, seed), "{name} diverged");
    }
}

/// Packs of identical program pairs re-use one combined compilation:
/// the second pack of the same shape is a compile-cache hit.
#[test]
fn repeated_pack_shapes_share_one_combined_compile() {
    let p = program(1);
    let first = packing_server(1, 4, PackerConfig::default());
    let mut texts = Vec::new();
    for (i, seed) in [(0u32, 10u64), (1, 11)] {
        texts.push((format!("a{i}"), seed));
    }
    for (name, seed) in &texts {
        let _ = first.submit(request(name, p.clone(), 12, *seed)).unwrap();
    }
    let _ = first.run();
    assert_eq!(first.packer_stats().packs_formed, 1);
    assert_eq!(first.packer_stats().combine_cache_hits, 0);
    // Same server, same pack shape again: combined program compiles
    // from the cache this time.
    for seed in [20u64, 21] {
        let _ = first
            .submit(request(&format!("b{seed}"), p.clone(), 12, seed))
            .unwrap();
    }
    let _ = first.run();
    assert_eq!(first.packer_stats().packs_formed, 2);
    assert_eq!(first.packer_stats().combine_cache_hits, 1);
}

/// The packed footprint is observable while the pack is live: the
/// combined span covers the members' disjoint regions in submission
/// order.
#[test]
fn packed_footprint_reports_disjoint_member_offsets() {
    let srv = packing_server(1, 64, PackerConfig::default());
    let p = assemble("0 H q0\n1 MEAS q0\nFMR r0, q0\nSTOP\n").unwrap();
    let span = p.num_qubits();
    let _ = srv.submit(request("a", p.clone(), 4, 1)).unwrap();
    let _ = srv.submit(request("b", p.clone(), 4, 2)).unwrap();
    let _ = srv.submit(request("c", p.clone(), 4, 3)).unwrap();
    // Form the pack without running it to completion: batch mode only
    // packs inside run(), so snapshot from a worker race would be
    // flaky. Instead run() fully, then verify via stats…
    let _ = srv.run();
    let stats = srv.packer_stats();
    assert_eq!(stats.packs_formed, 1);
    assert_eq!(stats.jobs_packed, 3);
    assert_eq!(stats.packed_shots, 12);
    // …and check the footprint arithmetic directly on the pack
    // metadata by re-forming the same pack shape while serving is off.
    let packed =
        quape_workloads::multiprogramming::pack(&[p.clone(), p.clone(), p.clone()]).unwrap();
    assert_eq!(packed.qubit_span(), 3 * span);
    let offsets: Vec<u16> = packed.members.iter().map(|m| m.qubit_offset).collect();
    assert_eq!(offsets, vec![0, span, 2 * span]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random compatible program pairs: packing de-multiplexes to
    /// solo-identical aggregates for every member, whatever the
    /// programs, shot count and seeds.
    #[test]
    fn packed_pairs_match_solo_engine_on_random_programs(
        a in 0u8..4,
        b in 0u8..4,
        shots in 1u64..48,
        seed_a in 0u64..1000,
        seed_b in 0u64..1000,
    ) {
        let srv = packing_server(1, 4, PackerConfig::default());
        let _ = srv.submit(request("a", program(a), shots, seed_a)).unwrap();
        let _ = srv.submit(request("b", program(b), shots, seed_b)).unwrap();
        let results = srv.run();
        prop_assert_eq!(results.len(), 2);
        prop_assert_eq!(srv.packer_stats().packs_formed, 1);
        let ra = results.iter().find(|r| r.name == "a").unwrap();
        let rb = results.iter().find(|r| r.name == "b").unwrap();
        prop_assert_eq!(&ra.aggregate, &solo(&program(a), shots, seed_a));
        prop_assert_eq!(&rb.aggregate, &solo(&program(b), shots, seed_b));
    }
}
