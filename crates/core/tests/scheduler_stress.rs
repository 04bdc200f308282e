//! Scheduler stress tests: dependency topologies, prefetch behaviour and
//! allocation under contention.

use quape_core::{Machine, QuapeConfig, RunReport, StepMode, StopReason};
use quape_isa::{
    BlockId, BlockInfo, BlockInfoTable, BlockStatus, ClassicalOp, Dependency, DependencyMode,
    Gate1, Instruction, Program, ProgramBuilder, QuantumOp, Qubit,
};
use quape_qpu::{BehavioralQpu, MeasurementModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn run(cfg: QuapeConfig, program: Program) -> RunReport {
    run_with(cfg, program, StepMode::Lowered)
}

fn run_with(cfg: QuapeConfig, program: Program, mode: StepMode) -> RunReport {
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysZero, cfg.seed);
    Machine::new(cfg, program, Box::new(qpu))
        .expect("machine builds")
        .run_with_mode(mode, 500_000)
}

/// Builds a program whose blocks follow an arbitrary direct-dependency
/// DAG given as (name, deps, gates) triples (deps by name, topological
/// order).
fn dag_program(spec: &[(&str, &[&str], usize)]) -> Program {
    let mut b = ProgramBuilder::new();
    for (i, (name, deps, gates)) in spec.iter().enumerate() {
        if deps.is_empty() {
            b.begin_block(*name, Dependency::none());
        } else {
            b.begin_block_named_deps(*name, deps);
        }
        for g in 0..*gates {
            b.quantum(
                2,
                QuantumOp::Gate1(Gate1::X, Qubit::new(((i + g) % 16) as u16)),
            );
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    b.finish().expect("valid DAG program")
}

fn done_cycle(report: &RunReport, program: &Program, name: &str) -> u64 {
    let id = program.blocks().find(name).expect("block exists");
    report
        .block_events
        .iter()
        .find(|e| e.block == id && e.status == BlockStatus::Done)
        .map(|e| e.cycle)
        .unwrap_or_else(|| panic!("block {name} never finished"))
}

fn exec_cycle(report: &RunReport, program: &Program, name: &str) -> u64 {
    let id = program.blocks().find(name).expect("block exists");
    report
        .block_events
        .iter()
        .find(|e| e.block == id && e.status == BlockStatus::InExecution)
        .map(|e| e.cycle)
        .unwrap_or_else(|| panic!("block {name} never executed"))
}

#[test]
fn diamond_dependency_respected() {
    // a → (b ∥ c) → d on 2 processors.
    let spec: &[(&str, &[&str], usize)] = &[
        ("a", &[], 6),
        ("b", &["a"], 6),
        ("c", &["a"], 6),
        ("d", &["b", "c"], 6),
    ];
    let program = dag_program(spec);
    let report = run(QuapeConfig::multiprocessor(2), program.clone());
    assert_eq!(report.stop, StopReason::Completed);
    assert!(done_cycle(&report, &program, "a") <= exec_cycle(&report, &program, "b"));
    assert!(done_cycle(&report, &program, "a") <= exec_cycle(&report, &program, "c"));
    assert!(done_cycle(&report, &program, "b") <= exec_cycle(&report, &program, "d"));
    assert!(done_cycle(&report, &program, "c") <= exec_cycle(&report, &program, "d"));
}

#[test]
fn wide_fanout_saturates_processors() {
    // One root, 8 independent children, on 4 processors: the children
    // must overlap in execution (at least two running concurrently).
    let mut spec: Vec<(String, Vec<String>, usize)> = vec![("root".into(), vec![], 4)];
    for i in 0..8 {
        spec.push((format!("child{i}"), vec!["root".into()], 12));
    }
    let spec_refs: Vec<(&str, Vec<&str>, usize)> = spec
        .iter()
        .map(|(n, d, g)| (n.as_str(), d.iter().map(String::as_str).collect(), *g))
        .collect();
    let mut b = ProgramBuilder::new();
    for (i, (name, deps, gates)) in spec_refs.iter().enumerate() {
        if deps.is_empty() {
            b.begin_block(*name, Dependency::none());
        } else {
            b.begin_block_named_deps(*name, deps);
        }
        for g in 0..*gates {
            b.quantum(
                2,
                QuantumOp::Gate1(Gate1::X, Qubit::new(((i * 3 + g) % 24) as u16)),
            );
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    let report = run(QuapeConfig::multiprocessor(4), program.clone());
    assert_eq!(report.stop, StopReason::Completed);

    // Concurrency check: some child must start before another finishes.
    let execs: Vec<u64> = (0..8)
        .map(|i| exec_cycle(&report, &program, &format!("child{i}")))
        .collect();
    let dones: Vec<u64> = (0..8)
        .map(|i| done_cycle(&report, &program, &format!("child{i}")))
        .collect();
    let overlap = execs.iter().enumerate().any(|(i, &e)| {
        dones
            .iter()
            .enumerate()
            .any(|(j, &d)| i != j && e < d && execs[j] < d)
    });
    assert!(
        overlap,
        "children never overlapped: exec {execs:?} done {dones:?}"
    );
}

#[test]
fn long_chain_serializes_completely() {
    let spec: Vec<(String, Vec<String>, usize)> = (0..10)
        .map(|i| {
            let deps = if i == 0 {
                vec![]
            } else {
                vec![format!("n{}", i - 1)]
            };
            (format!("n{i}"), deps, 3)
        })
        .collect();
    let mut b = ProgramBuilder::new();
    for (name, deps, gates) in &spec {
        if deps.is_empty() {
            b.begin_block(name.clone(), Dependency::none());
        } else {
            let refs: Vec<&str> = deps.iter().map(String::as_str).collect();
            b.begin_block_named_deps(name.clone(), &refs);
        }
        for g in 0..*gates {
            b.quantum(2, QuantumOp::Gate1(Gate1::Y, Qubit::new(g as u16)));
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    // Even with 6 processors, a chain runs one block at a time.
    let report = run(QuapeConfig::multiprocessor(6), program.clone());
    assert_eq!(report.stop, StopReason::Completed);
    for i in 1..10 {
        assert!(
            done_cycle(&report, &program, &format!("n{}", i - 1))
                <= exec_cycle(&report, &program, &format!("n{i}")),
            "chain order violated at n{i}"
        );
    }
}

#[test]
fn prefetch_hits_dominate_on_priority_chains() {
    // Priority levels executed in order with prefetching: after the
    // initial load, later blocks should mostly start from prefetched
    // banks.
    let mut b = ProgramBuilder::new();
    for level in 0..8u16 {
        b.begin_block(format!("p{level}"), Dependency::Priority(level));
        for g in 0..10 {
            b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(g as u16)));
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    let report = run(QuapeConfig::uniprocessor(), program);
    assert_eq!(report.stop, StopReason::Completed);
    assert!(
        report.stats.prefetch_hits >= 5,
        "expected most switches to hit prefetched banks: {} hits / {} misses",
        report.stats.prefetch_hits,
        report.stats.prefetch_misses
    );
}

#[test]
fn disabling_prefetch_forces_allocation_fills() {
    let mut b = ProgramBuilder::new();
    for level in 0..8u16 {
        b.begin_block(format!("p{level}"), Dependency::Priority(level));
        for g in 0..10 {
            b.quantum(2, QuantumOp::Gate1(Gate1::X, Qubit::new(g as u16)));
        }
        b.push(ClassicalOp::Stop);
        b.end_block();
    }
    let program = b.finish().expect("valid program");
    let mut cfg = QuapeConfig::uniprocessor();
    cfg.prefetch = false;
    let no_prefetch = run(cfg, program.clone());
    let with_prefetch = run(QuapeConfig::uniprocessor(), program);
    assert!(no_prefetch.stats.prefetch_hits <= 1);
    assert!(
        no_prefetch.execution_time_ns() > with_prefetch.execution_time_ns(),
        "prefetching must shorten the run: {} vs {}",
        with_prefetch.execution_time_ns(),
        no_prefetch.execution_time_ns()
    );
}

#[test]
fn more_processors_than_blocks_is_harmless() {
    let spec: &[(&str, &[&str], usize)] = &[("only", &[], 5)];
    let program = dag_program(spec);
    let report = run(QuapeConfig::multiprocessor(6), program);
    assert_eq!(report.stop, StopReason::Completed);
    assert_eq!(report.issued.len(), 5);
}

#[test]
fn empty_blocks_complete_immediately() {
    let mut b = ProgramBuilder::new();
    b.begin_block("empty", Dependency::none());
    b.push(ClassicalOp::Stop);
    b.end_block();
    b.begin_block_named_deps("after", &["empty"]);
    b.quantum(0, QuantumOp::Gate1(Gate1::X, Qubit::new(0)));
    b.push(ClassicalOp::Stop);
    b.end_block();
    let program = b.finish().expect("valid program");
    let report = run(QuapeConfig::multiprocessor(2), program);
    assert_eq!(report.stop, StopReason::Completed);
    assert_eq!(report.issued.len(), 1);
}

#[test]
fn priority_mode_respects_level_order_on_multiprocessor() {
    // Regression test for the priority dependency mode: with several
    // blocks per priority level on 2 processors, no block of level p+1
    // may enter execution before *every* level-p block is done, while
    // blocks of one level are free to overlap.
    let mut b = ProgramBuilder::new();
    for level in 0..3u16 {
        for k in 0..2u16 {
            b.begin_block(format!("l{level}_{k}"), Dependency::Priority(level));
            for g in 0..8u16 {
                b.quantum(
                    2,
                    QuantumOp::Gate1(Gate1::X, Qubit::new((level * 2 + k + g) % 8)),
                );
            }
            b.push(ClassicalOp::Stop);
            b.end_block();
        }
    }
    let program = b.finish().expect("valid priority program");
    let report = run(QuapeConfig::multiprocessor(2), program.clone());
    assert_eq!(report.stop, StopReason::Completed);
    for level in 1..3u16 {
        let prev_done = (0..2u16)
            .map(|k| done_cycle(&report, &program, &format!("l{}_{k}", level - 1)))
            .max()
            .expect("two blocks per level");
        for k in 0..2u16 {
            let exec = exec_cycle(&report, &program, &format!("l{level}_{k}"));
            assert!(
                exec >= prev_done,
                "l{level}_{k} started at {exec} before level {} finished at {prev_done}",
                level - 1
            );
        }
    }
    // The two blocks of level 0 should overlap on 2 processors.
    let e0 = exec_cycle(&report, &program, "l0_0");
    let e1 = exec_cycle(&report, &program, "l0_1");
    let d0 = done_cycle(&report, &program, "l0_0");
    let d1 = done_cycle(&report, &program, "l0_1");
    assert!(
        e0 < d1 && e1 < d0,
        "level-0 blocks never overlapped: {e0}/{d0} vs {e1}/{d1}"
    );
}

/// Renders a Shor syndrome-measurement shot's block events, one per line
/// (`cycle block status processor`) under a header line.
fn shor_block_events(cores: usize, seed: u64) -> String {
    use quape_workloads::shor_syndrome::{ShorSyndrome, ShorSyndromeConfig};
    let shor = ShorSyndrome::generate(ShorSyndromeConfig::default()).expect("Shor generates");
    let cfg = QuapeConfig::multiprocessor(cores).with_seed(seed);
    let run = |mode: StepMode| {
        let qpu = BehavioralQpu::new(cfg.timings, ShorSyndrome::measurement_model(0.25), seed);
        Machine::new(cfg.clone(), shor.program.clone(), Box::new(qpu))
            .expect("machine builds")
            .run_with_mode(mode, 10_000_000)
    };
    let report = run(StepMode::Lowered);
    assert_eq!(report.stop, StopReason::Completed);
    assert_eq!(report.block_events, run(StepMode::Cycle).block_events);
    let mut out = format!("# multiprocessor({cores}) seed {seed}\n");
    for e in &report.block_events {
        let proc = e.processor.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{} {} {:?} {proc}\n",
            e.cycle, e.block.0, e.status
        ));
    }
    out
}

fn shor_fixture_text() -> String {
    [(1, 11), (6, 11), (6, 12)]
        .iter()
        .map(|&(cores, seed)| shor_block_events(cores, seed))
        .collect()
}

const SHOR_FIXTURE: &str = "tests/fixtures/shor_block_events.txt";

/// The Shor kernels' block schedule (priority mode, 50 blocks, 15
/// levels) on one and six cores, pinned event by event. Both executors
/// share the scheduler, so this fixture, not the cycle-stepped oracle,
/// is what catches a change in its decisions.
#[test]
fn shor_block_events_match_the_recorded_schedule() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SHOR_FIXTURE);
    let recorded = std::fs::read_to_string(&path).expect("fixture exists");
    let now = shor_fixture_text();
    for (i, (a, b)) in recorded.lines().zip(now.lines()).enumerate() {
        assert_eq!(a, b, "first difference at fixture line {}", i + 1);
    }
    assert_eq!(recorded.lines().count(), now.lines().count());
}

/// Rewrites the Shor fixture:
/// `cargo test -p quape-core --test scheduler_stress -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate_shor_block_events() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SHOR_FIXTURE);
    std::fs::create_dir_all(path.parent().expect("has a parent")).expect("fixture dir");
    std::fs::write(&path, shor_fixture_text()).expect("fixture written");
}

/// A random block table of `n` blocks: in direct mode each block lists
/// up to three earlier blocks (repeats allowed); in priority mode the
/// levels are sparse and sometimes sit at the top of the `u16` range.
/// Each block plays a few gates (or none) and stops.
fn random_table(rng: &mut SmallRng, n: usize, direct: bool) -> Program {
    let mut instructions = Vec::new();
    let mut table = BlockInfoTable::with_capacity(n);
    let top = rng.gen_bool(0.3);
    for i in 0..n {
        let start = instructions.len() as u32;
        for g in 0..rng.gen_range(0..4usize) {
            let qubit = Qubit::new(((i + g) % 8) as u16);
            instructions.push(Instruction::quantum(
                rng.gen_range(0..3u32),
                QuantumOp::Gate1(Gate1::X, qubit),
            ));
        }
        instructions.push(Instruction::Classical(ClassicalOp::Stop));
        let dependency = if direct {
            let deps = (0..rng.gen_range(0..4usize))
                .filter(|_| i > 0)
                .map(|_| BlockId(rng.gen_range(0..i) as u16))
                .collect();
            Dependency::Direct(deps)
        } else if top {
            Dependency::Priority(u16::MAX - rng.gen_range(0..4u16))
        } else {
            Dependency::Priority(3 * rng.gen_range(0..12u16) + 1)
        };
        let end = instructions.len() as u32;
        table
            .push(BlockInfo::new(format!("b{i}"), start..end, dependency))
            .expect("table has room");
    }
    let steps = vec![None; instructions.len()];
    Program::with_parts(instructions, table, steps).expect("valid random table")
}

/// Varied tables in both dependency modes, one of each past a single
/// bit-vector word, on one to six processors, with and without prefetch,
/// with the ideal scheduler, and with the priority mode forced onto a
/// direct table. Both executors must agree, every block must finish,
/// and no block may start before its dependencies allow. In a debug
/// build the scheduler also checks every pick, counter move and done
/// count against a scan of the whole table.
#[test]
fn random_tables_schedule_consistently() {
    let mut rng = SmallRng::seed_from_u64(0x5c4e_d01e);
    for case in 0..24 {
        let n = if case < 2 { 130 } else { rng.gen_range(1..100) };
        let direct = case % 2 == 0;
        let program = random_table(&mut rng, n, direct);
        for cores in [1, 2, 3, 6] {
            let base = QuapeConfig::multiprocessor(cores).with_seed(case);
            let mut variants = vec![base.clone()];
            let mut no_prefetch = base.clone();
            no_prefetch.prefetch = false;
            variants.push(no_prefetch);
            let mut ideal = base.clone();
            ideal.ideal_scheduler = true;
            variants.push(ideal);
            if direct {
                variants.push(base.clone().with_dependency_mode(DependencyMode::Priority));
            }
            for (v, cfg) in variants.into_iter().enumerate() {
                let lowered = run_with(cfg.clone(), program.clone(), StepMode::Lowered);
                let cycle = run_with(cfg, program.clone(), StepMode::Cycle);
                let label = format!("case {case}, {cores} cores, variant {v}");
                assert_eq!(lowered, cycle, "{label}: executors diverged");
                assert_eq!(lowered.stop, StopReason::Completed, "{label}");
                check_order(&program, &lowered);
            }
        }
    }
}

/// Every block finishes once, and starts (is allocated or switched to)
/// no earlier than the completion of each direct dependency, or of every
/// block at a lower priority.
fn check_order(program: &Program, report: &RunReport) {
    let at = |id: BlockId, status: BlockStatus| {
        report
            .block_events
            .iter()
            .find(|e| e.block == id && e.status == status)
            .unwrap_or_else(|| panic!("{id} never {status}"))
            .cycle
    };
    for (id, info) in program.blocks().iter() {
        let done = report
            .block_events
            .iter()
            .filter(|e| e.block == id && e.status == BlockStatus::Done);
        assert_eq!(done.count(), 1, "{id} done once");
        let start = at(id, BlockStatus::InExecution);
        match &info.dependency {
            Dependency::Direct(deps) => {
                for &d in deps {
                    assert!(at(d, BlockStatus::Done) <= start, "{id} started before {d}");
                }
            }
            Dependency::Priority(p) => {
                for (other, o) in program.blocks().iter() {
                    if matches!(o.dependency, Dependency::Priority(q) if q < *p) {
                        assert!(
                            at(other, BlockStatus::Done) <= start,
                            "{id} started before {other}"
                        );
                    }
                }
            }
        }
    }
}

/// The pre-task load puts block `late` into processor 1's active bank
/// before its dependency is done. The idle processor then takes another
/// block, which replaces `late` in that bank; when `late` becomes ready,
/// switching to it finds nothing resident, so it must go back to waiting
/// and be allocated like any other block instead of hanging the shot.
#[test]
fn a_block_displaced_from_its_initial_bank_is_allocated_again() {
    let spec: &[(&str, &[&str], usize)] = &[
        ("first", &[], 8),
        ("late", &["first"], 2),
        ("other", &[], 1),
    ];
    let program = dag_program(spec);
    for mode in [StepMode::Lowered, StepMode::Cycle] {
        let report = run_with(QuapeConfig::multiprocessor(2), program.clone(), mode);
        assert_eq!(report.stop, StopReason::Completed, "{mode:?}");
        check_order(&program, &report);
    }
}
