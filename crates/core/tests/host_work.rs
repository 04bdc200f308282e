//! Pins the lowered run loop's host-work counters ([`HostWork`]) on the
//! two 1000-round feedback chains of the engine benchmark: how many
//! cycles it stepped machine-wide, covered in runs of one processor
//! ticking alone, and jumped over. The counts are exact for a fixed
//! seed, so a change in how the loop pays for a feedback round shows up
//! here as a changed number, and every shot obeys the law
//! stepped + run + skipped = cycles. Over a batch, every shot is counted
//! once, replayed or simulated.

use quape_core::{CompiledJob, HostWork, LoweredShotRunner, QuapeConfig, ReportMode, StepMode};
use quape_isa::Program;
use quape_qpu::{BehavioralQpu, MeasurementModel};
use quape_workloads::feedback::{feedback_chain, mrce_feedback_chain};

const SEED: u64 = 7;

/// Runs shot `SEED` of `program` on the uniprocessor through a runner and
/// returns its host work and cycle count, after checking the outcome
/// against the cycle-stepped oracle.
fn work_of(program: Program) -> (HostWork, u64) {
    let cfg = QuapeConfig::uniprocessor();
    let job = CompiledJob::compile(cfg.clone(), program).expect("chain compiles");
    let qpu = || {
        Box::new(BehavioralQpu::new(
            cfg.timings,
            MeasurementModel::Bernoulli { p_one: 0.5 },
            SEED,
        ))
    };
    let mut runner = LoweredShotRunner::new(job.clone());
    let cycles = runner.run_shot(qpu(), SEED, u64::MAX).cycles;
    let oracle = job
        .shot(qpu(), SEED)
        .report_mode(ReportMode::Lean)
        .run_with_mode(StepMode::Cycle, u64::MAX);
    assert_eq!(cycles, oracle.cycles);
    let work = runner.host_work();
    assert_eq!(work.cycles(), cycles, "stepped + run + skipped = cycles");
    (work, cycles)
}

/// Each FMR round is one run — the step at which the DAQ delivers,
/// then `FMR` → `CMPI` → `BR`, the conditional X, the next measurement
/// and the fetches up to its stall — and one skip over the readout wait.
/// (Stepping every cycle until a tick without progress, the loop used to
/// step 7,511 cycles and take 1,000 skips on this shot.)
#[test]
fn fmr_chain_host_work_is_pinned() {
    let (work, cycles) = work_of(feedback_chain(0, 1000).expect("generates"));
    assert_eq!(cycles, 46_915);
    assert_eq!(
        work,
        HostWork {
            stepped_cycles: 2,
            runs: 1_001,
            run_cycles: 6_508,
            skips: 1_001,
            skipped_cycles: 40_405,
            replayed: 0,
        }
    );
}

/// Each MRCE round is a step (the result lands and the context switch
/// begins), a skip over the 3-cycle switch, a run (the conditional X,
/// the next measurement and `MRCE`, the fetches until the buffer fills)
/// and a skip over the readout wait. (It used to step 6,012 cycles.)
#[test]
fn mrce_chain_host_work_is_pinned() {
    let (work, cycles) = work_of(mrce_feedback_chain(0, 1000).expect("generates"));
    assert_eq!(cycles, 46_904);
    assert_eq!(
        work,
        HostWork {
            stepped_cycles: 1_002,
            runs: 1_001,
            run_cycles: 3_009,
            skips: 2_001,
            skipped_cycles: 42_893,
            replayed: 0,
        }
    );
}

fn coin(cfg: &QuapeConfig, seed: u64) -> Box<BehavioralQpu> {
    Box::new(BehavioralQpu::new(
        cfg.timings,
        MeasurementModel::Bernoulli { p_one: 0.5 },
        seed,
    ))
}

/// A replayed shot simulates nothing: it counts itself replayed and
/// reports no other host work.
#[test]
fn a_replayed_shot_reports_no_host_work() {
    let program = quape_isa::assemble("0 H q0\n2 MEAS q0\nSTOP\n").expect("assembles");
    let cfg = QuapeConfig::uniprocessor();
    let job = CompiledJob::compile(cfg.clone(), program).expect("compiles");
    let mut runner = LoweredShotRunner::new(job);
    let first = runner.run_shot(coin(&cfg, 1), 1, u64::MAX).cycles;
    assert_eq!(
        runner.host_work().cycles(),
        first,
        "the recording shot simulates"
    );
    assert_eq!(runner.host_work().replayed, 0);
    runner.run_shot(coin(&cfg, 2), 2, u64::MAX);
    assert_eq!(
        runner.host_work(),
        HostWork {
            replayed: 1,
            ..HostWork::default()
        }
    );
}

/// The ledger law over a batch on one runner: replayed + simulated =
/// shots, each side counted on its own (a shot is simulated when the run
/// loop covered all of its cycles). A feedback-free job, here with DAQ
/// jitter and contention on a shared readout line, simulates exactly its
/// first shot and replays every other.
#[test]
fn replayed_plus_simulated_shots_is_shots() {
    const SHOTS: u64 = 24;
    let program =
        quape_isa::assemble("0 H q0\n0 X q1\n2 MEAS q0\n0 MEAS q1\n0 MEAS q2\n4 MEAS q0\nSTOP\n")
            .expect("assembles");
    let mut cfg = QuapeConfig::superscalar(8)
        .with_readout_lines(1)
        .with_demod_slots(2);
    cfg.daq_jitter_ns = 30;
    let job = CompiledJob::compile(cfg.clone(), program).expect("compiles");
    let mut runner = LoweredShotRunner::new(job);
    let (mut replayed, mut simulated) = (0, 0);
    for shot in 0..SHOTS {
        let cycles = runner.run_shot(coin(&cfg, shot), shot, u64::MAX).cycles;
        let work = runner.host_work();
        replayed += work.replayed;
        simulated += u64::from(cycles > 0 && work.cycles() == cycles);
        if shot == 0 {
            assert_eq!(work.replayed, 0, "the first shot records");
        }
    }
    assert_eq!(replayed + simulated, SHOTS);
    assert_eq!(simulated, 1, "only the first shot is simulated");
}
