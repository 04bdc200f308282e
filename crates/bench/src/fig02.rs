//! Fig. 2: the latency breakdown of one feedback-control round trip,
//! plus the step-mode host-performance comparison on DAQ-wait-bound
//! feedback workloads.

use crate::measure::{measure, Pass, Spread};
use quape_core::{CompiledJob, Machine, QuapeConfig, ShotEngine, StepMode};
use quape_qpu::{BehavioralQpu, BehavioralQpuFactory, MeasurementModel};
use quape_workloads::feedback::{conditional_x, feedback_chain, mrce_feedback_chain};
use quape_workloads::pulse::{pulse_train, pulse_train_with_feedback};
use serde::{Deserialize, Serialize};

/// Measured stage latencies of a feedback-control process.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FeedbackBreakdown {
    /// Stage I: readout (measurement) pulse, ns.
    pub stage1_readout_ns: u64,
    /// Stage II: digital acquisition (DAQ demod/integrate/threshold), ns.
    pub stage2_acquisition_ns: u64,
    /// Stage III: QCP conditional logic and branching, ns.
    pub stage3_conditional_ns: u64,
    /// Stage IV marker: time of the determined operation's issue relative
    /// to the measurement issue = total feedback latency, ns.
    pub total_ns: u64,
}

/// Measures the breakdown with a deterministic (jitter-free) DAQ so each
/// stage separates exactly; the paper's measured total is ≈ 450 ns.
pub fn run(cfg_base: &QuapeConfig) -> FeedbackBreakdown {
    let mut cfg = cfg_base.clone();
    cfg.daq_jitter_ns = 0;
    let program = conditional_x(0).expect("valid workload");
    let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysOne, 1);
    let readout = cfg.timings.readout_pulse_ns;
    let acquisition = cfg.daq_base_ns;
    let report = Machine::new(cfg, program, Box::new(qpu))
        .expect("valid machine")
        .run();
    assert_eq!(report.issued.len(), 2, "measure + conditional X expected");
    let total = report.issued[1].time_ns - report.issued[0].time_ns;
    FeedbackBreakdown {
        stage1_readout_ns: readout,
        stage2_acquisition_ns: acquisition,
        stage3_conditional_ns: total - readout - acquisition,
        total_ns: total,
    }
}

/// Mean total latency with DAQ jitter enabled (what an experiment sees).
pub fn mean_total_with_jitter(cfg: &QuapeConfig, runs: usize) -> f64 {
    let program = conditional_x(0).expect("valid workload");
    let mut total = 0u64;
    for i in 0..runs {
        let cfg = cfg.clone().with_seed(i as u64);
        let qpu = BehavioralQpu::new(cfg.timings, MeasurementModel::AlwaysOne, i as u64);
        let report = Machine::new(cfg, program.clone(), Box::new(qpu))
            .expect("valid machine")
            .run();
        total += report.issued[1].time_ns - report.issued[0].time_ns;
    }
    total as f64 / runs as f64
}

/// Host-side wall-time comparison of the two executors on one workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepModeComparison {
    /// Workload name.
    pub workload: String,
    /// Feedback rounds per shot.
    pub rounds: usize,
    /// Shots executed per pass.
    pub shots: u64,
    /// Median simulated cycles per shot.
    pub p50_cycles: u64,
    /// Cycle-stepped reference: wall time of one pass of `shots` shots.
    pub cycle_wall: Spread,
    /// Lowered (micro-op fast path): wall time of one pass.
    pub lowered_wall: Spread,
    /// Cycle-stepped host throughput at the median wall time.
    pub cycle_shots_per_sec: f64,
    /// Lowered host throughput at the median wall time.
    pub lowered_shots_per_sec: f64,
    /// Lowered over cycle-stepped speedup, as a
    /// [`Measurement::ratio`](crate::measure::Measurement::ratio) (the
    /// CI gate statistic).
    pub speedup: f64,
    /// Per-workload floor the CI gate scales its `--min-speedup` by:
    /// 1.0 for the wait-dominated workloads and the replayed pulse train,
    /// 0.9 for the simulated pulse train, where there is almost no idle
    /// time to skip, so a strict ≥ 1.0 gate would rest on the pre-decode
    /// win alone.
    pub gate_floor: f64,
}

/// Runs `shots` single-thread shots of a feedback workload under both
/// executors through [`measure`]: one warm-up round, then `repeats`
/// alternating measured rounds. Panics if the two modes ever disagree
/// on the deterministic aggregate — the comparison doubles as an
/// end-to-end equivalence assertion.
fn compare_one(
    workload: &str,
    cfg: &QuapeConfig,
    program: quape_isa::Program,
    rounds: usize,
    shots: u64,
    repeats: usize,
    gate_floor: f64,
) -> StepModeComparison {
    let job = CompiledJob::compile(cfg.clone(), program).expect("valid workload");
    let modes = [StepMode::Cycle, StepMode::Lowered];
    let names = [format!("{workload} cycle"), format!("{workload} lowered")];
    let m = measure(&names, 1, repeats, |v| {
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let report = ShotEngine::new(job.clone(), factory)
            .step_mode(modes[v])
            .threads(1)
            .run(shots);
        Pass {
            wall: report.wall_time,
            aggregate: report.aggregate,
            output: (),
        }
    });
    let (cycle_wall, lowered_wall) = (m.spread(0), m.spread(1));
    let shots_per_sec = |wall: Spread| shots as f64 / (wall.median_ms / 1000.0);
    StepModeComparison {
        workload: workload.to_string(),
        rounds,
        shots,
        p50_cycles: m.aggregate.cycles.p50,
        cycle_shots_per_sec: shots_per_sec(cycle_wall),
        lowered_shots_per_sec: shots_per_sec(lowered_wall),
        cycle_wall,
        lowered_wall,
        speedup: m.ratio(0, 1),
        gate_floor,
    }
}

/// The `--compare-step-modes` suite: cycle-stepped vs lowered wall time
/// on the Fig. 2 round trip, on deep FMR/MRCE feedback chains (where
/// per-shot cost is simulation-dominated) and on a dense pulse train,
/// once feedback-free (the lowered side replays it from the second shot)
/// and once ending in an `MRCE` (every shot simulated).
/// `scale` multiplies the shot counts (1 = the committed-baseline
/// workload sizes); `repeats` is the number of measured rounds per
/// workload.
pub fn compare_executors(
    cfg_base: &QuapeConfig,
    scale: u64,
    repeats: usize,
) -> Vec<StepModeComparison> {
    let cfg = cfg_base.clone().with_seed(7);
    let chain_rounds = 1000;
    let pulse_cfg = QuapeConfig::superscalar(8)
        .with_seed(7)
        .with_readout_lines(2);
    vec![
        compare_one(
            "fig02_conditional_x",
            &cfg,
            conditional_x(0).expect("valid workload"),
            1,
            4000 * scale,
            repeats,
            1.0,
        ),
        compare_one(
            "fmr_feedback_chain",
            &cfg,
            feedback_chain(0, chain_rounds).expect("valid workload"),
            chain_rounds,
            200 * scale,
            repeats,
            1.0,
        ),
        compare_one(
            "mrce_feedback_chain",
            &cfg,
            mrce_feedback_chain(0, chain_rounds).expect("valid workload"),
            chain_rounds,
            200 * scale,
            repeats,
            1.0,
        ),
        // Device-model hot path: dense parallel pulse trains on a
        // multiplexed readout, where the AWG playback timeline and the
        // DAQ demod servers carry the load instead of idle skipping. The
        // plain train has no feedback, so from its second shot the
        // lowered side replays the recorded issue stream (backend and DAQ
        // only); the `MRCE` variant simulates every shot, as do the three
        // feedback rows above.
        compare_one(
            "awg_playback_pulse_train",
            &pulse_cfg,
            pulse_train(4, 256).expect("valid workload"),
            256,
            1000 * scale,
            repeats,
            1.0,
        ),
        compare_one(
            "awg_playback_pulse_train_mrce",
            &pulse_cfg,
            pulse_train_with_feedback(4, 256).expect("valid workload"),
            256,
            1000 * scale,
            repeats,
            0.9,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_and_lands_near_450ns() {
        let b = run(&QuapeConfig::uniprocessor());
        assert_eq!(
            b.stage1_readout_ns + b.stage2_acquisition_ns + b.stage3_conditional_ns,
            b.total_ns
        );
        assert!((400..=500).contains(&b.total_ns), "total {} ns", b.total_ns);
        assert!(
            b.stage3_conditional_ns < 100,
            "stage III {} ns",
            b.stage3_conditional_ns
        );
    }

    #[test]
    fn jittered_mean_is_at_least_the_deterministic_total() {
        let cfg = QuapeConfig::uniprocessor();
        let det = run(&cfg).total_ns as f64;
        let mean = mean_total_with_jitter(&cfg, 20);
        assert!(mean >= det - 1.0, "mean {mean} < deterministic {det}");
        assert!(mean <= det + cfg.daq_jitter_ns as f64 + 10.0);
    }
}
