//! Behavioural/timing QPU backend.
//!
//! This is the QPU stand-in the paper itself used for the §7 QCP-only
//! benchmarks: measurement outcomes come from a seeded PRNG ("a pseudo
//! random number generator is implemented in the FPGA to generate
//! measurement results for testing"). On top of that we track per-qubit
//! occupancy so that any operation issued while its qubit is still busy is
//! recorded as a timing violation — the physical failure mode the TR ≤ 1
//! requirement guards against. The AWG bank in `quape-core` keeps a
//! device-side shadow of the same occupancy model (same update rule, same
//! durations); the step-mode differential suites assert the two views
//! report identical violations.

use quape_isa::{OpTimings, QuantumOp, Qubit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A quantum operation as received by the QPU, stamped with its issue time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IssuedOp {
    /// Absolute issue time in nanoseconds.
    pub time_ns: u64,
    /// The operation.
    pub op: QuantumOp,
}

/// An operation arrived while one of its qubits was still executing the
/// previous operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingViolation {
    /// The late/overlapping operation.
    pub op: IssuedOp,
    /// The qubit that was still busy.
    pub qubit: Qubit,
    /// When the qubit would have been free.
    pub busy_until_ns: u64,
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} issued at {} ns but {} busy until {} ns",
            self.op.op, self.op.time_ns, self.qubit, self.busy_until_ns
        )
    }
}

/// How the behavioural QPU draws measurement outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MeasurementModel {
    /// Every measurement reads 0.
    AlwaysZero,
    /// Every measurement reads 1.
    AlwaysOne,
    /// Every measurement reads 1 with probability `p_one`.
    Bernoulli {
        /// P(outcome = 1).
        p_one: f64,
    },
    /// Per-qubit P(outcome = 1); unlisted qubits use `default_p_one`.
    ///
    /// This is how the Shor syndrome benchmark expresses its
    /// *failure rate*: verification ancillas read 1 (= verification
    /// failed) with the configured probability.
    PerQubit {
        /// (qubit index, P(1)) pairs.
        probabilities: Vec<(u16, f64)>,
        /// P(1) for qubits not listed.
        default_p_one: f64,
    },
}

impl MeasurementModel {
    fn p_one(&self, qubit: Qubit) -> f64 {
        match self {
            MeasurementModel::AlwaysZero => 0.0,
            MeasurementModel::AlwaysOne => 1.0,
            MeasurementModel::Bernoulli { p_one } => *p_one,
            MeasurementModel::PerQubit {
                probabilities,
                default_p_one,
            } => probabilities
                .iter()
                .find(|(q, _)| *q == qubit.index())
                .map_or(*default_p_one, |(_, p)| *p),
        }
    }
}

/// The behavioural QPU: occupancy tracking + PRNG measurement outcomes.
///
/// ```
/// use quape_qpu::{BehavioralQpu, MeasurementModel};
/// use quape_isa::{OpTimings, QuantumOp, Gate1, Qubit};
///
/// let mut qpu = BehavioralQpu::new(OpTimings::paper(), MeasurementModel::AlwaysZero, 1);
/// qpu.apply(0, QuantumOp::Gate1(Gate1::H, Qubit::new(0)));
/// let outcome = qpu.apply(20, QuantumOp::Measure(Qubit::new(0)));
/// assert_eq!(outcome, Some(false));
/// assert!(qpu.violations().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct BehavioralQpu {
    timings: OpTimings,
    model: MeasurementModel,
    rng: SmallRng,
    busy_until: Vec<u64>,
    log: Vec<IssuedOp>,
    violations: Vec<TimingViolation>,
    record_log: bool,
    issued_ops: u64,
}

impl BehavioralQpu {
    /// Creates a QPU with the given op timings, measurement model and
    /// PRNG seed.
    pub fn new(timings: OpTimings, model: MeasurementModel, seed: u64) -> Self {
        BehavioralQpu {
            timings,
            model,
            rng: SmallRng::seed_from_u64(seed),
            busy_until: Vec::new(),
            log: Vec::new(),
            violations: Vec::new(),
            record_log: true,
            issued_ops: 0,
        }
    }

    /// Enables or disables recording of the per-operation [`log`]
    /// (lean/summary-only mode for batch paths). The occupancy model,
    /// violation detection, measurement sampling and the
    /// [`issued_count`](BehavioralQpu::issued_count) counter are
    /// unaffected, so outcomes stay bit-identical either way.
    ///
    /// [`log`]: BehavioralQpu::log
    pub fn set_record_log(&mut self, record: bool) {
        self.record_log = record;
    }

    /// Operations received so far (counted even when the log itself is
    /// not recorded).
    pub fn issued_count(&self) -> u64 {
        self.issued_ops
    }

    /// Applies an operation at `time_ns`. For measurements, returns the
    /// sampled outcome (its *delivery* latency is the DAQ's concern, not
    /// the QPU's).
    pub fn apply(&mut self, time_ns: u64, op: QuantumOp) -> Option<bool> {
        let issued = IssuedOp { time_ns, op };
        let duration = self.timings.duration_of(&op);
        for qubit in op.qubits() {
            let i = qubit.index() as usize;
            if i >= self.busy_until.len() {
                self.busy_until.resize(i + 1, 0);
            }
            let busy = self.busy_until[i];
            if time_ns < busy {
                self.violations.push(TimingViolation {
                    op: issued,
                    qubit,
                    busy_until_ns: busy,
                });
            }
            self.busy_until[i] = time_ns.max(busy) + duration;
        }
        self.issued_ops += 1;
        if self.record_log {
            self.log.push(issued);
        }
        match op {
            QuantumOp::Measure(q) => Some(self.draw_outcome(q)),
            _ => None,
        }
    }

    /// Draws the outcome of measuring `qubit` from the model and the
    /// PRNG, exactly the draw [`apply`](BehavioralQpu::apply) makes for a
    /// measurement, without touching the occupancy state.
    pub fn draw_outcome(&mut self, qubit: Qubit) -> bool {
        let p = self.model.p_one(qubit).clamp(0.0, 1.0);
        self.rng.gen_bool(p)
    }

    /// True while nothing has been applied, the log is not recorded and
    /// the timings are `timings`. Every such QPU reaches the same
    /// occupancy counters on a stream that does not depend on outcomes,
    /// so a caller that already knows them may draw only the stream's
    /// outcomes, with [`draw_outcome`](BehavioralQpu::draw_outcome) in
    /// stream order, instead of applying it.
    pub fn is_pristine(&self, timings: &OpTimings) -> bool {
        self.issued_ops == 0 && !self.record_log && self.timings == *timings
    }

    /// Every operation received, in arrival order.
    pub fn log(&self) -> &[IssuedOp] {
        &self.log
    }

    /// All timing violations observed so far.
    pub fn violations(&self) -> &[TimingViolation] {
        &self.violations
    }

    /// Takes the accumulated log and violations, leaving empty buffers —
    /// the end-of-shot handover that lets reports own the vectors without
    /// a copy.
    pub fn take_results(&mut self) -> (Vec<IssuedOp>, Vec<TimingViolation>) {
        (
            std::mem::take(&mut self.log),
            std::mem::take(&mut self.violations),
        )
    }

    /// When `qubit` becomes free (0 if never used).
    pub fn busy_until(&self, qubit: Qubit) -> u64 {
        self.busy_until
            .get(qubit.index() as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The operation timings in force.
    pub fn timings(&self) -> &OpTimings {
        &self.timings
    }

    /// Time at which the whole QPU becomes idle.
    pub fn makespan_ns(&self) -> u64 {
        self.busy_until.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::{Gate1, Gate2};

    fn q(i: u16) -> Qubit {
        Qubit::new(i)
    }

    fn qpu(model: MeasurementModel) -> BehavioralQpu {
        BehavioralQpu::new(OpTimings::paper(), model, 42)
    }

    #[test]
    fn sequential_ops_do_not_violate() {
        let mut qpu = qpu(MeasurementModel::AlwaysZero);
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(0)));
        qpu.apply(20, QuantumOp::Gate1(Gate1::Y, q(0)));
        qpu.apply(40, QuantumOp::Gate2(Gate2::Cnot, q(0), q(1)));
        assert!(qpu.violations().is_empty());
        assert_eq!(qpu.busy_until(q(0)), 80);
        assert_eq!(qpu.busy_until(q(1)), 80);
        assert_eq!(qpu.makespan_ns(), 80);
    }

    #[test]
    fn overlapping_op_is_flagged() {
        let mut qpu = qpu(MeasurementModel::AlwaysZero);
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(0)));
        qpu.apply(10, QuantumOp::Gate1(Gate1::Y, q(0))); // 10 < 20: late
        assert_eq!(qpu.violations().len(), 1);
        assert_eq!(qpu.violations()[0].busy_until_ns, 20);
    }

    #[test]
    fn parallel_ops_on_distinct_qubits_ok() {
        let mut qpu = qpu(MeasurementModel::AlwaysZero);
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(0)));
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(1)));
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(2)));
        assert!(qpu.violations().is_empty());
        assert_eq!(qpu.log().len(), 3);
    }

    #[test]
    fn fixed_models_are_deterministic() {
        let mut zero = qpu(MeasurementModel::AlwaysZero);
        assert_eq!(zero.apply(0, QuantumOp::Measure(q(0))), Some(false));
        let mut one = qpu(MeasurementModel::AlwaysOne);
        assert_eq!(one.apply(0, QuantumOp::Measure(q(0))), Some(true));
    }

    #[test]
    fn bernoulli_statistics() {
        let mut qpu = qpu(MeasurementModel::Bernoulli { p_one: 0.25 });
        let mut ones = 0;
        for i in 0..4000 {
            if qpu.apply(i * 1000, QuantumOp::Measure(q(0))).unwrap() {
                ones += 1;
            }
        }
        let f = ones as f64 / 4000.0;
        assert!((f - 0.25).abs() < 0.03, "empirical {f}");
    }

    #[test]
    fn per_qubit_model_distinguishes_qubits() {
        let model = MeasurementModel::PerQubit {
            probabilities: vec![(0, 1.0), (1, 0.0)],
            default_p_one: 0.5,
        };
        let mut qpu = qpu(model);
        assert_eq!(qpu.apply(0, QuantumOp::Measure(q(0))), Some(true));
        assert_eq!(qpu.apply(1000, QuantumOp::Measure(q(1))), Some(false));
        // Default applies to unlisted qubits — just ensure it returns.
        assert!(qpu.apply(2000, QuantumOp::Measure(q(7))).is_some());
    }

    #[test]
    fn same_seed_same_outcomes() {
        let run = || {
            let mut qpu = BehavioralQpu::new(
                OpTimings::paper(),
                MeasurementModel::Bernoulli { p_one: 0.5 },
                9,
            );
            (0..64)
                .map(|i| qpu.apply(i * 700, QuantumOp::Measure(q(0))).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
