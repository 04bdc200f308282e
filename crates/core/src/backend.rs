//! QPU backend abstraction.
//!
//! The machine drives a QPU through this trait. Two implementations ship:
//! the behavioural/PRNG backend from `quape-qpu` (what the paper used for
//! its §7 QCP-only benchmarks) and a noisy state-vector backend used to
//! replay the §8 RB/simRB validation through the full control stack.
//!
//! A backend keeps no record of the stream it receives. The control
//! stack records and counts every operation where it issues it (the
//! timing controller's release, §5): that record is the report's
//! `issued` stream and `issued_ops` count, and the stream shot replay
//! sends to later shots.

use crate::machine::MeasurementRecord;
use quape_isa::{OpTimings, QuantumOp, Qubit};
use quape_qpu::{
    BehavioralQpu, DepolarizingNoise, IssuedOp, MeasurementModel, ReadoutError, StateVector,
    TimingViolation,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// What a backend's occupancy model reports at the end of a shot: the
/// counters a shot outcome takes from its QPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QpuCounters {
    /// Timing violations seen ([`QpuBackend::violations`]).
    pub violations: u64,
    /// When the QPU becomes idle ([`QpuBackend::makespan_ns`]).
    pub makespan_ns: u64,
}

impl QpuCounters {
    /// The counters `qpu` holds now.
    pub(crate) fn of<B: QpuBackend + ?Sized>(qpu: &B) -> Self {
        QpuCounters {
            violations: qpu.violations().len() as u64,
            makespan_ns: qpu.makespan_ns(),
        }
    }
}

/// A recorded issue stream, as shot replay hands it to a backend: every
/// operation with its issue time, in order; its measurement subsequence;
/// and the [`QpuCounters`] a fresh [`BehavioralQpu`] with the job's
/// timings reaches over the whole stream (computed once, by applying the
/// stream to such a QPU, so there is one occupancy rule).
#[derive(Debug)]
pub struct IssueStream {
    ops: Vec<IssuedOp>,
    measures: Vec<IssuedOp>,
    timings: OpTimings,
    counters: QpuCounters,
}

impl IssueStream {
    pub(crate) fn new(ops: Vec<IssuedOp>, timings: OpTimings) -> Self {
        let mut measures: Vec<IssuedOp> = ops
            .iter()
            .filter(|i| matches!(i.op, QuantumOp::Measure(_)))
            .copied()
            .collect();
        measures.shrink_to_fit();
        let mut qpu = BehavioralQpu::new(timings, MeasurementModel::AlwaysZero, 0);
        for issued in &ops {
            qpu.apply(issued.time_ns, issued.op);
        }
        IssueStream {
            ops,
            measures,
            timings,
            counters: QpuCounters::of(&qpu),
        }
    }

    /// Every operation, in issue order.
    pub fn ops(&self) -> &[IssuedOp] {
        &self.ops
    }

    /// The measurements among [`ops`](IssueStream::ops), in issue order.
    pub fn measures(&self) -> &[IssuedOp] {
        &self.measures
    }

    /// The counters a pristine behavioural QPU with
    /// [`timings`](IssueStream::timings) reaches over the stream.
    pub(crate) fn counters(&self) -> QpuCounters {
        self.counters
    }

    /// The job's operation timings, under which the stream was recorded.
    pub(crate) fn timings(&self) -> &OpTimings {
        &self.timings
    }
}

/// The default [`QpuBackend::replay`]: every operation through
/// [`QpuBackend::apply`], in order; the counters the backend then holds.
fn apply_stream<B: QpuBackend + ?Sized>(
    qpu: &mut B,
    stream: &IssueStream,
    measurements: &mut Vec<MeasurementRecord>,
) -> QpuCounters {
    for issued in stream.ops() {
        if let (QuantumOp::Measure(qubit), Some(value)) =
            (issued.op, qpu.apply(issued.time_ns, issued.op))
        {
            measurements.push(MeasurementRecord {
                time_ns: issued.time_ns,
                qubit,
                value,
            });
        }
    }
    QpuCounters::of(qpu)
}

/// A quantum processing unit as seen by the control stack.
///
/// An implementer writes four methods: [`apply`](QpuBackend::apply),
/// [`violations`](QpuBackend::violations),
/// [`busy_until`](QpuBackend::busy_until) and
/// [`makespan_ns`](QpuBackend::makespan_ns). [`replay`](QpuBackend::replay)
/// has a default that is always correct. The backend keeps no log and no
/// issue count: the control stack records every operation it issues and
/// counts it, and shot replay takes its stream from that record, so any
/// backend replays.
pub trait QpuBackend {
    /// Applies an operation at `time_ns`; returns `Some(outcome)` for
    /// every measurement and `None` for every other operation. Shot
    /// replay routes a recorded stream's readouts through the DAQ before
    /// the backend sees it, and relies on this.
    fn apply(&mut self, time_ns: u64, op: QuantumOp) -> Option<bool>;

    /// Timing violations (operations that arrived while a qubit was busy).
    fn violations(&self) -> &[TimingViolation];

    /// Receives a whole recorded stream, as shot replay does for every
    /// shot of a feedback-free job after the first, pushing one
    /// [`MeasurementRecord`] per measurement in stream order, and returns
    /// the backend's [`QpuCounters`] after the stream. Replay drops the
    /// backend afterwards, so only the returned counters are read.
    ///
    /// The default applies every operation through
    /// [`apply`](QpuBackend::apply). An override may take a shortcut only
    /// if it yields the outcomes and counters exactly as that loop would:
    /// the behavioural backend, when pristine and running with the
    /// stream's timings, draws just the outcomes and returns the counters
    /// recorded with the stream, copying no occupancy state.
    fn replay(
        &mut self,
        stream: &IssueStream,
        measurements: &mut Vec<MeasurementRecord>,
    ) -> QpuCounters {
        apply_stream(self, stream, measurements)
    }

    /// When `qubit` becomes free under the occupancy model (0 if never
    /// used). The AWG bank keeps a device-side shadow of the same model
    /// ([`crate::AwgBank::qubit_busy_until`]); the differential suites
    /// assert the two views agree.
    fn busy_until(&self, qubit: Qubit) -> u64;

    /// Time at which the QPU becomes idle.
    fn makespan_ns(&self) -> u64;
}

impl QpuBackend for BehavioralQpu {
    fn apply(&mut self, time_ns: u64, op: QuantumOp) -> Option<bool> {
        BehavioralQpu::apply(self, time_ns, op)
    }

    fn violations(&self) -> &[TimingViolation] {
        BehavioralQpu::violations(self)
    }

    fn replay(
        &mut self,
        stream: &IssueStream,
        measurements: &mut Vec<MeasurementRecord>,
    ) -> QpuCounters {
        if !self.is_pristine(stream.timings()) {
            return apply_stream(self, stream, measurements);
        }
        for issued in stream.measures() {
            if let QuantumOp::Measure(qubit) = issued.op {
                measurements.push(MeasurementRecord {
                    time_ns: issued.time_ns,
                    qubit,
                    value: self.draw_outcome(qubit),
                });
            }
        }
        stream.counters()
    }

    fn busy_until(&self, qubit: Qubit) -> u64 {
        BehavioralQpu::busy_until(self, qubit)
    }

    fn makespan_ns(&self) -> u64 {
        BehavioralQpu::makespan_ns(self)
    }
}

/// A noisy state-vector QPU running behind the control stack.
///
/// Timing bookkeeping (occupancy, violations) is delegated to an inner
/// [`BehavioralQpu`]; the quantum state evolves in a dense state vector
/// with depolarizing noise and readout error, so measurement outcomes have
/// real quantum statistics.
#[derive(Debug, Clone)]
pub struct StateVectorQpu {
    state: StateVector,
    shadow: BehavioralQpu,
    noise: DepolarizingNoise,
    readout: ReadoutError,
    rng: SmallRng,
}

impl StateVectorQpu {
    /// Creates a `num_qubits`-qubit backend (dense — keep it small).
    pub fn new(
        num_qubits: u8,
        timings: quape_isa::OpTimings,
        noise: DepolarizingNoise,
        readout: ReadoutError,
        seed: u64,
    ) -> Self {
        StateVectorQpu {
            state: StateVector::new(num_qubits),
            shadow: BehavioralQpu::new(timings, MeasurementModel::AlwaysZero, seed),
            noise,
            readout,
            rng: SmallRng::seed_from_u64(seed.wrapping_add(0x5eed)),
        }
    }

    /// Probability that `qubit` reads 1 right now (diagnostic).
    pub fn prob_one(&self, qubit: Qubit) -> f64 {
        self.state.prob_one(qubit)
    }

    /// Direct access to the quantum state (diagnostic).
    pub fn state(&self) -> &StateVector {
        &self.state
    }
}

impl QpuBackend for StateVectorQpu {
    fn apply(&mut self, time_ns: u64, op: QuantumOp) -> Option<bool> {
        // Timing bookkeeping (the shadow's sampled outcome is discarded).
        let _ = self.shadow.apply(time_ns, op);
        match op {
            QuantumOp::Gate1(quape_isa::Gate1::Reset, q) => {
                self.state.reset(q, &mut self.rng);
                None
            }
            QuantumOp::Gate1(g, q) => {
                self.state.apply_gate1(g, q);
                self.noise.apply(&mut self.state, q, &mut self.rng);
                None
            }
            QuantumOp::Gate2(g, a, b) => {
                self.state.apply_gate2(g, a, b);
                self.noise.apply(&mut self.state, a, &mut self.rng);
                self.noise.apply(&mut self.state, b, &mut self.rng);
                None
            }
            QuantumOp::Measure(q) => {
                let ideal = self.state.measure(q, &mut self.rng);
                Some(self.readout.apply(ideal, &mut self.rng))
            }
        }
    }

    fn violations(&self) -> &[TimingViolation] {
        self.shadow.violations()
    }

    fn busy_until(&self, qubit: Qubit) -> u64 {
        self.shadow.busy_until(qubit)
    }

    fn makespan_ns(&self) -> u64 {
        self.shadow.makespan_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::{Gate1, Gate2, OpTimings};

    fn q(i: u16) -> Qubit {
        Qubit::new(i)
    }

    fn noiseless(n: u8) -> StateVectorQpu {
        StateVectorQpu::new(
            n,
            OpTimings::paper(),
            DepolarizingNoise {
                pauli_error_prob: 0.0,
            },
            ReadoutError::default(),
            7,
        )
    }

    #[test]
    fn bell_pair_through_backend() {
        let mut qpu = noiseless(2);
        qpu.apply(0, QuantumOp::Gate1(Gate1::H, q(0)));
        qpu.apply(20, QuantumOp::Gate2(Gate2::Cnot, q(0), q(1)));
        let a = qpu
            .apply(60, QuantumOp::Measure(q(0)))
            .expect("measurement outcome");
        let b = qpu
            .apply(60, QuantumOp::Measure(q(1)))
            .expect("measurement outcome");
        assert_eq!(a, b, "Bell pair outcomes must correlate");
        assert!(qpu.violations().is_empty());
        assert_eq!(qpu.busy_until(q(0)), qpu.busy_until(q(1)));
        assert_eq!(qpu.makespan_ns(), qpu.busy_until(q(0)));
    }

    #[test]
    fn the_control_stack_counts_what_it_issues_to_a_state_vector_backend() {
        let program = quape_isa::assemble("0 H q0\n4 CNOT q0, q1\n8 MEAS q0\n0 MEAS q1\nSTOP\n")
            .expect("assembles");
        let cfg = crate::QuapeConfig::superscalar(4);
        let report = crate::Machine::new(cfg, program, Box::new(noiseless(2)))
            .expect("compiles")
            .run();
        assert_eq!(report.issued_ops, 4);
        assert_eq!(report.issued.len(), 4);
        assert!(report.violations.is_empty());
        let [a, b] = report.measurements[..] else {
            panic!("two measurements");
        };
        assert_eq!(a.value, b.value, "Bell pair outcomes must correlate");
    }

    #[test]
    fn reset_pulse_clears_state() {
        let mut qpu = noiseless(1);
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(0)));
        qpu.apply(20, QuantumOp::Gate1(Gate1::Reset, q(0)));
        assert!(qpu.prob_one(q(0)) < 1e-9);
    }

    #[test]
    fn shadow_flags_timing_violations() {
        let mut qpu = noiseless(1);
        qpu.apply(0, QuantumOp::Gate1(Gate1::X, q(0)));
        qpu.apply(5, QuantumOp::Gate1(Gate1::X, q(0)));
        assert_eq!(qpu.violations().len(), 1);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut qpu = StateVectorQpu::new(
                1,
                OpTimings::paper(),
                DepolarizingNoise {
                    pauli_error_prob: 0.1,
                },
                ReadoutError {
                    p01: 0.05,
                    p10: 0.05,
                },
                99,
            );
            (0..32)
                .map(|i| {
                    qpu.apply(i * 1000, QuantumOp::Gate1(Gate1::H, q(0)));
                    qpu.apply(i * 1000 + 20, QuantumOp::Measure(q(0)))
                        .expect("outcome")
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
