//! Per-shot backend construction.
//!
//! Multi-shot experiments need a *fresh* QPU per shot — occupancy
//! tracking, the violations seen, and the outcome PRNG are all
//! per-execution state. A factory captures the shot-invariant parameters once and
//! stamps out seeded backends; `quape-core`'s `ShotEngine` drives one
//! through its `QpuFactory` trait on every worker thread.

use crate::behavioral::{BehavioralQpu, MeasurementModel};
use quape_isa::OpTimings;

/// Stamps out seeded [`BehavioralQpu`] instances sharing one timing and
/// measurement model.
#[derive(Debug, Clone, PartialEq)]
pub struct BehavioralQpuFactory {
    /// Nominal operation durations.
    pub timings: OpTimings,
    /// Measurement-outcome model shared by every shot.
    pub model: MeasurementModel,
}

impl BehavioralQpuFactory {
    /// Captures the shot-invariant backend parameters.
    pub fn new(timings: OpTimings, model: MeasurementModel) -> Self {
        BehavioralQpuFactory { timings, model }
    }

    /// Builds the backend for one shot.
    pub fn create(&self, seed: u64) -> BehavioralQpu {
        BehavioralQpu::new(self.timings, self.model.clone(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quape_isa::{Gate1, QuantumOp, Qubit};

    #[test]
    fn each_shot_gets_independent_state() {
        let factory = BehavioralQpuFactory::new(
            OpTimings::paper(),
            MeasurementModel::Bernoulli { p_one: 0.5 },
        );
        let q0 = Qubit::new(0);
        let mut a = factory.create(1);
        let mut b = factory.create(1);
        a.apply(0, QuantumOp::Gate1(Gate1::X, q0));
        a.apply(5, QuantumOp::Gate1(Gate1::X, q0));
        assert_eq!(a.busy_until(q0), 40);
        assert_eq!(a.violations().len(), 1);
        assert_eq!(b.busy_until(q0), 0, "shots must not share occupancy");
        assert!(b.violations().is_empty(), "shots must not share violations");
        b.apply(0, QuantumOp::Measure(q0));
        let c = factory.create(1);
        assert_eq!(c.makespan_ns(), 0);
        assert!(c.violations().is_empty());
    }

    #[test]
    fn same_seed_same_outcomes() {
        let factory = BehavioralQpuFactory::new(
            OpTimings::paper(),
            MeasurementModel::Bernoulli { p_one: 0.5 },
        );
        let outcomes = |seed: u64| -> Vec<bool> {
            let mut qpu = factory.create(seed);
            (0..32)
                .map(|i| {
                    qpu.apply(i * 1000, QuantumOp::Measure(Qubit::new(0)))
                        .expect("outcome")
                })
                .collect()
        };
        assert_eq!(outcomes(5), outcomes(5));
        assert_ne!(outcomes(5), outcomes(6));
    }
}
