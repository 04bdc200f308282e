//! Noise channels applied by the state-vector QPU backend.
//!
//! The model covers what the paper's §8 experiment exercises: stochastic
//! Pauli (depolarizing) error per Clifford, readout assignment error, the
//! always-on ZZ interaction between neighbouring transmons, and microwave
//! drive crosstalk — the last two being the mechanisms that separate simRB
//! from individual RB fidelities.

use crate::statevector::StateVector;
use quape_isa::{Gate1, Qubit};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Stochastic-Pauli noise intensity per applied Clifford/gate.
///
/// With probability `pauli_error_prob` a uniformly random Pauli (X, Y or Z)
/// follows the ideal gate. For a single qubit this produces an average
/// gate infidelity of `2/3 · pauli_error_prob`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepolarizingNoise {
    /// Probability that a random Pauli error follows a gate.
    pub pauli_error_prob: f64,
}

impl DepolarizingNoise {
    /// Noise level that yields a target average gate fidelity `f`
    /// (`pauli_error_prob = 3/2 · (1 − f)`).
    pub fn for_fidelity(f: f64) -> Self {
        DepolarizingNoise {
            pauli_error_prob: 1.5 * (1.0 - f),
        }
    }

    /// The average gate fidelity this noise level produces.
    pub fn fidelity(&self) -> f64 {
        1.0 - 2.0 / 3.0 * self.pauli_error_prob
    }

    /// Possibly applies a random Pauli to `q`.
    pub fn apply(&self, state: &mut StateVector, q: Qubit, rng: &mut impl Rng) {
        if self.pauli_error_prob > 0.0 && rng.gen_bool(self.pauli_error_prob.clamp(0.0, 1.0)) {
            let pauli = match rng.gen_range(0..3u8) {
                0 => Gate1::X,
                1 => Gate1::Y,
                _ => Gate1::Z,
            };
            state.apply_gate1(pauli, q);
        }
    }
}

/// Crosstalk between a driven pair of qubits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrosstalkModel {
    /// ZZ phase accumulated per Clifford layer, in radians
    /// (`exp(-iθ/2·Z⊗Z)` per layer).
    pub zz_theta_per_layer: f64,
    /// Fraction of a pulse on qubit A that leaks onto qubit B.
    pub drive_leakage_a_to_b: f64,
    /// Fraction of a pulse on qubit B that leaks onto qubit A.
    pub drive_leakage_b_to_a: f64,
}

impl CrosstalkModel {
    /// No crosstalk at all.
    pub const NONE: CrosstalkModel = CrosstalkModel {
        zz_theta_per_layer: 0.0,
        drive_leakage_a_to_b: 0.0,
        drive_leakage_b_to_a: 0.0,
    };
}

/// Readout assignment error: the classical bit is flipped with the given
/// probabilities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReadoutError {
    /// P(read 1 | state 0).
    pub p01: f64,
    /// P(read 0 | state 1).
    pub p10: f64,
}

impl ReadoutError {
    /// Applies the assignment error to an ideal outcome.
    pub fn apply(&self, ideal: bool, rng: &mut impl Rng) -> bool {
        let flip = if ideal { self.p10 } else { self.p01 };
        if flip > 0.0 && rng.gen_bool(flip.clamp(0.0, 1.0)) {
            !ideal
        } else {
            ideal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn fidelity_noise_roundtrip() {
        let n = DepolarizingNoise::for_fidelity(0.995);
        assert!((n.fidelity() - 0.995).abs() < 1e-12);
        assert!((n.pauli_error_prob - 0.0075).abs() < 1e-12);
    }

    #[test]
    fn zero_noise_never_fires() {
        let n = DepolarizingNoise {
            pauli_error_prob: 0.0,
        };
        let mut s = StateVector::new(1);
        let before = s.clone();
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            n.apply(&mut s, Qubit::new(0), &mut rng);
        }
        assert_eq!(s, before);
    }

    #[test]
    fn full_noise_always_fires() {
        let n = DepolarizingNoise {
            pauli_error_prob: 1.0,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        // After one guaranteed random Pauli on |0⟩, P(1) is 0 (Z) or 1 (X/Y).
        let mut hits = 0;
        for _ in 0..300 {
            let mut s = StateVector::new(1);
            n.apply(&mut s, Qubit::new(0), &mut rng);
            if s.prob_one(Qubit::new(0)) > 0.5 {
                hits += 1;
            }
        }
        // X or Y ⇒ flip: expect ≈ 2/3.
        assert!((hits as f64 / 300.0 - 2.0 / 3.0).abs() < 0.1);
    }

    #[test]
    fn readout_error_statistics() {
        let e = ReadoutError { p01: 0.1, p10: 0.0 };
        let mut rng = SmallRng::seed_from_u64(2);
        let flips = (0..5000).filter(|_| e.apply(false, &mut rng)).count();
        assert!((flips as f64 / 5000.0 - 0.1).abs() < 0.02);
        assert!(e.apply(true, &mut rng)); // p10 = 0 never flips ones
    }
}
