//! Randomized benchmarking (RB) and simultaneous RB (simRB).
//!
//! Reproduces the §8 validation experiment: individual RB on each of two
//! qubits as a reference, then simRB with both qubits driven at once. The
//! simRB fidelities drop relative to the references because of the
//! "inevitable ZZ interaction between the qubits" plus microwave drive
//! crosstalk — both modeled by [`CrosstalkModel`].
//!
//! Individual RB is run with the static ZZ shift *calibrated away* (the
//! constant frequency pull from a spectator parked in |0⟩ is absorbed into
//! the qubit frequency calibration, standard experimental practice), so
//! the reference fidelity reflects only the intrinsic gate error.

use crate::clifford::{CliffordGroup, CliffordId, CLIFFORD_COUNT};
use crate::fit::{fit_decay, DecayFit, FitError};
use crate::noise::{CrosstalkModel, DepolarizingNoise, ReadoutError};
use crate::statevector::StateVector;
use quape_isa::{Gate1, Qubit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of an RB experiment on a two-qubit pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbConfig {
    /// Sequence lengths (number of Cliffords before the recovery).
    pub lengths: Vec<u32>,
    /// Random sequences averaged per length.
    pub samples_per_length: usize,
    /// Per-Clifford depolarizing noise for qubit A.
    pub noise_a: DepolarizingNoise,
    /// Per-Clifford depolarizing noise for qubit B.
    pub noise_b: DepolarizingNoise,
    /// Crosstalk applied only while both qubits are driven (simRB).
    pub crosstalk: CrosstalkModel,
    /// Readout assignment error (applied to survival estimates
    /// analytically as a linear map).
    pub readout: ReadoutError,
    /// PRNG seed.
    pub seed: u64,
}

impl RbConfig {
    /// The configuration calibrated to reproduce Fig. 14 of the paper:
    /// individual RB ≈ 99.5% / 99.4%, simRB ≈ 98.7% / 99.1%.
    pub fn paper() -> Self {
        RbConfig {
            lengths: vec![1, 5, 10, 20, 35, 50, 75, 100, 150, 200, 300],
            samples_per_length: 150,
            noise_a: DepolarizingNoise::for_fidelity(0.995),
            noise_b: DepolarizingNoise::for_fidelity(0.994),
            // Asymmetric drive leakage makes q0 degrade more than q1, as
            // in the paper's measurement (−0.8% vs −0.3%). ZZ contributes
            // ≈ θ²/6 infidelity per Clifford to each qubit; leakage L adds
            // ≈ 1.9·(L·π/2)²/6 to its victim.
            crosstalk: CrosstalkModel {
                zz_theta_per_layer: 0.13,
                drive_leakage_a_to_b: 0.02,
                drive_leakage_b_to_a: 0.07,
            },
            readout: ReadoutError::default(),
            seed: 1,
        }
    }
}

/// One averaged survival-probability point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RbPoint {
    /// Sequence length m.
    pub length: u32,
    /// Mean survival probability over the sampled sequences.
    pub survival: f64,
}

/// Decay curve plus its fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbCurve {
    /// The averaged data points.
    pub points: Vec<RbPoint>,
    /// The fitted decay.
    pub fit: DecayFit,
}

impl RbCurve {
    /// Average Clifford fidelity extracted from the decay (single qubit).
    pub fn fidelity(&self) -> f64 {
        self.fit.average_fidelity(2)
    }
}

/// Full RB + simRB result for the qubit pair, as plotted in Fig. 14.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimRbReport {
    /// Individual (reference) RB for qubit A.
    pub individual_a: RbCurve,
    /// Individual (reference) RB for qubit B.
    pub individual_b: RbCurve,
    /// Simultaneous RB, qubit A.
    pub simultaneous_a: RbCurve,
    /// Simultaneous RB, qubit B.
    pub simultaneous_b: RbCurve,
}

/// Runs individual RB and simRB on a two-qubit pair.
///
/// # Errors
///
/// Propagates [`FitError`] when the configured lengths are too few to fit.
pub fn run_simrb_experiment(cfg: &RbConfig) -> Result<SimRbReport, FitError> {
    let group = CliffordGroup::new();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let individual_a = run_rb(&group, cfg, Driven::OnlyA, &mut rng)?.0;
    let individual_b = run_rb(&group, cfg, Driven::OnlyB, &mut rng)?.1;
    let (simultaneous_a, simultaneous_b) = run_rb(&group, cfg, Driven::Both, &mut rng)?;
    Ok(SimRbReport {
        individual_a,
        individual_b,
        simultaneous_a,
        simultaneous_b,
    })
}

/// Which qubits of the pair are being driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driven {
    OnlyA,
    OnlyB,
    Both,
}

const QA: Qubit = Qubit::new(0);
const QB: Qubit = Qubit::new(1);

fn run_rb(
    group: &CliffordGroup,
    cfg: &RbConfig,
    driven: Driven,
    rng: &mut SmallRng,
) -> Result<(RbCurve, RbCurve), FitError> {
    let mut points_a = Vec::with_capacity(cfg.lengths.len());
    let mut points_b = Vec::with_capacity(cfg.lengths.len());
    for &m in &cfg.lengths {
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        for _ in 0..cfg.samples_per_length {
            let (sa, sb) = run_sequence(group, cfg, driven, m, rng);
            sum_a += sa;
            sum_b += sb;
        }
        let n = cfg.samples_per_length as f64;
        points_a.push(RbPoint {
            length: m,
            survival: sum_a / n,
        });
        points_b.push(RbPoint {
            length: m,
            survival: sum_b / n,
        });
    }
    let fit_curve = |points: &[RbPoint]| -> Result<RbCurve, FitError> {
        let ms: Vec<u32> = points.iter().map(|p| p.length).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.survival).collect();
        Ok(RbCurve {
            points: points.to_vec(),
            fit: fit_decay(&ms, &ys)?,
        })
    };
    Ok((fit_curve(&points_a)?, fit_curve(&points_b)?))
}

/// Runs one random sequence and returns the survival probabilities
/// (probability of reading the initial |0⟩ back) for both qubits.
fn run_sequence(
    group: &CliffordGroup,
    cfg: &RbConfig,
    driven: Driven,
    m: u32,
    rng: &mut SmallRng,
) -> (f64, f64) {
    let mut state = StateVector::new(2);
    let mut seq_a: Vec<CliffordId> = Vec::new();
    let mut seq_b: Vec<CliffordId> = Vec::new();
    let drive_a = driven != Driven::OnlyB;
    let drive_b = driven != Driven::OnlyA;
    let both = driven == Driven::Both;

    for _ in 0..m {
        let ca = CliffordId(rng.gen_range(0..CLIFFORD_COUNT as u8));
        let cb = CliffordId(rng.gen_range(0..CLIFFORD_COUNT as u8));
        if drive_a {
            apply_clifford(
                group,
                &mut state,
                QA,
                ca,
                both,
                cfg.crosstalk.drive_leakage_a_to_b,
            );
            seq_a.push(ca);
            cfg.noise_a.apply(&mut state, QA, rng);
        }
        if drive_b {
            apply_clifford(
                group,
                &mut state,
                QB,
                cb,
                both,
                cfg.crosstalk.drive_leakage_b_to_a,
            );
            seq_b.push(cb);
            cfg.noise_b.apply(&mut state, QB, rng);
        }
        if both {
            state.apply_zz(QA, QB, cfg.crosstalk.zz_theta_per_layer);
        }
    }
    if drive_a {
        let rec = group.recovery(seq_a.iter().copied());
        apply_clifford(
            group,
            &mut state,
            QA,
            rec,
            both,
            cfg.crosstalk.drive_leakage_a_to_b,
        );
        cfg.noise_a.apply(&mut state, QA, rng);
    }
    if drive_b {
        let rec = group.recovery(seq_b.iter().copied());
        apply_clifford(
            group,
            &mut state,
            QB,
            rec,
            both,
            cfg.crosstalk.drive_leakage_b_to_a,
        );
        cfg.noise_b.apply(&mut state, QB, rng);
    }

    // Analytic survival (P(qubit reads 0)), with readout error folded in
    // as a linear map: P(read 0) = (1−p01)(1−p1) + p10·p1.
    let survival = |p1: f64| (1.0 - cfg.readout.p01) * (1.0 - p1) + cfg.readout.p10 * p1;
    (survival(state.prob_one(QA)), survival(state.prob_one(QB)))
}

/// Applies a Clifford's pulse decomposition to `q`, leaking a fraction of
/// each pulse onto the partner qubit when both are driven.
fn apply_clifford(
    group: &CliffordGroup,
    state: &mut StateVector,
    q: Qubit,
    c: CliffordId,
    leak_active: bool,
    leakage: f64,
) {
    let other = if q == QA { QB } else { QA };
    for &pulse in group.pulses(c) {
        state.apply_gate1(pulse, q);
        if leak_active && leakage > 0.0 {
            // A fraction of the drive power reaches the neighbour: model
            // as a small rotation about the same axis.
            let theta = leakage * std::f64::consts::FRAC_PI_2;
            match pulse {
                Gate1::X90 | Gate1::Xm90 => {
                    let m = crate::statevector::rotation_matrix_x(if pulse == Gate1::X90 {
                        theta
                    } else {
                        -theta
                    });
                    state.apply_matrix1(&m, other);
                }
                Gate1::Y90 | Gate1::Ym90 => {
                    let m = crate::statevector::rotation_matrix_y(if pulse == Gate1::Y90 {
                        theta
                    } else {
                        -theta
                    });
                    state.apply_matrix1(&m, other);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RbConfig {
        RbConfig {
            lengths: vec![1, 10, 30, 60, 100, 160],
            samples_per_length: 12,
            ..RbConfig::paper()
        }
    }

    #[test]
    fn noiseless_rb_never_decays() {
        let cfg = RbConfig {
            lengths: vec![1, 20, 80],
            samples_per_length: 4,
            noise_a: DepolarizingNoise {
                pauli_error_prob: 0.0,
            },
            noise_b: DepolarizingNoise {
                pauli_error_prob: 0.0,
            },
            crosstalk: CrosstalkModel::NONE,
            readout: ReadoutError::default(),
            seed: 5,
        };
        let group = CliffordGroup::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let (a, b) = run_rb(&group, &cfg, Driven::Both, &mut rng).unwrap();
        for p in a.points.iter().chain(&b.points) {
            assert!(
                (p.survival - 1.0).abs() < 1e-9,
                "survival {} at m={}",
                p.survival,
                p.length
            );
        }
    }

    #[test]
    fn survival_decays_with_length() {
        let cfg = quick_cfg();
        let group = CliffordGroup::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let (a, _) = run_rb(&group, &cfg, Driven::OnlyA, &mut rng).unwrap();
        assert!(a.points.first().unwrap().survival > a.points.last().unwrap().survival);
    }

    #[test]
    fn fitted_fidelity_tracks_injected_noise() {
        // Inject F = 0.99 and recover it within half a percent.
        let cfg = RbConfig {
            lengths: vec![1, 5, 10, 20, 40, 70, 110, 160],
            samples_per_length: 60,
            noise_a: DepolarizingNoise::for_fidelity(0.99),
            noise_b: DepolarizingNoise::for_fidelity(0.99),
            crosstalk: CrosstalkModel::NONE,
            readout: ReadoutError::default(),
            seed: 77,
        };
        let group = CliffordGroup::new();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let (a, _) = run_rb(&group, &cfg, Driven::OnlyA, &mut rng).unwrap();
        assert!(
            (a.fidelity() - 0.99).abs() < 5e-3,
            "fitted {}",
            a.fidelity()
        );
    }

    #[test]
    fn simrb_is_worse_than_individual() {
        let report = run_simrb_experiment(&quick_cfg()).unwrap();
        assert!(report.simultaneous_a.fidelity() < report.individual_a.fidelity());
        assert!(report.simultaneous_b.fidelity() < report.individual_b.fidelity());
    }

    #[test]
    fn spectator_stays_put_during_individual_rb() {
        let cfg = quick_cfg();
        let group = CliffordGroup::new();
        let mut rng = SmallRng::seed_from_u64(3);
        let (_, b) = run_rb(&group, &cfg, Driven::OnlyA, &mut rng).unwrap();
        // Undriven qubit B keeps survival 1 (no crosstalk when not simRB).
        for p in &b.points {
            assert!((p.survival - 1.0).abs() < 1e-9);
        }
    }
}
