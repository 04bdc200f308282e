//! # quape-qpu — quantum processing unit substrates
//!
//! The QuAPE paper evaluates its control microarchitecture against two
//! different "QPUs", and this crate provides both:
//!
//! * a **behavioural QPU** ([`BehavioralQpu`]) that tracks per-qubit
//!   occupancy, flags timing violations, and draws measurement outcomes
//!   from a seeded PRNG — exactly the setup the paper used for its §7
//!   QCP-only benchmarks;
//! * a **state-vector QPU** ([`StateVector`]) with depolarizing noise,
//!   readout error, ZZ coupling and microwave drive crosstalk — enough
//!   physics to reproduce the §8 randomized-benchmarking validation,
//!   including the simRB fidelity reduction.
//!
//! On top of the state-vector backend sit the single-qubit
//! [`CliffordGroup`] (24 elements, composition/inverse tables, X90/Y90
//! pulse decompositions), the RB/simRB experiment runner
//! ([`run_simrb_experiment`]), and the `A·pᵐ + B` decay fitter
//! ([`fit_decay`]).
//!
//! ```
//! use quape_qpu::StateVector;
//! use quape_isa::{Gate1, Gate2, Qubit};
//!
//! let mut s = StateVector::new(2);
//! s.apply_gate1(Gate1::H, Qubit::new(0));
//! s.apply_gate2(Gate2::Cnot, Qubit::new(0), Qubit::new(1));
//! assert!((s.prob_one(Qubit::new(1)) - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod behavioral;
mod clifford;
mod complex;
mod factory;
mod fit;
mod noise;
mod rb;
mod statevector;

pub use behavioral::{BehavioralQpu, IssuedOp, MeasurementModel, TimingViolation};
pub use clifford::{CliffordGroup, CliffordId, CLIFFORD_COUNT};
pub use complex::Complex;
pub use factory::BehavioralQpuFactory;
pub use fit::{fit_decay, DecayFit, FitError};
pub use noise::{CrosstalkModel, DepolarizingNoise, ReadoutError};
pub use rb::{run_simrb_experiment, RbConfig, RbCurve, RbPoint, SimRbReport};
pub use statevector::{
    gate1_matrix, matmul2, rotation_matrix_x, rotation_matrix_y, rotation_matrix_z, Matrix2,
    StateVector,
};
