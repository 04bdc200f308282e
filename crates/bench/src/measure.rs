//! The one way every timed comparison in this crate is measured: warm-up
//! rounds, then alternating measured rounds over every variant, the
//! deterministic aggregate asserted equal in every pass, and each
//! variant's median wall time reported with its spread.
//!
//! Host throughput drifts on timescales comparable to a whole
//! comparison, so timing one variant's passes back to back and then the
//! next's hands whichever ran in a slow window a phantom loss (±20% on
//! a shared runner). [`measure`] instead runs every variant once per
//! round, so neighbouring passes see the same drift, and starts each
//! round from the next variant in turn, so no variant always runs first.
//! A comparison is the median of the per-round wall-time ratios
//! ([`Measurement::ratio`]): a noise spike lengthens whichever pass it
//! lands on, and the median sheds both tails.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

/// What one pass of one variant reports to [`measure`].
#[derive(Debug, Clone)]
pub struct Pass<A, T> {
    /// Wall time of the pass's timed work.
    pub wall: Duration,
    /// The deterministic result every pass of every variant must
    /// reproduce bit for bit.
    pub aggregate: A,
    /// Whatever else the caller keeps from the pass (latencies, counter
    /// deltas).
    pub output: T,
}

/// One variant's wall times over the measured rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    /// Median wall time, milliseconds (the mean of the middle two for an
    /// even pass count).
    pub median_ms: f64,
    /// Fastest measured pass, milliseconds.
    pub min_ms: f64,
    /// Slowest measured pass, milliseconds.
    pub max_ms: f64,
    /// Measured passes (warm-up passes excluded).
    pub passes: u64,
}

/// Renders as `median (min-max, passes)`, milliseconds.
impl fmt::Display for Spread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ({:.2}-{:.2}, {})",
            self.median_ms, self.min_ms, self.max_ms, self.passes
        )
    }
}

/// The result of [`measure`].
#[derive(Debug)]
pub struct Measurement<A, T> {
    /// The first pass's aggregate; every other pass reproduced it.
    pub aggregate: A,
    /// Per variant, the measured passes' outputs in round order.
    pub outputs: Vec<Vec<T>>,
    /// Per variant, the measured passes' wall times (ms) in round order.
    walls_ms: Vec<Vec<f64>>,
}

impl<A, T> Measurement<A, T> {
    /// `variant`'s median, fastest and slowest measured wall time.
    pub fn spread(&self, variant: usize) -> Spread {
        let walls = &self.walls_ms[variant];
        Spread {
            median_ms: median(walls),
            min_ms: walls.iter().copied().fold(f64::INFINITY, f64::min),
            max_ms: walls.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            passes: walls.len() as u64,
        }
    }

    /// How many times faster variant `b` ran than variant `a`: the
    /// median over measured rounds of `wall(a) / wall(b)` within the
    /// round. With equal work on both sides this is `b`'s throughput
    /// over `a`'s.
    pub fn ratio(&self, a: usize, b: usize) -> f64 {
        let ratios: Vec<f64> = self.walls_ms[a]
            .iter()
            .zip(&self.walls_ms[b])
            .map(|(wa, wb)| wa / wb)
            .collect();
        median(&ratios)
    }
}

/// Runs `warmup` unmeasured rounds and then `rounds` (at least one)
/// measured rounds; every round runs `pass(v)` once for each variant
/// `v` of `variants`, starting from variant `round mod N` (rounds
/// counted from the first warm-up round).
///
/// # Panics
///
/// Panics, naming the variant and the round, when a pass's aggregate
/// differs from the first pass's — warm-up passes included, so every
/// pass of every variant is a differential check against variant 0.
pub fn measure<A: PartialEq, T>(
    variants: &[impl AsRef<str>],
    warmup: usize,
    rounds: usize,
    mut pass: impl FnMut(usize) -> Pass<A, T>,
) -> Measurement<A, T> {
    let n = variants.len();
    assert!(n > 0, "measure needs at least one variant");
    let rounds = rounds.max(1);
    let mut oracle: Option<A> = None;
    let mut outputs: Vec<Vec<T>> = (0..n).map(|_| Vec::with_capacity(rounds)).collect();
    let mut walls_ms: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(rounds)).collect();
    for round in 0..warmup + rounds {
        let (phase, phase_round) = if round < warmup {
            ("warm-up", round)
        } else {
            ("measured", round - warmup)
        };
        for k in 0..n {
            let v = (round + k) % n;
            let p = pass(v);
            match &oracle {
                None => oracle = Some(p.aggregate),
                Some(first) => assert!(
                    *first == p.aggregate,
                    "variant `{}`, {phase} round {phase_round}: aggregate differs from the \
                     first pass's (variant `{}`)",
                    variants[v].as_ref(),
                    variants[0].as_ref()
                ),
            }
            if round >= warmup {
                walls_ms[v].push(p.wall.as_nanos() as f64 / 1e6);
                outputs[v].push(p.output);
            }
        }
    }
    Measurement {
        aggregate: oracle.expect("at least one pass ran"),
        outputs,
        walls_ms,
    }
}

/// Median of `values` (the mean of the middle two for an even count;
/// NaN when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => v[len / 2],
        len => (v[len / 2 - 1] + v[len / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile of an ascending-sorted slice: the
/// smallest value with at least `p`% of the samples at or below it
/// (0 when empty).
pub(crate) fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len()).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Runs `measure` over fake passes whose wall times come from
    /// `walls[variant]` in call order, recording the call sequence.
    fn fake(
        variants: &[&str],
        warmup: usize,
        rounds: usize,
        walls: &[&[u64]],
    ) -> (Measurement<u32, usize>, Vec<usize>) {
        let mut calls = Vec::new();
        let mut next = vec![0; walls.len()];
        let m = measure(variants, warmup, rounds, |v| {
            calls.push(v);
            let wall = walls[v][next[v]];
            next[v] += 1;
            Pass {
                wall: ms(wall),
                aggregate: 7,
                output: calls.len(),
            }
        });
        (m, calls)
    }

    #[test]
    fn warm_up_rounds_are_left_out_of_the_spread() {
        let (m, calls) = fake(
            &["a", "b"],
            2,
            3,
            &[&[900, 800, 3, 1, 2], &[700, 600, 5, 6, 4]],
        );
        assert_eq!(calls.len(), 10);
        let a = m.spread(0);
        assert_eq!(
            (a.median_ms, a.min_ms, a.max_ms, a.passes),
            (2.0, 1.0, 3.0, 3)
        );
        let b = m.spread(1);
        assert_eq!(
            (b.median_ms, b.min_ms, b.max_ms, b.passes),
            (5.0, 4.0, 6.0, 3)
        );
        // Only the measured passes' outputs are kept (calls 5..=10).
        assert!(m.outputs.iter().flatten().all(|&call| call > 4));
        assert_eq!(m.outputs[0].len(), 3);
        assert_eq!(m.aggregate, 7);
    }

    #[test]
    fn each_round_starts_from_the_next_variant() {
        let walls: &[u64] = &[1; 3];
        let (_, calls) = fake(&["a", "b", "c"], 1, 2, &[walls, walls, walls]);
        assert_eq!(calls, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    #[test]
    fn median_min_max_for_odd_and_even_round_counts() {
        let (odd, _) = fake(&["a"], 0, 5, &[&[5, 1, 4, 2, 3]]);
        let s = odd.spread(0);
        assert_eq!(
            (s.median_ms, s.min_ms, s.max_ms, s.passes),
            (3.0, 1.0, 5.0, 5)
        );
        let (even, _) = fake(&["a"], 0, 4, &[&[4, 1, 8, 2]]);
        let s = even.spread(0);
        assert_eq!(
            (s.median_ms, s.min_ms, s.max_ms, s.passes),
            (3.0, 1.0, 8.0, 4)
        );
    }

    #[test]
    fn ratio_is_the_median_of_per_round_ratios() {
        // Per-round a/b: 10/5 = 2, 1/2 = 0.5, 3/1 = 3 → median 2.
        // The ratio of the medians would be 3/2 = 1.5.
        let (m, _) = fake(&["a", "b"], 0, 3, &[&[10, 1, 3], &[5, 2, 1]]);
        assert!((m.ratio(0, 1) - 2.0).abs() < 1e-9);
        assert!((m.spread(0).median_ms / m.spread(1).median_ms - 1.5).abs() < 1e-9);
        // Even round count: the middle two ratios are averaged.
        let (m, _) = fake(&["a", "b"], 0, 2, &[&[4, 9], &[2, 3]]);
        assert!((m.ratio(0, 1) - 2.5).abs() < 1e-9);
        assert!((m.ratio(1, 0) - (0.5 + 1.0 / 3.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "variant `b`, measured round 1: aggregate differs")]
    fn a_mismatched_aggregate_names_the_variant_and_round() {
        let mut calls = 0;
        measure(&["a", "b"], 1, 3, |v| {
            calls += 1;
            // Round 2 overall = measured round 1 runs a then b; b's
            // pass is the sixth call.
            Pass {
                wall: ms(1),
                aggregate: if calls == 6 { 1 } else { 0 },
                output: v,
            }
        });
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = |n: u64| (1..=n).collect::<Vec<u64>>();
        assert_eq!(percentile(&samples(1), 50), 1);
        assert_eq!(percentile(&samples(1), 95), 1);
        assert_eq!(percentile(&samples(16), 50), 8);
        assert_eq!(percentile(&samples(16), 95), 16);
        assert_eq!(percentile(&samples(48), 50), 24);
        assert_eq!(percentile(&samples(48), 95), 46);
        assert_eq!(percentile(&[], 95), 0);
    }
}
