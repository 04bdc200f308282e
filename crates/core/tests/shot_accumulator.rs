//! Property test for the batch fold: [`ShotAccumulator`]s over any
//! split of a batch's shots, merged in any order, give the aggregate of
//! one sequential fold; its order statistics equal a sort-based
//! nearest-rank reference; its histograms count each qubit's outcomes
//! shot by shot; and readouts of qubits outside the job's width are
//! ignored.

use proptest::prelude::*;
use quape_core::{
    DistributionSummary, MeasurementRecord, QubitHistogram, ShotAccumulator, ShotOutcome,
    StopReason,
};
use quape_isa::Qubit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The sort-based nearest-rank rule the accumulator must reproduce.
fn from_values(mut values: Vec<u64>) -> DistributionSummary {
    if values.is_empty() {
        return DistributionSummary::default();
    }
    values.sort_unstable();
    let n = values.len();
    let rank = |p: usize| values[(n - 1) * p / 100];
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    DistributionSummary {
        min: values[0],
        p50: rank(50),
        p95: rank(95),
        max: values[n - 1],
        mean: sum as f64 / n as f64,
    }
}

/// Shot `seed`'s measurements: up to 8 readouts of qubits 0..6, so
/// that some fall outside a narrower job.
fn random_measurements(seed: u64) -> Vec<MeasurementRecord> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    (0..rng.gen_range(0..9u64))
        .map(|t| MeasurementRecord {
            time_ns: t,
            qubit: Qubit::new(rng.gen_range(0..6u16)),
            value: rng.gen_range(0..2u8) == 1,
        })
        .collect()
}

/// Shot `seed`'s counters, drawn from small ranges so that values
/// repeat across shots.
fn random_shot(seed: u64, measurements: &[MeasurementRecord]) -> ShotOutcome<'_> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let stops = [
        StopReason::Completed,
        StopReason::Halted,
        StopReason::CycleLimit,
        StopReason::Error,
    ];
    ShotOutcome {
        cycles: rng.gen_range(1..40u64) * 1_000_000,
        ns: rng.gen_range(0..30u64),
        stop: stops[rng.gen_range(0..4usize)],
        issued_ops: rng.gen_range(0..100u64),
        late_issues: rng.gen_range(0..3u64),
        late_cycles: rng.gen_range(0..5u64),
        violations: rng.gen_range(0..3u64),
        awg_violations: rng.gen_range(0..3u64),
        daq_contended: rng.gen_range(0..3u64),
        qpu_makespan_ns: rng.gen_range(0..30u64),
        measurements,
    }
}

/// The shots `seeds` pushed in order into one accumulator; with
/// `in_range`, each shot's measurements are first cut to `width`.
fn fold(width: u16, seeds: &[u64], in_range: bool) -> ShotAccumulator {
    let mut acc = ShotAccumulator::default();
    for &seed in seeds {
        let mut measurements = random_measurements(seed);
        if in_range {
            measurements.retain(|m| m.qubit.index() < width);
        }
        acc.push(width, &random_shot(seed, &measurements));
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accumulators_merge_exactly_in_any_order(
        seeds in proptest::collection::vec(any::<u64>(), 1..80),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        order in any::<u64>(),
        width in 1u16..6,
    ) {
        let sequential = fold(width, &seeds, false);
        let aggregate = sequential.finish(3);

        // Random chunks, plus an empty one, merged in a random order.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (seeds.len() + 1)).collect();
        bounds.extend([0, seeds.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let mut chunks: Vec<ShotAccumulator> = bounds
            .windows(2)
            .map(|w| fold(width, &seeds[w[0]..w[1]], false))
            .collect();
        chunks.push(ShotAccumulator::default());
        let mut rng = SmallRng::seed_from_u64(order);
        for i in (1..chunks.len()).rev() {
            chunks.swap(i, rng.gen_range(0..=i));
        }
        let mut merged = ShotAccumulator::default();
        for chunk in &chunks {
            merged.merge(chunk);
        }
        prop_assert_eq!(&merged.finish(3), &aggregate);

        // Order statistics equal the sort-based nearest rank.
        let measurements: Vec<_> = seeds.iter().map(|&s| random_measurements(s)).collect();
        let shots: Vec<ShotOutcome<'_>> = seeds
            .iter()
            .zip(&measurements)
            .map(|(&s, m)| random_shot(s, m))
            .collect();
        let values = |f: fn(&ShotOutcome<'_>) -> u64| shots.iter().map(f).collect::<Vec<u64>>();
        prop_assert_eq!(aggregate.cycles, from_values(values(|s| s.cycles)));
        prop_assert_eq!(aggregate.lateness, from_values(values(|s| s.late_cycles)));
        let times = values(|s| s.execution_time_ns());
        prop_assert_eq!(aggregate.execution_time_ns, from_values(times.clone()));
        prop_assert_eq!(aggregate.simulated_ns_total, times.iter().sum::<u64>());
        prop_assert_eq!(aggregate.shots, seeds.len() as u64);

        // Histograms count each in-range qubit's outcomes shot by shot.
        let mut qubits = vec![QubitHistogram::default(); usize::from(width)];
        for (q, h) in (0..width).zip(&mut qubits) {
            for shot in &measurements {
                let outcomes: Vec<bool> = shot
                    .iter()
                    .filter(|m| m.qubit.index() == q)
                    .map(|m| m.value)
                    .collect();
                h.ones += outcomes.iter().filter(|&&v| v).count() as u64;
                h.zeros += outcomes.iter().filter(|&&v| !v).count() as u64;
                h.shots_measured += u64::from(!outcomes.is_empty());
                h.first_zero_shots += u64::from(outcomes.first() == Some(&false));
            }
        }
        prop_assert_eq!(&aggregate.qubits, &qubits);

        // A readout of a qubit at or past the width changes nothing.
        prop_assert_eq!(&fold(width, &seeds, true).finish(3), &aggregate);
    }
}

/// A stream where three values repeat most of the time, as in a replayed
/// batch, mixed with a couple of hundred distinct ones, as in a feedback
/// chain. However the stream is split and whichever order the parts
/// merge in,
/// the aggregate is the sequential fold's, and its order statistics are
/// the sort-based ones.
#[test]
fn repeated_and_distinct_values_fold_and_merge_exactly() {
    const HOT: [u64; 3] = [1_200, 1_213, 7_000_000];
    let mut rng = SmallRng::seed_from_u64(23);
    let values: Vec<u64> = (0..900u64)
        .map(|i| {
            if rng.gen_range(0..3) == 0 {
                i * 1_000_003 + 17
            } else {
                HOT[rng.gen_range(0..HOT.len())]
            }
        })
        .collect();
    let shot = |v: u64| ShotOutcome {
        cycles: v,
        ns: 2 * v,
        stop: StopReason::Completed,
        issued_ops: 1,
        late_issues: 0,
        late_cycles: v % 7,
        violations: 0,
        awg_violations: 0,
        daq_contended: 0,
        qpu_makespan_ns: 0,
        measurements: &[],
    };
    let fold = |part: &[u64]| {
        let mut acc = ShotAccumulator::default();
        for &v in part {
            acc.push(1, &shot(v));
        }
        acc
    };
    let sequential = fold(&values).finish(5);
    assert_eq!(sequential.cycles, from_values(values.clone()));
    assert_eq!(
        sequential.lateness,
        from_values(values.iter().map(|v| v % 7).collect())
    );
    assert_eq!(
        sequential.execution_time_ns,
        from_values(values.iter().map(|v| 2 * v).collect())
    );
    let parts = [
        fold(&values[..250]),
        fold(&values[250..700]),
        fold(&values[700..]),
    ];
    for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0]] {
        let mut merged = ShotAccumulator::default();
        for i in order {
            merged.merge(&parts[i]);
        }
        assert_eq!(merged.finish(5), sequential, "merge order {order:?}");
    }
}
