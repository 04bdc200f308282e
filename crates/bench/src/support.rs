//! Helpers shared by the serving benchmarks ([`crate::mixed`],
//! [`crate::sharded`]).

use quape_core::QuapeConfig;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_router::LawViolation;
use quape_server::Priority;

/// The serving benchmarks' common QPU backend: a fair coin per
/// measurement, timed by the configuration in force.
pub(crate) fn factory(cfg: &QuapeConfig) -> BehavioralQpuFactory {
    BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 })
}

/// Maps a [`quape_workloads::traffic::TrafficRequest`] priority class
/// to the server's type.
pub(crate) fn priority_of(class: u8) -> Priority {
    match class {
        0 => Priority::Low,
        1 => Priority::Normal,
        _ => Priority::High,
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when
/// empty).
pub(crate) fn percentile(sorted_us: &[u64], p: usize) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    sorted_us[(sorted_us.len() - 1) * p / 100]
}

/// Panics, listing every violated law, unless `check` (a quiescent
/// snapshot's conservation-law check) passed. `what` names the fleet or
/// server in the message.
pub(crate) fn assert_balanced(what: &str, check: Result<(), Vec<LawViolation>>) {
    if let Err(violations) = check {
        let lines: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
        panic!("{what}: counters do not balance:\n{}", lines.join("\n"));
    }
}
