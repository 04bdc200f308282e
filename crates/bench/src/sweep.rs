//! Machine-description scenario sweeps: one workload grid, many
//! machines, a deterministic comparison table.
//!
//! The sweep runs every machine in a set of [`MachineDescription`]s —
//! loaded from a `machines/*.json` directory or the builtin grid —
//! through a fixed workload grid (the Fig. 2 feedback chain, a wide
//! pulse train, a 10-qubit readout burst, and a slice of the
//! mixed-traffic request stream) and reports per-cell aggregates. Every cell is executed `repeats ≥ 2`
//! times and the run **fails** if any repeat's [`BatchAggregate`]
//! diverges. The first run is a batch, where feedback-free shots replay
//! their worker's recorded issue stream; every repeat merges fresh
//! per-shot [`ShotEngine::run_shot`] accumulators, which simulate every
//! shot. So the sweep doubles as a determinism check across the whole
//! declarative config surface and proves replay equal to full
//! simulation on every machine.

use quape_core::{
    BatchAggregate, CompiledJob, MachineDescription, QuapeConfig, ShotAccumulator, ShotEngine,
};
use quape_isa::content_hash_128;
use quape_qpu::{BehavioralQpuFactory, MeasurementModel};
use quape_workloads::feedback::feedback_chain;
use quape_workloads::pulse::pulse_train;
use quape_workloads::traffic::mixed_traffic;
use serde::Serialize;

/// A named machine in a sweep: the label (builtin name or file stem)
/// plus its description.
#[derive(Debug, Clone)]
pub struct SweepMachine {
    /// Display label: a builtin name or the description file's stem.
    pub name: String,
    /// The machine's declarative description.
    pub desc: MachineDescription,
}

/// The builtin machine grid used when no description directory is given:
/// the paper's baseline, its 8-way superscalar prototype, and a 4-unit
/// multiprocessor.
pub fn builtin_grid() -> Vec<SweepMachine> {
    ["baseline", "superscalar", "multiprocessor-4"]
        .iter()
        .map(|name| SweepMachine {
            name: (*name).to_string(),
            desc: MachineDescription::builtin(name).expect("grid names are builtin"),
        })
        .collect()
}

/// Loads every `*.json` machine description in `dir`, sorted by file
/// stem so the sweep order (and the comparison table) is stable.
///
/// # Errors
///
/// A human-readable message naming the offending file: unreadable
/// directory, unreadable file, or a description that fails to parse or
/// validate.
pub fn load_machines_dir(dir: &str) -> Result<Vec<SweepMachine>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut machines = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot read {dir}: {e}"))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("machine")
            .to_string();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let desc =
            MachineDescription::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        machines.push(SweepMachine { name, desc });
    }
    if machines.is_empty() {
        return Err(format!("no *.json machine descriptions in {dir}"));
    }
    machines.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(machines)
}

/// Resolves a `--machine` argument: a description file if `spec` names
/// one on disk, otherwise a builtin description name
/// ([`quape_core::BUILTIN_NAMES`], `superscalar-<w>`,
/// `multiprocessor-<n>`). The description is validated either way.
///
/// # Errors
///
/// A human-readable message: unreadable/unparseable file, or an unknown
/// builtin name.
pub fn resolve_machine(spec: &str) -> Result<MachineDescription, String> {
    if std::path::Path::new(spec).is_file() {
        let text = std::fs::read_to_string(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
        MachineDescription::from_json(&text).map_err(|e| format!("{spec}: {e}"))
    } else {
        MachineDescription::builtin(spec).map_err(|e| e.to_string())
    }
}

/// Checks that every `*.json` description in `dir` round-trips through
/// serde *byte-identically*: parsing the file and re-serializing it with
/// [`MachineDescription::to_json`] must reproduce the committed bytes
/// (modulo one trailing newline). Guards the committed examples against
/// hand-edits that drift from the canonical rendering.
///
/// # Errors
///
/// Names the first file that fails to parse or re-render identically.
pub fn check_roundtrip_dir(dir: &str) -> Result<usize, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let mut checked = 0;
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot read {dir}: {e}"))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let desc =
            MachineDescription::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if text.trim_end_matches('\n') != desc.to_json() {
            return Err(format!(
                "{} does not round-trip byte-identically; regenerate it with \
                 MachineDescription::to_json",
                path.display()
            ));
        }
        checked += 1;
    }
    if checked == 0 {
        return Err(format!("no *.json machine descriptions in {dir}"));
    }
    Ok(checked)
}

/// One cell of the sweep: a machine × workload pair's deterministic
/// aggregate, summarized for the comparison table and the JSON baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRow {
    /// Machine label.
    pub machine: String,
    /// Workload name.
    pub workload: String,
    /// Shots executed across the workload.
    pub shots: u64,
    /// Mean simulated cycles per shot.
    pub mean_cycles: f64,
    /// Largest per-shot cycle count.
    pub max_cycles: u64,
    /// Late quantum issues across all shots.
    pub late_issues: u64,
    /// DAQ demod-contended results across all shots.
    pub daq_contended: u64,
    /// Total simulated nanoseconds.
    pub simulated_ns: u64,
    /// Stable 128-bit fingerprint (hex) of the cell's aggregates —
    /// bit-identical across runs, machines differ.
    pub fingerprint: String,
}

/// A workload cell: every program it runs, with shots and a seed
/// stream offset.
struct Workload {
    name: &'static str,
    programs: Vec<(quape_isa::Program, u64)>,
}

/// Workload names in the fixed grid, in sweep order.
pub const WORKLOAD_NAMES: &[&str] = &["fig02_chain", "pulse_train", "readout_burst", "mixed_slice"];

/// The fixed workload grid: Fig. 2's feedback chain, a 4-qubit pulse
/// train, a 10-qubit readout burst (every qubit measured in the same
/// timing slot — the cell that separates demod-starved DAQs from
/// well-provisioned ones on multiplexed layouts), and the first 10
/// requests of the deterministic mixed-traffic stream (each assembled
/// from its wire text).
fn workload_grid(seed: u64) -> Vec<Workload> {
    let mut grid = vec![
        Workload {
            name: "fig02_chain",
            programs: vec![(feedback_chain(0, 40).expect("valid workload"), 24)],
        },
        Workload {
            name: "pulse_train",
            programs: vec![(pulse_train(4, 60).expect("valid workload"), 16)],
        },
        Workload {
            name: "readout_burst",
            programs: vec![(pulse_train(10, 4).expect("valid workload"), 16)],
        },
    ];
    let slice = mixed_traffic(seed, 10)
        .into_iter()
        .map(|req| {
            let program = quape_isa::assemble(&req.source).expect("traffic sources assemble");
            (program, req.shots)
        })
        .collect();
    grid.push(Workload {
        name: "mixed_slice",
        programs: slice,
    });
    grid
}

/// Runs one grid cell: as batches, or (`fresh`) as folds of fresh
/// per-shot accumulators, each shot simulated in full.
fn run_cell(
    cfg: &QuapeConfig,
    workload: &Workload,
    base_seed: u64,
    fresh: bool,
) -> Result<Vec<BatchAggregate>, String> {
    workload
        .programs
        .iter()
        .enumerate()
        .map(|(i, (program, shots))| {
            let job = CompiledJob::compile(cfg.clone(), program.clone())
                .map_err(|e| format!("{}: {e}", workload.name))?;
            let factory =
                BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
            let seed = base_seed + i as u64;
            let engine = ShotEngine::new(job, factory).base_seed(seed).threads(1);
            Ok(if fresh {
                let mut acc = ShotAccumulator::default();
                for shot in 0..*shots {
                    acc.merge(&engine.run_shot(shot));
                }
                acc.finish(seed)
            } else {
                engine.run(*shots).aggregate
            })
        })
        .collect()
}

fn summarize(machine: &str, workload: &str, aggs: &[BatchAggregate]) -> SweepRow {
    let shots: u64 = aggs.iter().map(|a| a.shots).sum();
    let total_cycles: f64 = aggs.iter().map(|a| a.cycles.mean * a.shots as f64).sum();
    let json = serde_json::to_string(&aggs).expect("aggregates serialize");
    SweepRow {
        machine: machine.to_string(),
        workload: workload.to_string(),
        shots,
        mean_cycles: total_cycles / shots.max(1) as f64,
        max_cycles: aggs.iter().map(|a| a.cycles.max).max().unwrap_or(0),
        late_issues: aggs.iter().map(|a| a.late_issues_total).sum(),
        daq_contended: aggs.iter().map(|a| a.daq_contended_total).sum(),
        simulated_ns: aggs.iter().map(|a| a.simulated_ns_total).sum(),
        fingerprint: format!("{:032x}", content_hash_128(json.as_bytes())),
    }
}

/// Runs the workload grid across `machines`. Every cell executes
/// `repeats` times (min 2) and must produce bit-identical aggregates
/// each time — the sweep asserts the declarative surface changes *what*
/// runs, never *whether* a run is reproducible. The first run is a
/// batch; the repeats merge fresh per-shot accumulators, so they also
/// hold shot replay to full simulation.
///
/// # Errors
///
/// An invalid description, a compile failure, or a determinism
/// violation, each naming the machine × workload cell.
pub fn run_sweep(
    machines: &[SweepMachine],
    seed: u64,
    repeats: usize,
) -> Result<Vec<SweepRow>, String> {
    let repeats = repeats.max(2);
    let grid = workload_grid(seed);
    let mut rows = Vec::with_capacity(machines.len() * grid.len());
    for m in machines {
        let cfg = m
            .desc
            .to_config()
            .map_err(|e| format!("machine {}: {e}", m.name))?;
        for workload in &grid {
            let first = run_cell(&cfg, workload, seed, false)
                .map_err(|e| format!("machine {}: {e}", m.name))?;
            for rerun in 1..repeats {
                let again = run_cell(&cfg, workload, seed, true)
                    .map_err(|e| format!("machine {}: {e}", m.name))?;
                if again != first {
                    return Err(format!(
                        "diverging aggregate: machine {} workload {} differs from its \
                         fresh per-shot rerun on repeat {rerun}",
                        m.name, workload.name
                    ));
                }
            }
            rows.push(summarize(&m.name, workload.name, &first));
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_grid_sweeps_deterministically() {
        let machines = builtin_grid();
        let rows = run_sweep(&machines, 7, 2).expect("sweep runs");
        assert_eq!(rows.len(), machines.len() * WORKLOAD_NAMES.len());
        // The workload grid must actually discriminate machines: the
        // wide pulse train exposes the superscalar front end, the
        // block-partitioned traffic slice exposes the multiprocessor.
        // (The serial feedback chain is invariant by design — feedback
        // latency is DAQ-bound, not fetch-bound.)
        let cell = |m: &str, w: &str| {
            rows.iter()
                .find(|r| r.machine == m && r.workload == w)
                .unwrap()
                .clone()
        };
        assert_ne!(
            cell("baseline", "pulse_train").fingerprint,
            cell("superscalar", "pulse_train").fingerprint,
        );
        assert_ne!(
            cell("baseline", "mixed_slice").fingerprint,
            cell("multiprocessor-4", "mixed_slice").fingerprint,
        );
        assert_eq!(
            cell("baseline", "fig02_chain").fingerprint,
            cell("superscalar", "fig02_chain").fingerprint,
            "the serial feedback chain must stay fetch-width invariant"
        );
        // And the same machine reproduces the same fingerprint.
        let rows2 = run_sweep(&machines, 7, 2).expect("sweep runs");
        assert_eq!(rows, rows2);
    }

    #[test]
    fn resolve_machine_accepts_files_and_builtin_names() {
        assert_eq!(
            resolve_machine("superscalar-8").unwrap(),
            MachineDescription::superscalar(8)
        );
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/baseline.json");
        assert_eq!(
            resolve_machine(path).unwrap(),
            MachineDescription::baseline()
        );
        let err = resolve_machine("no-such-machine").unwrap_err();
        assert!(
            err.contains("no-such-machine"),
            "error names the spec: {err}"
        );
    }

    #[test]
    fn readout_burst_separates_demod_starved_machines() {
        use quape_core::ChannelLayout;
        let mut multiplexed = MachineDescription::superscalar(8);
        multiplexed.channels = ChannelLayout::Multiplexed {
            qubits: Some(10),
            readout_lines: 8,
        };
        let mut starved = multiplexed.clone();
        starved.daq.demod_slots = 1;
        let machines = vec![
            SweepMachine {
                name: "multiplexed".into(),
                desc: multiplexed,
            },
            SweepMachine {
                name: "starved".into(),
                desc: starved,
            },
        ];
        let rows = run_sweep(&machines, 7, 2).expect("sweep runs");
        let cell = |m: &str| {
            rows.iter()
                .find(|r| r.machine == m && r.workload == "readout_burst")
                .unwrap()
        };
        // 10 qubits over 8 lines: q0/q8 and q1/q9 share a line, so a
        // single demod server per channel must serialize the burst.
        assert!(
            cell("starved").daq_contended > 0,
            "a single demod slot must contend on the shared lines"
        );
        assert_eq!(cell("multiplexed").daq_contended, 0);
        assert_ne!(cell("starved").fingerprint, cell("multiplexed").fingerprint);
    }

    #[test]
    fn invalid_machine_is_named_in_the_error() {
        let mut bad = MachineDescription::baseline();
        bad.daq.demod_slots = 0;
        let machines = vec![SweepMachine {
            name: "starved".into(),
            desc: bad,
        }];
        let err = run_sweep(&machines, 7, 2).unwrap_err();
        assert!(
            err.contains("starved"),
            "error must name the machine: {err}"
        );
    }
}
