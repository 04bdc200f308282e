//! Declarative machine descriptions: name a machine, edit one knob,
//! and run the same workload on both — the description is the single
//! config surface from ISA timings to fleet profiles.
//!
//! ```sh
//! cargo run --release --example machine_sweep
//! ```

use quape::machine::ChannelLayout;
use quape::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Builtin descriptions cover the paper's machine shapes by name
    // (the same names the `sweep` binary and `--machine` flags accept).
    let superscalar = MachineDescription::builtin("superscalar-8")?;

    // A description is plain data: derive the paper's 10-qubit fridge
    // with 8 multiplexed readout lines, then starve its DAQ down to a
    // single demodulation server per line.
    let mut starved = superscalar.clone();
    starved.channels = ChannelLayout::Multiplexed {
        qubits: Some(10),
        readout_lines: 8,
    };
    starved.daq.demod_slots = 1;

    // Descriptions round-trip losslessly: JSON → description → config
    // preserves the content digest that keys every compile cache.
    let reparsed = MachineDescription::from_json(&starved.to_json())?;
    assert_eq!(
        reparsed.to_config()?.content_digest(),
        starved.to_config()?.content_digest()
    );

    // A readout burst: 4 layers of parallel pulses on all 10 qubits,
    // then every qubit measured in the same timing slot. On the
    // multiplexed layout q0/q8 and q1/q9 share lines, so the starved
    // DAQ must serialize their demodulation.
    let program = quape::workloads::pulse::pulse_train(10, 4)?;

    for (name, desc) in [("superscalar-8", &superscalar), ("demod-starved", &starved)] {
        let cfg = desc.to_config()?;
        let factory =
            BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 });
        let job = CompiledJob::compile(cfg, program.clone())?;
        let report = ShotEngine::new(job, factory)
            .base_seed(7)
            .threads(1)
            .run(64);
        let agg = &report.aggregate;
        println!(
            "{name:>13}: mean {:.1} cycles/shot, {} demod-contended results",
            agg.cycles.mean, agg.daq_contended_total
        );
    }

    // The same description travels through the serving stack: a job
    // request can name a builtin or carry an inline description.
    let server = JobServer::new(ServerConfig::default());
    let spec = MachineSpec::Inline(starved.clone());
    let cfg = starved.to_config()?;
    let req = JobRequest::new(
        "burst",
        JobSource::Program(program),
        QuapeConfig::uniprocessor(),
        BehavioralQpuFactory::new(cfg.timings, MeasurementModel::Bernoulli { p_one: 0.5 }),
        32,
    )
    .machine(&spec)?
    .base_seed(7);
    let _ = server.submit(req)?;
    let result = &server.run()[0];
    println!(
        "served on the described machine: {} demod-contended results",
        result.aggregate.daq_contended_total
    );
    Ok(())
}
