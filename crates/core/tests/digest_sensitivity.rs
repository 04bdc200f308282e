//! Digest-sensitivity audit for the declarative config surface.
//!
//! [`QuapeConfig::content_digest`] keys the compile caches across the
//! server and router: two configs with equal digests share compiled
//! jobs. A knob the digest ignores is therefore a *correctness* bug — a
//! cached job compiled for one machine would serve another. This audit
//! mutates every field of [`MachineDescription`] and [`QuapeConfig`]
//! independently and asserts each mutation moves the digest (and that
//! the documented exception — `seed` — does not).

use quape_core::{ChannelLayout, MachineDescription, QuapeConfig};
use quape_isa::DependencyMode;

type DescMutation = (&'static str, fn(&mut MachineDescription));

/// One mutation per MachineDescription field. Multiplexed-channel
/// sub-fields get their own entries via a multiplexed base.
fn description_mutations() -> Vec<DescMutation> {
    vec![
        ("clock_ns", |d| d.clock_ns += 1),
        ("processors.count", |d| d.processors.count += 1),
        ("processors.fetch_width", |d| d.processors.fetch_width += 1),
        ("processors.quantum_pipes", |d| {
            d.processors.quantum_pipes += 1
        }),
        ("processors.predecode_buffer", |d| {
            d.processors.predecode_buffer += 1
        }),
        ("processors.context_capacity", |d| {
            d.processors.context_capacity += 1
        }),
        ("processors.context_switch_cycles", |d| {
            d.processors.context_switch_cycles += 1
        }),
        ("processors.fast_context_switch", |d| {
            d.processors.fast_context_switch = !d.processors.fast_context_switch
        }),
        ("scheduler.response_cycles", |d| {
            d.scheduler.response_cycles += 1
        }),
        ("scheduler.dependency_mode=Direct", |d| {
            d.scheduler.dependency_mode = Some(DependencyMode::Direct)
        }),
        ("scheduler.dependency_mode=Priority", |d| {
            d.scheduler.dependency_mode = Some(DependencyMode::Priority)
        }),
        ("scheduler.ideal", |d| {
            d.scheduler.ideal = !d.scheduler.ideal
        }),
        ("icache.banks", |d| d.icache.banks += 1),
        ("icache.fill_words_per_cycle", |d| {
            d.icache.fill_words_per_cycle += 1
        }),
        ("icache.switch_cycles", |d| d.icache.switch_cycles += 1),
        ("icache.prefetch", |d| {
            d.icache.prefetch = !d.icache.prefetch
        }),
        ("channels=Linear{qubits}", |d| {
            d.channels = ChannelLayout::Linear { qubits: Some(4) }
        }),
        ("channels=Multiplexed", |d| {
            d.channels = ChannelLayout::Multiplexed {
                qubits: Some(10),
                readout_lines: 8,
            }
        }),
        ("daq.base_ns", |d| d.daq.base_ns += 1),
        ("daq.jitter_ns", |d| d.daq.jitter_ns += 1),
        ("daq.demod_slots", |d| d.daq.demod_slots += 1),
        ("timings.single_qubit_ns", |d| {
            d.timings.single_qubit_ns += 1
        }),
        ("timings.two_qubit_ns", |d| d.timings.two_qubit_ns += 1),
        ("timings.readout_pulse_ns", |d| {
            d.timings.readout_pulse_ns += 1
        }),
    ]
}

fn digest(desc: &MachineDescription) -> u64 {
    desc.to_config()
        .expect("mutated description still validates")
        .content_digest()
}

#[test]
fn every_description_field_moves_the_digest() {
    let base = MachineDescription::baseline();
    let base_digest = digest(&base);
    let mut seen = vec![("baseline", base_digest)];
    for (name, mutate) in description_mutations() {
        let mut desc = base.clone();
        mutate(&mut desc);
        let d = digest(&desc);
        assert_ne!(
            d, base_digest,
            "mutating {name} must change the config digest"
        );
        for (other, od) in &seen {
            assert_ne!(d, *od, "{name} and {other} collide on one digest");
        }
        seen.push((name, d));
    }
}

#[test]
fn multiplexed_readout_lines_move_the_digest() {
    let mut base = MachineDescription::baseline();
    base.channels = ChannelLayout::Multiplexed {
        qubits: Some(10),
        readout_lines: 8,
    };
    let mut narrower = base.clone();
    narrower.channels = ChannelLayout::Multiplexed {
        qubits: Some(10),
        readout_lines: 4,
    };
    let mut wider = base.clone();
    wider.channels = ChannelLayout::Multiplexed {
        qubits: Some(12),
        readout_lines: 8,
    };
    assert_ne!(digest(&base), digest(&narrower));
    assert_ne!(digest(&base), digest(&wider));
}

type CfgMutation = (&'static str, fn(&mut QuapeConfig));

/// One mutation per QuapeConfig field (`seed` excluded — see
/// `seed_is_digest_neutral`).
fn config_mutations() -> Vec<CfgMutation> {
    vec![
        ("clock_ns", |c| c.clock_ns += 1),
        ("num_processors", |c| c.num_processors += 1),
        ("fetch_width", |c| c.fetch_width += 1),
        ("quantum_pipes", |c| c.quantum_pipes += 1),
        ("predecode_buffer", |c| c.predecode_buffer += 1),
        ("timings.single_qubit_ns", |c| {
            c.timings.single_qubit_ns += 1
        }),
        ("timings.two_qubit_ns", |c| c.timings.two_qubit_ns += 1),
        ("timings.readout_pulse_ns", |c| {
            c.timings.readout_pulse_ns += 1
        }),
        ("daq_base_ns", |c| c.daq_base_ns += 1),
        ("daq_jitter_ns", |c| c.daq_jitter_ns += 1),
        ("daq_demod_slots", |c| c.daq_demod_slots += 1),
        ("readout_lines", |c| c.readout_lines = Some(8)),
        ("scheduler_response_cycles", |c| {
            c.scheduler_response_cycles += 1
        }),
        ("dependency_mode=Direct", |c| {
            c.dependency_mode = Some(DependencyMode::Direct)
        }),
        ("dependency_mode=Priority", |c| {
            c.dependency_mode = Some(DependencyMode::Priority)
        }),
        ("icache_banks", |c| c.icache_banks += 1),
        ("fill_words_per_cycle", |c| c.fill_words_per_cycle += 1),
        ("switch_cycles", |c| c.switch_cycles += 1),
        ("context_switch_cycles", |c| c.context_switch_cycles += 1),
        ("context_capacity", |c| c.context_capacity += 1),
        ("prefetch", |c| c.prefetch = !c.prefetch),
        ("fast_context_switch", |c| {
            c.fast_context_switch = !c.fast_context_switch
        }),
        ("ideal_scheduler", |c| {
            c.ideal_scheduler = !c.ideal_scheduler
        }),
        ("num_qubits", |c| c.num_qubits = Some(10)),
    ]
}

#[test]
fn every_config_field_moves_the_digest() {
    let base = QuapeConfig::uniprocessor();
    let base_digest = base.content_digest();
    let mut seen = vec![("uniprocessor", base_digest)];
    for (name, mutate) in config_mutations() {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        let d = cfg.content_digest();
        assert_ne!(d, base_digest, "mutating {name} must change the digest");
        for (other, od) in &seen {
            assert_ne!(d, *od, "{name} and {other} collide on one digest");
        }
        seen.push((name, d));
    }
}

#[test]
fn seed_is_digest_neutral() {
    // The digest keys *compiled artifacts*; the seed only feeds the
    // runtime PRNG, so re-running a job with a new seed must hit the
    // compile cache.
    let base = QuapeConfig::uniprocessor();
    assert_eq!(
        base.clone().with_seed(12345).content_digest(),
        base.content_digest()
    );
}
