//! Agreement audit for the two qubit-counting paths.
//!
//! The router's capability gate counts qubits two ways: structurally
//! ([`Program::num_qubits`], reducing [`Instruction::referenced_qubits`]
//! with `qubit_span`) for already-assembled programs, and lexically
//! ([`scan_qubit_count`], same `qubit_span` reduction over `q<digits>`
//! tokens) for wire text it refuses to pay a parse for. Both must agree
//! on the round-trip text of **every** program generator in this crate —
//! a disagreement would let a shard accept a job it cannot address, or
//! reject one it could serve.

use quape_isa::{assemble, scan_qubit_count, Instruction, Program};
use quape_qpu::CliffordGroup;
use quape_workloads::dynamic::teleportation;
use quape_workloads::feedback::{
    conditional_x, conditional_x_mrce, feedback_chain, mrce_feedback_chain, parallel_rus, rus_block,
};
use quape_workloads::multiprogramming::combine;
use quape_workloads::pulse::pulse_train;
use quape_workloads::qec::{repetition_code_program, QecConfig};
use quape_workloads::rb::{active_reset, rb_program, simrb_program};
use quape_workloads::traffic::{hot_tenant_traffic, mixed_traffic, program_pool, sharded_traffic};
use quape_workloads::{ShorSyndrome, ShorSyndromeConfig};

/// Every Program-producing generator in the crate, labelled.
fn generated_programs() -> Vec<(String, Program)> {
    let group = CliffordGroup::new();
    let mut programs = vec![
        ("conditional_x".into(), conditional_x(2).unwrap()),
        ("conditional_x_mrce".into(), conditional_x_mrce(3).unwrap()),
        ("feedback_chain".into(), feedback_chain(0, 40).unwrap()),
        (
            "mrce_feedback_chain".into(),
            mrce_feedback_chain(1, 10).unwrap(),
        ),
        ("rus_block".into(), rus_block(4).unwrap()),
        ("parallel_rus".into(), parallel_rus(0, 5).unwrap()),
        ("pulse_train".into(), pulse_train(10, 4).unwrap()),
        ("teleportation".into(), teleportation(0, 1, 2).unwrap()),
        (
            "repetition_code".into(),
            repetition_code_program(QecConfig::default()).unwrap(),
        ),
        (
            "shor_syndrome".into(),
            ShorSyndrome::generate(ShorSyndromeConfig::default())
                .unwrap()
                .program,
        ),
        ("active_reset".into(), active_reset(1).unwrap()),
        (
            "rb_program".into(),
            rb_program(&group, 0, 8, 11).unwrap().program,
        ),
        (
            "simrb_program".into(),
            simrb_program(&group, 0, 1, 8, 11).unwrap(),
        ),
    ];
    let combined = combine(&[feedback_chain(0, 3).unwrap(), pulse_train(2, 2).unwrap()]).unwrap();
    programs.push(("multiprogramming_combine".into(), combined));
    for (name, program) in program_pool() {
        programs.push((format!("pool_{name}"), program));
    }
    programs
}

#[test]
fn structural_and_lexical_counts_agree_on_every_generator() {
    for (name, program) in generated_programs() {
        let structural = program.num_qubits();
        let lexical = scan_qubit_count(&program.to_string());
        assert_eq!(
            structural, lexical,
            "{name}: Program::num_qubits ({structural}) disagrees with \
             scan_qubit_count ({lexical}) on its round-trip text"
        );
        // And re-assembling the text lands on the same structural count.
        let reassembled = assemble(&program.to_string()).unwrap_or_else(|e| {
            panic!("{name}: round-trip text does not re-assemble: {e}");
        });
        assert_eq!(reassembled.num_qubits(), structural, "{name}: re-assembly");
    }
}

#[test]
fn traffic_streams_agree_between_scan_and_assembly() {
    let mut requests = mixed_traffic(7, 48);
    requests.extend(sharded_traffic(7, 48, 12));
    requests.extend(hot_tenant_traffic(7, 8, 8));
    assert!(!requests.is_empty());
    for req in requests {
        let program = assemble(&req.source).expect("traffic sources assemble");
        assert_eq!(
            scan_qubit_count(&req.source),
            program.num_qubits(),
            "request {}: wire-text scan disagrees with the assembled count",
            req.name
        );
    }
}

#[test]
fn num_qubits_covers_classical_readout_references() {
    // FMR and MRCE reference qubits from the *classical* pipeline; the
    // structural count must include them even when no quantum
    // instruction touches the qubit (regression guard for the shared
    // referenced_qubits enumeration).
    let program = conditional_x_mrce(5).unwrap();
    assert!(program
        .instructions()
        .iter()
        .any(|i| matches!(i, Instruction::Classical(_) if i.referenced_qubits().next().is_some())));
    assert_eq!(program.num_qubits(), 6);
}
