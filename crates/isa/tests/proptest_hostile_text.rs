//! Property tests over hostile wire text: generated valid programs with
//! a few characters inserted, deleted or replaced, and arbitrary char
//! soup. Neither the assembler nor the lexical qubit scan may panic, and
//! whatever the assembler accepts must print back to itself and must not
//! be wider than the scan says (placement trusts the scan to err toward
//! refusing a shard).

mod strategies;

use proptest::prelude::*;
use quape_isa::{assemble, scan_qubit_count};
use strategies::{arb_blocked_program, arb_program};

/// Separators, operand syntax, digits, a qubit prefix, a non-ASCII
/// letter, Unicode whitespace (NBSP, ideographic space) and a bare `\r`.
const HOSTILE: [char; 16] = [
    '#', ';', ',', ':', '.', '+', '0', '1', '7', '9', 'q', 'é', '\u{a0}', '\u{3000}', '\r', ' ',
];

fn arb_hostile_char() -> impl Strategy<Value = char> {
    proptest::sample::select(HOSTILE.to_vec())
}

fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        3 => arb_hostile_char(),
        3 => (0x20u8..0x7f).prop_map(char::from),
        1 => Just('\n'),
        1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

/// One edit: `(kind, position, char)` — insert, delete or replace at
/// `position` modulo the text length.
fn arb_edit() -> impl Strategy<Value = (u8, usize, char)> {
    (0u8..3, any::<usize>(), arb_hostile_char())
}

fn mutate(text: &str, edits: &[(u8, usize, char)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(kind, at, c) in edits {
        match kind {
            0 => chars.insert(at % (chars.len() + 1), c),
            _ if chars.is_empty() => {}
            1 => {
                chars.remove(at % chars.len());
            }
            _ => {
                let n = chars.len();
                chars[at % n] = c;
            }
        }
    }
    chars.into_iter().collect()
}

/// The contract every input must meet (a panic in either call fails the
/// test with the input in its message).
fn check(text: &str) {
    let scanned = scan_qubit_count(text);
    if let Ok(p) = assemble(text) {
        assert_eq!(assemble(&p.to_string()), Ok(p.clone()), "{text:?}");
        assert!(
            scanned >= p.num_qubits(),
            "scan {scanned} < {} qubits assembled from {text:?}",
            p.num_qubits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_programs_never_panic_or_under_count(
        p in arb_program(),
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        check(&mutate(&p.to_string(), &edits));
    }

    #[test]
    fn mutated_blocked_programs_never_panic_or_under_count(
        p in arb_blocked_program(),
        edits in proptest::collection::vec(arb_edit(), 1..4),
    ) {
        check(&mutate(&p.to_string(), &edits));
    }

    #[test]
    fn arbitrary_chars_never_panic_or_under_count(
        chars in proptest::collection::vec(arb_char(), 0..80),
    ) {
        check(&chars.into_iter().collect::<String>());
    }
}

#[test]
fn unicode_whitespace_separates_like_ascii() {
    let text = "\u{3000}0\u{a0}H\u{2003}q5,\u{b}\n\u{b}STOP\u{2028}\n";
    let p = assemble(text).expect("Unicode whitespace is whitespace");
    assert_eq!(p, assemble("0 H q5\nSTOP\n").expect("plain text"));
    assert_eq!(scan_qubit_count(text), 6);
}
