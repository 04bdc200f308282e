//! Property tests: every valid instruction survives binary encoding and
//! text assembly roundtrips, programs with random block structure
//! survive print → parse with their digest, and the digest tells
//! programs apart.

mod strategies;

use proptest::prelude::*;
use quape_isa::{
    assemble, decode, encode, BlockInfo, BlockInfoTable, Dependency, Instruction, Program,
};
use strategies::{arb_blocked_program, arb_instruction, arb_program, clamp_target};

proptest! {
    #[test]
    fn binary_roundtrip(instr in arb_instruction()) {
        let word = encode(&instr).expect("valid instruction encodes");
        let back = decode(word).expect("encoded word decodes");
        prop_assert_eq!(back, instr);
    }

    #[test]
    fn text_roundtrip_single_instruction(instr in arb_instruction()) {
        // Render a one-instruction program and parse it back. Control
        // transfers print numeric targets, so clamp them in range first.
        let instr = match instr {
            Instruction::Classical(op) => {
                Instruction::Classical(if op.target().is_some() { op.with_target(0) } else { op })
            }
            q => q,
        };
        let text = format!("{instr}\n");
        let p = assemble(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        prop_assert_eq!(p.instructions(), &[instr]);
    }

    #[test]
    fn program_print_parse_roundtrip(p in arb_blocked_program()) {
        let text = p.to_string();
        let q = assemble(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(q.digest(), p.digest());
        prop_assert_eq!(p, q);
    }

    #[test]
    fn replacing_an_instruction_changes_the_digest(
        p in arb_program(),
        at in any::<usize>(),
        replacement in arb_instruction(),
    ) {
        let mut instrs = p.instructions().to_vec();
        let at = at % instrs.len();
        let replacement = clamp_target(replacement, instrs.len());
        if instrs[at] != replacement {
            instrs[at] = replacement;
            let q = Program::new(instrs).expect("targets clamped in range");
            prop_assert_ne!(q.digest(), p.digest());
        }
    }

    #[test]
    fn encoded_words_survive_program_reload(
        instrs in proptest::collection::vec(arb_instruction(), 1..100)
    ) {
        // Strip control transfers that would point outside the program.
        let len = instrs.len() as u32;
        let instrs: Vec<Instruction> = instrs
            .into_iter()
            .map(|i| match i {
                Instruction::Classical(op) if op.target().is_some() => {
                    Instruction::Classical(op.with_target(op.target().unwrap() % len))
                }
                other => other,
            })
            .collect();
        let p = Program::new(instrs).expect("targets clamped in range");
        let words = p.encode_all().expect("all instructions encode");
        let q = Program::from_words(&words).expect("all words decode");
        prop_assert_eq!(p.instructions(), q.instructions());
    }
}

#[test]
fn block_table_rejects_mixed_modes_always() {
    let mut t = BlockInfoTable::new();
    t.push(BlockInfo::new("a", 0..1, Dependency::Priority(0)))
        .unwrap();
    assert!(t
        .push(BlockInfo::new("b", 1..2, Dependency::none()))
        .is_err());
}
