//! Text assembler for the timed-QASM syntax used throughout the paper.
//!
//! Grammar (one statement per line; `#` and `;` start comments):
//!
//! ```text
//! label:                       bind a label to the next address
//! .block w3 deps=w1,w2         open a block with direct dependencies
//! .block w3 deps=none          open a block with no dependencies
//! .block w3 prio=1             open a block with a priority dependency
//! .endblock                    close the open block
//! .step 4                      tag following instructions as circuit step 4
//! .step none                   stop tagging
//! 0 H q0                       quantum: <timing> <gate> <qubits>
//! 1 CNOT q0, q1
//! 2 RX[8] q5                   rotation with 5-bit waveform index
//! 3 MEAS q2
//! FMR r0, q2                   classical instructions use mnemonics
//! BR EQ, label                 branch targets may be labels or numbers
//! MRCE q0, q1, X, NONE         fast-context-switch conditional
//! ```

use crate::gate::{Angle, CondOp, Gate1, Gate2};
use crate::instruction::{ClassicalOp, Cond, Instruction, QuantumOp};
use crate::program::{Program, ProgramBuilder, ProgramError, StepId};
use crate::types::{Cycles, Qubit, Reg, SharedReg};
use std::fmt;

/// An assembly error with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl AsmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        AsmError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

impl From<ProgramError> for AsmError {
    fn from(e: ProgramError) -> Self {
        AsmError {
            line: 0,
            message: e.to_string(),
        }
    }
}

/// Assembles timed-QASM text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] carrying the offending line number for syntax
/// errors, unknown mnemonics, malformed operands, undefined labels, or
/// invalid block structure.
///
/// ```
/// use quape_isa::assemble;
/// let p = assemble("0 X q0\n1 MEAS q0\nSTOP\n")?;
/// assert_eq!(p.len(), 3);
/// # Ok::<(), quape_isa::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut b = ProgramBuilder::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        parse_line(&mut b, line, line_no)?;
    }
    b.finish().map_err(AsmError::from)
}

fn strip_comment(line: &str) -> &str {
    let cut = line.find(['#', ';']).unwrap_or(line.len());
    &line[..cut]
}

/// Lexically scans timed-QASM text for the number of qubits it touches —
/// one past the highest `q<digits>` operand token — **without**
/// assembling it. A capability-aware placement layer uses this to match
/// a wire-format request against per-shard qubit capacities before
/// paying for a parse (requests are only assembled on compile-cache
/// misses, and the scan must not change that).
///
/// The scan is a heuristic twin of [`Program::num_qubits`] — both reduce
/// their qubit references with the one audited counting rule,
/// [`qubit_span`](crate::qubit_span). A token counts when `q` starts at
/// a word boundary, is followed by digits only up to the next
/// non-alphanumeric character, and the line is not a comment. On text
/// produced by [`Program`]'s display (the round-trip format every
/// generator in this workspace emits) it is exact; on hand-written text
/// a `q`-prefixed label could over-count, which errs toward *rejecting*
/// a shard, never toward a silent capacity overrun.
///
/// ```
/// use quape_isa::scan_qubit_count;
/// assert_eq!(scan_qubit_count("0 H q0\n1 CNOT q0, q3\nSTOP\n"), 4);
/// assert_eq!(scan_qubit_count("STOP\n"), 0);
/// ```
pub fn scan_qubit_count(source: &str) -> u16 {
    crate::qubit_span(source.lines().flat_map(scan_line_qubit_indices))
}

/// The qubit indices a single line of wire text references, lexically:
/// every word-boundary `q<digits>` token outside a comment.
fn scan_line_qubit_indices(raw: &str) -> Vec<u16> {
    let line = strip_comment(raw);
    let bytes = line.as_bytes();
    let mut indices = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let at_boundary = i == 0 || !bytes[i - 1].is_ascii_alphanumeric() && bytes[i - 1] != b'_';
        if at_boundary && (bytes[i] == b'q' || bytes[i] == b'Q') {
            let start = i + 1;
            let mut end = start;
            while end < bytes.len() && bytes[end].is_ascii_digit() {
                end += 1;
            }
            let terminated =
                end == bytes.len() || !bytes[end].is_ascii_alphanumeric() && bytes[end] != b'_';
            if end > start && terminated {
                if let Ok(index) = line[start..end].parse::<u16>() {
                    indices.push(index);
                }
            }
            i = end;
        } else {
            i += 1;
        }
    }
    indices
}

fn parse_line(b: &mut ProgramBuilder, line: &str, no: usize) -> Result<(), AsmError> {
    if let Some(rest) = line.strip_prefix('.') {
        return parse_directive(b, rest, no);
    }
    // `label:` optionally followed by an instruction.
    if let Some(colon) = line.find(':') {
        let (name, rest) = line.split_at(colon);
        if is_identifier(name) {
            b.label(name);
            let rest = rest[1..].trim();
            if rest.is_empty() {
                return Ok(());
            }
            return parse_instruction(b, rest, no);
        }
    }
    parse_instruction(b, line, no)
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_directive(b: &mut ProgramBuilder, rest: &str, no: usize) -> Result<(), AsmError> {
    let mut parts = rest.split_whitespace();
    match parts.next() {
        Some("block") => {
            let name = parts
                .next()
                .ok_or_else(|| AsmError::new(no, ".block requires a name"))?
                .to_string();
            let spec = parts.next().unwrap_or("deps=none");
            if let Some(p) = spec.strip_prefix("prio=") {
                let prio: u16 = p
                    .parse()
                    .map_err(|_| AsmError::new(no, format!("bad priority `{p}`")))?;
                b.begin_block(name, crate::Dependency::Priority(prio));
            } else if let Some(d) = spec.strip_prefix("deps=") {
                if d.eq_ignore_ascii_case("none") {
                    b.begin_block(name, crate::Dependency::none());
                } else {
                    let deps: Vec<&str> = d.split(',').collect();
                    for dep in &deps {
                        if !b.has_block(dep) {
                            return Err(AsmError::new(no, format!("unknown dependency in `{d}`")));
                        }
                    }
                    b.begin_block_named_deps(name, &deps);
                }
            } else {
                return Err(AsmError::new(no, format!("bad block spec `{spec}`")));
            }
            Ok(())
        }
        Some("endblock") => {
            b.end_block();
            Ok(())
        }
        Some("step") => {
            let arg = parts
                .next()
                .ok_or_else(|| AsmError::new(no, ".step requires an argument"))?;
            if arg.eq_ignore_ascii_case("none") {
                b.set_step(None);
            } else {
                let s: u32 = arg
                    .parse()
                    .map_err(|_| AsmError::new(no, format!("bad step `{arg}`")))?;
                b.set_step(Some(StepId(s)));
            }
            Ok(())
        }
        Some(other) => Err(AsmError::new(no, format!("unknown directive `.{other}`"))),
        None => Err(AsmError::new(no, "empty directive")),
    }
}

fn parse_instruction(b: &mut ProgramBuilder, line: &str, no: usize) -> Result<(), AsmError> {
    let (head, rest) = split_head(line);
    // A line starting with an integer is a quantum instruction.
    if let Ok(timing) = head.parse::<u32>() {
        if timing > crate::MAX_TIMING {
            return Err(AsmError::new(
                no,
                format!(
                    "timing label {timing} exceeds {} (use QWAIT)",
                    crate::MAX_TIMING
                ),
            ));
        }
        let op = parse_quantum_op(rest.trim(), no)?;
        b.push(Instruction::quantum(timing, op));
        return Ok(());
    }
    parse_classical(b, &head.to_ascii_uppercase(), rest.trim(), no)
}

fn split_head(line: &str) -> (&str, &str) {
    match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

fn operands(rest: &str) -> Vec<&str> {
    rest.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_qubit(tok: &str, no: usize) -> Result<Qubit, AsmError> {
    let idx = tok
        .strip_prefix(['q', 'Q'])
        .and_then(|n| n.parse::<u16>().ok())
        .ok_or_else(|| AsmError::new(no, format!("expected qubit operand, got `{tok}`")))?;
    if usize::from(idx) >= crate::MAX_QUBITS {
        return Err(AsmError::new(
            no,
            format!(
                "qubit `{tok}` out of range (max q{})",
                crate::MAX_QUBITS - 1
            ),
        ));
    }
    Ok(Qubit::new(idx))
}

fn parse_reg(tok: &str, no: usize) -> Result<Reg, AsmError> {
    let idx = tok
        .strip_prefix(['r', 'R'])
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| (n as usize) < crate::REG_COUNT)
        .ok_or_else(|| AsmError::new(no, format!("expected register operand, got `{tok}`")))?;
    Ok(Reg::new(idx))
}

fn parse_sreg(tok: &str, no: usize) -> Result<SharedReg, AsmError> {
    let idx = tok
        .strip_prefix(['s', 'S'])
        .and_then(|n| n.parse::<u8>().ok())
        .filter(|&n| (n as usize) < crate::SHARED_REG_COUNT)
        .ok_or_else(|| AsmError::new(no, format!("expected shared register, got `{tok}`")))?;
    Ok(SharedReg::new(idx))
}

fn parse_imm(tok: &str, no: usize) -> Result<i16, AsmError> {
    tok.parse::<i16>()
        .map_err(|_| AsmError::new(no, format!("bad immediate `{tok}`")))
}

fn parse_quantum_op(rest: &str, no: usize) -> Result<QuantumOp, AsmError> {
    let (mnem, ops_text) = split_head(rest);
    let mnem_upper = mnem.to_ascii_uppercase();
    let ops = operands(ops_text);

    // Rotations: RX[k] / RY[k] / RZ[k].
    if let Some(idx_part) = mnem_upper
        .strip_prefix("RX[")
        .or_else(|| mnem_upper.strip_prefix("RY["))
        .or_else(|| mnem_upper.strip_prefix("RZ["))
    {
        let axis = &mnem_upper[..2];
        let k: u8 = idx_part
            .strip_suffix(']')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| AsmError::new(no, format!("bad rotation index in `{mnem}`")))?;
        if k >= Angle::STEPS {
            return Err(AsmError::new(
                no,
                format!("rotation index {k} out of range"),
            ));
        }
        let gate = match axis {
            "RX" => Gate1::Rx(Angle::new(k)),
            "RY" => Gate1::Ry(Angle::new(k)),
            _ => Gate1::Rz(Angle::new(k)),
        };
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Gate1(gate, parse_qubit(q, no)?));
    }

    let gate1 = match mnem_upper.as_str() {
        "I" => Some(Gate1::I),
        "X" => Some(Gate1::X),
        "Y" => Some(Gate1::Y),
        "Z" => Some(Gate1::Z),
        "H" => Some(Gate1::H),
        "S" => Some(Gate1::S),
        "SDG" => Some(Gate1::Sdg),
        "T" => Some(Gate1::T),
        "TDG" => Some(Gate1::Tdg),
        "X90" => Some(Gate1::X90),
        "XM90" => Some(Gate1::Xm90),
        "Y90" => Some(Gate1::Y90),
        "YM90" => Some(Gate1::Ym90),
        "RESET" => Some(Gate1::Reset),
        _ => None,
    };
    if let Some(g) = gate1 {
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Gate1(g, parse_qubit(q, no)?));
    }

    let gate2 = match mnem_upper.as_str() {
        "CNOT" => Some(Gate2::Cnot),
        "CZ" => Some(Gate2::Cz),
        "SWAP" => Some(Gate2::Swap),
        _ => None,
    };
    if let Some(g) = gate2 {
        if ops.len() != 2 {
            return Err(AsmError::new(
                no,
                format!("{mnem} requires two qubit operands"),
            ));
        }
        return Ok(QuantumOp::Gate2(
            g,
            parse_qubit(ops[0], no)?,
            parse_qubit(ops[1], no)?,
        ));
    }

    if mnem_upper == "MEAS" || mnem_upper == "MEASURE" {
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Measure(parse_qubit(q, no)?));
    }

    Err(AsmError::new(
        no,
        format!("unknown quantum mnemonic `{mnem}`"),
    ))
}

fn single_operand<'a>(ops: &[&'a str], no: usize) -> Result<&'a str, AsmError> {
    if ops.len() == 1 {
        Ok(ops[0])
    } else {
        Err(AsmError::new(
            no,
            format!("expected one operand, got {}", ops.len()),
        ))
    }
}

fn parse_cond(tok: &str, no: usize) -> Result<Cond, AsmError> {
    Cond::ALL
        .into_iter()
        .find(|c| c.mnemonic().eq_ignore_ascii_case(tok))
        .ok_or_else(|| AsmError::new(no, format!("unknown condition `{tok}`")))
}

fn parse_condop(tok: &str, no: usize) -> Result<CondOp, AsmError> {
    CondOp::ALL
        .into_iter()
        .find(|c| c.mnemonic().eq_ignore_ascii_case(tok))
        .ok_or_else(|| AsmError::new(no, format!("unknown conditional op `{tok}`")))
}

/// Either a numeric address or a label reference.
fn parse_target(
    b: &mut ProgramBuilder,
    tok: &str,
    cond: Option<Cond>,
    call: bool,
    no: usize,
) -> Result<(), AsmError> {
    if let Ok(addr) = tok.parse::<u32>() {
        let op = match (cond, call) {
            (Some(c), _) => ClassicalOp::Br {
                cond: c,
                target: addr,
            },
            (None, true) => ClassicalOp::Call { target: addr },
            (None, false) => ClassicalOp::Jmp { target: addr },
        };
        b.push(op);
        Ok(())
    } else if is_identifier(tok) {
        match (cond, call) {
            (Some(c), _) => b.br_to(c, tok),
            (None, true) => b.call_to(tok),
            (None, false) => b.jmp_to(tok),
        };
        Ok(())
    } else {
        Err(AsmError::new(
            no,
            format!("bad control-transfer target `{tok}`"),
        ))
    }
}

fn parse_classical(
    b: &mut ProgramBuilder,
    mnem: &str,
    rest: &str,
    no: usize,
) -> Result<(), AsmError> {
    let ops = operands(rest);
    let wrong_arity = |n: usize| {
        AsmError::new(
            no,
            format!("{mnem} expects {n} operand(s), got {}", ops.len()),
        )
    };
    match mnem {
        "NOP" => {
            b.push(ClassicalOp::Nop);
        }
        "STOP" => {
            b.push(ClassicalOp::Stop);
        }
        "HALT" => {
            b.push(ClassicalOp::Halt);
        }
        "RET" => {
            b.push(ClassicalOp::Ret);
        }
        "JMP" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, false, no)?;
        }
        "CALL" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, true, no)?;
        }
        "BR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            let cond = parse_cond(ops[0], no)?;
            parse_target(b, ops[1], Some(cond), false, no)?;
        }
        "LDI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Ldi {
                rd: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        "MOV" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Mov {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        "ADD" | "SUB" | "AND" | "OR" | "XOR" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            let rd = parse_reg(ops[0], no)?;
            let rs1 = parse_reg(ops[1], no)?;
            let rs2 = parse_reg(ops[2], no)?;
            b.push(match mnem {
                "ADD" => ClassicalOp::Add { rd, rs1, rs2 },
                "SUB" => ClassicalOp::Sub { rd, rs1, rs2 },
                "AND" => ClassicalOp::And { rd, rs1, rs2 },
                "OR" => ClassicalOp::Or { rd, rs1, rs2 },
                _ => ClassicalOp::Xor { rd, rs1, rs2 },
            });
        }
        "ADDI" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            b.push(ClassicalOp::Addi {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
                imm: parse_imm(ops[2], no)?,
            });
        }
        "NOT" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Not {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        "CMP" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmp {
                rs1: parse_reg(ops[0], no)?,
                rs2: parse_reg(ops[1], no)?,
            });
        }
        "CMPI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmpi {
                rs: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        "FMR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Fmr {
                rd: parse_reg(ops[0], no)?,
                qubit: parse_qubit(ops[1], no)?,
            });
        }
        "QWAIT" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            let cycles: u32 = ops[0]
                .parse()
                .map_err(|_| AsmError::new(no, format!("bad QWAIT operand `{}`", ops[0])))?;
            b.push(ClassicalOp::Qwait {
                cycles: Cycles::new(cycles),
            });
        }
        "LDS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Lds {
                rd: parse_reg(ops[0], no)?,
                sreg: parse_sreg(ops[1], no)?,
            });
        }
        "STS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Sts {
                sreg: parse_sreg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        "MRCE" => {
            if ops.len() != 4 {
                return Err(wrong_arity(4));
            }
            b.push(ClassicalOp::Mrce {
                qubit: parse_qubit(ops[0], no)?,
                target: parse_qubit(ops[1], no)?,
                op_if_one: parse_condop(ops[2], no)?,
                op_if_zero: parse_condop(ops[3], no)?,
            });
        }
        other => return Err(AsmError::new(no, format!("unknown mnemonic `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Dependency;

    #[test]
    fn paper_listing_parses() {
        // The exact three-line example from §2.2 of the paper.
        let p = assemble("0 H q0\n0 H q1\n1 CNOT q0, q1\n").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.instruction(2).to_string(), "1 CNOT q0, q1");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = assemble("# heading\n\n0 X q0   ; trailing\n   \nHALT\n").unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn labels_forward_and_backward() {
        let p = assemble("top:\n0 X q0\nBR NE, top\nJMP end\nNOP\nend: HALT\n").unwrap();
        match p.instruction(1) {
            Instruction::Classical(ClassicalOp::Br { target, .. }) => assert_eq!(*target, 0),
            other => panic!("unexpected {other}"),
        }
        match p.instruction(2) {
            Instruction::Classical(ClassicalOp::Jmp { target }) => assert_eq!(*target, 4),
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn blocks_with_priorities_and_deps() {
        let src = "\
.block w1 prio=0
0 H q0
STOP
.endblock
.block w2 prio=0
0 H q1
STOP
.endblock
.block w3 prio=1
0 CNOT q0, q1
STOP
.endblock
";
        let p = assemble(src).unwrap();
        assert_eq!(p.blocks().len(), 3);
        assert_eq!(
            p.blocks().get(crate::BlockId(2)).unwrap().dependency,
            Dependency::Priority(1)
        );
    }

    #[test]
    fn direct_deps_resolve_by_name() {
        let src = "\
.block w1 deps=none
0 H q0
.endblock
.block w2 deps=w1
0 H q1
.endblock
";
        let p = assemble(src).unwrap();
        assert_eq!(
            p.blocks().get(crate::BlockId(1)).unwrap().dependency,
            Dependency::Direct(vec![crate::BlockId(0)])
        );
    }

    #[test]
    fn step_directive_tags_instructions() {
        let p = assemble(".step 0\n0 H q0\n.step 1\n0 H q1\n.step none\nHALT\n").unwrap();
        assert_eq!(p.step_of(0), Some(StepId(0)));
        assert_eq!(p.step_of(1), Some(StepId(1)));
        assert_eq!(p.step_of(2), None);
    }

    #[test]
    fn mrce_parses() {
        let p = assemble("MRCE q0, q1, X, NONE\n").unwrap();
        match p.instruction(0) {
            Instruction::Classical(ClassicalOp::Mrce {
                op_if_one,
                op_if_zero,
                ..
            }) => {
                assert_eq!(*op_if_one, CondOp::X);
                assert_eq!(*op_if_zero, CondOp::None);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rotation_indices_parse() {
        let p = assemble("0 RX[8] q0\n1 RZ[31] q1\n").unwrap();
        assert_eq!(p.instruction(0).to_string(), "0 RX[8] q0");
        assert_eq!(p.instruction(1).to_string(), "1 RZ[31] q1");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("0 X q0\nBOGUS r1\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = assemble("0 FLIP q0\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("FLIP"));
    }

    #[test]
    fn qubit_indices_are_bounded_by_max_qubits() {
        let p = assemble("0 H q127\nSTOP\n").unwrap();
        assert_eq!(p.num_qubits(), 128);
        for text in ["0 H q0\n0 X q128\n", "0 H q0\n0 X q65535\n"] {
            let err = assemble(text).unwrap_err();
            assert_eq!(err.line, 2, "{text:?}");
            assert!(err.message.contains("out of range"), "{}", err.message);
        }
        // Every qubit operand position goes through the same check.
        assert_eq!(assemble("0 CNOT q0, q200\n").unwrap_err().line, 1);
        assert_eq!(assemble("FMR r0, q128\n").unwrap_err().line, 1);
    }

    #[test]
    fn timing_too_large_is_rejected_with_hint() {
        let err = assemble("200 X q0\n").unwrap_err();
        assert!(err.message.contains("QWAIT"));
    }

    #[test]
    fn wrong_arity_reported() {
        let err = assemble("MOV r1\n").unwrap_err();
        assert!(err.message.contains("expects 2"));
        let err = assemble("0 CNOT q0\n").unwrap_err();
        assert!(err.message.contains("two qubit operands"));
    }

    #[test]
    fn unknown_dependency_reported() {
        let err = assemble(".block w2 deps=w1\n0 H q0\n.endblock\n").unwrap_err();
        assert!(err.message.contains("unknown dependency"));
    }
}
