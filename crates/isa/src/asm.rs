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
    let mut b = ProgramBuilder::with_capacity(instruction_bound(source));
    for (idx, code) in code_lines(source).enumerate() {
        let line_no = idx + 1;
        let line = trim(code);
        if line.is_empty() {
            continue;
        }
        parse_line(&mut b, line, line_no)?;
    }
    b.finish().map_err(AsmError::from)
}

/// The shortest text that holds an instruction: `NOP` and its line end.
const MIN_INSTRUCTION_BYTES: usize = 4;

/// How many instructions `source` can assemble to, for sizing the
/// builder: no line pushes more than one, and no instruction is shorter
/// than [`MIN_INSTRUCTION_BYTES`]. The second bound keeps text of blank
/// or comment lines from reserving more than 8 bytes of instruction and
/// step-map slots (32 bytes per instruction) per byte of text.
fn instruction_bound(source: &str) -> usize {
    // Counted in 128-byte chunks, whose byte-wide sums cannot overflow
    // and which the compiler vectorizes (a plain `filter().count()` runs
    // byte by byte, about 20 times slower).
    let ends: usize = source
        .as_bytes()
        .chunks(128)
        .map(|chunk| usize::from(chunk.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum();
    let lines = ends + usize::from(!source.ends_with('\n'));
    lines.min(source.len() / MIN_INSTRUCTION_BYTES + 1)
}

/// The lines of `source` (split as [`str::lines`] splits them; a `\r`
/// before the `\n` is left to [`trim`]) with their comments cut: each
/// line up to its first `#` or `;`. One forward pass finds both the
/// comment and the line end; all three bytes are ASCII, so every cut is
/// a char boundary.
fn code_lines(source: &str) -> impl Iterator<Item = &str> {
    let mut rest = source;
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let bytes = rest.as_bytes();
        let stop = bytes
            .iter()
            .position(|&b| matches!(b, b'\n' | b'#' | b';'))
            .unwrap_or(bytes.len());
        let code = &rest[..stop];
        let end = match bytes.get(stop) {
            Some(b'\n') | None => stop,
            Some(_) => bytes[stop..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |n| stop + n),
        };
        rest = rest.get(end + 1..).unwrap_or("");
        Some(code)
    })
}

/// The ASCII bytes [`char::is_whitespace`] accepts
/// ([`u8::is_ascii_whitespace`] leaves out the vertical tab).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0b' | b'\x0c' | b'\r')
}

/// [`str::trim_start`]: ASCII whitespace is skipped bytewise, and only a
/// non-ASCII char after it falls back to `str::trim_start` for the
/// Unicode whitespace set.
fn trim_start(s: &str) -> &str {
    let start = s
        .bytes()
        .position(|b| !is_ascii_space(b))
        .unwrap_or(s.len());
    let t = &s[start..];
    if t.bytes().next().is_some_and(|b| !b.is_ascii()) {
        t.trim_start()
    } else {
        t
    }
}

/// [`str::trim`], with both ends handled as in [`trim_start`].
fn trim(s: &str) -> &str {
    let s = trim_start(s);
    let end = s
        .bytes()
        .rposition(|b| !is_ascii_space(b))
        .map_or(0, |i| i + 1);
    let t = &s[..end];
    if t.bytes().next_back().is_some_and(|b| !b.is_ascii()) {
        t.trim_end()
    } else {
        t
    }
}

/// Lexically scans timed-QASM text for the number of qubits it touches —
/// one past the highest `q<digits>` operand token — **without**
/// assembling it. A capability-aware placement layer uses this to match
/// a wire-format request against per-shard qubit capacities before
/// paying for a parse (requests are only assembled on compile-cache
/// misses, and the scan must not change that).
///
/// It runs on every submit, cache hits included, so it is one forward
/// pass over the bytes with no allocation: a few nanoseconds per byte.
///
/// The scan is a heuristic twin of [`Program::num_qubits`] — both reduce
/// their qubit references with the one audited counting rule,
/// [`qubit_span`](crate::qubit_span). A token counts when `q` starts at
/// a word boundary, is followed by digits only up to the next
/// non-alphanumeric character, and the line is not a comment. On text
/// produced by [`Program`]'s display (the round-trip format every
/// generator in this workspace emits) it is exact. On any text
/// [`assemble`] accepts it is at least the program's count: a
/// `q`-prefixed label can over-count, which errs toward *rejecting* a
/// shard, never toward a silent capacity overrun. An index too large for
/// `u16` saturates the count at `u16::MAX`, so an out-of-range operand
/// such as `q70000` reads as wider than [`MAX_QUBITS`](crate::MAX_QUBITS),
/// as `q128` does, and no shard can claim it.
///
/// ```
/// use quape_isa::scan_qubit_count;
/// assert_eq!(scan_qubit_count("0 H q0\n1 CNOT q0, q3\nSTOP\n"), 4);
/// assert_eq!(scan_qubit_count("STOP\n"), 0);
/// assert_eq!(scan_qubit_count("0 H q70000\n"), u16::MAX);
/// ```
pub fn scan_qubit_count(source: &str) -> u16 {
    crate::qubit_span(QubitTokens {
        text: source.as_bytes(),
        at: 0,
    })
}

/// The indices of the word-boundary `q<digits>` tokens of wire text that
/// lie outside comments, in one forward pass over its bytes.
struct QubitTokens<'a> {
    text: &'a [u8],
    at: usize,
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl Iterator for QubitTokens<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        let text = self.text;
        while let Some(&b) = text.get(self.at) {
            let i = self.at;
            match b {
                // A comment runs to the end of its line.
                b'#' | b';' => {
                    self.at = text[i..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(text.len(), |n| i + n);
                }
                b'q' | b'Q' if i == 0 || !is_word_byte(text[i - 1]) => {
                    let digits = &text[i + 1..];
                    let digits =
                        &digits[..digits.iter().take_while(|d| d.is_ascii_digit()).count()];
                    self.at = i + 1 + digits.len();
                    if !digits.is_empty() && text.get(self.at).is_none_or(|&c| !is_word_byte(c)) {
                        return Some(u16::try_from(digits_value(digits)).unwrap_or(u16::MAX));
                    }
                }
                _ => self.at += 1,
            }
        }
        None
    }
}

fn parse_line(b: &mut ProgramBuilder, line: &str, no: usize) -> Result<(), AsmError> {
    if let Some(rest) = line.strip_prefix('.') {
        return parse_directive(b, rest, no);
    }
    // `label:` optionally followed by an instruction. A label is an
    // identifier, so only an identifier-char prefix can end at the colon.
    let name_len = line
        .bytes()
        .position(|c| !is_word_byte(c))
        .unwrap_or(line.len());
    if line.as_bytes().get(name_len) == Some(&b':') && is_identifier(&line[..name_len]) {
        b.label(&line[..name_len]);
        let rest = trim(&line[name_len + 1..]);
        if rest.is_empty() {
            return Ok(());
        }
        return parse_instruction(b, rest, no);
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
            if b.in_block() {
                return Err(AsmError::new(
                    no,
                    "nested .block (close the open one with .endblock)",
                ));
            }
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
    let (head, rest) = split_word(line);
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
        let op = parse_quantum_op(rest, no)?;
        b.push(Instruction::quantum(timing, op));
        return Ok(());
    }
    parse_classical(b, head, rest, no)
}

/// Splits a trimmed `line` at its first whitespace char into the word
/// before it and the rest after the whitespace run. ASCII bytes are
/// classified bytewise, and the first non-ASCII byte hands the remainder
/// to [`char::is_whitespace`].
fn split_word(line: &str) -> (&str, &str) {
    let at = match line
        .bytes()
        .position(|b| is_ascii_space(b) || !b.is_ascii())
    {
        Some(i) if !line.as_bytes()[i].is_ascii() => {
            line[i..].find(char::is_whitespace).map(|n| i + n)
        }
        found => found,
    };
    match at {
        Some(i) => (&line[..i], trim_start(&line[i..])),
        None => (line, ""),
    }
}

/// `word` upper-cased (ASCII letters only, as
/// [`str::to_ascii_uppercase`]) into `buf`, or an empty key when it is
/// longer than any mnemonic.
fn mnemonic_key<'b>(word: &str, buf: &'b mut [u8; 8]) -> &'b [u8] {
    match buf.get_mut(..word.len()) {
        Some(key) => {
            key.copy_from_slice(word.as_bytes());
            key.make_ascii_uppercase();
            key
        }
        None => &[],
    }
}

/// The non-empty, trimmed, comma-separated operands of an instruction:
/// the first four (no instruction takes more) and how many there were.
struct Operands<'a> {
    first: [&'a str; 4],
    len: usize,
}

impl<'a> Operands<'a> {
    fn parse(rest: &'a str) -> Self {
        let mut ops = Operands {
            first: [""; 4],
            len: 0,
        };
        for op in rest.split(',').map(trim).filter(|s| !s.is_empty()) {
            if let Some(slot) = ops.first.get_mut(ops.len) {
                *slot = op;
            }
            ops.len += 1;
        }
        ops
    }

    fn len(&self) -> usize {
        self.len
    }
}

impl<'a> std::ops::Index<usize> for Operands<'a> {
    type Output = &'a str;

    fn index(&self, i: usize) -> &&'a str {
        &self.first[i]
    }
}

/// The value of a run of ASCII digits, saturating at `u32::MAX`. The
/// one rule both the assembler's operands and the qubit scan's tokens
/// read indices with.
fn digits_value(digits: &[u8]) -> u32 {
    digits.iter().fold(0u32, |n, &d| {
        n.saturating_mul(10).saturating_add(u32::from(d - b'0'))
    })
}

/// The index of a `<prefix><digits>` operand, either case of `prefix`,
/// when it fits `T`. Only ASCII digits count: integer `FromStr` would
/// also take a leading `+`, which the qubit scan does not.
fn operand_index<T: TryFrom<u32>>(tok: &str, prefix: u8) -> Option<T> {
    let (first, digits) = tok.as_bytes().split_first()?;
    if !first.eq_ignore_ascii_case(&prefix)
        || digits.is_empty()
        || !digits.iter().all(u8::is_ascii_digit)
    {
        return None;
    }
    T::try_from(digits_value(digits)).ok()
}

fn parse_qubit(tok: &str, no: usize) -> Result<Qubit, AsmError> {
    let idx: u16 = operand_index(tok, b'q')
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
    let idx = operand_index::<u8>(tok, b'r')
        .filter(|&n| (n as usize) < crate::REG_COUNT)
        .ok_or_else(|| AsmError::new(no, format!("expected register operand, got `{tok}`")))?;
    Ok(Reg::new(idx))
}

fn parse_sreg(tok: &str, no: usize) -> Result<SharedReg, AsmError> {
    let idx = operand_index::<u8>(tok, b's')
        .filter(|&n| (n as usize) < crate::SHARED_REG_COUNT)
        .ok_or_else(|| AsmError::new(no, format!("expected shared register, got `{tok}`")))?;
    Ok(SharedReg::new(idx))
}

fn parse_imm(tok: &str, no: usize) -> Result<i16, AsmError> {
    tok.parse::<i16>()
        .map_err(|_| AsmError::new(no, format!("bad immediate `{tok}`")))
}

/// The rotation gate constructor of an `RX[`/`RY[`/`RZ[` prefix.
fn rotation_axis(mnem: &str) -> Option<fn(Angle) -> Gate1> {
    match mnem.as_bytes() {
        [r, axis, b'[', ..] if r.eq_ignore_ascii_case(&b'r') => match axis.to_ascii_uppercase() {
            b'X' => Some(Gate1::Rx),
            b'Y' => Some(Gate1::Ry),
            b'Z' => Some(Gate1::Rz),
            _ => None,
        },
        _ => None,
    }
}

fn parse_quantum_op(rest: &str, no: usize) -> Result<QuantumOp, AsmError> {
    let (mnem, ops_text) = split_word(rest);
    let ops = Operands::parse(ops_text);

    // Rotations: RX[k] / RY[k] / RZ[k].
    if let Some(rotation) = rotation_axis(mnem) {
        // The three prefix bytes are ASCII, so byte 3 is a char boundary.
        let k: u8 = mnem[3..]
            .strip_suffix(']')
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| AsmError::new(no, format!("bad rotation index in `{mnem}`")))?;
        if k >= Angle::STEPS {
            return Err(AsmError::new(
                no,
                format!("rotation index {k} out of range"),
            ));
        }
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Gate1(
            rotation(Angle::new(k)),
            parse_qubit(q, no)?,
        ));
    }

    let mut buf = [0u8; 8];
    let key = mnemonic_key(mnem, &mut buf);
    let gate1 = match key {
        b"I" => Some(Gate1::I),
        b"X" => Some(Gate1::X),
        b"Y" => Some(Gate1::Y),
        b"Z" => Some(Gate1::Z),
        b"H" => Some(Gate1::H),
        b"S" => Some(Gate1::S),
        b"SDG" => Some(Gate1::Sdg),
        b"T" => Some(Gate1::T),
        b"TDG" => Some(Gate1::Tdg),
        b"X90" => Some(Gate1::X90),
        b"XM90" => Some(Gate1::Xm90),
        b"Y90" => Some(Gate1::Y90),
        b"YM90" => Some(Gate1::Ym90),
        b"RESET" => Some(Gate1::Reset),
        _ => None,
    };
    if let Some(g) = gate1 {
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Gate1(g, parse_qubit(q, no)?));
    }

    let gate2 = match key {
        b"CNOT" => Some(Gate2::Cnot),
        b"CZ" => Some(Gate2::Cz),
        b"SWAP" => Some(Gate2::Swap),
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

    if key == b"MEAS" || key == b"MEASURE" {
        let q = single_operand(&ops, no)?;
        return Ok(QuantumOp::Measure(parse_qubit(q, no)?));
    }

    Err(AsmError::new(
        no,
        format!("unknown quantum mnemonic `{mnem}`"),
    ))
}

fn single_operand<'a>(ops: &Operands<'a>, no: usize) -> Result<&'a str, AsmError> {
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
    head: &str,
    rest: &str,
    no: usize,
) -> Result<(), AsmError> {
    let ops = Operands::parse(rest);
    let wrong_arity = |n: usize| {
        AsmError::new(
            no,
            format!(
                "{} expects {n} operand(s), got {}",
                head.to_ascii_uppercase(),
                ops.len()
            ),
        )
    };
    let mut buf = [0u8; 8];
    let mnem = mnemonic_key(head, &mut buf);
    match mnem {
        b"NOP" => {
            b.push(ClassicalOp::Nop);
        }
        b"STOP" => {
            b.push(ClassicalOp::Stop);
        }
        b"HALT" => {
            b.push(ClassicalOp::Halt);
        }
        b"RET" => {
            b.push(ClassicalOp::Ret);
        }
        b"JMP" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, false, no)?;
        }
        b"CALL" => {
            if ops.len() != 1 {
                return Err(wrong_arity(1));
            }
            parse_target(b, ops[0], None, true, no)?;
        }
        b"BR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            let cond = parse_cond(ops[0], no)?;
            parse_target(b, ops[1], Some(cond), false, no)?;
        }
        b"LDI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Ldi {
                rd: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        b"MOV" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Mov {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        b"ADD" | b"SUB" | b"AND" | b"OR" | b"XOR" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            let rd = parse_reg(ops[0], no)?;
            let rs1 = parse_reg(ops[1], no)?;
            let rs2 = parse_reg(ops[2], no)?;
            b.push(match mnem {
                b"ADD" => ClassicalOp::Add { rd, rs1, rs2 },
                b"SUB" => ClassicalOp::Sub { rd, rs1, rs2 },
                b"AND" => ClassicalOp::And { rd, rs1, rs2 },
                b"OR" => ClassicalOp::Or { rd, rs1, rs2 },
                _ => ClassicalOp::Xor { rd, rs1, rs2 },
            });
        }
        b"ADDI" => {
            if ops.len() != 3 {
                return Err(wrong_arity(3));
            }
            b.push(ClassicalOp::Addi {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
                imm: parse_imm(ops[2], no)?,
            });
        }
        b"NOT" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Not {
                rd: parse_reg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        b"CMP" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmp {
                rs1: parse_reg(ops[0], no)?,
                rs2: parse_reg(ops[1], no)?,
            });
        }
        b"CMPI" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Cmpi {
                rs: parse_reg(ops[0], no)?,
                imm: parse_imm(ops[1], no)?,
            });
        }
        b"FMR" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Fmr {
                rd: parse_reg(ops[0], no)?,
                qubit: parse_qubit(ops[1], no)?,
            });
        }
        b"QWAIT" => {
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
        b"LDS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Lds {
                rd: parse_reg(ops[0], no)?,
                sreg: parse_sreg(ops[1], no)?,
            });
        }
        b"STS" => {
            if ops.len() != 2 {
                return Err(wrong_arity(2));
            }
            b.push(ClassicalOp::Sts {
                sreg: parse_sreg(ops[0], no)?,
                rs: parse_reg(ops[1], no)?,
            });
        }
        b"MRCE" => {
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
        _ => {
            return Err(AsmError::new(
                no,
                format!("unknown mnemonic `{}`", head.to_ascii_uppercase()),
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Dependency;

    #[test]
    fn the_builder_is_sized_from_the_text() {
        // One instruction per line: the program keeps no growth slack.
        let text = "0 H q0\n2 MEAS q0\n".repeat(500) + "STOP\n";
        let p = assemble(&text).unwrap();
        assert_eq!(p.len(), 1001);
        let lines = text.lines().count();
        assert_eq!(p.capacity(), (lines, lines));
        // A megabyte of blank and comment lines around one instruction
        // reserves at most a quarter slot per byte of text (8 bytes of
        // instruction and step-map slots), not a slot per line.
        let hostile = "\n".repeat(1 << 19) + &"#\n".repeat(1 << 18) + "STOP";
        let p = assemble(&hostile).unwrap();
        assert_eq!(p.len(), 1);
        let (instructions, steps) = p.capacity();
        assert_eq!(instructions, steps);
        assert!(
            instructions <= hostile.len() / 4 + 1 && instructions < hostile.lines().count() / 2,
            "{instructions} slots for {} bytes",
            hostile.len()
        );
    }

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
    fn operand_indices_are_ascii_digits_only() {
        // Integer `FromStr` takes a leading `+`; operand indices do not.
        for (text, line) in [
            ("0 H q+5\nSTOP\n", 1),
            ("0 X q0\nLDI r+3, 1\n", 2),
            ("0 X q0\nNOP\nLDS r0, s+1\n", 3),
            ("MRCE q0, q+1, X, NONE\n", 1),
        ] {
            let err = assemble(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}");
            assert!(err.message.contains("expected"), "{}", err.message);
        }
        assert_eq!(scan_qubit_count("0 H q+5\nSTOP\n"), 0);
    }

    #[test]
    fn scan_saturates_past_max_qubits_instead_of_dropping() {
        // The assembler rejects both; the scan must not read them as
        // narrow, or placement would hand them to a small shard.
        assert!(assemble("0 H q70000\n").is_err());
        assert_eq!(scan_qubit_count("0 H q70000\n"), u16::MAX);
        assert_eq!(
            scan_qubit_count("0 H q0\n0 X q99999999999999999999\n"),
            u16::MAX
        );
        assert_eq!(scan_qubit_count("0 H q128\n"), 129);
        assert_eq!(scan_qubit_count("0 H q0007\n"), 8);
    }

    #[test]
    fn scan_skips_comments_and_non_tokens() {
        let text = "0 H q1 # q9\n; q7\n0 X q2;q8\nxq9 q9x q_1 q\r\n0 Z Q4\r\n";
        assert_eq!(scan_qubit_count(text), 5);
    }

    #[test]
    fn nested_blocks_are_an_error_not_a_panic() {
        let err = assemble(".block a\n0 H q0\n.block b\n0 H q1\n.endblock\n").unwrap_err();
        assert_eq!(err.line, 3);
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
