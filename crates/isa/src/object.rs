//! Binary object-file format for programs (`.qobj`).
//!
//! The FPGA prototype loads instruction memory and the block information
//! table over its communication interface as raw words; this module
//! defines the equivalent portable container so compiled programs can be
//! written to disk and reloaded without the text assembler:
//!
//! ```text
//! magic  "QOBJ"            4 bytes
//! version u32              currently 1
//! instruction count u32, block count u32, step-map flag u8
//! instructions             count × u32 (the ISA's 32-bit words)
//! blocks                   per entry: name (u16 len + UTF-8), start u32,
//!                          end u32, dep kind u8 (0 direct / 1 priority),
//!                          then u16 count + u16 ids, or u16 priority
//! step map (if flagged)    count × u32 (u32::MAX = untagged)
//! ```
//!
//! All integers are little-endian.

use crate::block::{BlockId, BlockInfo, BlockInfoTable, Dependency};
use crate::encoding::{decode, encode};
use crate::program::{Program, StepId};
use std::fmt;

const MAGIC: &[u8; 4] = b"QOBJ";
const VERSION: u32 = 1;
const NO_STEP: u32 = u32::MAX;

/// Errors while reading a `.qobj` container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObjectError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported container version.
    BadVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The byte stream ended early.
    Truncated,
    /// An instruction word failed to decode.
    BadInstruction {
        /// Index of the offending instruction.
        index: usize,
    },
    /// A block name was not valid UTF-8.
    BadBlockName,
    /// The header claims more blocks than there are block ids.
    TooManyBlocks {
        /// The block count in the header.
        count: usize,
    },
    /// The reconstructed program failed validation.
    Invalid(String),
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::BadMagic => write!(f, "not a QOBJ container (bad magic)"),
            ObjectError::BadVersion { found } => write!(f, "unsupported QOBJ version {found}"),
            ObjectError::Truncated => write!(f, "truncated QOBJ container"),
            ObjectError::BadInstruction { index } => {
                write!(f, "instruction {index} failed to decode")
            }
            ObjectError::BadBlockName => write!(f, "block name is not valid UTF-8"),
            ObjectError::TooManyBlocks { count } => write!(
                f,
                "{count} blocks exceed the {} distinct block ids",
                crate::MAX_BLOCKS
            ),
            ObjectError::Invalid(msg) => write!(f, "invalid program: {msg}"),
        }
    }
}

impl std::error::Error for ObjectError {}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ObjectError> {
        let end = self.pos.checked_add(n).ok_or(ObjectError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ObjectError::Truncated);
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ObjectError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ObjectError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ObjectError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A capacity for `count` upcoming 4-byte words that the bytes left
    /// can hold at most: a header's count is untrusted, and a claim the
    /// file cannot back fails as [`ObjectError::Truncated`] when read,
    /// not as an allocation of the claimed size.
    fn word_capacity(&self, count: usize) -> usize {
        count.min((self.bytes.len() - self.pos) / 4)
    }
}

/// Serializes a program into the `.qobj` container.
///
/// # Errors
///
/// Returns the first instruction that does not fit the 32-bit encoding.
pub fn write_object(program: &Program) -> Result<Vec<u8>, crate::EncodeError> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(program.len() as u32).to_le_bytes());
    out.extend_from_slice(&(program.blocks().len() as u32).to_le_bytes());
    let has_steps = program.num_steps() > 0;
    out.push(u8::from(has_steps));
    for instr in program.instructions() {
        out.extend_from_slice(&encode(instr)?.to_le_bytes());
    }
    for (_, info) in program.blocks().iter() {
        out.extend_from_slice(&(info.name.len() as u16).to_le_bytes());
        out.extend_from_slice(info.name.as_bytes());
        out.extend_from_slice(&info.range.start.to_le_bytes());
        out.extend_from_slice(&info.range.end.to_le_bytes());
        match &info.dependency {
            Dependency::Direct(deps) => {
                out.push(0);
                out.extend_from_slice(&(deps.len() as u16).to_le_bytes());
                for d in deps {
                    out.extend_from_slice(&d.0.to_le_bytes());
                }
            }
            Dependency::Priority(p) => {
                out.push(1);
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
    }
    if has_steps {
        for idx in 0..program.len() {
            let tag = program.step_of(idx).map_or(NO_STEP, |s| s.0);
            out.extend_from_slice(&tag.to_le_bytes());
        }
    }
    Ok(out)
}

/// Deserializes a program from a `.qobj` container.
///
/// # Errors
///
/// Returns an [`ObjectError`] describing the first malformed field.
pub fn read_object(bytes: &[u8]) -> Result<Program, ObjectError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(ObjectError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(ObjectError::BadVersion { found: version });
    }
    let n_instr = r.u32()? as usize;
    let n_blocks = r.u32()? as usize;
    let has_steps = r.u8()? != 0;
    if n_blocks > crate::MAX_BLOCKS {
        return Err(ObjectError::TooManyBlocks { count: n_blocks });
    }

    let mut instructions = Vec::with_capacity(r.word_capacity(n_instr));
    for index in 0..n_instr {
        let word = r.u32()?;
        instructions.push(decode(word).map_err(|_| ObjectError::BadInstruction { index })?);
    }

    let mut table = BlockInfoTable::with_capacity(n_blocks.max(crate::BLOCK_TABLE_CAPACITY));
    for _ in 0..n_blocks {
        let name_len = r.u16()? as usize;
        let name =
            String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| ObjectError::BadBlockName)?;
        let start = r.u32()?;
        let end = r.u32()?;
        let dep = match r.u8()? {
            0 => {
                let count = r.u16()? as usize;
                let mut deps = Vec::with_capacity(count);
                for _ in 0..count {
                    deps.push(BlockId(r.u16()?));
                }
                Dependency::Direct(deps)
            }
            _ => Dependency::Priority(r.u16()?),
        };
        table
            .push(BlockInfo::new(name, start..end, dep))
            .map_err(|e| ObjectError::Invalid(e.to_string()))?;
    }

    let step_map = if has_steps {
        let mut map = Vec::with_capacity(r.word_capacity(n_instr));
        for _ in 0..n_instr {
            let tag = r.u32()?;
            map.push(if tag == NO_STEP {
                None
            } else {
                Some(StepId(tag))
            });
        }
        map
    } else {
        vec![None; n_instr]
    };

    Program::with_parts(instructions, table, step_map)
        .map_err(|e| ObjectError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    fn sample() -> Program {
        assemble(
            "\
.block w1 prio=0
.step 0
0 H q0
0 H q1
.step none
STOP
.endblock
.block w2 prio=1
.step 1
2 CNOT q0, q1
.step none
STOP
.endblock
",
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        let bytes = write_object(&p).unwrap();
        let q = read_object(&bytes).unwrap();
        assert_eq!(p.instructions(), q.instructions());
        assert_eq!(p.blocks().len(), q.blocks().len());
        for (id, info) in p.blocks().iter() {
            let other = q.blocks().get(id).unwrap();
            assert_eq!(info.name, other.name);
            assert_eq!(info.range, other.range);
            assert_eq!(info.dependency, other.dependency);
        }
        assert_eq!(p.step_map(), q.step_map());
    }

    #[test]
    fn direct_dependencies_roundtrip() {
        let p = assemble(
            ".block a deps=none\n0 X q0\nSTOP\n.endblock\n.block b deps=a\n0 Y q0\nSTOP\n.endblock\n",
        )
        .unwrap();
        let q = read_object(&write_object(&p).unwrap()).unwrap();
        assert_eq!(
            q.blocks().get(BlockId(1)).unwrap().dependency,
            Dependency::Direct(vec![BlockId(0)])
        );
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_object(b"NOPE"), Err(ObjectError::BadMagic));
        assert_eq!(read_object(b"QO"), Err(ObjectError::Truncated));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = write_object(&sample()).unwrap();
        bytes[4] = 99;
        assert_eq!(
            read_object(&bytes),
            Err(ObjectError::BadVersion { found: 99 })
        );
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = write_object(&sample()).unwrap();
        for cut in 5..bytes.len() {
            let err = read_object(&bytes[..cut]);
            assert!(err.is_err(), "no error when truncated to {cut} bytes");
        }
    }

    #[test]
    fn corrupt_instruction_rejected() {
        let mut bytes = write_object(&sample()).unwrap();
        // Header = 4 magic + 4 version + 4 + 4 counts + 1 flag = 17
        // bytes; force an invalid opcode (classical opcode 63) there.
        let off = 17;
        bytes[off..off + 4].copy_from_slice(&(63u32 << 25).to_le_bytes());
        assert_eq!(
            read_object(&bytes),
            Err(ObjectError::BadInstruction { index: 0 })
        );
    }

    #[test]
    fn an_instruction_count_the_file_cannot_hold_is_truncation() {
        // A bare 17-byte header claiming four billion instructions must
        // fail as truncated, not try to reserve room for all of them.
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&4_000_000_000u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.push(1);
        assert_eq!(bytes.len(), 17);
        assert_eq!(read_object(&bytes), Err(ObjectError::Truncated));
    }

    #[test]
    fn a_block_count_past_the_block_ids_is_rejected() {
        // A header claiming one block more than 16-bit ids can name is a
        // typed error before any block is read; one at the limit is not.
        let header = |n_blocks: u32| {
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&VERSION.to_le_bytes());
            bytes.extend_from_slice(&0u32.to_le_bytes());
            bytes.extend_from_slice(&n_blocks.to_le_bytes());
            bytes.push(0);
            bytes
        };
        assert_eq!(
            read_object(&header(65_537)),
            Err(ObjectError::TooManyBlocks { count: 65_537 })
        );
        assert_eq!(read_object(&header(65_536)), Err(ObjectError::Truncated));
    }

    #[test]
    fn stepless_program_roundtrips() {
        let p = assemble("0 X q0\nSTOP\n").unwrap();
        let bytes = write_object(&p).unwrap();
        let q = read_object(&bytes).unwrap();
        assert_eq!(q.num_steps(), 0);
        assert_eq!(p.instructions(), q.instructions());
    }
}
