//! Stable content digests for programs.
//!
//! A job service keyed on *what* a request asks to run — rather than on
//! request identity — needs a digest that is identical for identical
//! programs across processes and runs. [`Fnv64`] is a minimal FNV-1a
//! 64-bit hasher (no `RandomState`, no per-process keys), and
//! [`Program::digest`](crate::Program::digest) walks every part of a
//! program that affects execution: the instruction stream, the block
//! information table, and the instruction→step map.

use crate::program::Program;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Incremental FNV-1a 64-bit hasher.
///
/// Unkeyed on purpose: `std`'s `DefaultHasher` is randomly keyed per
/// process, which would make digests unusable as cross-run cache keys.
/// FNV-1a is stable, allocation-free, and fast enough for compile-time
/// deduplication. It also implements [`Hasher`], so `#[derive(Hash)]`
/// values (an [`Instruction`](crate::Instruction), a
/// [`BlockInfo`](crate::BlockInfo)) feed it field by field; see that
/// impl for how it absorbs integers.
///
/// Multi-byte writes include no implicit separators; callers hashing
/// variable-length fields should write an explicit length first (as
/// [`Fnv64::write_str`] does) so adjacent fields cannot alias.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One word-wise FNV step (see the [`Hasher`] impl).
    fn absorb_word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(FNV_PRIME);
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The [`Hash`] route into the same state. Byte slices (names) absorb
/// byte by byte, as [`Fnv64::write`]; each integer — a field, an enum
/// discriminant, a length prefix — absorbs as one word, the word-wise
/// FNV step of [`content_hash_64`]. A step is a bijection of the word for
/// a given state, so two streams of one shape diverge at the first
/// differing field. Which writes a value makes is up to its `Hash` impl
/// (for derived impls, the compiler's), so values hashed this way are
/// stable across processes of one build, not across toolchains. The
/// inherent [`Fnv64::write_u32`]/[`Fnv64::write_u64`] stay byte-serial.
impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        Fnv64::write(self, bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.absorb_word(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.absorb_word(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.absorb_word(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.absorb_word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.absorb_word(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.absorb_word(v as u64);
    }

    fn finish(&self) -> u64 {
        Fnv64::finish(self)
    }
}

/// One-shot FNV-1a 64-bit digest of a byte string (e.g. request source
/// text — hashing the text is far cheaper than assembling it, which is
/// the point of keying a compile cache on it).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Second accumulator parameters for [`content_hash_128`]: an unrelated
/// odd multiplier (the golden-ratio constant) and offset, so the two
/// 64-bit streams respond independently to the same input words.
const ALT_OFFSET: u64 = 0x6C62_272E_07BB_0142;
const ALT_PRIME: u64 = 0x9E37_79B9_7F4A_7C15 | 1;

/// Word-chunked FNV over `bytes`, one accumulator per `(offset, prime)`
/// stream, all advanced in the same pass over the payload.
fn hash_words<const N: usize>(bytes: &[u8], streams: [(u64, u64); N]) -> [u64; N] {
    let mut h = streams.map(|(offset, _)| offset);
    let absorb = |h: &mut [u64; N], w: u64| {
        for (h, &(_, prime)) in h.iter_mut().zip(&streams) {
            *h = (*h ^ w).wrapping_mul(prime);
        }
    };
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("exact chunk"));
        absorb(&mut h, w);
    }
    let mut tail = 0u64;
    let mut shift = 0u32;
    for &b in chunks.remainder() {
        tail |= u64::from(b) << shift;
        shift += 8;
    }
    absorb(&mut h, tail);
    // Mix in the length so payloads differing only in trailing zero
    // bytes (absorbed into `tail`) cannot collide.
    absorb(&mut h, bytes.len() as u64);
    h
}

/// Fast stable 64-bit content hash for large payloads: FNV-1a over
/// 8-byte little-endian words plus a length-mixed tail, ~8× faster than
/// the byte-serial [`fnv1a_64`] on kilobyte-scale request texts.
///
/// Stable across processes and runs (no per-process keying), but *not*
/// the reference FNV function and not collision-resistant against an
/// adversary — use it for cache keys, not integrity. Prefer
/// [`content_hash_128`] when a collision would silently alias two
/// different payloads (e.g. compile-cache keys over wire-format text).
pub fn content_hash_64(bytes: &[u8]) -> u64 {
    let [h] = hash_words(bytes, [(FNV_OFFSET, FNV_PRIME)]);
    h
}

/// Stable 128-bit content hash: two independent word-chunked streams
/// over one pass of the payload. 64-bit multiplicative hashes admit
/// practical collisions; squaring the state makes accidental aliasing
/// of two cache keys (and casual collision crafting) negligible while
/// staying far cheaper than parsing the payload. Still not a
/// cryptographic guarantee.
pub fn content_hash_128(bytes: &[u8]) -> u128 {
    let [hi, lo] = hash_words(bytes, [(FNV_OFFSET, FNV_PRIME), (ALT_OFFSET, ALT_PRIME)]);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Stable 64-bit content digest of a [`Program`].
///
/// Equal for structurally equal programs in any process; printed as 16
/// lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramDigest(pub u64);

impl fmt::Display for ProgramDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Program {
    /// Computes the program's stable content digest: instructions,
    /// block-table entries (name, range, dependency), and the
    /// instruction→step map, each fed field by field through
    /// [`Fnv64`]'s [`Hasher`] impl (no value is formatted to text). Two
    /// programs built independently but structurally equal hash
    /// identically.
    ///
    /// The value is stable across processes and runs of one build, which
    /// is what an in-memory compile cache keyed on it needs. It is not a
    /// format: nothing in this repository persists a program digest, and
    /// another toolchain or a change to the instruction types may compute
    /// different values.
    pub fn digest(&self) -> ProgramDigest {
        let mut h = Fnv64::new();
        self.instructions().hash(&mut h);
        self.blocks().len().hash(&mut h);
        for (_, info) in self.blocks().iter() {
            info.hash(&mut h);
        }
        self.step_map().hash(&mut h);
        ProgramDigest(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble;

    const RUS: &str = "top: 0 X q0\n1 MEAS q0\nFMR r0, q0\nCMPI r0, 1\nBR EQ, top\nSTOP\n";

    #[test]
    fn identical_programs_hash_identically() {
        let a = assemble(RUS).unwrap();
        let b = assemble(RUS).unwrap();
        assert_eq!(a.digest(), b.digest());
        // Round-tripping through the canonical text form preserves the
        // digest.
        let c = assemble(&a.to_string()).unwrap();
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn any_structural_change_changes_the_digest() {
        let base = assemble(RUS).unwrap();
        let other_qubit = assemble(&RUS.replace("q0", "q1")).unwrap();
        let other_timing = assemble(&RUS.replace("1 MEAS", "2 MEAS")).unwrap();
        let shorter = assemble("0 X q0\nSTOP\n").unwrap();
        for p in [&other_qubit, &other_timing, &shorter] {
            assert_ne!(base.digest(), p.digest());
        }
    }

    #[test]
    fn blocks_and_steps_feed_the_digest() {
        let flat = assemble("0 H q0\nSTOP\n").unwrap();
        let blocked = assemble(".block w1 deps=none\n0 H q0\nSTOP\n.endblock\n").unwrap();
        let stepped = assemble(".step 0\n0 H q0\n.step none\nSTOP\n").unwrap();
        assert_ne!(flat.digest(), blocked.digest());
        assert_ne!(flat.digest(), stepped.digest());
        assert_ne!(blocked.digest(), stepped.digest());
    }

    #[test]
    fn digest_displays_as_16_hex_digits() {
        let d = assemble(RUS).unwrap().digest();
        let s = d.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn content_hash_is_stable_and_length_aware() {
        let text = "top: 0 X q0\n1 MEAS q0\nSTOP\n".repeat(100);
        assert_eq!(
            content_hash_64(text.as_bytes()),
            content_hash_64(text.as_bytes())
        );
        assert_ne!(content_hash_64(b"abc"), content_hash_64(b"abd"));
        // Trailing zero bytes change the hash even though the tail word
        // absorbs them as zeros.
        assert_ne!(content_hash_64(b"abc"), content_hash_64(b"abc\0"));
        assert_ne!(content_hash_64(b""), content_hash_64(b"\0"));
        // Word-boundary sizes behave.
        assert_ne!(content_hash_64(&[7u8; 8]), content_hash_64(&[7u8; 16]));
    }

    #[test]
    fn content_hash_128_streams_are_independent() {
        let text = "0 H q0\n1 MEAS q0\nSTOP\n".repeat(50);
        let h = content_hash_128(text.as_bytes());
        assert_eq!(h, content_hash_128(text.as_bytes()));
        // High word is the 64-bit hash; low word comes from a different
        // accumulator, not a copy.
        assert_eq!((h >> 64) as u64, content_hash_64(text.as_bytes()));
        assert_ne!((h >> 64) as u64, h as u64);
        assert_ne!(content_hash_128(b"abc"), content_hash_128(b"abd"));
        assert_ne!(content_hash_128(b"abc"), content_hash_128(b"abc\0"));
    }

    /// A deterministic byte pattern that is not periodic in 8-byte words.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i * 31 + 7) as u8 ^ (i >> 8) as u8)
            .collect()
    }

    /// Compile-cache keys are `content_hash_128` values: these pins keep
    /// a rewrite of the hash loop from silently changing them (empty,
    /// tail-only, one word, word plus tail, and KiB-scale inputs).
    #[test]
    fn content_hash_128_pins_its_keys() {
        let pins: [(usize, u128); 6] = [
            (0, 0x08328807b4eb6fed3b4ebd531023dab2),
            (7, 0x93cc626c5450eff30ff13deeac2dca46),
            (8, 0x954c37134596374e83ddbfab7e39de79),
            (9, 0x936cf81343fefcd6befa971c1c0f4393),
            (3000, 0x03961f65d833419361ba0a866f45e146),
            (4103, 0x8115efd2cdf62b83aefebaf701f443d6),
        ];
        for (len, key) in pins {
            assert_eq!(content_hash_128(&pattern(len)), key, "length {len}");
        }
    }

    #[test]
    fn length_prefix_prevents_field_aliasing() {
        let mut a = Fnv64::new();
        a.write_str("ab").write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }
}
