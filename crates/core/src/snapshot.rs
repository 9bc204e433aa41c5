//! Hand-rolled, versioned, checksummed binary snapshot encoding.
//!
//! The workspace vendors all dependencies and ships no serde, so durable
//! world snapshots are encoded by hand: a [`SnapWriter`] appends
//! fixed-width little-endian primitives and length-prefixed sequences to
//! a byte buffer, and a [`SnapReader`] consumes them back in the same
//! order. Every complete snapshot is wrapped by [`seal`] in a framed
//! container — magic, format version, body length, XXH64 checksum —
//! that [`unseal`] verifies before a single body byte is interpreted, so
//! truncated or bit-flipped checkpoints are *detected*, never silently
//! decoded into wrong results. A writer reserves the frame's bytes in
//! front of the body, so sealing fills them in place and a checkpoint
//! costs one body-sized buffer, not two.
//!
//! Two traits anchor the subsystem:
//!
//! * [`Snapshot`] — value types that round-trip without external
//!   context (RNG stream positions, job tables, profilers, plans...).
//!   Most simulation state is instead *restored by reconstruction*: the
//!   immutable majority of a world (compiled environment tables, device
//!   profiles, session traces) is re-derived from `(config, workload,
//!   seed)` and only the mutable minority is decoded over it — which
//!   keeps snapshots small and the format honest about what actually
//!   evolves at runtime.
//! * [`Scheduler::save_state`](crate::Scheduler::save_state) /
//!   [`load_state`](crate::Scheduler::load_state) — the object-safe
//!   per-scheduler hooks (every shipped scheduler implements them; the
//!   provided defaults report "unsupported" so downstream trait impls
//!   keep compiling).
//!
//! Versioning policy: `SNAP_FORMAT_VERSION` is bumped on *any* change
//! to the layout or the checksum, and old versions are rejected with a
//! clean error — a simulator whose product is bit-identical replay has
//! nothing trustworthy to say about a snapshot written by different
//! encode logic.

use std::fmt;

use rand::rngs::StdRng;

/// Leading magic of a sealed snapshot container (`b"VSNP"`).
pub(crate) const SNAP_MAGIC: [u8; 4] = *b"VSNP";

/// Current snapshot format version. Bumped on any layout change; other
/// versions are rejected, never reinterpreted.
///
/// Version 2 stores the supply estimator's ring as 4-byte delta-packed
/// words (version 1 wrote 8-byte `time << 16 | cell` words). Version 3
/// checksums the body with XXH64 (versions 1 and 2 used FNV-1a). Version
/// 4 stores the supply index's inputs only (window, ring, specs), not the
/// cell and slot tables built from them, and the Venn scheduler no longer
/// writes a second copy of the spec list. Version 5 files scheduler state
/// by job id: no slot map or id index, `u32` ids in the Venn group lists,
/// and neither the Venn active count and FIFO order nor the baselines'
/// active list, which a load derives from the jobs.
pub(crate) const SNAP_FORMAT_VERSION: u32 = 5;

/// Bytes of the container frame in front of the body: magic, format
/// version, body length and checksum.
const FRAME_LEN: usize = 24;

/// XXH64's five primes.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_CA63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// The little-endian `u64` in the first 8 bytes of `b`.
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("an 8-byte slice"))
}

/// One XXH64 lane step.
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds a finished lane into the hash.
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// XXH64 (seed 0) of `bytes` — the one checksum of sealed snapshots,
/// WAL records and run fingerprints. Four independent lanes each take
/// one little-endian 8-byte word of every 32-byte stripe, so it runs
/// near memory speed where a byte-serial hash runs at a tenth of it. Not
/// cryptographic; it detects the failure modes durable checkpoints
/// actually meet (truncation, torn writes, bit rot).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for s in &mut stripes {
            v[0] = round(v[0], le64(&s[0..]));
            v[1] = round(v[1], le64(&s[8..]));
            v[2] = round(v[2], le64(&s[16..]));
            v[3] = round(v[3], le64(&s[24..]));
        }
        let h = v[0]
            .rotate_left(1)
            .wrapping_add(v[1].rotate_left(7))
            .wrapping_add(v[2].rotate_left(12))
            .wrapping_add(v[3].rotate_left(18));
        v.into_iter().fold(h, merge)
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ round(0, le64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        let word = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte slice"));
        h = (h ^ (word as u64).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ (b as u64).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The 8-byte header both durable formats open with — VSNP checkpoints
/// and VWAL journals: `magic`, then `version` as a little-endian `u32`.
pub fn header(magic: [u8; 4], version: u32) -> [u8; 8] {
    let mut out = [0; 8];
    out[..4].copy_from_slice(&magic);
    out[4..].copy_from_slice(&version.to_le_bytes());
    out
}

/// Consumes and checks a [`header`] from `r`: too few bytes are
/// [`SnapError::Truncated`], another magic is [`SnapError::BadMagic`]
/// and another version [`SnapError::UnsupportedVersion`], in that order.
pub fn check_header(r: &mut SnapReader<'_>, magic: [u8; 4], version: u32) -> Result<(), SnapError> {
    if r.take(4)? != magic {
        return Err(SnapError::BadMagic);
    }
    match r.u32()? {
        v if v == version => Ok(()),
        v => Err(SnapError::UnsupportedVersion(v)),
    }
}

/// Why a snapshot could not be decoded (or is not available).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value being read.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// The container does not start with `SNAP_MAGIC` (`VSNP`).
    BadMagic,
    /// The container's format version is not `SNAP_FORMAT_VERSION`.
    UnsupportedVersion(u32),
    /// The body checksum does not match the sealed one.
    ChecksumMismatch {
        /// Checksum stored in the container.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// A decoded value is structurally impossible (bad discriminant,
    /// mismatched arm, inconsistent length...). The message names the
    /// field.
    Corrupt(String),
    /// The component does not support snapshots at all.
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => write!(
                f,
                "snapshot truncated: needed {needed} more bytes, {remaining} remain"
            ),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot format version {v} (this build reads {SNAP_FORMAT_VERSION})"
            ),
            SnapError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::Unsupported(who) => write!(f, "{who} does not support snapshots"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Appends snapshot primitives to a growing byte buffer.
///
/// All integers are fixed-width little-endian; floats are IEEE-754 bit
/// patterns (so `-0.0`, subnormals, and NaN payloads round-trip
/// exactly); sequences are `u64` length-prefixed. The buffer starts with
/// the container frame's bytes reserved, which [`seal`] fills in place.
#[derive(Debug)]
pub struct SnapWriter {
    /// The reserved frame, then the body.
    buf: Vec<u8>,
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter {
            buf: vec![0; FRAME_LEN],
        }
    }
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The encoded body so far, without the frame.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..FRAME_LEN);
        self.buf
    }

    /// Body bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - FRAME_LEN
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes `words` back to back as `u32`s, with no length prefix — the
    /// same bytes as one [`u32`](Self::u32) call per word, in one pass.
    pub(crate) fn u32s(&mut self, words: &[u32]) {
        self.buf
            .extend(words.iter().flat_map(|word| word.to_le_bytes()));
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`.
    pub(crate) fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a sequence length prefix.
    pub fn len_prefix(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.len_prefix(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes an `Option` as a presence byte plus the value.
    pub fn option<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.bool(true);
                f(self, x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.len_prefix(items.len());
        for item in items {
            f(self, item);
        }
    }
}

/// Consumes snapshot primitives from a byte buffer, in write order.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads `n` back-to-back `u32`s written by [`SnapWriter::u32s`]: the
    /// bytes are taken (or refused as truncated) up front, and the words
    /// are converted as the caller iterates.
    pub(crate) fn u32s(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = u32> + 'a, SnapError> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| SnapError::Corrupt(format!("{n} words overflow the address space")))?;
        Ok(self
            .take(bytes)?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("a 4-byte chunk"))))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        Ok(self.u64()? as usize)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bool byte {other}"))),
        }
    }

    /// Reads a sequence length prefix, bounded by the bytes that could
    /// plausibly back it (each element is at least one byte) so a
    /// corrupt length cannot drive a huge allocation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapError::Corrupt(format!(
                "sequence length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.len_prefix()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads an `Option` written by [`SnapWriter::option`].
    pub fn option<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Option<T>, SnapError> {
        if self.bool()? {
            Ok(Some(f(self)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed sequence written by [`SnapWriter::seq`].
    ///
    /// The up-front reservation is bounded in bytes by what remains, so a
    /// length that passes [`len_prefix`](Self::len_prefix) still cannot
    /// reserve `len × size_of::<T>()` before one element decodes.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let len = self.len_prefix()?;
        let cap = len.min(self.remaining() / std::mem::size_of::<T>().max(1));
        let mut out = Vec::with_capacity(cap);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Asserts the reader consumed every byte — trailing garbage means
    /// the encode and decode paths disagree about the layout.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} unconsumed trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Wraps a written body in the framed container — magic, format
/// version, body length, XXH64 body checksum, body — by filling the
/// frame bytes the writer reserved, so the body is never copied. The
/// growth slack is returned to the allocator (a shrink in place), so a
/// caller that keeps the checkpoint holds only its bytes.
pub fn seal(w: SnapWriter) -> Vec<u8> {
    let mut out = w.buf;
    let (frame, body) = out.split_at_mut(FRAME_LEN);
    frame[..8].copy_from_slice(&header(SNAP_MAGIC, SNAP_FORMAT_VERSION));
    frame[8..16].copy_from_slice(&(body.len() as u64).to_le_bytes());
    frame[16..].copy_from_slice(&checksum(body).to_le_bytes());
    out.shrink_to_fit();
    out
}

/// Verifies a sealed container and returns its body. Magic, version,
/// length, and checksum are all checked before any body byte is
/// interpreted — truncation and bit flips surface here as clean errors.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(bytes);
    check_header(&mut r, SNAP_MAGIC, SNAP_FORMAT_VERSION)?;
    let len = r.u64()? as usize;
    let stored = r.u64()?;
    if r.remaining() != len {
        return Err(SnapError::Truncated {
            needed: len,
            remaining: r.remaining().min(len),
        });
    }
    let body = r.take(len)?;
    let computed = checksum(body);
    if stored != computed {
        return Err(SnapError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

/// Value types that encode and decode without external context.
///
/// Implemented by the self-contained pieces of scheduler and kernel
/// state (RNG streams, job tables, supply rings, profilers, plans).
/// State that is cheaper to re-derive from `(config, workload, seed)`
/// deliberately does *not* implement this — it is reconstructed, not
/// decoded.
pub trait Snapshot: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut SnapWriter);

    /// Decodes one value from `r`, in [`encode`](Snapshot::encode)
    /// order.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snapshot for StdRng {
    fn encode(&self, w: &mut SnapWriter) {
        for word in self.state() {
            w.u64(word);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
    }
}

impl Snapshot for crate::ResourceSpec {
    fn encode(&self, w: &mut SnapWriter) {
        w.f64(self.min_cpu());
        w.f64(self.min_mem());
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let (cpu, mem) = (r.f64()?, r.f64()?);
        // `ResourceSpec::new` turns -0.0 into 0.0, so an encoder never
        // writes it: accepting it would decode bytes that do not re-encode.
        let valid = |v: f64| v.is_finite() && v.is_sign_positive();
        if !(valid(cpu) && valid(mem)) {
            return Err(SnapError::Corrupt(format!(
                "resource spec thresholds ({cpu}, {mem})"
            )));
        }
        Ok(crate::ResourceSpec::new(cpu, mem))
    }
}

impl Snapshot for crate::Capacity {
    fn encode(&self, w: &mut SnapWriter) {
        w.f64(self.cpu());
        w.f64(self.mem());
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let (cpu, mem) = (r.f64()?, r.f64()?);
        if !(cpu.is_finite() && mem.is_finite() && cpu >= 0.0 && mem >= 0.0) {
            return Err(SnapError::Corrupt(format!(
                "capacity scores ({cpu}, {mem})"
            )));
        }
        Ok(crate::Capacity::new(cpu, mem))
    }
}

impl Snapshot for crate::Request {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.job.as_u64());
        self.spec.encode(w);
        w.u32(self.demand);
        w.u64(self.total_remaining);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let job = crate::JobId::new(r.u64()?);
        let spec = crate::ResourceSpec::decode(r)?;
        let demand = r.u32()?;
        let total_remaining = r.u64()?;
        if demand == 0 {
            return Err(SnapError::Corrupt("zero-demand request".into()));
        }
        Ok(crate::Request {
            job,
            spec,
            demand,
            total_remaining,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128(1u128 << 100);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("venn");
        w.option(&Some(9u64), |w, v| w.u64(*v));
        w.option(&None::<u64>, |w, v| w.u64(*v));
        w.seq(&[1u32, 2, 3], |w, v| w.u32(*v));
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), 1u128 << 100);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "venn");
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(9));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u32()).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapWriter::new();
        w.u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(SnapError::Truncated { .. })));
    }

    /// `body` sealed as a writer that wrote it byte by byte.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        body.iter().for_each(|&b| w.u8(b));
        seal(w)
    }

    #[test]
    fn checksum_is_xxh64_with_seed_zero() {
        // The published XXH64 test vectors.
        assert_eq!(checksum(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Lengths 0..=80 run the 32-byte stripe loop zero to two times and
        // every combination of the 8-, 4- and 1-byte tails.
        let buf: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=buf.len() {
            let clean = checksum(&buf[..len]);
            for bit in 0..8 * len {
                let mut flipped = buf[..len].to_vec();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), clean, "length {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn seal_unseal_round_trips() {
        let body = [1u8, 2, 3, 4, 5];
        let sealed = sealed(&body);
        assert_eq!(sealed.len(), FRAME_LEN + body.len());
        assert_eq!(unseal(&sealed).unwrap(), &body[..]);
    }

    #[test]
    fn bulk_words_match_per_word_writes() {
        let words = [0u32, 1, 0xDEAD_BEEF, u32::MAX, 7 << 13 | 5];
        let mut bulk = SnapWriter::new();
        bulk.u32s(&words[..2]);
        bulk.u32s(&[]);
        bulk.u32s(&words[2..]);
        let mut single = SnapWriter::new();
        words.iter().for_each(|&word| single.u32(word));
        assert_eq!(bulk.len(), 4 * words.len());
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, single.into_bytes());
        let mut r = SnapReader::new(&bytes);
        assert!(r.u32s(words.len() + 1).is_err());
        assert!(r.u32s(usize::MAX).is_err());
        assert!(r.u32s(words.len()).unwrap().eq(words));
        r.finish().unwrap();
    }

    #[test]
    fn unseal_rejects_every_tampering_mode() {
        let sealed = sealed(&[10u8; 64]);
        // Bad magic.
        let mut bad = sealed.clone();
        bad[0] ^= 0xFF;
        assert_eq!(unseal(&bad), Err(SnapError::BadMagic));
        // Unsupported version.
        let mut bad = sealed.clone();
        bad[4] = 0xEE;
        assert!(matches!(
            unseal(&bad),
            Err(SnapError::UnsupportedVersion(_))
        ));
        // Truncated body.
        assert!(matches!(
            unseal(&sealed[..sealed.len() - 3]),
            Err(SnapError::Truncated { .. })
        ));
        // Flipped body bit.
        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            unseal(&bad),
            Err(SnapError::ChecksumMismatch { .. })
        ));
        // Flipped checksum bit.
        let mut bad = sealed;
        bad[20] ^= 0x01;
        assert!(matches!(
            unseal(&bad),
            Err(SnapError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_1_containers_are_refused_before_the_body_is_read() {
        // A version-1 container holds a supply ring of 8-byte words, which
        // the current decoder would read as twice as many 4-byte ones, and
        // versions 1 and 2 carry an FNV-1a checksum; a version-3 supply
        // section carries the cell and slot tables after the ring, which
        // the current decoder would read as specs; a version-4 scheduler
        // section files jobs in a slot map, which the current decoder
        // would read as a job table. The frame must stop all four by
        // their version, before the checksum is compared or a single body
        // byte is interpreted.
        let mut supply = crate::SupplyEstimator::new(60_000);
        for t in 0..20 {
            supply.record(t * 1_000, &crate::Capacity::new(0.5, 0.5));
        }
        let mut w = SnapWriter::new();
        supply.encode(&mut w);
        let current = seal(w);
        for version in [1u32, 2, 3, 4] {
            let mut old = current.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            old[16..24].copy_from_slice(&0u64.to_le_bytes());
            assert_eq!(unseal(&old), Err(SnapError::UnsupportedVersion(version)));
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_overallocate() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(r.seq(|r| r.u8()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn stdrng_snapshot_resumes_exact_stream() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..57 {
            rng.gen::<u64>();
        }
        let mut w = SnapWriter::new();
        rng.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let mut restored = StdRng::decode(&mut r).unwrap();
        r.finish().unwrap();
        for _ in 0..100 {
            assert_eq!(rng.gen::<u64>(), restored.gen::<u64>());
        }
    }

    #[test]
    fn spec_and_request_round_trip() {
        let spec = crate::ResourceSpec::new(0.5, 0.25);
        let req = crate::Request::new(crate::JobId::new(3), spec, 7, 99);
        let mut w = SnapWriter::new();
        spec.encode(&mut w);
        req.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(crate::ResourceSpec::decode(&mut r).unwrap(), spec);
        assert_eq!(crate::Request::decode(&mut r).unwrap(), req);
        r.finish().unwrap();
    }
}
