//! Hand-rolled, versioned, checksummed binary snapshot encoding.
//!
//! The workspace vendors all dependencies and ships no serde, so durable
//! world snapshots are encoded by hand: a [`SnapWriter`] appends
//! fixed-width little-endian primitives and length-prefixed sequences to
//! a byte buffer, and a [`SnapReader`] consumes them back in the same
//! order. Every complete snapshot is wrapped by [`seal`] in a framed
//! container — magic, format version, body length, FNV-1a checksum —
//! that [`unseal`] verifies before a single body byte is interpreted, so
//! truncated or bit-flipped checkpoints are *detected*, never silently
//! decoded into wrong results.
//!
//! Two traits anchor the subsystem:
//!
//! * [`Snapshot`] — value types that round-trip without external
//!   context (RNG stream positions, slot maps, profilers, plans...).
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
//! Versioning policy: [`SNAP_FORMAT_VERSION`] is bumped on *any* layout
//! change, and old versions are rejected with a clean error — a
//! simulator whose product is bit-identical replay has nothing
//! trustworthy to say about a snapshot written by different encode
//! logic.

use std::fmt;

use rand::rngs::StdRng;

/// Leading magic of a sealed snapshot container (`b"VSNP"`).
pub const SNAP_MAGIC: [u8; 4] = *b"VSNP";

/// Current snapshot format version. Bumped on any layout change; other
/// versions are rejected, never reinterpreted.
///
/// Version 2 stores the supply estimator's ring as 4-byte delta-packed
/// words (version 1 wrote 8-byte `time << 16 | cell` words).
pub const SNAP_FORMAT_VERSION: u32 = 2;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a checksum over `bytes` — the integrity check of sealed
/// snapshots. Not cryptographic; it detects the failure modes durable
/// checkpoints actually meet (truncation, torn writes, bit rot).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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
    /// The container does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The container's format version is not [`SNAP_FORMAT_VERSION`].
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
/// exactly); sequences are `u64` length-prefixed.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// The encoded bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`.
    pub fn u128(&mut self, v: u128) {
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
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let len = self.len_prefix()?;
        let mut out = Vec::with_capacity(len);
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

/// Wraps an encoded body in the framed container: magic, format
/// version, body length, FNV-1a body checksum, body.
pub fn seal(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 24);
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Verifies a sealed container and returns its body. Magic, version,
/// length, and checksum are all checked before any body byte is
/// interpreted — truncation and bit flips surface here as clean errors.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.take(4)?;
    if magic != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = r.u32()?;
    if version != SNAP_FORMAT_VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
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
/// state (RNG streams, slot maps, supply rings, profilers, plans).
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

    #[test]
    fn seal_unseal_round_trips() {
        let body = vec![1u8, 2, 3, 4, 5];
        let sealed = seal(body.clone());
        assert_eq!(unseal(&sealed).unwrap(), &body[..]);
    }

    #[test]
    fn unseal_rejects_every_tampering_mode() {
        let sealed = seal(vec![10u8; 64]);
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
        // the current decoder would read as twice as many 4-byte ones: the
        // frame must stop it before a single body byte is interpreted.
        let mut supply = crate::SupplyEstimator::new(60_000);
        for t in 0..20 {
            supply.record(t * 1_000, &crate::Capacity::new(0.5, 0.5));
        }
        let mut w = SnapWriter::new();
        supply.encode(&mut w);
        let mut old = seal(w.into_bytes());
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(unseal(&old), Err(SnapError::UnsupportedVersion(1)));
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
