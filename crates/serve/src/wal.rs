//! The write-ahead journal: length-prefixed, checksummed records with
//! torn-tail recovery.
//!
//! PR 9's journal was unsynced buffered text lines — fine for replaying
//! a session that ended cleanly, useless after a crash: a torn final
//! line failed replay with a parse or `vt-mismatch` error. This module
//! promotes the journal to a real WAL, reusing the `VSNP` codec from
//! [`venn_core::snapshot`] — the header is the one both formats write
//! and check ([`header`] / [`check_header`]):
//!
//! ```text
//! header : "VWAL" magic | u32 version (LE)
//! record : u32 len (LE) | u64 XXH64(payload) | payload (UTF-8 line)
//! seal   : a len-0 record — written on graceful shutdown
//! ```
//!
//! Recovery walks records from the front and **stops at the first
//! damaged one** — short header, impossible length, checksum mismatch,
//! non-UTF-8 payload — returning the intact prefix plus a typed
//! [`TornTail`] describing where and why it stopped. A journal torn at
//! *any* byte therefore replays its prefix byte-identically instead of
//! failing; the damage is a warning, not an error.
//!
//! Durability is a policy knob ([`SyncPolicy`], `--journal-sync`):
//! `always` fsyncs after every record (maximum durability, one fsync per
//! command), `batch` fsyncs every [`BATCH_RECORDS`] records and on seal
//! (the default), `off` never fsyncs (the OS page cache decides — the
//! pre-WAL behavior, now opt-in).

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use venn_core::faultio::{FioError, SimFs};
use venn_core::snapshot::{check_header, checksum, header};
use venn_core::{SnapError, SnapReader};

/// Leading magic of a WAL journal (`b"VWAL"`).
pub(crate) const WAL_MAGIC: [u8; 4] = *b"VWAL";

/// Current WAL format version; other versions are rejected. Version 2
/// checksums records with XXH64 (version 1 used FNV-1a).
pub(crate) const WAL_VERSION: u32 = 2;

/// Records between fsyncs under [`SyncPolicy::Batch`].
pub(crate) const BATCH_RECORDS: u32 = 64;

/// Upper bound on one record's payload — a corrupt length prefix can
/// never drive a huge allocation or a bogus multi-gigabyte "record".
pub(crate) const MAX_RECORD: usize = 1 << 24;

/// Per-record header bytes: u32 length + u64 checksum.
const RECORD_HEADER: usize = 12;

/// A filesystem handle shareable between the session, the journal, and
/// the driver — single-threaded interior mutability over the [`SimFs`]
/// boundary so one fault-injection plan governs every durable write a
/// serve process performs.
pub type SharedFs = Rc<RefCell<dyn SimFs>>;

/// Wraps any [`SimFs`] backend (e.g. a scripted `FaultFs<MemFs>`) as a
/// [`SharedFs`].
pub fn shared_fs(fs: impl SimFs + 'static) -> SharedFs {
    Rc::new(RefCell::new(fs))
}

/// When journal appends reach the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// fsync after every record.
    Always,
    /// fsync every `BATCH_RECORDS` (64) records and on seal (default).
    #[default]
    Batch,
    /// Never fsync; the OS page cache decides.
    Off,
}

impl SyncPolicy {
    /// The flag spelling of this policy.
    pub fn label(&self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Batch => "batch",
            SyncPolicy::Off => "off",
        }
    }
}

/// Where and why journal recovery stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first damaged record.
    pub offset: usize,
    /// Human-readable reason (short header, checksum mismatch...).
    pub reason: String,
}

/// Why a journal could not be recognized at all (damage *inside* a
/// recognized journal is a [`TornTail`], not an error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The bytes do not start with the `VWAL` magic.
    Unrecognized,
    /// A WAL header with an unsupported version.
    BadVersion(u32),
    /// The journal file could not be read at all.
    Io(FioError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Unrecognized => write!(f, "not a VWAL journal"),
            JournalError::BadVersion(v) => write!(
                f,
                "unsupported WAL journal version {v} (this build reads {WAL_VERSION})"
            ),
            JournalError::Io(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// A recovered journal: the intact prefix plus damage/seal telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The journal lines, in order, up to the first damage.
    pub lines: Vec<String>,
    /// Whether the journal carried a graceful-shutdown seal record.
    pub sealed: bool,
    /// The torn tail, if recovery stopped before the end of the file.
    pub torn: Option<TornTail>,
    /// Whether the journal carried a WAL header (`false` only for an
    /// empty file).
    pub wal: bool,
}

/// One record's bytes: `payload`'s length and checksum, then `payload`.
fn record(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&checksum(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// The append side: a WAL journal bound to a [`SharedFs`] path.
pub struct WalWriter {
    fs: SharedFs,
    path: String,
    policy: SyncPolicy,
    since_sync: u32,
    sealed: bool,
}

impl WalWriter {
    /// Creates (truncating) the journal at `path` and writes the header.
    pub fn create(fs: SharedFs, path: &str, policy: SyncPolicy) -> Result<Self, FioError> {
        fs.borrow_mut()
            .write(path, &header(WAL_MAGIC, WAL_VERSION))?;
        if policy == SyncPolicy::Always {
            fs.borrow_mut().sync(path)?;
        }
        Ok(WalWriter {
            fs,
            path: path.to_string(),
            policy,
            since_sync: 0,
            sealed: false,
        })
    }

    /// Appends one journal line as a checksummed record, fsyncing per
    /// the policy. The line must not be empty (an empty record is the
    /// seal marker).
    pub fn append(&mut self, line: &str) -> Result<(), FioError> {
        debug_assert!(!line.is_empty(), "empty journal lines are seal markers");
        let mut f = self.fs.borrow_mut();
        f.append(&self.path, &record(line.as_bytes()))?;
        match self.policy {
            SyncPolicy::Always => f.sync(&self.path)?,
            SyncPolicy::Batch => {
                self.since_sync += 1;
                if self.since_sync >= BATCH_RECORDS {
                    f.sync(&self.path)?;
                    self.since_sync = 0;
                }
            }
            SyncPolicy::Off => {}
        }
        Ok(())
    }

    /// Seals the journal: appends the graceful-shutdown marker record
    /// and fsyncs (unless the policy is `off`). Idempotent.
    pub fn seal(&mut self) -> Result<(), FioError> {
        if self.sealed {
            return Ok(());
        }
        let mut f = self.fs.borrow_mut();
        f.append(&self.path, &record(b""))?;
        if self.policy != SyncPolicy::Off {
            f.sync(&self.path)?;
        }
        self.sealed = true;
        Ok(())
    }
}

/// Recovers a WAL journal from its raw bytes. An empty file is an empty
/// journal; anything not starting with the `VWAL` magic is
/// [`JournalError::Unrecognized`] and a bad version is
/// [`JournalError::BadVersion`].
pub fn recover_journal(bytes: &[u8]) -> Result<Recovered, JournalError> {
    let mut out = Recovered {
        lines: Vec::new(),
        sealed: false,
        torn: None,
        wal: true,
    };
    let mut r = SnapReader::new(bytes);
    match check_header(&mut r, WAL_MAGIC, WAL_VERSION) {
        Ok(()) => decode_records(&mut out, bytes, bytes.len() - r.remaining()),
        _ if bytes.is_empty() => out.wal = false,
        Err(SnapError::UnsupportedVersion(v)) => return Err(JournalError::BadVersion(v)),
        // Past a whole magic, only the version word can be cut short.
        Err(SnapError::Truncated { .. }) if bytes.len() >= WAL_MAGIC.len() => {
            let reason = "WAL header torn before the version word".to_string();
            out.torn = Some(TornTail {
                offset: WAL_MAGIC.len(),
                reason,
            });
        }
        Err(_) => return Err(JournalError::Unrecognized),
    }
    Ok(out)
}

/// Reads the records of `bytes` from offset `pos` into `out` up to the
/// first damaged one, which `out.torn` then names; a seal record ends
/// the walk cleanly and sets `out.sealed`. A clean end without a seal
/// (e.g. a crash between records) sets neither.
fn decode_records(out: &mut Recovered, bytes: &[u8], mut pos: usize) {
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let mut words = SnapReader::new(rest);
        let reason = match (words.u32(), words.u64()) {
            (Ok(len), Ok(stored)) => {
                let (len, payload) = (len as usize, &rest[RECORD_HEADER..]);
                if len == 0 {
                    // Seal marker: verify its checksum-of-empty, stop cleanly.
                    out.sealed = stored == checksum(b"");
                    if out.sealed {
                        return;
                    }
                    "seal record with damaged checksum".to_string()
                } else if len > MAX_RECORD {
                    format!("record length {len} exceeds the {MAX_RECORD}-byte bound")
                } else if payload.len() < len {
                    let remain = payload.len();
                    format!("record claims {len} payload bytes, {remain} remain")
                } else if checksum(&payload[..len]) != stored {
                    "record checksum mismatch".to_string()
                } else if let Ok(line) = std::str::from_utf8(&payload[..len]) {
                    out.lines.push(line.to_string());
                    pos += RECORD_HEADER + len;
                    continue;
                } else {
                    "record payload is not UTF-8".to_string()
                }
            }
            _ => format!("{} trailing bytes, record header needs 12", rest.len()),
        };
        out.torn = Some(TornTail {
            offset: pos,
            reason,
        });
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venn_core::faultio::MemFs;

    fn write_journal(lines: &[&str], sealed: bool, policy: SyncPolicy) -> Vec<u8> {
        let fs = shared_fs(MemFs::new());
        let mut w = WalWriter::create(fs.clone(), "j.wal", policy).unwrap();
        for line in lines {
            w.append(line).unwrap();
        }
        if sealed {
            w.seal().unwrap();
        }
        let bytes = fs.borrow_mut().read("j.wal").unwrap();
        bytes
    }

    #[test]
    fn wal_round_trips_and_seals() {
        let lines = [r#"{"vt":0,"cmd":"stats"}"#, r#"{"vt":9,"cmd":"quit"}"#];
        let bytes = write_journal(&lines, true, SyncPolicy::Always);
        let r = recover_journal(&bytes).unwrap();
        assert_eq!(r.lines, lines);
        assert!(r.sealed);
        assert!(r.torn.is_none());
        assert!(r.wal);

        // Unsealed (e.g. crash between records): clean prefix, no tear.
        let bytes = write_journal(&lines, false, SyncPolicy::Off);
        let r = recover_journal(&bytes).unwrap();
        assert_eq!(r.lines, lines);
        assert!(!r.sealed);
        assert!(r.torn.is_none());
    }

    #[test]
    fn every_truncation_point_recovers_a_prefix() {
        let lines = [
            r#"{"vt":0,"cmd":"subscribe","every_ms":100}"#,
            r#"{"vt":0,"cmd":"advance","ms":500}"#,
            r#"{"vt":500,"cmd":"stats"}"#,
        ];
        let bytes = write_journal(&lines, true, SyncPolicy::Batch);
        for cut in 8..bytes.len() {
            let r = recover_journal(&bytes[..cut]).unwrap();
            assert!(r.lines.len() <= lines.len(), "cut {cut}");
            assert_eq!(
                r.lines[..],
                lines[..r.lines.len()],
                "cut {cut}: recovered lines must be the intact prefix"
            );
            if !r.sealed && r.torn.is_none() {
                // A cut exactly on a record boundary: fine, prefix only.
                continue;
            }
        }
        // Cutting into the header itself is torn-header telemetry.
        let r = recover_journal(&bytes[..6]).unwrap();
        assert!(r.lines.is_empty());
        assert!(r.torn.is_some());
    }

    #[test]
    fn a_flipped_bit_stops_at_the_damaged_record() {
        let lines = [
            r#"{"vt":0,"cmd":"advance","ms":1}"#,
            r#"{"vt":1,"cmd":"advance","ms":2}"#,
            r#"{"vt":3,"cmd":"stats"}"#,
        ];
        let bytes = write_journal(&lines, true, SyncPolicy::Batch);
        // Flip a bit in every byte position past the header; recovery
        // must always return an intact prefix (never garbage, never a
        // panic).
        for pos in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let r = recover_journal(&bad).unwrap();
            for (i, line) in r.lines.iter().enumerate() {
                assert_eq!(line, lines[i], "flip at {pos}: line {i} not intact");
            }
        }
    }

    #[test]
    fn header_damage_is_a_typed_error_not_text_fallback() {
        let bytes = write_journal(&[r#"{"vt":0,"cmd":"stats"}"#], true, SyncPolicy::Batch);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF; // magic damaged
        assert_eq!(recover_journal(&bad), Err(JournalError::Unrecognized));
        // Plain JSON lines are no journal either.
        let text = b"{\"vt\":0,\"cmd\":\"quit\"}\n";
        assert_eq!(recover_journal(text), Err(JournalError::Unrecognized));
        let mut bad = bytes;
        bad[4] = 0x7F; // version damaged
        assert!(matches!(
            recover_journal(&bad),
            Err(JournalError::BadVersion(_))
        ));
    }

    #[test]
    fn version_1_journals_are_refused_by_their_version() {
        // Version 1 records carry FNV-1a checksums: refused by the header,
        // not misreported as a torn first record.
        let mut old = write_journal(&[r#"{"vt":0,"cmd":"stats"}"#], true, SyncPolicy::Off);
        old[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(recover_journal(&old), Err(JournalError::BadVersion(1)));
    }

    #[test]
    fn batch_policy_syncs_on_the_batch_boundary() {
        // MemFs sync is a no-op, so drive the policy through a FaultFs
        // that faults the first sync: `always` hits it on record 1,
        // `batch` only at the boundary.
        use venn_core::faultio::{Fault, FaultFs, FaultRule, FioOp, MemFs};
        let fs = shared_fs(FaultFs::scripted(
            MemFs::new(),
            vec![FaultRule::on(FioOp::Sync, "", Fault::Io)],
        ));
        let mut w = WalWriter::create(fs, "j.wal", SyncPolicy::Batch).unwrap();
        for i in 0..BATCH_RECORDS - 1 {
            w.append(&format!("{{\"n\":{i}}}")).unwrap();
        }
        // The BATCH_RECORDS-th append crosses the boundary and syncs.
        assert!(w.append("{\"n\":63}").is_err());
    }
}
