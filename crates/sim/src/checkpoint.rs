//! Durable checkpoint management over the [`SimFs`] boundary.
//!
//! PR 8 taught `vennsim` to write periodic world snapshots; this module
//! lifts that logic out of the binary and behind [`SimFs`] so every
//! recovery path is drivable by the deterministic fault injector
//! ([`venn_core::faultio`]) instead of only by `kill -9`:
//!
//! * **Atomic publish** — a checkpoint is written to `<name>.tmp`,
//!   fsynced, then renamed over `ckpt-<simtime>.vsnp`. A crash at any
//!   interior point strands at most a `.tmp` file; the real name always
//!   holds a complete, sealed container (or nothing).
//! * **Startup hygiene** — [`CheckpointStore::clean_stale_tmp`] scans
//!   for and removes `ckpt-*.vsnp.tmp` files left by a crash mid-write,
//!   reporting each removal; listing and resume never parse them.
//! * **Retry with backoff** — transient write failures (ENOSPC, EIO)
//!   are retried a bounded number of times before surfacing as a typed
//!   error; backoff is wall-clock only, so virtual time and the
//!   simulation's determinism are untouched.
//! * **Triage on resume** — newest checkpoint first; an unreadable,
//!   truncated, corrupt, or mismatched-run file is reported and the
//!   next-newest tried. Every degraded step is a warning string, never
//!   a panic.

use std::fmt;
use std::time::Duration;

use venn_core::faultio::{retry_transient, FioError, SimFs};
use venn_core::{Scheduler, SnapError};
use venn_traces::Workload;

use crate::snapshot::{resume_world, snapshot_world};
use crate::{SimConfig, World};

/// Write attempts per checkpoint before the error surfaces.
const WRITE_ATTEMPTS: u32 = 4;

/// Initial backoff between checkpoint write attempts (doubles each try).
const WRITE_BACKOFF: Duration = Duration::from_millis(10);

/// Publishes one checkpoint of `world` + `scheduler` at `path`: the
/// snapshot is written atomically (tmp + fsync + rename), and transient
/// failures are retried with backoff. Returns the bytes written. Every
/// checkpoint — a [`CheckpointStore`]'s and a serve session's — is
/// published here.
pub fn publish_checkpoint(
    fs: &mut dyn SimFs,
    path: &str,
    world: &World,
    scheduler: &dyn Scheduler,
) -> Result<usize, CkptError> {
    let bytes = snapshot_world(world, scheduler)?;
    retry_transient(WRITE_ATTEMPTS, WRITE_BACKOFF, || {
        fs.write_atomic(path, &bytes)
    })?;
    Ok(bytes.len())
}

/// Why a checkpoint operation failed — always typed, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum CkptError {
    /// Capturing or decoding the snapshot bytes failed.
    Snapshot(SnapError),
    /// A filesystem operation failed (after retries, where applicable).
    Io(FioError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Snapshot(e) => write!(f, "checkpoint snapshot: {e}"),
            CkptError::Io(e) => write!(f, "checkpoint I/O: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<FioError> for CkptError {
    fn from(e: FioError) -> Self {
        CkptError::Io(e)
    }
}

impl From<SnapError> for CkptError {
    fn from(e: SnapError) -> Self {
        CkptError::Snapshot(e)
    }
}

/// A resumed run: the restored world plus the scheduler driving it.
pub(crate) type LiveRun = (World, Box<dyn Scheduler>);

/// What a resume attempt found, with every degraded step on record.
pub struct ResumeOutcome {
    /// The restored run, or `None` when no checkpoint survived triage.
    pub run: Option<LiveRun>,
    /// One line per skipped/unusable checkpoint, oldest attempt first.
    pub warnings: Vec<String>,
}

/// A checkpoint directory bound to a [`SimFs`] backend.
pub struct CheckpointStore<'fs> {
    fs: &'fs mut dyn SimFs,
    dir: String,
    keep: usize,
}

impl<'fs> CheckpointStore<'fs> {
    /// Opens (creating if needed) the checkpoint directory `dir`,
    /// retaining the newest `keep` checkpoints on every write.
    pub fn open(fs: &'fs mut dyn SimFs, dir: &str, keep: usize) -> Result<Self, CkptError> {
        fs.create_dir_all(dir)?;
        Ok(CheckpointStore {
            fs,
            dir: dir.to_string(),
            keep: keep.max(1),
        })
    }

    /// Removes stale `ckpt-*.vsnp.tmp` files left by a crash mid-write,
    /// returning the removed names. Resume never parses `.tmp` files,
    /// but leaving them around wastes space and confuses operators.
    pub fn clean_stale_tmp(&mut self) -> Result<Vec<String>, FioError> {
        let mut removed = Vec::new();
        for name in self.fs.list(&self.dir)? {
            if name.starts_with("ckpt-") && name.ends_with(".vsnp.tmp") {
                let path = format!("{}/{name}", self.dir);
                // Best effort: a vanished or unremovable tmp file is not
                // worth failing startup over.
                if self.fs.remove(&path).is_ok() {
                    removed.push(name);
                }
            }
        }
        Ok(removed)
    }

    /// Checkpoints as `(sim_time_ms, full_path)`, sorted ascending.
    /// `.tmp` strays and unparsable names are skipped, never errors.
    pub fn list(&mut self) -> Result<Vec<(u64, String)>, FioError> {
        let mut out = Vec::new();
        for name in self.fs.list(&self.dir)? {
            let Some(stamp) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".vsnp"))
            else {
                continue;
            };
            if let Ok(time) = stamp.parse::<u64>() {
                out.push((time, format!("{}/{name}", self.dir)));
            }
        }
        out.sort();
        Ok(out)
    }

    /// Writes one checkpoint of `world` + `scheduler` through
    /// [`publish_checkpoint`], then prunes all but the newest `keep`.
    /// Returns the published path.
    pub fn write(&mut self, world: &World, scheduler: &dyn Scheduler) -> Result<String, CkptError> {
        let path = format!("{}/ckpt-{:016}.vsnp", self.dir, world.now());
        publish_checkpoint(self.fs, &path, world, scheduler)?;
        self.prune()?;
        Ok(path)
    }

    /// Removes all but the newest `keep` checkpoints (best effort —
    /// a failed removal of a stale checkpoint never fails the write
    /// that triggered the prune).
    fn prune(&mut self) -> Result<(), FioError> {
        let ckpts = self.list()?;
        for (_, stale) in ckpts.iter().rev().skip(self.keep) {
            let _ = self.fs.remove(stale);
        }
        Ok(())
    }

    /// Resumes from the newest usable checkpoint, degrading gracefully:
    /// unreadable, truncated, corrupt, or mismatched-run files are
    /// recorded as warnings and the next-newest tried. `build_scheduler`
    /// is called once per attempt — a failed load may leave a scheduler
    /// partially overwritten, so each attempt gets a fresh one.
    pub fn resume(
        &mut self,
        config: SimConfig,
        workload: &Workload,
        build_scheduler: &mut dyn FnMut() -> Box<dyn Scheduler>,
    ) -> Result<ResumeOutcome, FioError> {
        let ckpts = self.list()?;
        let mut warnings = Vec::new();
        for (_, path) in ckpts.iter().rev() {
            let bytes = match self.fs.read(path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    warnings.push(format!("skipping checkpoint {path}: {e}"));
                    continue;
                }
            };
            let mut scheduler = build_scheduler();
            match resume_world(&bytes, config, workload, &mut *scheduler) {
                Ok(world) => {
                    return Ok(ResumeOutcome {
                        run: Some((world, scheduler)),
                        warnings,
                    })
                }
                Err(e) => warnings.push(format!("checkpoint {path} unusable: {e}")),
            }
        }
        Ok(ResumeOutcome {
            run: None,
            warnings,
        })
    }
}
