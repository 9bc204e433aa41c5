//! Deterministic I/O fault injection: the [`SimFs`] boundary.
//!
//! Every durable side effect in the workspace — checkpoint files, the
//! serve journal, CSV/TSV/JSON exports — goes through one narrow trait,
//! [`SimFs`], instead of calling `std::fs` directly. That buys two
//! things:
//!
//! 1. **A real backend** ([`RealFs`]) that is a thin passthrough to the
//!    operating system, plus an **in-memory backend** ([`MemFs`]) whose
//!    contents are plain byte maps — so durability tests can inspect
//!    exactly what "disk" holds after any sequence of operations without
//!    touching a real filesystem.
//! 2. **A fault-injecting decorator** ([`FaultFs`]) that wraps either
//!    backend and injects ENOSPC, EIO, torn writes at byte *k*,
//!    crash-after-write, and crash-before-rename — driven by an explicit
//!    script of [`FaultRule`]s or by its own seeded RNG stream. Recovery
//!    paths become *exhaustively* testable: instead of hoping a `kill -9`
//!    lands in the window of interest, a test states the window.
//!
//! The failure model mirrors what POSIX actually promises. A torn write
//! leaves a **prefix** of the payload; a crash freezes the backend state
//! at the instant of the fault (subsequent operations fail with
//! [`FioError::Crashed`] and the test inspects the survivor state to
//! drive recovery); `rename` within a directory is atomic — it either
//! happened or it did not, never half.
//!
//! Errors are typed ([`FioError`]), never panics: callers either retry,
//! degrade, or surface the error — the standing bar is that no fault
//! reachable through this trait may take down a run with anything other
//! than a typed error.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Typed failure from a [`SimFs`] operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FioError {
    /// The backing store is out of space (ENOSPC). At most a prefix of
    /// the payload reached the store.
    NoSpace {
        /// Path of the failed operation.
        path: String,
    },
    /// A device-level I/O failure (EIO), or a real-OS error surfaced
    /// through [`RealFs`]. At most a prefix of the payload reached the
    /// store.
    Io {
        /// Path of the failed operation.
        path: String,
        /// Backend diagnostic.
        msg: String,
    },
    /// The path does not exist.
    NotFound {
        /// Path of the failed operation.
        path: String,
    },
    /// The simulated process crashed at an injected fault point; the
    /// backend is frozen and every further operation fails with this.
    Crashed,
}

impl FioError {
    /// Whether retrying the operation could plausibly succeed —
    /// ENOSPC and EIO are transient in real deployments (space freed,
    /// controller recovers); a crash is not.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, FioError::NoSpace { .. } | FioError::Io { .. })
    }
}

impl fmt::Display for FioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FioError::NoSpace { path } => write!(f, "{path}: no space left on device"),
            FioError::Io { path, msg } => write!(f, "{path}: I/O error: {msg}"),
            FioError::NotFound { path } => write!(f, "{path}: not found"),
            FioError::Crashed => write!(f, "simulated crash: filesystem frozen"),
        }
    }
}

impl std::error::Error for FioError {}

/// The durable-write boundary: every operation the workspace performs
/// against a filesystem, and nothing more.
///
/// Paths are plain strings (the workspace never needs non-UTF-8 paths);
/// directories are created explicitly; `list` returns *file names* (not
/// full paths) in sorted order so iteration is deterministic on every
/// backend.
pub trait SimFs {
    /// Creates or truncates `path` and writes `bytes` to it.
    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError>;

    /// Appends `bytes` to `path`, creating it if absent.
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError>;

    /// Durably flushes `path` (fsync). A no-op on [`MemFs`].
    fn sync(&mut self, path: &str) -> Result<(), FioError>;

    /// Atomically renames `from` to `to` (same directory).
    fn rename(&mut self, from: &str, to: &str) -> Result<(), FioError>;

    /// Removes the file at `path`.
    fn remove(&mut self, path: &str) -> Result<(), FioError>;

    /// Reads the full contents of `path`.
    fn read(&mut self, path: &str) -> Result<Vec<u8>, FioError>;

    /// Whether a file exists at `path`.
    fn exists(&mut self, path: &str) -> bool;

    /// File names directly under `dir`, sorted.
    fn list(&mut self, dir: &str) -> Result<Vec<String>, FioError>;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&mut self, dir: &str) -> Result<(), FioError>;

    /// The atomic-publish idiom every durable artifact uses: write the
    /// payload to `<path>.tmp`, fsync it, then rename over `path`. A
    /// crash at any interior point leaves either the old file, or the
    /// old file plus a stale `.tmp` — never a torn file under the real
    /// name.
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        let tmp = format!("{path}.tmp");
        self.write(&tmp, bytes)?;
        self.sync(&tmp)?;
        self.rename(&tmp, path)
    }
}

/// Which [`SimFs`] operation a [`FaultRule`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FioOp {
    /// [`SimFs::write`]
    Write,
    /// [`SimFs::append`]
    Append,
    /// [`SimFs::sync`]
    Sync,
    /// [`SimFs::rename`]
    Rename,
    /// [`SimFs::remove`]
    Remove,
    /// [`SimFs::read`]
    Read,
}

/// What an injected fault does to the targeted operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Fail with [`FioError::NoSpace`]; nothing is written.
    NoSpace,
    /// Fail with [`FioError::Io`]; nothing is written.
    Io,
    /// A torn write: only the first `keep` bytes of the payload reach
    /// the store, then the operation fails with [`FioError::Io`]. On
    /// non-payload operations this degrades to plain [`Fault::Io`].
    Torn {
        /// Bytes of the payload that survive.
        keep: usize,
    },
    /// Perform the operation fully, then crash — later operations fail
    /// with [`FioError::Crashed`]. Models power loss just after a write
    /// (e.g. before the rename that would publish it).
    CrashAfter,
    /// Crash without touching anything. Models power loss just before
    /// the operation.
    CrashBefore,
}

/// One scripted fault: fires on the `countdown`-th matching operation
/// (0 = the next one), then retires.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation kind to match.
    pub(crate) op: FioOp,
    /// Substring the path must contain (empty matches everything).
    pub(crate) path_contains: String,
    /// Matching operations to let through before firing.
    pub(crate) countdown: usize,
    /// The fault to inject.
    pub(crate) fault: Fault,
}

impl FaultRule {
    /// A rule firing on the next `op` whose path contains `path`.
    pub fn on(op: FioOp, path: &str, fault: Fault) -> Self {
        FaultRule {
            op,
            path_contains: path.to_string(),
            countdown: 0,
            fault,
        }
    }

    /// Same, but lets `skip` matching operations through first.
    pub fn after(op: FioOp, path: &str, skip: usize, fault: Fault) -> Self {
        FaultRule {
            countdown: skip,
            ..FaultRule::on(op, path, fault)
        }
    }
}

/// The real filesystem: a thin passthrough to `std::fs`. OS errors are
/// mapped onto the typed [`FioError`] surface (`ENOSPC` is recognized by
/// its `ErrorKind` where the platform reports it, everything else is
/// [`FioError::Io`]).
#[derive(Debug, Default)]
pub struct RealFs;

impl RealFs {
    fn map(path: &str, e: std::io::Error) -> FioError {
        match e.kind() {
            std::io::ErrorKind::NotFound => FioError::NotFound {
                path: path.to_string(),
            },
            // `StorageFull` is unstable on older toolchains; match the
            // raw errno instead so ENOSPC keeps its typed identity.
            _ if e.raw_os_error() == Some(28) => FioError::NoSpace {
                path: path.to_string(),
            },
            _ => FioError::Io {
                path: path.to_string(),
                msg: e.to_string(),
            },
        }
    }
}

impl SimFs for RealFs {
    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        std::fs::write(path, bytes).map_err(|e| Self::map(path, e))
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Self::map(path, e))?;
        f.write_all(bytes).map_err(|e| Self::map(path, e))
    }

    fn sync(&mut self, path: &str) -> Result<(), FioError> {
        let f = std::fs::OpenOptions::new()
            .read(true)
            .open(path)
            .map_err(|e| Self::map(path, e))?;
        f.sync_all().map_err(|e| Self::map(path, e))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), FioError> {
        std::fs::rename(from, to).map_err(|e| Self::map(from, e))
    }

    fn remove(&mut self, path: &str) -> Result<(), FioError> {
        std::fs::remove_file(path).map_err(|e| Self::map(path, e))
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, FioError> {
        std::fs::read(path).map_err(|e| Self::map(path, e))
    }

    fn exists(&mut self, path: &str) -> bool {
        std::path::Path::new(path).exists()
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, FioError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| Self::map(dir, e))? {
            let entry = entry.map_err(|e| Self::map(dir, e))?;
            if let Some(name) = entry.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        out.sort();
        Ok(out)
    }

    fn create_dir_all(&mut self, dir: &str) -> Result<(), FioError> {
        std::fs::create_dir_all(dir).map_err(|e| Self::map(dir, e))
    }
}

/// An in-memory filesystem: files are byte vectors in a sorted map.
/// Deterministic, inspectable, and the natural inner backend for
/// [`FaultFs`]-driven durability tests.
#[derive(Debug, Default, Clone)]
pub struct MemFs {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemFs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        MemFs::default()
    }

    /// Direct read access to a file's bytes, for assertions.
    pub fn get(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(Vec::as_slice)
    }
}

impl SimFs for MemFs {
    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        self.files.insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        self.files
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self, _path: &str) -> Result<(), FioError> {
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), FioError> {
        match self.files.remove(from) {
            Some(bytes) => {
                self.files.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(FioError::NotFound {
                path: from.to_string(),
            }),
        }
    }

    fn remove(&mut self, path: &str) -> Result<(), FioError> {
        self.files
            .remove(path)
            .map(|_| ())
            .ok_or(FioError::NotFound {
                path: path.to_string(),
            })
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, FioError> {
        self.files.get(path).cloned().ok_or(FioError::NotFound {
            path: path.to_string(),
        })
    }

    fn exists(&mut self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, FioError> {
        let prefix = if dir.ends_with('/') {
            dir.to_string()
        } else {
            format!("{dir}/")
        };
        Ok(self
            .files
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(String::from)
            .collect())
    }

    fn create_dir_all(&mut self, _dir: &str) -> Result<(), FioError> {
        Ok(())
    }
}

/// How a [`FaultFs`] decides when to inject.
#[derive(Debug)]
enum FaultPlan {
    /// An explicit script: rules fire in declaration order as their
    /// countdowns reach zero.
    Script(Vec<FaultRule>),
    /// A seeded stream: every mutating operation draws from its own
    /// split RNG and injects a survivable fault (ENOSPC / EIO / torn)
    /// with probability `p`. Crashes are never drawn — random mode
    /// exercises retry/degrade paths, scripted mode exercises crashes.
    Random { rng: StdRng, p: f64 },
}

/// The fault-injecting [`SimFs`] decorator.
///
/// Wraps any backend and consults its `FaultPlan` before each
/// operation. After a crash fault fires, the inner backend is frozen:
/// every operation returns [`FioError::Crashed`], and the test harness
/// recovers the "disk at power loss" via [`FaultFs::into_inner`].
pub struct FaultFs<F: SimFs> {
    inner: F,
    plan: FaultPlan,
    crashed: bool,
    ops: u64,
    injected: u64,
}

impl<F: SimFs> FaultFs<F> {
    /// A scripted fault plan over `inner`.
    pub fn scripted(inner: F, rules: Vec<FaultRule>) -> Self {
        FaultFs {
            inner,
            plan: FaultPlan::Script(rules),
            crashed: false,
            ops: 0,
            injected: 0,
        }
    }

    /// A seeded random fault plan over `inner`: each mutating operation
    /// fails with probability `p` (ENOSPC, EIO, or a torn write chosen
    /// uniformly; never a crash).
    pub fn random(inner: F, seed: u64, p: f64) -> Self {
        FaultFs {
            inner,
            plan: FaultPlan::Random {
                rng: StdRng::seed_from_u64(seed),
                p,
            },
            crashed: false,
            ops: 0,
            injected: 0,
        }
    }

    /// Consumes the decorator and returns the backend — the state of
    /// "disk" at this instant, including after a crash.
    pub fn into_inner(self) -> F {
        self.inner
    }

    /// Whether a crash fault has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// `(operations seen, faults injected)` — telemetry for chaos logs.
    pub fn stats(&self) -> (u64, u64) {
        (self.ops, self.injected)
    }

    /// Decides whether this operation faults, and how.
    fn draw(&mut self, op: FioOp, path: &str, payload_len: Option<usize>) -> Option<Fault> {
        self.ops += 1;
        match &mut self.plan {
            FaultPlan::Script(rules) => {
                let idx = rules
                    .iter()
                    .position(|r| r.op == op && path.contains(&r.path_contains))?;
                if rules[idx].countdown > 0 {
                    rules[idx].countdown -= 1;
                    return None;
                }
                Some(rules.remove(idx).fault)
            }
            FaultPlan::Random { rng, p } => {
                // Reads never fault in random mode: the chaos harness
                // targets the durability of *writes*; recovery reads are
                // exercised by scripted plans.
                if matches!(op, FioOp::Read) || !rng.gen_bool(*p) {
                    return None;
                }
                Some(match rng.gen_range(0u32..3) {
                    0 => Fault::NoSpace,
                    1 => Fault::Io,
                    _ => Fault::Torn {
                        keep: match payload_len {
                            Some(len) if len > 0 => rng.gen_range(0usize..len),
                            _ => 0,
                        },
                    },
                })
            }
        }
    }

    /// Applies one drawn fault around a payload-carrying operation.
    fn faulted_payload_op(
        &mut self,
        op: FioOp,
        path: &str,
        bytes: &[u8],
        apply: impl Fn(&mut F, &str, &[u8]) -> Result<(), FioError>,
    ) -> Result<(), FioError> {
        if self.crashed {
            return Err(FioError::Crashed);
        }
        match self.draw(op, path, Some(bytes.len())) {
            None => apply(&mut self.inner, path, bytes),
            Some(fault) => {
                self.injected += 1;
                match fault {
                    Fault::NoSpace => Err(FioError::NoSpace {
                        path: path.to_string(),
                    }),
                    Fault::Io => Err(FioError::Io {
                        path: path.to_string(),
                        msg: "injected EIO".into(),
                    }),
                    Fault::Torn { keep } => {
                        let keep = keep.min(bytes.len());
                        apply(&mut self.inner, path, &bytes[..keep])?;
                        Err(FioError::Io {
                            path: path.to_string(),
                            msg: format!("injected torn write after {keep} bytes"),
                        })
                    }
                    Fault::CrashAfter => {
                        let r = apply(&mut self.inner, path, bytes);
                        self.crashed = true;
                        r.and(Err(FioError::Crashed))
                    }
                    Fault::CrashBefore => {
                        self.crashed = true;
                        Err(FioError::Crashed)
                    }
                }
            }
        }
    }

    /// Applies one drawn fault around a payload-less operation.
    fn faulted_plain_op(
        &mut self,
        op: FioOp,
        path: &str,
        apply: impl FnOnce(&mut F) -> Result<(), FioError>,
    ) -> Result<(), FioError> {
        if self.crashed {
            return Err(FioError::Crashed);
        }
        match self.draw(op, path, None) {
            None => apply(&mut self.inner),
            Some(fault) => {
                self.injected += 1;
                match fault {
                    Fault::NoSpace => Err(FioError::NoSpace {
                        path: path.to_string(),
                    }),
                    Fault::Io | Fault::Torn { .. } => Err(FioError::Io {
                        path: path.to_string(),
                        msg: "injected EIO".into(),
                    }),
                    Fault::CrashAfter => {
                        let r = apply(&mut self.inner);
                        self.crashed = true;
                        r.and(Err(FioError::Crashed))
                    }
                    Fault::CrashBefore => {
                        self.crashed = true;
                        Err(FioError::Crashed)
                    }
                }
            }
        }
    }
}

impl<F: SimFs> SimFs for FaultFs<F> {
    fn write(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        self.faulted_payload_op(FioOp::Write, path, bytes, |fs, p, b| fs.write(p, b))
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), FioError> {
        self.faulted_payload_op(FioOp::Append, path, bytes, |fs, p, b| fs.append(p, b))
    }

    fn sync(&mut self, path: &str) -> Result<(), FioError> {
        let path_owned = path.to_string();
        self.faulted_plain_op(FioOp::Sync, path, move |fs| fs.sync(&path_owned))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), FioError> {
        let (f, t) = (from.to_string(), to.to_string());
        self.faulted_plain_op(FioOp::Rename, from, move |fs| fs.rename(&f, &t))
    }

    fn remove(&mut self, path: &str) -> Result<(), FioError> {
        let p = path.to_string();
        self.faulted_plain_op(FioOp::Remove, path, move |fs| fs.remove(&p))
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, FioError> {
        if self.crashed {
            return Err(FioError::Crashed);
        }
        match self.draw(FioOp::Read, path, None) {
            None => self.inner.read(path),
            Some(fault) => {
                self.injected += 1;
                match fault {
                    Fault::NoSpace | Fault::Io | Fault::Torn { .. } => Err(FioError::Io {
                        path: path.to_string(),
                        msg: "injected read EIO".into(),
                    }),
                    Fault::CrashAfter | Fault::CrashBefore => {
                        self.crashed = true;
                        Err(FioError::Crashed)
                    }
                }
            }
        }
    }

    fn exists(&mut self, path: &str) -> bool {
        !self.crashed && self.inner.exists(path)
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, FioError> {
        if self.crashed {
            return Err(FioError::Crashed);
        }
        self.inner.list(dir)
    }

    fn create_dir_all(&mut self, dir: &str) -> Result<(), FioError> {
        if self.crashed {
            return Err(FioError::Crashed);
        }
        self.inner.create_dir_all(dir)
    }
}

/// Retries a transient-faulting operation with bounded backoff: the
/// workspace-wide policy for durable writes that may hit ENOSPC/EIO on a
/// struggling disk. Non-transient errors (crash, not-found) surface
/// immediately. `attempts` counts total tries; backoff doubles from
/// `base` between tries (wall-clock, so simulation determinism is
/// untouched — virtual time never observes it).
pub fn retry_transient<T>(
    attempts: u32,
    base: std::time::Duration,
    mut op: impl FnMut() -> Result<T, FioError>,
) -> Result<T, FioError> {
    let mut delay = base;
    let mut last = None;
    for attempt in 0..attempts.max(1) {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() => {
                if attempt + 1 < attempts {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or(FioError::Crashed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfs_round_trips_and_lists_sorted() {
        let mut fs = MemFs::new();
        fs.create_dir_all("d").unwrap();
        fs.write("d/b.txt", b"bee").unwrap();
        fs.write("d/a.txt", b"ay").unwrap();
        fs.append("d/a.txt", b"!").unwrap();
        assert_eq!(fs.read("d/a.txt").unwrap(), b"ay!");
        assert_eq!(fs.list("d").unwrap(), vec!["a.txt", "b.txt"]);
        fs.rename("d/a.txt", "d/c.txt").unwrap();
        assert!(!fs.exists("d/a.txt"));
        assert!(fs.exists("d/c.txt"));
        fs.remove("d/b.txt").unwrap();
        assert!(matches!(fs.read("d/b.txt"), Err(FioError::NotFound { .. })));
    }

    #[test]
    fn write_atomic_publishes_or_leaves_old() {
        let mut fs = MemFs::new();
        fs.write("f", b"old").unwrap();
        fs.write_atomic("f", b"new").unwrap();
        assert_eq!(fs.read("f").unwrap(), b"new");
        assert!(!fs.exists("f.tmp"));

        // Crash before the rename: old survives, tmp is stranded.
        let mut fs = FaultFs::scripted(
            {
                let mut m = MemFs::new();
                m.write("f", b"old").unwrap();
                m
            },
            vec![FaultRule::on(FioOp::Rename, "f", Fault::CrashBefore)],
        );
        assert_eq!(fs.write_atomic("f", b"new"), Err(FioError::Crashed));
        let disk = fs.into_inner();
        assert_eq!(disk.get("f").unwrap(), b"old");
        assert_eq!(disk.get("f.tmp").unwrap(), b"new");
    }

    #[test]
    fn scripted_faults_fire_once_in_order() {
        let mut fs = FaultFs::scripted(
            MemFs::new(),
            vec![
                FaultRule::after(FioOp::Write, "log", 1, Fault::NoSpace),
                FaultRule::on(FioOp::Append, "", Fault::Torn { keep: 2 }),
            ],
        );
        fs.write("log-a", b"x").unwrap(); // countdown 1 -> 0
        assert!(matches!(
            fs.write("log-b", b"y"),
            Err(FioError::NoSpace { .. })
        ));
        fs.write("log-c", b"z").unwrap(); // rule retired
        assert!(matches!(fs.append("j", b"hello"), Err(FioError::Io { .. })));
        assert_eq!(fs.inner.get("j").unwrap(), b"he");
        fs.append("j", b"llo").unwrap();
        assert_eq!(fs.inner.get("j").unwrap(), b"hello");
        assert_eq!(fs.stats().1, 2);
    }

    #[test]
    fn crash_freezes_the_backend() {
        let mut fs = FaultFs::scripted(
            MemFs::new(),
            vec![FaultRule::on(FioOp::Write, "ckpt", Fault::CrashAfter)],
        );
        fs.write("other", b"ok").unwrap();
        assert_eq!(fs.write("ckpt-1", b"bytes"), Err(FioError::Crashed));
        assert!(fs.is_crashed());
        assert_eq!(fs.write("other", b"more"), Err(FioError::Crashed));
        assert_eq!(fs.read("other"), Err(FioError::Crashed));
        let disk = fs.into_inner();
        // CrashAfter: the faulted write itself landed.
        assert_eq!(disk.get("ckpt-1").unwrap(), b"bytes");
        assert_eq!(disk.get("other").unwrap(), b"ok");
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let run = |seed| {
            let mut fs = FaultFs::random(MemFs::new(), seed, 0.3);
            let mut outcomes = Vec::new();
            for i in 0..50 {
                outcomes.push(fs.write(&format!("f{i}"), b"payload-bytes").is_ok());
            }
            (outcomes, fs.stats())
        };
        assert_eq!(run(7), run(7));
        let (outcomes, (ops, injected)) = run(7);
        assert_eq!(ops, 50);
        assert!(injected > 0, "p=0.3 over 50 ops must inject");
        assert!(outcomes.iter().any(|ok| *ok));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn retry_transient_retries_then_succeeds() {
        let mut fs = FaultFs::scripted(
            MemFs::new(),
            vec![
                FaultRule::on(FioOp::Write, "", Fault::NoSpace),
                FaultRule::on(FioOp::Write, "", Fault::Io),
            ],
        );
        retry_transient(3, std::time::Duration::from_millis(1), || {
            fs.write("f", b"v")
        })
        .unwrap();
        assert_eq!(fs.inner.get("f").unwrap(), b"v");

        // A crash is not transient: no retry, immediate surface.
        let mut fs = FaultFs::scripted(
            MemFs::new(),
            vec![FaultRule::on(FioOp::Write, "", Fault::CrashBefore)],
        );
        let mut calls = 0;
        let r = retry_transient(5, std::time::Duration::from_millis(1), || {
            calls += 1;
            fs.write("f", b"v")
        });
        assert_eq!(r, Err(FioError::Crashed));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retry_transient_exhausts_with_the_last_error() {
        let mut fs = FaultFs::scripted(
            MemFs::new(),
            vec![
                FaultRule::on(FioOp::Write, "", Fault::NoSpace),
                FaultRule::on(FioOp::Write, "", Fault::NoSpace),
                FaultRule::on(FioOp::Write, "", Fault::NoSpace),
            ],
        );
        let r = retry_transient(3, std::time::Duration::from_millis(1), || {
            fs.write("f", b"v")
        });
        assert!(matches!(r, Err(FioError::NoSpace { .. })));
        assert!(!fs.inner.exists("f"));
    }
}
