//! The serve command protocol: typed commands, typed errors, and the
//! canonical journal form.
//!
//! # Grammar
//!
//! One JSON object per line, dispatched on its `"cmd"` field:
//!
//! ```text
//! {"cmd":"submit","category":"general|compute|memory|resource",
//!  "rounds":N,"demand":N,"task_ms":N[,"arrival_ms":VT]}
//! {"cmd":"withdraw","job":N}
//! {"cmd":"query-job","job":N}
//! {"cmd":"stats"}
//! {"cmd":"advance","ms":N}
//! {"cmd":"subscribe","every_ms":N}
//! {"cmd":"unsubscribe"}
//! {"cmd":"checkpoint","path":"FILE.vsnp"}
//! {"cmd":"save-workload","path":"FILE.tsv"}
//! {"cmd":"fork","scheduler":NAME[,"epsilon":F][,"tiers":N][,"csv":"FILE.csv"]}
//! {"cmd":"quit"}
//! ```
//!
//! `NAME` is one of [`SchedSpec::NAMES`](crate::SchedSpec::NAMES).
//!
//! A command may carry a `"vt"` field (ignored on parse): journal lines
//! are commands re-serialized in **canonical form** — `vt` first, then
//! `cmd`, then arguments in the fixed order above, compact, no
//! whitespace — so a journal replayed through the same session code
//! regenerates itself byte for byte.

use venn_core::SpecCategory;

use crate::json::{self, parse, Value};

/// Why a command line was rejected. The code string is part of the wire
/// protocol (`error.code`); the message is free-form diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdError {
    /// Stable machine-readable code.
    pub(crate) code: &'static str,
    /// Human-readable detail.
    pub(crate) msg: String,
}

impl CmdError {
    /// Unparseable JSON.
    pub(crate) fn bad_json(msg: impl Into<String>) -> Self {
        CmdError {
            code: "bad-json",
            msg: msg.into(),
        }
    }

    /// Well-formed JSON, unknown `cmd`.
    pub(crate) fn unknown_cmd(msg: impl Into<String>) -> Self {
        CmdError {
            code: "unknown-cmd",
            msg: msg.into(),
        }
    }

    /// Well-formed command, malformed argument (missing, wrong type,
    /// negative where a count is needed, unknown enum value).
    pub(crate) fn bad_arg(msg: impl Into<String>) -> Self {
        CmdError {
            code: "bad-arg",
            msg: msg.into(),
        }
    }

    /// The referenced job does not exist or is already terminal.
    pub(crate) fn unknown_job(msg: impl Into<String>) -> Self {
        CmdError {
            code: "unknown-job",
            msg: msg.into(),
        }
    }

    /// A time argument lands before the current virtual time.
    pub(crate) fn past_time(msg: impl Into<String>) -> Self {
        CmdError {
            code: "past-time",
            msg: msg.into(),
        }
    }

    /// A command arrived after `quit`.
    pub(crate) fn after_quit() -> Self {
        CmdError {
            code: "after-quit",
            msg: "session already quit".into(),
        }
    }

    /// A filesystem side effect failed.
    pub(crate) fn io(msg: impl Into<String>) -> Self {
        CmdError {
            code: "io",
            msg: msg.into(),
        }
    }

    /// Snapshot capture or restore failed.
    pub(crate) fn snapshot(msg: impl Into<String>) -> Self {
        CmdError {
            code: "snapshot",
            msg: msg.into(),
        }
    }

    /// A client's outbound frame queue overflowed; the connection is
    /// about to be closed. This error is the *last* line the client sees.
    pub(crate) fn backpressure(msg: impl Into<String>) -> Self {
        CmdError {
            code: "backpressure",
            msg: msg.into(),
        }
    }

    /// A client sent a line longer than the protocol bound; the
    /// oversized line is discarded without being parsed.
    pub(crate) fn line_too_long(msg: impl Into<String>) -> Self {
        CmdError {
            code: "line-too-long",
            msg: msg.into(),
        }
    }

    /// The error as a one-line JSON response.
    pub(crate) fn to_response(&self, vt: u64) -> String {
        json::object(|w| {
            w.uint("vt", vt).bool("ok", false).object("error", |e| {
                e.str("code", self.code).str("msg", &self.msg);
            });
        })
    }
}

/// A parsed, validated protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Submit a job mid-run. `arrival_ms` is absolute virtual time;
    /// `None` means "now".
    Submit {
        category: SpecCategory,
        rounds: u32,
        demand: u32,
        task_ms: u64,
        arrival_ms: Option<u64>,
    },
    /// Withdraw a live job.
    Withdraw { job: usize },
    /// Query one job's runtime state.
    QueryJob { job: usize },
    /// Capture a metrics frame.
    Stats,
    /// Advance virtual time by `ms`, dispatching due events.
    Advance { ms: u64 },
    /// Stream a metrics frame every `every_ms` of virtual time.
    Subscribe { every_ms: u64 },
    /// Stop streaming frames.
    Unsubscribe,
    /// Write a sealed checkpoint of the live world.
    Checkpoint { path: String },
    /// Write the session's current workload (including live submissions)
    /// as TSV — what an offline run needs to resume or fork this session.
    SaveWorkload { path: String },
    /// What-if fork: snapshot the live world, run it to completion under
    /// this scheduler arm AND under the current one, report the diff.
    Fork {
        scheduler: String,
        epsilon: f64,
        tiers: usize,
        csv: Option<String>,
    },
    /// End the session.
    Quit,
}

fn category_of(name: &str) -> Option<SpecCategory> {
    Some(match name {
        "general" => SpecCategory::General,
        "compute" => SpecCategory::ComputeRich,
        "memory" => SpecCategory::MemoryRich,
        "resource" => SpecCategory::HighPerf,
        _ => return None,
    })
}

fn category_name(c: SpecCategory) -> &'static str {
    match c {
        SpecCategory::General => "general",
        SpecCategory::ComputeRich => "compute",
        SpecCategory::MemoryRich => "memory",
        SpecCategory::HighPerf => "resource",
    }
}

/// Extracts a required non-negative integer field, with `past-time` for
/// negative time-like fields and `bad-arg` for everything else wrong.
fn req_u64(v: &Value, key: &str, time_like: bool) -> Result<u64, CmdError> {
    match v.get(key) {
        None => Err(CmdError::bad_arg(format!("missing {key:?}"))),
        Some(f) => match f.as_u64() {
            Some(n) => Ok(n),
            None => match (time_like, f.as_i64()) {
                (true, Some(n)) if n < 0 => {
                    Err(CmdError::past_time(format!("{key} {n} is negative")))
                }
                _ => Err(CmdError::bad_arg(format!(
                    "{key} must be a non-negative integer, got {}",
                    f.to_json()
                ))),
            },
        },
    }
}

fn req_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, CmdError> {
    v.get(key)
        .ok_or_else(|| CmdError::bad_arg(format!("missing {key:?}")))?
        .as_str()
        .ok_or_else(|| CmdError::bad_arg(format!("{key} must be a string")))
}

impl Command {
    /// Parses one protocol line. A `"vt"` field is tolerated (journals
    /// carry it) but not interpreted here — the session checks it.
    pub fn parse_line(line: &str) -> Result<Command, CmdError> {
        Command::from_value(&parse(line).map_err(CmdError::bad_json)?)
    }

    /// The command a parsed line holds. The session parses each line once
    /// and reads both the command and its `"vt"` stamp from one [`Value`].
    pub(crate) fn from_value(v: &Value) -> Result<Command, CmdError> {
        if !matches!(v, Value::Object(_)) {
            return Err(CmdError::bad_json("command must be a JSON object"));
        }
        let cmd = req_str(v, "cmd").map_err(|_| CmdError::unknown_cmd("missing \"cmd\" field"))?;
        match cmd {
            "submit" => {
                let category = req_str(v, "category").and_then(|name| {
                    category_of(name).ok_or_else(|| {
                        CmdError::bad_arg(format!(
                            "unknown category {name:?} (expected general|compute|memory|resource)"
                        ))
                    })
                })?;
                // Only the wire's `u32` ranges live here; the job rules
                // (`JobPlan::check`) run when the session submits.
                let req_u32 = |key| {
                    let n = req_u64(v, key, false)?;
                    u32::try_from(n)
                        .map_err(|_| CmdError::bad_arg(format!("{key} {n} out of range")))
                };
                let rounds = req_u32("rounds")?;
                let demand = req_u32("demand")?;
                let task_ms = req_u64(v, "task_ms", false)?;
                let arrival_ms = match v.get("arrival_ms") {
                    None => None,
                    Some(_) => Some(req_u64(v, "arrival_ms", true)?),
                };
                Ok(Command::Submit {
                    category,
                    rounds,
                    demand,
                    task_ms,
                    arrival_ms,
                })
            }
            "withdraw" => Ok(Command::Withdraw {
                job: req_u64(v, "job", false)? as usize,
            }),
            "query-job" => Ok(Command::QueryJob {
                job: req_u64(v, "job", false)? as usize,
            }),
            "stats" => Ok(Command::Stats),
            "advance" => {
                let ms = req_u64(v, "ms", true)?;
                Ok(Command::Advance { ms })
            }
            "subscribe" => {
                let every_ms = req_u64(v, "every_ms", false)?;
                if every_ms == 0 {
                    return Err(CmdError::bad_arg("every_ms must be positive"));
                }
                Ok(Command::Subscribe { every_ms })
            }
            "unsubscribe" => Ok(Command::Unsubscribe),
            "checkpoint" => Ok(Command::Checkpoint {
                path: req_str(v, "path")?.to_string(),
            }),
            "save-workload" => Ok(Command::SaveWorkload {
                path: req_str(v, "path")?.to_string(),
            }),
            "fork" => {
                let scheduler = req_str(v, "scheduler")?.to_string();
                let epsilon = match v.get("epsilon") {
                    None => 0.0,
                    Some(f) => f
                        .as_f64()
                        .ok_or_else(|| CmdError::bad_arg("epsilon must be a number"))?,
                };
                let tiers = match v.get("tiers") {
                    None => 3,
                    Some(_) => req_u64(v, "tiers", false)? as usize,
                };
                let csv = match v.get("csv") {
                    None => None,
                    Some(_) => Some(req_str(v, "csv")?.to_string()),
                };
                Ok(Command::Fork {
                    scheduler,
                    epsilon,
                    tiers,
                    csv,
                })
            }
            "quit" => Ok(Command::Quit),
            other => Err(CmdError::unknown_cmd(format!("unknown cmd {other:?}"))),
        }
    }

    /// The `"cmd"` name of this command.
    fn name(&self) -> &'static str {
        match self {
            Command::Submit { .. } => "submit",
            Command::Withdraw { .. } => "withdraw",
            Command::QueryJob { .. } => "query-job",
            Command::Stats => "stats",
            Command::Advance { .. } => "advance",
            Command::Subscribe { .. } => "subscribe",
            Command::Unsubscribe => "unsubscribe",
            Command::Checkpoint { .. } => "checkpoint",
            Command::SaveWorkload { .. } => "save-workload",
            Command::Fork { .. } => "fork",
            Command::Quit => "quit",
        }
    }

    /// Canonical journal form: `vt` first, then `cmd`, then arguments in
    /// the grammar's order, compact. Re-serializing a parsed journal line
    /// reproduces it exactly.
    pub(crate) fn canonical(&self, vt: u64) -> String {
        json::object(|w| {
            w.uint("vt", vt).str("cmd", self.name());
            match self {
                Command::Submit {
                    category,
                    rounds,
                    demand,
                    task_ms,
                    arrival_ms,
                } => {
                    w.str("category", category_name(*category))
                        .uint("rounds", u64::from(*rounds))
                        .uint("demand", u64::from(*demand))
                        .uint("task_ms", *task_ms);
                    if let Some(at) = arrival_ms {
                        w.uint("arrival_ms", *at);
                    }
                }
                Command::Withdraw { job } | Command::QueryJob { job } => {
                    w.uint("job", *job as u64);
                }
                Command::Advance { ms } => {
                    w.uint("ms", *ms);
                }
                Command::Subscribe { every_ms } => {
                    w.uint("every_ms", *every_ms);
                }
                Command::Checkpoint { path } | Command::SaveWorkload { path } => {
                    w.str("path", path);
                }
                Command::Fork {
                    scheduler,
                    epsilon,
                    tiers,
                    csv,
                } => {
                    w.str("scheduler", scheduler)
                        .float("epsilon", *epsilon)
                        .uint("tiers", *tiers as u64);
                    if let Some(path) = csv {
                        w.str("csv", path);
                    }
                }
                Command::Stats | Command::Unsubscribe | Command::Quit => {}
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_command() {
        let cases = [
            (
                r#"{"cmd":"submit","category":"compute","rounds":3,"demand":5,"task_ms":1000}"#,
                Command::Submit {
                    category: SpecCategory::ComputeRich,
                    rounds: 3,
                    demand: 5,
                    task_ms: 1000,
                    arrival_ms: None,
                },
            ),
            (
                r#"{"cmd":"withdraw","job":2}"#,
                Command::Withdraw { job: 2 },
            ),
            (r#"{"cmd":"stats"}"#, Command::Stats),
            (
                r#"{"cmd":"advance","ms":60000}"#,
                Command::Advance { ms: 60_000 },
            ),
            (r#"{"cmd":"quit"}"#, Command::Quit),
        ];
        for (line, want) in cases {
            assert_eq!(Command::parse_line(line).unwrap(), want, "{line}");
        }
    }

    #[test]
    fn canonical_form_is_a_fixed_point() {
        // A journal line re-parsed and re-serialized at the same vt must
        // reproduce itself — the property byte-identical replay rests on.
        let lines = [
            r#"{"vt":0,"cmd":"submit","category":"general","rounds":2,"demand":3,"task_ms":500,"arrival_ms":7}"#,
            r#"{"vt":9,"cmd":"advance","ms":100}"#,
            r#"{"vt":9,"cmd":"fork","scheduler":"fifo","epsilon":0.25,"tiers":3}"#,
            r#"{"vt":3,"cmd":"save-workload","path":"w.tsv"}"#,
        ];
        for line in lines {
            let v = parse(line).unwrap();
            let vt = v.get("vt").and_then(Value::as_u64).unwrap();
            let cmd = Command::from_value(&v).unwrap();
            assert_eq!(cmd.canonical(vt), line);
        }
    }

    #[test]
    fn typed_errors_for_malformed_lines() {
        let cases = [
            ("{not json", "bad-json"),
            ("[1,2]", "bad-json"),
            (r#"{"cmd":"warp"}"#, "unknown-cmd"),
            (r#"{"nocmd":1}"#, "unknown-cmd"),
            (r#"{"cmd":"advance"}"#, "bad-arg"),
            (r#"{"cmd":"advance","ms":-5}"#, "past-time"),
            (r#"{"cmd":"advance","ms":1.5}"#, "bad-arg"),
            (
                r#"{"cmd":"submit","category":"quantum","rounds":1,"demand":1,"task_ms":1}"#,
                "bad-arg",
            ),
            (
                r#"{"cmd":"submit","category":"general","rounds":4294967296,"demand":1,"task_ms":1}"#,
                "bad-arg",
            ),
            (r#"{"cmd":"subscribe","every_ms":0}"#, "bad-arg"),
            (r#"{"cmd":"withdraw"}"#, "bad-arg"),
            (r#"{"cmd":"checkpoint"}"#, "bad-arg"),
        ];
        for (line, code) in cases {
            let err = Command::parse_line(line).unwrap_err();
            assert_eq!(err.code, code, "{line} -> {err:?}");
        }
    }
}
