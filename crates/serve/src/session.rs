//! The live session: one [`World`] driven by protocol commands, with a
//! replayable journal.
//!
//! # Virtual time and the journal
//!
//! The session's clock is the world's virtual time; it advances only
//! through `advance` commands (the interactive driver materializes
//! wall-clock pacing as synthetic `advance`s — see [`crate::driver`]).
//! Every **accepted** command — including pure queries, whose responses
//! are part of the session's observable output — is appended to the
//! journal in canonical form, stamped with the virtual time at which it
//! applied. Rejected commands are not journaled: they had no effect and
//! their diagnostics are not part of the replay surface.
//!
//! Replaying a journal through [`ServeSession::apply_line`] therefore
//! reproduces the live session exactly: same state transitions, same
//! responses byte for byte, and a regenerated journal identical to the
//! input (canonical form is a fixed point). Journal lines carry their
//! `vt` stamp so a replay detects divergence immediately instead of
//! drifting.

use std::time::Duration;

use venn_baselines::BaselineScheduler;
use venn_core::faultio::retry_transient;
use venn_core::{JobId, Scheduler, VennConfig, VennScheduler};
use venn_metrics::csv::Csv;
use venn_metrics::MetricsFrame;
use venn_sim::{
    fork_world, resume_world, snapshot_world, CheckpointStore, JobPhase, SimConfig, SimResult,
    World,
};
use venn_traces::{io as wio, JobPlan, Workload};

use crate::json::{obj, Value};
use crate::protocol::{CmdError, Command};
use crate::wal::{real_fs, SharedFs};

/// Write attempts for a `checkpoint` command before the typed `io`
/// error surfaces (transient ENOSPC/EIO only — hard faults surface
/// immediately).
const CKPT_ATTEMPTS: u32 = 4;

/// Initial backoff between checkpoint attempts (doubles each try;
/// wall-clock only, virtual time is untouched).
const CKPT_BACKOFF: Duration = Duration::from_millis(5);

/// How to build a scheduler arm — the one registry from arm name to
/// scheduler, shared by the live session, its fork children, every
/// command-line front end and the experiment harness.
#[derive(Debug, Clone)]
pub struct SchedSpec {
    /// Arm name, one of [`SchedSpec::NAMES`].
    pub name: String,
    /// Venn fairness knob (ignored by baselines).
    pub epsilon: f64,
    /// Venn tier count (ignored by baselines).
    pub tiers: usize,
    /// Seed for the randomized arms.
    pub seed: u64,
}

impl SchedSpec {
    /// Every arm [`build`](Self::build) knows — the names the built
    /// schedulers report through [`Scheduler::name`].
    pub const NAMES: [&'static str; 7] = [
        "venn",
        "venn-wo-sched",
        "venn-wo-match",
        "random",
        "random-per-device",
        "fifo",
        "srsf",
    ];

    /// The arm `name` with the paper's default Venn knobs.
    pub fn named(name: &str, seed: u64) -> Self {
        let venn = VennConfig::default();
        SchedSpec {
            name: name.to_string(),
            epsilon: venn.epsilon,
            tiers: venn.tiers,
            seed,
        }
    }

    /// Constructs a fresh scheduler instance of this spec. An unknown
    /// name or a Venn knob [`VennConfig::check`] rejects is an error that
    /// names the valid values.
    pub fn build(&self) -> Result<Box<dyn Scheduler>, String> {
        let venn = |base: VennConfig| -> Result<Box<dyn Scheduler>, String> {
            let config = VennConfig {
                epsilon: self.epsilon,
                tiers: self.tiers,
                seed: self.seed,
                ..base
            };
            config.check()?;
            Ok(Box::new(VennScheduler::new(config)))
        };
        match self.name.as_str() {
            "venn" => venn(VennConfig::default()),
            "venn-wo-sched" => venn(VennConfig::matching_only()),
            "venn-wo-match" => venn(VennConfig::scheduling_only()),
            "random" => Ok(Box::new(BaselineScheduler::random_order(self.seed))),
            "random-per-device" => Ok(Box::new(BaselineScheduler::random_per_device(self.seed))),
            "fifo" => Ok(Box::new(BaselineScheduler::fifo())),
            "srsf" => Ok(Box::new(BaselineScheduler::srsf())),
            other => Err(format!(
                "unknown scheduler {other:?} (valid: {})",
                Self::NAMES.join("|")
            )),
        }
    }
}

/// What applying one input line produced.
#[derive(Debug, Default)]
pub struct LineOutcome {
    /// Response lines, in emission order (streamed frames first, then
    /// the command's own acknowledgment), each one JSON document.
    pub responses: Vec<String>,
    /// The canonical journal line, for accepted commands only.
    pub journal: Option<String>,
    /// Whether this line ended the session.
    pub quit: bool,
}

/// One live serving session: a world, its scheduler, and the protocol
/// state machine over them.
pub struct ServeSession {
    config: SimConfig,
    spec: SchedSpec,
    world: World,
    scheduler: Box<dyn Scheduler>,
    subscribe_every: Option<u64>,
    next_frame_at: u64,
    /// `(vt, events)` at the previous frame — the denominator of the
    /// events-per-virtual-second rate.
    last_frame: (u64, u64),
    done: bool,
    fs: SharedFs,
}

impl ServeSession {
    /// Builds a session over a fresh world. The config's horizon bounds
    /// how far virtual time can ever advance.
    pub fn new(config: SimConfig, spec: SchedSpec, workload: &Workload) -> Result<Self, String> {
        Self::with_fs(config, spec, workload, real_fs())
    }

    /// Like [`ServeSession::new`], but every durable write the session
    /// performs (checkpoints, workload exports, fork CSVs) goes through
    /// `fs` — the injection point for deterministic fault testing.
    pub fn with_fs(
        config: SimConfig,
        spec: SchedSpec,
        workload: &Workload,
        fs: SharedFs,
    ) -> Result<Self, String> {
        let scheduler = spec.build()?;
        let world = World::new(config, workload, scheduler.name());
        Ok(ServeSession {
            config,
            spec,
            world,
            scheduler,
            subscribe_every: None,
            next_frame_at: 0,
            last_frame: (0, 0),
            done: false,
            fs,
        })
    }

    /// The session's filesystem handle (shared with the journal/driver).
    pub(crate) fn fs(&self) -> SharedFs {
        self.fs.clone()
    }

    /// Current virtual time, ms.
    pub(crate) fn vt(&self) -> u64 {
        self.world.now()
    }

    /// Read access to the live world (telemetry, tests).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Finishes the session's world and returns the run result — the
    /// same accounting a batch run would report at this point.
    pub fn into_result(self) -> SimResult {
        self.world.finish(&mut [])
    }

    /// Applies one input line. Never panics: every failure mode is a
    /// typed error response.
    pub fn apply_line(&mut self, line: &str) -> LineOutcome {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return LineOutcome::default();
        }
        if self.done {
            return self.reject(CmdError::after_quit());
        }
        let cmd = match Command::parse_line(trimmed) {
            Ok(cmd) => cmd,
            Err(e) => return self.reject(e),
        };
        // Journal replay self-check: a stamped line must apply at the
        // same virtual time it was recorded at.
        if let Some(stamp) = Command::stamped_vt(trimmed) {
            if stamp != self.vt() {
                return self.reject(CmdError {
                    code: "vt-mismatch",
                    msg: format!(
                        "journal line stamped vt {stamp} but session is at vt {}",
                        self.vt()
                    ),
                });
            }
        }
        let vt_applied = self.vt();
        let mut out = LineOutcome::default();
        let ack = match self.execute(&cmd, &mut out) {
            Ok(ack) => ack,
            Err(e) => return self.reject(e),
        };
        out.responses.push(ack);
        out.journal = Some(cmd.canonical(vt_applied));
        out
    }

    fn reject(&self, e: CmdError) -> LineOutcome {
        LineOutcome {
            responses: vec![e.to_response(self.vt())],
            journal: None,
            quit: false,
        }
    }

    /// Executes an accepted command, appending streamed frames to `out`
    /// and returning the acknowledgment line.
    fn execute(&mut self, cmd: &Command, out: &mut LineOutcome) -> Result<String, CmdError> {
        match cmd {
            Command::Submit {
                category,
                rounds,
                demand,
                task_ms,
                arrival_ms,
            } => {
                let plan = JobPlan {
                    id: JobId::new(0), // reassigned by the kernel
                    arrival_ms: arrival_ms.unwrap_or(self.vt()),
                    category: *category,
                    rounds: *rounds,
                    demand: *demand,
                    task_ms: *task_ms,
                };
                let arrival = plan.arrival_ms;
                match self.world.submit_job(plan) {
                    Ok(job) => Ok(self.ok(vec![
                        ("job", Value::Int(job as i64)),
                        ("arrival_ms", Value::Int(arrival as i64)),
                    ])),
                    Err(msg) if msg.contains("in the past") => Err(CmdError::past_time(msg)),
                    Err(msg) => Err(CmdError::bad_arg(msg)),
                }
            }
            Command::Withdraw { job } => {
                if self.world.withdraw_job(*job, &mut *self.scheduler) {
                    Ok(self.ok(vec![("job", Value::Int(*job as i64))]))
                } else {
                    Err(CmdError::unknown_job(format!(
                        "job {job} does not exist or is already terminal"
                    )))
                }
            }
            Command::QueryJob { job } => self.query_job(*job),
            Command::Stats => {
                let frame = self.frame_json();
                Ok(self.ok(vec![("frame", frame)]))
            }
            Command::Advance { ms } => {
                let events = self.advance(*ms, out);
                Ok(self.ok(vec![("events", Value::Int(events as i64))]))
            }
            Command::Subscribe { every_ms } => {
                self.subscribe_every = Some(*every_ms);
                self.next_frame_at = self.vt() + *every_ms;
                Ok(self.ok(vec![("every_ms", Value::Int(*every_ms as i64))]))
            }
            Command::Unsubscribe => {
                self.subscribe_every = None;
                Ok(self.ok(vec![]))
            }
            Command::Checkpoint { path } => {
                let bytes = snapshot_world(&self.world, &*self.scheduler)
                    .map_err(|e| CmdError::snapshot(e.to_string()))?;
                let len = bytes.len();
                // Atomic publish with bounded retry: transient ENOSPC/EIO
                // on the tmp write are retried with backoff; the rename
                // only ever exposes a complete file.
                let fs = self.fs.clone();
                retry_transient(CKPT_ATTEMPTS, CKPT_BACKOFF, || {
                    fs.borrow_mut().write_atomic(path, &bytes)
                })
                .map_err(|e| CmdError::io(format!("{path}: {e}")))?;
                Ok(self.ok(vec![
                    ("path", Value::Str(path.clone())),
                    ("bytes", Value::Int(len as i64)),
                ]))
            }
            Command::SaveWorkload { path } => {
                let tsv = wio::to_tsv(self.world.workload());
                self.fs
                    .borrow_mut()
                    .write(path, tsv.as_bytes())
                    .map_err(|e| CmdError::io(format!("{path}: {e}")))?;
                Ok(self.ok(vec![
                    ("path", Value::Str(path.clone())),
                    ("jobs", Value::Int(self.world.workload().jobs.len() as i64)),
                ]))
            }
            Command::Fork {
                scheduler,
                epsilon,
                tiers,
                csv,
            } => self.fork(scheduler, *epsilon, *tiers, csv.as_deref()),
            Command::Quit => {
                self.done = true;
                out.quit = true;
                Ok(self.ok(vec![]))
            }
        }
    }

    /// `{"vt":...,"ok":true,<extra fields>}` — every acknowledgment's
    /// shape, vt always first.
    fn ok(&self, extra: Vec<(&str, Value)>) -> String {
        let mut fields = vec![
            ("vt", Value::Int(self.vt() as i64)),
            ("ok", Value::Bool(true)),
        ];
        fields.extend(extra);
        obj(fields).to_json()
    }

    fn query_job(&self, job: usize) -> Result<String, CmdError> {
        if job >= self.world.jobs.len() {
            return Err(CmdError::unknown_job(format!("job {job} does not exist")));
        }
        let j = self.world.jobs.get(job);
        let plan = &self.world.workload().jobs[job];
        let phase = match j.phase {
            JobPhase::Idle => "idle",
            JobPhase::Allocating => "allocating",
            JobPhase::Running => "running",
            JobPhase::Finished => "finished",
        };
        let jct = match j.record.jct_ms() {
            Some(ms) => Value::Int(ms as i64),
            None => Value::Null,
        };
        Ok(self.ok(vec![
            ("job", Value::Int(job as i64)),
            ("phase", Value::Str(phase.into())),
            ("rounds_done", Value::Int(j.rounds_done as i64)),
            ("rounds", Value::Int(plan.rounds as i64)),
            ("demand", Value::Int(plan.demand as i64)),
            ("arrival_ms", Value::Int(plan.arrival_ms as i64)),
            ("assigned", Value::Int(j.assigned() as i64)),
            ("responses", Value::Int(j.responses as i64)),
            ("rounds_aborted", Value::Int(j.record.rounds_aborted as i64)),
            ("jct_ms", jct),
        ]))
    }

    /// Advances virtual time by `ms`, emitting subscription frames at
    /// their exact due instants. Returns events dispatched.
    fn advance(&mut self, ms: u64, out: &mut LineOutcome) -> u64 {
        let target = self.vt().saturating_add(ms);
        let mut events = 0;
        while let Some(every) = self.subscribe_every {
            if self.next_frame_at > target || self.next_frame_at > self.config.horizon_ms() {
                break;
            }
            let at = self.next_frame_at;
            events += self.world.run_until(at, &mut *self.scheduler, &mut []);
            let frame = self.frame_json();
            out.responses.push(obj(vec![("frame", frame)]).to_json());
            self.next_frame_at = at + every;
        }
        events += self.world.run_until(target, &mut *self.scheduler, &mut []);
        events
    }

    /// The current metrics frame as a JSON object, fields in fixed
    /// order, with the events-per-virtual-second rate over the window
    /// since the previous frame.
    fn frame_json(&mut self) -> Value {
        let f: MetricsFrame = self.world.metrics_frame();
        let (prev_vt, prev_events) = self.last_frame;
        let rate = if f.vt_ms > prev_vt {
            (f.events - prev_events) as f64 / ((f.vt_ms - prev_vt) as f64 / 1_000.0)
        } else {
            0.0
        };
        self.last_frame = (f.vt_ms, f.events);
        let opt = |v: Option<u64>| match v {
            Some(ms) => Value::Int(ms as i64),
            None => Value::Null,
        };
        obj(vec![
            ("vt_ms", Value::Int(f.vt_ms as i64)),
            ("events", Value::Int(f.events as i64)),
            ("events_per_vs", Value::Float(rate)),
            ("assignments", Value::Int(f.assignments as i64)),
            ("failures", Value::Int(f.failures as i64)),
            ("aborted_rounds", Value::Int(f.aborted_rounds as i64)),
            ("jobs", Value::Int(f.jobs as i64)),
            ("jobs_finished", Value::Int(f.jobs_finished as i64)),
            ("jobs_running", Value::Int(f.jobs_running as i64)),
            ("jobs_allocating", Value::Int(f.jobs_allocating as i64)),
            ("live_devices", Value::Int(f.live_devices as i64)),
            ("held_devices", Value::Int(f.held_devices as i64)),
            ("parked_polls", Value::Int(f.parked_polls as i64)),
            ("queue_len", Value::Int(f.queue_len as i64)),
            ("jct_p50_ms", opt(f.jct_p50_ms)),
            ("jct_p90_ms", opt(f.jct_p90_ms)),
            ("jct_p99_ms", opt(f.jct_p99_ms)),
            ("env_dropouts", Value::Int(f.env_dropouts as i64)),
            (
                "env_forced_offline",
                Value::Int(f.env_forced_offline as i64),
            ),
            ("env_storm_aborts", Value::Int(f.env_storm_aborts as i64)),
            ("env_retries", Value::Int(f.env_retries as i64)),
        ])
    }

    /// Writes a final checkpoint of the live world into `dir` through
    /// the session's [`CheckpointStore`] — the graceful-shutdown path.
    /// Returns the published checkpoint path.
    pub(crate) fn final_checkpoint(&mut self, dir: &str) -> Result<String, CmdError> {
        let fs = self.fs.clone();
        let mut guard = fs.borrow_mut();
        let mut store =
            CheckpointStore::open(&mut **guard, dir, 2).map_err(|e| CmdError::io(e.to_string()))?;
        store
            .write(&self.world, &*self.scheduler)
            .map_err(|e| CmdError::io(e.to_string()))
    }

    /// The what-if fork: snapshot the live world, run the remainder to
    /// completion under BOTH the session's scheduler arm (the control)
    /// and the requested alternative, and report the JCT/assignment
    /// diff. The live session is untouched — both children start from
    /// the same snapshot bytes a `checkpoint` at this instant would
    /// write, so an offline `vennsim --fork-from` of that checkpoint
    /// reproduces the alternative child exactly.
    fn fork(
        &mut self,
        scheduler: &str,
        epsilon: f64,
        tiers: usize,
        csv: Option<&str>,
    ) -> Result<String, CmdError> {
        let bytes = snapshot_world(&self.world, &*self.scheduler)
            .map_err(|e| CmdError::snapshot(e.to_string()))?;
        let workload = self.world.workload().clone();

        let mut base_sched = self.spec.build().map_err(CmdError::bad_arg)?;
        let base_world = resume_world(&bytes, self.config, &workload, &mut *base_sched)
            .map_err(|e| CmdError::snapshot(e.to_string()))?;
        let base = run_to_end(base_world, &mut *base_sched);

        let alt_spec = SchedSpec {
            name: scheduler.to_string(),
            epsilon,
            tiers,
            seed: self.config.seed,
        };
        let mut alt_sched = alt_spec.build().map_err(CmdError::bad_arg)?;
        let alt_world = fork_world(&bytes, self.config, &workload, &mut *alt_sched)
            .map_err(|e| CmdError::snapshot(e.to_string()))?;
        let alt = run_to_end(alt_world, &mut *alt_sched);

        if let Some(path) = csv {
            self.fs
                .borrow_mut()
                .write(path, result_csv(&alt).as_bytes())
                .map_err(|e| CmdError::io(format!("{path}: {e}")))?;
        }

        let base_avg = base.breakdown().avg_jct_ms();
        let alt_avg = alt.breakdown().avg_jct_ms();
        let speedup = if alt_avg > 0.0 {
            base_avg / alt_avg
        } else {
            0.0
        };
        Ok(self.ok(vec![
            ("base", arm_summary(&base)),
            ("alt", arm_summary(&alt)),
            (
                "diff",
                obj(vec![
                    ("avg_jct_delta_ms", Value::Float(alt_avg - base_avg)),
                    ("speedup", Value::Float(speedup)),
                    (
                        "finished_delta",
                        Value::Int(
                            alt.breakdown().finished() as i64 - base.breakdown().finished() as i64,
                        ),
                    ),
                    (
                        "assignments_delta",
                        Value::Int(alt.assignments as i64 - base.assignments as i64),
                    ),
                ]),
            ),
        ]))
    }
}

/// Runs a restored world to completion with no observers.
fn run_to_end(mut world: World, scheduler: &mut dyn Scheduler) -> SimResult {
    while world.step(scheduler, &mut []) {}
    world.finish(&mut [])
}

/// One fork child's summary object.
fn arm_summary(r: &SimResult) -> Value {
    let b = r.breakdown();
    obj(vec![
        ("scheduler", Value::Str(r.scheduler_name.clone())),
        ("finished", Value::Int(b.finished() as i64)),
        ("unfinished", Value::Int(b.unfinished() as i64)),
        ("avg_jct_ms", Value::Float(b.avg_jct_ms())),
        ("assignments", Value::Int(r.assignments as i64)),
        ("aborted_rounds", Value::Int(r.aborted_rounds as i64)),
    ])
}

/// The per-job CSV in exactly `vennsim --csv`'s shape, so a forked
/// child's output byte-matches an offline run of the same snapshot.
pub fn result_csv(result: &SimResult) -> String {
    let mut csv = Csv::new(&["job", "jct_ms", "sched_delay_ms", "response_ms", "aborted"]);
    for (i, rec) in result.records.iter().enumerate() {
        csv.row(&[
            i.to_string(),
            rec.jct_ms().map(|v| v.to_string()).unwrap_or_default(),
            rec.sched_delay_ms.to_string(),
            rec.response_ms.to_string(),
            rec.rounds_aborted.to_string(),
        ]);
    }
    csv.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds_the_scheduler_of_that_name() {
        for name in SchedSpec::NAMES {
            let scheduler = SchedSpec::named(name, 7).build().unwrap();
            assert_eq!(scheduler.name(), name);
        }
    }

    #[test]
    fn a_bad_spec_is_an_error_naming_the_valid_values() {
        let err = |spec: SchedSpec| spec.build().err().expect("rejected");
        let unknown = err(SchedSpec::named("lottery", 7));
        assert!(unknown.contains(&SchedSpec::NAMES.join("|")), "{unknown}");
        for name in ["venn", "venn-wo-sched", "venn-wo-match"] {
            let tiers = err(SchedSpec {
                tiers: 0,
                ..SchedSpec::named(name, 7)
            });
            assert!(tiers.contains("at least 1"), "{name}: {tiers}");
            let epsilon = err(SchedSpec {
                epsilon: -1.0,
                ..SchedSpec::named(name, 7)
            });
            assert!(epsilon.contains(">= 0"), "{name}: {epsilon}");
        }
    }
}
