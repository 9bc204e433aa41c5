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

use venn_baselines::BaselineScheduler;
use venn_core::{JobId, RealFs, Scheduler, VennConfig, VennScheduler};
use venn_metrics::csv::Csv;
use venn_metrics::MetricsFrame;
use venn_sim::{
    fork_world, publish_checkpoint, resume_world, snapshot_world, CheckpointStore, CkptError,
    JobPhase, SimConfig, SimResult, SubmitError, World,
};
use venn_traces::{io as wio, JobPlan, Workload};

use crate::json::{self, ObjWriter, Value};
use crate::protocol::{CmdError, Command};
use crate::wal::{shared_fs, SharedFs};

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
    /// names the valid values. The spec's own knobs are checked before an
    /// arm sets one, so `venn-wo-match` (one tier) refuses `tiers: 0`
    /// like every Venn arm.
    pub fn build(&self) -> Result<Box<dyn Scheduler>, String> {
        let venn = |arm: fn(VennConfig) -> VennConfig| -> Result<Box<dyn Scheduler>, String> {
            let config = VennConfig {
                epsilon: self.epsilon,
                tiers: self.tiers,
                seed: self.seed,
                ..VennConfig::default()
            };
            config.check()?;
            Ok(Box::new(VennScheduler::new(arm(config))))
        };
        match self.name.as_str() {
            "venn" => venn(|c| c),
            "venn-wo-sched" => venn(|c| VennConfig {
                use_irs: false,
                ..c
            }),
            "venn-wo-match" => venn(|c| VennConfig { tiers: 1, ..c }),
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
    /// how far virtual time can ever advance. A config
    /// [`SimConfig::check`] refuses, a workload job
    /// [`JobPlan::check`] refuses or an unbuildable scheduler spec is an
    /// error, never a panic.
    pub fn new(config: SimConfig, spec: SchedSpec, workload: &Workload) -> Result<Self, String> {
        Self::with_fs(config, spec, workload, shared_fs(RealFs))
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
        config.check()?;
        workload.check()?;
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
        // One parse per line: the command and its `vt` stamp both come
        // from this value.
        let parsed = match json::parse(trimmed) {
            Ok(v) => v,
            Err(e) => return self.reject(CmdError::bad_json(e)),
        };
        let cmd = match Command::from_value(&parsed) {
            Ok(cmd) => cmd,
            Err(e) => return self.reject(e),
        };
        // Journal replay self-check: a stamped line must apply at the
        // same virtual time it was recorded at. Live input has no stamp;
        // replayed journals always carry one.
        if let Some(stamp) = parsed.get("vt").and_then(Value::as_u64) {
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
                    Ok(job) => Ok(self.ok(|w| {
                        w.uint("job", job as u64).uint("arrival_ms", arrival);
                    })),
                    Err(e @ SubmitError::PastArrival { .. }) => {
                        Err(CmdError::past_time(e.to_string()))
                    }
                    Err(e @ SubmitError::Plan(_)) => Err(CmdError::bad_arg(e.to_string())),
                }
            }
            Command::Withdraw { job } => {
                if self.world.withdraw_job(*job, &mut *self.scheduler) {
                    Ok(self.ok(|w| {
                        w.uint("job", *job as u64);
                    }))
                } else {
                    Err(CmdError::unknown_job(format!(
                        "job {job} does not exist or is already terminal"
                    )))
                }
            }
            Command::QueryJob { job } => self.query_job(*job),
            Command::Stats => {
                let frame = self.next_frame();
                Ok(self.ok(|w| {
                    w.object("frame", |f| frame.write(f));
                }))
            }
            Command::Advance { ms } => {
                let events = self.advance(*ms, out);
                Ok(self.ok(|w| {
                    w.uint("events", events);
                }))
            }
            Command::Subscribe { every_ms } => {
                self.subscribe_every = Some(*every_ms);
                self.next_frame_at = self.vt() + *every_ms;
                Ok(self.ok(|w| {
                    w.uint("every_ms", *every_ms);
                }))
            }
            Command::Unsubscribe => {
                self.subscribe_every = None;
                Ok(self.ok(|_| {}))
            }
            Command::Checkpoint { path } => {
                let published = publish_checkpoint(
                    &mut *self.fs.borrow_mut(),
                    path,
                    &self.world,
                    &*self.scheduler,
                );
                let len = published.map_err(|e| match e {
                    CkptError::Snapshot(e) => CmdError::snapshot(e.to_string()),
                    CkptError::Io(e) => CmdError::io(format!("{path}: {e}")),
                })?;
                Ok(self.ok(|w| {
                    w.str("path", path).uint("bytes", len as u64);
                }))
            }
            Command::SaveWorkload { path } => {
                let tsv = wio::to_tsv(self.world.workload());
                self.fs
                    .borrow_mut()
                    .write(path, tsv.as_bytes())
                    .map_err(|e| CmdError::io(format!("{path}: {e}")))?;
                let jobs = self.world.workload().jobs.len() as u64;
                Ok(self.ok(|w| {
                    w.str("path", path).uint("jobs", jobs);
                }))
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
                Ok(self.ok(|_| {}))
            }
        }
    }

    /// `{"vt":...,"ok":true,<extra fields>}` — every acknowledgment's
    /// shape, vt always first.
    fn ok(&self, extra: impl FnOnce(&mut ObjWriter<'_>)) -> String {
        json::object(|w| {
            w.uint("vt", self.vt()).bool("ok", true);
            extra(w);
        })
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
        Ok(self.ok(|w| {
            w.uint("job", job as u64)
                .str("phase", phase)
                .uint("rounds_done", u64::from(j.rounds_done))
                .uint("rounds", u64::from(plan.rounds))
                .uint("demand", u64::from(plan.demand))
                .uint("arrival_ms", plan.arrival_ms)
                .uint("assigned", j.assigned() as u64)
                .uint("responses", u64::from(j.responses))
                .uint("rounds_aborted", u64::from(j.record.rounds_aborted))
                .opt_uint("jct_ms", j.record.jct_ms());
        }))
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
            let frame = self.next_frame();
            out.responses.push(json::object(|w| {
                w.object("frame", |f| frame.write(f));
            }));
            self.next_frame_at = at + every;
        }
        events += self.world.run_until(target, &mut *self.scheduler, &mut []);
        events
    }

    /// The current metrics frame, with the events-per-virtual-second rate
    /// over the window since the previous frame.
    fn next_frame(&mut self) -> Frame {
        let f: MetricsFrame = self.world.metrics_frame();
        let (prev_vt, prev_events) = self.last_frame;
        let rate = if f.vt_ms > prev_vt {
            (f.events - prev_events) as f64 / ((f.vt_ms - prev_vt) as f64 / 1_000.0)
        } else {
            0.0
        };
        self.last_frame = (f.vt_ms, f.events);
        Frame { f, rate }
    }

    /// Writes a final checkpoint of the live world into `dir` through
    /// the session's [`CheckpointStore`] — the graceful-shutdown path.
    /// Returns the published checkpoint path.
    pub(crate) fn final_checkpoint(&mut self, dir: &str) -> Result<String, CmdError> {
        let fs = self.fs.clone();
        let mut guard = fs.borrow_mut();
        let mut store =
            CheckpointStore::open(&mut *guard, dir, 2).map_err(|e| CmdError::io(e.to_string()))?;
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
        let finished_delta = alt.breakdown().finished() as i64 - base.breakdown().finished() as i64;
        let assignments_delta = alt.assignments as i64 - base.assignments as i64;
        Ok(self.ok(|w| {
            w.object("base", |o| arm_summary(o, &base))
                .object("alt", |o| arm_summary(o, &alt))
                .object("diff", |o| {
                    o.float("avg_jct_delta_ms", alt_avg - base_avg)
                        .float("speedup", speedup)
                        .int("finished_delta", finished_delta)
                        .int("assignments_delta", assignments_delta);
                });
        }))
    }
}

/// Runs a restored world to completion with no observers.
fn run_to_end(mut world: World, scheduler: &mut dyn Scheduler) -> SimResult {
    while world.step(scheduler, &mut []) {}
    world.finish(&mut [])
}

/// One fork child's summary object.
fn arm_summary(w: &mut ObjWriter<'_>, r: &SimResult) {
    let b = r.breakdown();
    w.str("scheduler", &r.scheduler_name)
        .uint("finished", b.finished())
        .uint("unfinished", b.unfinished())
        .float("avg_jct_ms", b.avg_jct_ms())
        .uint("assignments", r.assignments)
        .uint("aborted_rounds", r.aborted_rounds);
}

/// One metrics frame and its event rate, as the `stats` ack and the
/// subscription stream carry it.
struct Frame {
    f: MetricsFrame,
    rate: f64,
}

impl Frame {
    /// The frame's fields, in fixed order.
    fn write(&self, w: &mut ObjWriter<'_>) {
        let f = &self.f;
        w.uint("vt_ms", f.vt_ms)
            .uint("events", f.events)
            .float("events_per_vs", self.rate)
            .uint("assignments", f.assignments)
            .uint("failures", f.failures)
            .uint("aborted_rounds", f.aborted_rounds)
            .uint("jobs", f.jobs)
            .uint("jobs_finished", f.jobs_finished)
            .uint("jobs_running", f.jobs_running)
            .uint("jobs_allocating", f.jobs_allocating)
            .uint("live_devices", f.live_devices)
            .uint("held_devices", f.held_devices)
            .uint("parked_polls", f.parked_polls)
            .uint("queue_len", f.queue_len)
            .opt_uint("jct_p50_ms", f.jct_p50_ms)
            .opt_uint("jct_p90_ms", f.jct_p90_ms)
            .opt_uint("jct_p99_ms", f.jct_p99_ms)
            .uint("env_dropouts", f.env_dropouts)
            .uint("env_forced_offline", f.env_forced_offline)
            .uint("env_storm_aborts", f.env_storm_aborts)
            .uint("env_retries", f.env_retries);
    }
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use venn_core::faultio::MemFs;

    use super::*;
    use crate::wal::shared_fs;

    fn small_world() -> (SimConfig, Workload) {
        let config = SimConfig {
            population: 200,
            days: 1,
            ..SimConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        (config, Workload::default_scenario(3, &mut rng))
    }

    fn refusal(config: SimConfig, workload: &Workload) -> String {
        let spec = SchedSpec::named("venn", 7);
        ServeSession::with_fs(config, spec, workload, shared_fs(MemFs::new()))
            .err()
            .expect("the session is refused")
    }

    #[test]
    fn a_config_the_kernel_refuses_is_an_error_not_a_panic() {
        let (config, workload) = small_world();
        let err = refusal(
            SimConfig {
                population: 0,
                ..config
            },
            &workload,
        );
        assert_eq!(err, "population must be positive");
    }

    #[test]
    fn a_workload_job_the_kernel_cannot_run_is_an_error_naming_it() {
        let (config, mut workload) = small_world();
        workload.jobs[2].demand = 0;
        let err = refusal(config, &workload);
        assert_eq!(
            err,
            "workload job 2: job needs at least one participant per round"
        );
    }

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
