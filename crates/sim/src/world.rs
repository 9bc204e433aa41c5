//! The simulation kernel: a [`World`] state machine stepping an event
//! queue over named sub-state.
//!
//! `World` owns the [`DevicePool`] (sessions, device roles, daily caps),
//! the [`JobTable`] (round phases, epochs, JCT accounting), and the
//! [`EventQueue`]; every [`EventKind`] is handled by a dedicated method.
//! A handler changes which device serves which job only through the
//! named transitions of [`lifecycle`](crate::lifecycle).
//! The driver ([`Simulation::run`](crate::Simulation::run)) just
//! constructs a world and steps it, and [`SimObserver`]s hook lifecycle
//! moments without touching the loop — new device-behavior models,
//! metrics, or scenario logic extend the kernel instead of editing a
//! monolith.
//!
//! Determinism contract: all randomness flows through one seeded RNG in a
//! fixed draw order, events are totally ordered by `(time, seq)`, and
//! observers run strictly after state transitions — so identical
//! `(config, workload, scheduler)` inputs produce byte-identical
//! [`SimResult`]s, with or without observers attached.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::{JobId, Scheduler, SimTime, SnapError, SnapReader, SnapWriter, Snapshot};
use venn_env::{Disturbance, EnvRuntime};
use venn_metrics::{EnvStats, MetricsFrame, Samples};
use venn_traces::dist::LogNormal;
use venn_traces::{JobPlan, Workload};

use crate::cohort::CohortSet;
use crate::config::{
    PopMode, SimConfig, ABORT_BACKOFF_MS, AGG_DELAY_MS, REPOLL_MS, RESPONSE_NOISE_CV,
};
use crate::device_pool::DevicePool;
use crate::event::{Event, EventKind, EventQueue};
use crate::job_table::{JobPhase, JobTable, HELD_TOMBSTONE};
use crate::observer::SimObserver;
use crate::parked::ParkedPolls;
use crate::result::{RoundLog, SimResult};

/// One future `SessionStart`, streamed into the queue one at a time.
#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    start: SimTime,
    /// Session end, already horizon-clamped.
    end: SimTime,
    device: u32,
    /// Reserved insertion seq (meaningful only on a reserved stream).
    seq: u64,
}

/// A sorted list of future session starts fed into the event queue
/// one entry at a time: the next entry is pushed when the previous one
/// dispatches, so the queue never holds more than one pending stream
/// session — `peak_queue_len` tracks live concurrency, not trace size.
///
/// Two uses. On the eager arm the stream carries *every* session
/// (base + environment extras) under seqs reserved in the exact legacy
/// push order, so the `(time, seq)` total order — and with it every
/// event, draw, and tie-break — is byte-identical to the historical
/// bulk-enqueue kernel; only the queue's high-water mark changes.
/// Feeding entries in `(start, seq)` order keeps every push legal (an
/// entry pushed at its predecessor's dispatch time never lands before
/// the queue's drain cursor, because no seq fits between consecutive
/// stream keys). On the split arms base sessions flow through the
/// cohort wheel instead and the stream carries only environment extras,
/// as plain pushes.
#[derive(Debug, Default)]
struct SessionStream {
    /// Entries sorted ascending by the order they must enter the queue.
    entries: Vec<StreamEntry>,
    cursor: usize,
    /// Whether entries carry pre-reserved seqs (eager arm).
    reserved: bool,
}

impl SessionStream {
    /// Pushes the next pending session, if any.
    fn push_next(&mut self, queue: &mut EventQueue) {
        if let Some(e) = self.entries.get(self.cursor).copied() {
            self.cursor += 1;
            let kind = EventKind::SessionStart {
                device: e.device as usize,
                session_end: e.end,
            };
            if self.reserved {
                queue.push_reserved(e.start, e.seq, kind);
            } else {
                queue.push(e.start, kind);
            }
        }
    }
}

/// Why [`World::submit_job`] refused a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The arrival precedes the current virtual time: the kernel never
    /// schedules into the past.
    PastArrival {
        /// The plan's arrival, ms.
        arrival_ms: u64,
        /// The world's virtual time, ms.
        now_ms: u64,
    },
    /// The plan breaks a [`JobPlan::check`] rule, named by the message.
    Plan(&'static str),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::PastArrival { arrival_ms, now_ms } => write!(
                f,
                "arrival {arrival_ms} ms is in the past (virtual time is {now_ms} ms)"
            ),
            SubmitError::Plan(why) => f.write_str(why),
        }
    }
}

/// One simulated world: all mutable state of a run plus its immutable
/// environment (config and workload).
///
/// The world *owns* its workload (job plans are tiny `Copy` records, so
/// the construction-time clone is negligible): an online driver may
/// append jobs mid-run with [`World::submit_job`], which grows the
/// workload and job table together — the workload is then no longer the
/// caller's immutable input but part of the run's identity, and
/// [`World::workload`] is what a snapshot fingerprint must be computed
/// against.
#[derive(Debug)]
pub struct World {
    pub(crate) config: SimConfig,
    pub(crate) workload: Workload,
    /// Device population state.
    pub(crate) devices: DevicePool,
    /// Per-job runtime state.
    pub jobs: JobTable,
    /// Pending events.
    pub(crate) queue: EventQueue,
    /// Check-ins suppressed by demand gating.
    pub(crate) parked: ParkedPolls,
    /// Compiled environment dynamics (`None` on the env-off arm — the
    /// kernel then takes its pre-environment paths untouched). All
    /// environment randomness lives in the runtime's own split streams,
    /// never in `rng`, so enabling a scenario cannot shift the kernel's
    /// response-noise draws.
    pub(crate) env: Option<EnvRuntime>,
    /// Streamed session source of the split population modes (`None` on
    /// the eager arm): per-device cursors into the split availability
    /// streams, one upcoming session per device, one pending `CohortWake`
    /// per cohort. Boxed and `take()`n during wake handling so the drain
    /// loop can call back into `&mut self` handlers.
    cohorts: Option<Box<CohortSet>>,
    /// Future `SessionStart`s fed into the queue one at a time (all
    /// sessions on the eager arm; environment extras on the split arms).
    session_stream: SessionStream,
    pub(crate) rng: StdRng,
    pub(crate) noise: LogNormal,
    pub(crate) result: SimResult,
    horizon: SimTime,
    /// Timestamp of the most recently popped event — the kernel's wall
    /// clock, used by checkpointing drivers to pace snapshot cadence.
    now: SimTime,
}

impl World {
    /// Builds the initial world state: samples the device population,
    /// generates availability sessions, and seeds the queue with session
    /// starts and job arrivals.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SimConfig::check`]),
    /// its environment is, or a workload job breaks a rule of
    /// [`JobPlan::check`] (the message names the job) — here, at
    /// construction, not when the job arrives.
    pub fn new(config: SimConfig, workload: &Workload, scheduler_name: &str) -> Self {
        config.validate();
        if let Err(why) = workload.check() {
            panic!("{why}");
        }
        let horizon = config.horizon_ms();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let noise = LogNormal::from_mean_cv(1.0, RESPONSE_NOISE_CV);
        let env = config.env.compile(config.population, horizon, config.seed);

        let mut queue = EventQueue::new();
        let mut session_stream = SessionStream::default();
        let mut cohorts = None;
        let devices = match config.pop_mode {
            PopMode::Eager => {
                // The legacy sequential lineage: profiles then sessions
                // from the one run RNG, so every later noise draw matches
                // the historical kernel bit for bit.
                let profiles = config
                    .capacity
                    .sample_population(config.population, &mut rng);
                let sessions =
                    config
                        .availability
                        .generate(config.population, config.days, &mut rng);
                session_stream.reserved = true;
                for s in &sessions {
                    // Churn clips base sessions to each device's active
                    // window (late joiners, permanent leavers). Env-off
                    // passes through. A clipped-away or post-horizon
                    // session consumed no seq historically either (it was
                    // simply never pushed).
                    let (start, end) = match &env {
                        Some(e) => match e.clip_session(s.device, s.start, s.end) {
                            Some(w) => w,
                            None => continue,
                        },
                        None => (s.start, s.end),
                    };
                    if start < horizon {
                        session_stream.entries.push(StreamEntry {
                            start,
                            end: end.min(horizon),
                            device: s.device as u32,
                            seq: queue.reserve_seq(),
                        });
                    }
                }
                if let Some(e) = &env {
                    for s in e.extra_sessions() {
                        if s.start < horizon {
                            session_stream.entries.push(StreamEntry {
                                start: s.start,
                                end: s.end.min(horizon),
                                device: s.device as u32,
                                seq: queue.reserve_seq(),
                            });
                        }
                    }
                }
                // Queue pop order is `(time, seq)`; feeding entries in
                // that order keeps every streamed push ahead of the drain
                // cursor.
                session_stream.entries.sort_by_key(|e| (e.start, e.seq));
                DevicePool::new(profiles)
            }
            PopMode::SplitEager | PopMode::Lazy => {
                // Split lineage: per-device streams, base sessions through
                // the cohort wheel, `rng` untouched (it only feeds
                // response noise from here on) — so the two split arms
                // share one event stream by construction.
                let set = CohortSet::new(
                    config.availability,
                    config.seed,
                    config.days,
                    horizon,
                    config.population,
                    env.as_ref(),
                );
                for cohort in 0..set.cohort_count() {
                    if let Some(t) = set.next_wake(cohort) {
                        queue.push(t, EventKind::CohortWake { cohort });
                    }
                }
                cohorts = Some(Box::new(set));
                if let Some(e) = &env {
                    session_stream.entries = e
                        .extra_sessions()
                        .iter()
                        .filter(|s| s.start < horizon)
                        .map(|s| StreamEntry {
                            start: s.start,
                            end: s.end.min(horizon),
                            device: s.device as u32,
                            seq: 0,
                        })
                        .collect();
                    session_stream
                        .entries
                        .sort_by_key(|e| (e.start, e.device, e.end));
                }
                if config.pop_mode == PopMode::SplitEager {
                    DevicePool::new(
                        (0..config.population)
                            .map(|d| config.capacity.sample_device(config.seed, d))
                            .collect(),
                    )
                } else {
                    DevicePool::lazy(config.capacity, config.seed, config.population)
                }
            }
        };
        session_stream.push_next(&mut queue);
        for (idx, plan) in workload.jobs.iter().enumerate() {
            if plan.arrival_ms < horizon {
                queue.push(plan.arrival_ms, EventKind::JobArrival { job_idx: idx });
            }
        }
        if let Some(e) = &env {
            for (idx, (time, _)) in e.disturbances().iter().enumerate() {
                if *time <= horizon {
                    queue.push(*time, EventKind::EnvDisturbance { env_idx: idx });
                }
            }
        }

        let env_stats = match &env {
            Some(e) => EnvStats::with_tiers(e.tier_count()),
            None => EnvStats::default(),
        };
        World {
            devices,
            jobs: JobTable::new(workload, config.thresholds),
            queue,
            parked: ParkedPolls::new(horizon),
            env,
            cohorts,
            session_stream,
            rng,
            noise,
            result: SimResult {
                scheduler_name: scheduler_name.to_string(),
                env: env_stats,
                ..SimResult::default()
            },
            horizon,
            now: 0,
            config,
            workload: workload.clone(),
        }
    }

    /// The environment configuration.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload under simulation — including any jobs appended
    /// mid-run by [`World::submit_job`].
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.result.events
    }

    /// Timestamp of the most recently popped event (0 before the first
    /// step) — the simulated clock a checkpointing driver paces by.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The device pool — read-only telemetry access (e.g. live/peak
    /// materialized-device counts on the lazy storage arm).
    pub fn devices(&self) -> &DevicePool {
        &self.devices
    }

    /// Number of demand-gated polls currently parked — telemetry for
    /// checkpoint tests picking crash points with parked state.
    pub fn parked_poll_count(&self) -> usize {
        self.parked.len()
    }

    /// Pops and dispatches the next event. Returns `false` when the queue
    /// is exhausted or the horizon is passed.
    pub fn step(
        &mut self,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> bool {
        let Some(event) = self.queue.pop() else {
            return false;
        };
        self.now = event.time;
        self.parked.advance(
            event.time,
            event.seq,
            &mut self.devices,
            &mut self.queue,
            scheduler,
        );
        // After parked polls up to this instant have been settled, retire
        // lazily-stored devices whose noted session ends have passed (any
        // earlier parked poll for such a device was just drained above;
        // later ones are dead in both storage arms). No-op on dense pools.
        self.devices.sweep_retire(event.time);
        if event.time > self.horizon {
            return false;
        }
        self.result.events += 1;
        for o in observers.iter_mut() {
            o.on_event(event.time, &event.kind);
        }
        self.dispatch(event, scheduler, observers);
        true
    }

    /// Runs the event loop to completion and returns the results.
    pub(crate) fn run(
        mut self,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> SimResult {
        while self.step(scheduler, observers) {}
        self.finish(observers)
    }

    /// Finalizes the run: folds job records into the result and notifies
    /// observers.
    pub fn finish(self, observers: &mut [&mut dyn SimObserver]) -> SimResult {
        let mut result = self.result;
        result.records = self.jobs.into_records();
        result.peak_queue_len = self.queue.peak_len() as u64;
        for o in observers.iter_mut() {
            o.on_run_end(&result);
        }
        result
    }

    // ------------------------------------------------------------------
    // Online control — the mid-run mutation and bounded-draining surface
    // behind `vennsim serve`. Batch runs never call these; their code
    // paths are byte-for-byte unchanged.
    // ------------------------------------------------------------------

    /// Dispatches every pending event with `time <= target` (clamped to
    /// the horizon), then advances the virtual clock to `target`. Returns
    /// the number of events dispatched.
    ///
    /// The queue is only ever *peeked* past the window boundary — the
    /// first out-of-window event stays exactly where it is, cursor and
    /// all — so interleaving `run_until` windows with mid-run mutations
    /// ([`submit_job`](Self::submit_job) /
    /// [`withdraw_job`](Self::withdraw_job)) at the window boundaries
    /// produces the same event stream as a batch run over the equivalent
    /// static workload: bounded draining is a pause, not a fork, of the
    /// simulation.
    pub fn run_until(
        &mut self,
        target: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) -> u64 {
        let target = target.min(self.horizon);
        let before = self.result.events;
        while let Some((time, _)) = self.queue.peek_key() {
            if time > target || !self.step(scheduler, observers) {
                break;
            }
        }
        self.now = self.now.max(target);
        self.result.events - before
    }

    /// Admits one job mid-run: the plan joins the workload, its runtime
    /// state joins the job table, and its arrival event is queued —
    /// indistinguishable from a plan known at t=0 with the same arrival.
    ///
    /// The plan's `id` is reassigned to the job's table index. Returns
    /// that index, or why the kernel cannot honor the plan.
    pub fn submit_job(&mut self, mut plan: JobPlan) -> Result<usize, SubmitError> {
        plan.check().map_err(SubmitError::Plan)?;
        if plan.arrival_ms < self.now {
            return Err(SubmitError::PastArrival {
                arrival_ms: plan.arrival_ms,
                now_ms: self.now,
            });
        }
        let job_idx = self.jobs.len();
        plan.id = JobId::new(job_idx as u64);
        self.jobs.push(&plan, self.config.thresholds);
        if plan.arrival_ms < self.horizon {
            self.queue
                .push(plan.arrival_ms, EventKind::JobArrival { job_idx });
        }
        self.workload.jobs.push(plan);
        Ok(job_idx)
    }

    /// Withdraws a job mid-run: its open request, if any, is torn down as
    /// an abort tears it down (`return_to_poll`),
    /// and the job moves to its terminal phase, epoch bumped so every
    /// in-flight event (responses, deadlines, hold expiries, queued round
    /// starts) retires through the existing staleness guards. Returns
    /// `false` for an unknown or already-terminal job.
    ///
    /// A withdrawn job's record stays unfinished: it reports as an
    /// aborted (JCT-less) job, not a completed one.
    pub fn withdraw_job(&mut self, job_idx: usize, scheduler: &mut dyn Scheduler) -> bool {
        if job_idx >= self.jobs.len() || self.jobs.get(job_idx).phase == JobPhase::Finished {
            return false;
        }
        self.return_to_poll(job_idx, self.now, scheduler);
        let j = self.jobs.get_mut(job_idx);
        j.phase = JobPhase::Finished;
        j.epoch += 1;
        true
    }

    /// Captures a [`MetricsFrame`] of the run at the current virtual
    /// time — a deterministic function of run state, so a frame captured
    /// at the same instant of a journal replay is identical to the live
    /// one.
    pub fn metrics_frame(&self) -> MetricsFrame {
        let mut frame = MetricsFrame {
            vt_ms: self.now,
            events: self.result.events,
            assignments: self.result.assignments,
            failures: self.result.failures,
            aborted_rounds: self.result.aborted_rounds,
            jobs: self.jobs.len() as u64,
            live_devices: self.devices.live_devices() as u64,
            parked_polls: self.parked_poll_count() as u64,
            queue_len: self.queue.len() as u64,
            env_dropouts: self.result.env.dropouts,
            env_forced_offline: self.result.env.forced_offline,
            env_storm_aborts: self.result.env.storm_aborts,
            env_retries: self.result.env.retries,
            ..MetricsFrame::default()
        };
        let mut jcts = Samples::new();
        for idx in 0..self.jobs.len() {
            let j = self.jobs.get(idx);
            match j.phase {
                JobPhase::Running => frame.jobs_running += 1,
                JobPhase::Allocating => {
                    frame.jobs_allocating += 1;
                    frame.held_devices += j.held_devices().count() as u64;
                }
                JobPhase::Idle | JobPhase::Finished => {}
            }
            if let Some(jct) = j.record.jct_ms() {
                frame.jobs_finished += 1;
                jcts.push(jct as f64);
            }
        }
        if !jcts.is_empty() {
            frame.jct_p50_ms = Some(jcts.percentile(50.0) as u64);
            frame.jct_p90_ms = Some(jcts.percentile(90.0) as u64);
            frame.jct_p99_ms = Some(jcts.percentile(99.0) as u64);
        }
        frame
    }

    /// Re-registers every open allocation request with a *fresh*
    /// scheduler — the what-if `fork` path, where a restored world
    /// continues under a scheduler that never saw the original `submit`
    /// calls. Each Allocating job resubmits only its still-open demand
    /// (`requested − assigned`; held devices stay held), so the new
    /// scheduler's book matches what the old scheduler's book said at the
    /// snapshot instant.
    pub(crate) fn resubmit_open_requests(&mut self, scheduler: &mut dyn Scheduler) {
        for job_idx in 0..self.jobs.len() {
            let j = self.jobs.get(job_idx);
            if j.phase != JobPhase::Allocating {
                continue;
            }
            let requested = self.config.requested(self.workload.jobs[job_idx].demand);
            let open = requested.saturating_sub(j.assigned());
            if open > 0 {
                scheduler.submit(self.request(job_idx, open), self.now);
            }
        }
        // Any open demand means the parked set is empty already (demand
        // gating wakes it on submit), but a fork taken at an instant with
        // no open requests must still leave the parked plane consistent.
        if scheduler.has_open_demand() {
            self.parked.wake(&mut self.queue);
        }
    }

    /// Routes one event to its handler method.
    fn dispatch(
        &mut self,
        event: Event,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let now = event.time;
        match event.kind {
            EventKind::JobArrival { job_idx } | EventKind::RoundStart { job_idx } => {
                self.handle_round_submit(job_idx, now, scheduler)
            }
            EventKind::SessionStart {
                device,
                session_end,
            } => self.handle_session_start(device, session_end, now, scheduler, observers),
            EventKind::CheckIn { device } => {
                self.handle_check_in(device, now, scheduler, observers)
            }
            EventKind::EnvDisturbance { env_idx } => {
                self.handle_env_disturbance(env_idx, now, scheduler, observers)
            }
            EventKind::HoldExpire {
                job,
                device,
                hold_seq,
                ..
            } => {
                // A held device's session ended. A current hold generation
                // implies its job is still allocating in the same epoch; a
                // stale one was released early by an environment fault, or
                // superseded by a newer hold.
                if self.devices.hold_is_current(device, hold_seq) {
                    self.release_hold(job.as_u64() as usize, device, now, scheduler);
                }
            }
            EventKind::Response {
                job,
                epoch,
                device,
                response_ms,
            } => {
                // The round completes when the quorum is reached.
                let job_idx = job.as_u64() as usize;
                let quorum = SimConfig::quorum_target(self.workload.jobs[job_idx].demand);
                if self.respond(job_idx, epoch, device, response_ms, now, scheduler)
                    && self.jobs.get(job_idx).responses >= quorum
                {
                    self.complete_round(job_idx, now, scheduler, observers);
                }
            }
            EventKind::AssignFailure { job, epoch, device } => {
                self.fail(job, epoch, device, now, scheduler)
            }
            EventKind::RoundDeadline { job, epoch } => {
                // Quorum missed: abort and retry after a short backoff.
                let job_idx = job.as_u64() as usize;
                if self.round_live(job_idx, epoch) {
                    self.abort_round(job_idx, now, scheduler, observers);
                }
            }
            EventKind::CohortWake { cohort } => {
                self.handle_cohort_wake(cohort, now, scheduler, observers)
            }
        }
    }

    /// `CohortWake`: the earliest upcoming session of `cohort` is due.
    /// Drains every device whose session starts exactly now (in `(start,
    /// device)` order), begins each session — the lazy arm's
    /// materialization point — runs the device's immediate check-in, and
    /// advances its stream cursor; then re-arms the cohort's single wake
    /// at its new earliest start. Replacement sessions landing at the
    /// same instant are drained by this same wake.
    fn handle_cohort_wake(
        &mut self,
        cohort: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let mut cohorts = self.cohorts.take().expect("cohort wake without cohort set");
        while let Some((device, session_end)) = cohorts.pop_due(cohort, now) {
            self.devices.begin_session(device, session_end);
            self.handle_check_in(device, now, scheduler, observers);
            cohorts.advance(device, self.env.as_ref());
        }
        if let Some(t) = cohorts.next_wake(cohort) {
            self.queue.push(t, EventKind::CohortWake { cohort });
        }
        self.cohorts = Some(cohorts);
    }

    /// `JobArrival` / `RoundStart`: submits the request for the job's next
    /// round (allocation phase).
    fn handle_round_submit(&mut self, job_idx: usize, now: SimTime, scheduler: &mut dyn Scheduler) {
        let j = self.jobs.get_mut(job_idx);
        if j.phase != JobPhase::Idle {
            return;
        }
        j.begin_request(now);
        let requested = self.config.requested(self.workload.jobs[job_idx].demand);
        scheduler.submit(self.request(job_idx, requested), now);
        // Demand just opened: parked devices resume polling.
        self.parked.wake(&mut self.queue);
        // Async rounds carry no deadline: like buffered-asynchronous FL,
        // the aggregation fires whenever the quorum of updates arrives, so
        // participants computed for a round are never wasted. (Sync rounds
        // arm their deadline at round start — see `request_filled`.)
    }

    /// The job's allocation request for `count` devices; its remaining
    /// work is the demand of every round still to run.
    fn request(&self, job_idx: usize, count: u32) -> venn_core::Request {
        let plan = &self.workload.jobs[job_idx];
        let j = self.jobs.get(job_idx);
        let remaining = (plan.rounds - j.rounds_done) as u64 * plan.demand as u64;
        venn_core::Request::new(JobId::new(job_idx as u64), j.spec, count, remaining)
    }

    /// `SessionStart`: the device comes online (sessions only extend) and
    /// immediately polls.
    fn handle_session_start(
        &mut self,
        device: usize,
        session_end: SimTime,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        // Stream discipline: this dispatch is what admits the *next*
        // pending session into the queue, keeping exactly one un-dispatched
        // stream entry queued until the stream is exhausted.
        self.session_stream.push_next(&mut self.queue);
        self.devices.begin_session(device, session_end);
        self.handle_check_in(device, now, scheduler, observers);
    }

    /// `CheckIn`: an online, idle device polls the resource manager and is
    /// assigned (or repolls later).
    ///
    /// This is the scheduler's hot path and the anchor of the
    /// [`Scheduler`] trait's call-ordering contract: every check-in is one
    /// `on_check_in` (supply observation) immediately followed by one
    /// `assign` (allocation decision) at the same timestamp — schedulers
    /// may therefore maintain supply state incrementally per check-in and
    /// defer plan recomputation to their own triggers.
    fn handle_check_in(
        &mut self,
        device: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        if !self.devices.can_check_in(device, now) {
            // A dead/capped/busy poll target may be this device's last
            // touchpoint — let the lazy store consider retiring it.
            self.end_polls(device, now);
            return;
        }
        let info = self.devices.info(device);
        scheduler.on_check_in(info, now);
        match scheduler.assign(info, now) {
            Some(job) => {
                let job_idx = job.as_u64() as usize;
                assert!(job_idx < self.jobs.len(), "scheduler assigned unknown job");
                assert!(
                    self.jobs.get(job_idx).phase == JobPhase::Allocating,
                    "scheduler assigned to a job without an active request"
                );
                self.result.assignments += 1;
                for o in observers.iter_mut() {
                    o.on_assignment(now, job_idx, device);
                }
                // Async mode has no holding phase: the device computes
                // immediately.
                if self.config.async_mode {
                    self.start(job_idx, device, now);
                } else {
                    self.hold(job_idx, device);
                }
                let requested = self.config.requested(self.workload.jobs[job_idx].demand);
                if self.jobs.get(job_idx).assigned() >= requested {
                    self.request_filled(job_idx, now, scheduler, observers);
                }
            }
            None => {
                // Stay online and poll again later. While the scheduler
                // reports no open request the next poll cannot assign
                // either, so the device parks instead of dispatching the
                // repoll flood — reserving the poll's seq so a wake-up
                // re-enters the stream at the exact un-gated position. A
                // scheduler that keeps the default `has_open_demand` never
                // parks: the un-gated reference arm.
                let next = now + REPOLL_MS;
                let end = self.devices.session_end(device);
                if next < end {
                    if scheduler.has_open_demand() {
                        self.queue.push(next, EventKind::CheckIn { device });
                    } else {
                        let seq = self.queue.reserve_seq();
                        self.parked.park(device, next, seq, end, *info.capacity());
                    }
                } else {
                    // Poll chain ends inside this session.
                    self.end_polls(device, now);
                }
            }
        }
    }

    /// The request is filled: it leaves the scheduler and the round
    /// starts. Synchronously every held device starts computing (in
    /// assignment order, the RNG draw order) and the deadline is armed;
    /// async devices started computing when they were assigned.
    fn request_filled(
        &mut self,
        job_idx: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let job = JobId::new(job_idx as u64);
        let j = self.jobs.get_mut(job_idx);
        j.phase = JobPhase::Running;
        j.round_start = now;
        let (epoch, round) = (j.epoch, j.rounds_done);
        scheduler.on_alloc_complete(job, now - j.request_start, now);
        scheduler.withdraw(job, now);
        if !self.config.async_mode {
            // By index, skipping tombstones (expired holds): no clone.
            for slot in 0..self.jobs.get(job_idx).held().len() {
                let device = self.jobs.get(job_idx).held()[slot];
                if device != HELD_TOMBSTONE {
                    self.start(job_idx, device, now);
                }
            }
            let demand = self.workload.jobs[job_idx].demand;
            self.queue.push(
                now + SimConfig::deadline_ms(demand),
                EventKind::RoundDeadline { job, epoch },
            );
        }
        for o in observers.iter_mut() {
            o.on_round_start(now, job_idx, round);
        }
    }

    /// Whether round incarnation `epoch` of the job is still live — its
    /// deadline armed, its responses counted: a computing round
    /// synchronously, a computing round or an open request
    /// asynchronously.
    pub(crate) fn round_live(&self, job_idx: usize, epoch: u32) -> bool {
        let j = self.jobs.get(job_idx);
        let live = if self.config.async_mode {
            j.phase == JobPhase::Running || j.phase == JobPhase::Allocating
        } else {
            j.phase == JobPhase::Running
        };
        live && j.epoch_is(epoch)
    }

    /// Aborts the job's current round and schedules its retry — the
    /// shared tail of a deadline miss and an abort-storm strike. The
    /// caller must have checked that a round is in flight.
    fn abort_round(
        &mut self,
        job_idx: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        // Only a sync-mode storm strike finds holds (sync deadlines arm at
        // round start, async mode holds nothing).
        self.return_to_poll(job_idx, now, scheduler);
        self.result.aborted_rounds += 1;
        if self.env.is_some() {
            self.result.env.retries += 1;
        }
        let j = self.jobs.get_mut(job_idx);
        j.record.rounds_aborted += 1;
        j.phase = JobPhase::Idle;
        j.epoch += 1;
        let round = j.rounds_done;
        self.queue
            .push(now + ABORT_BACKOFF_MS, EventKind::RoundStart { job_idx });
        for o in observers.iter_mut() {
            o.on_round_abort(now, job_idx, round);
        }
    }

    /// `EnvDisturbance`: a scheduled environment disturbance fires.
    ///
    /// Victim draws come from the environment's own streams in fixed
    /// device/job index order, so disturbances are reproducible per seed
    /// and never touch the kernel's response-noise RNG.
    fn handle_env_disturbance(
        &mut self,
        env_idx: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let Some(disturbance) = self.env.as_ref().map(|e| e.disturbance(env_idx)) else {
            return;
        };
        match disturbance {
            Disturbance::MassOffline { frac } => {
                for device in 0..self.devices.len() {
                    if now >= self.devices.session_end(device) {
                        continue; // offline devices are not drawn for
                    }
                    if self
                        .env
                        .as_mut()
                        .expect("env present")
                        .mass_offline_hits(frac)
                    {
                        self.force_offline(device, now, scheduler);
                    }
                }
            }
            Disturbance::DeviceFail { device } => {
                if device < self.devices.len() && now < self.devices.session_end(device) {
                    self.force_offline(device, now, scheduler);
                }
            }
            Disturbance::AbortStorm { prob } => {
                for job_idx in 0..self.jobs.len() {
                    // A storm models a coordinator-side abort: it can kill
                    // an open request too, unlike the deadline.
                    let phase = self.jobs.get(job_idx).phase;
                    if !matches!(phase, JobPhase::Running | JobPhase::Allocating) {
                        continue; // idle/finished jobs are not drawn for
                    }
                    if self.env.as_mut().expect("env present").storm_hits(prob) {
                        self.result.env.storm_aborts += 1;
                        self.abort_round(job_idx, now, scheduler, observers);
                    }
                }
            }
        }
    }

    /// Quorum reached: close the round, account its timing, and schedule
    /// the next one (or finish the job).
    fn complete_round(
        &mut self,
        job_idx: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
        observers: &mut [&mut dyn SimObserver],
    ) {
        let plan_rounds = self.workload.jobs[job_idx].rounds;
        let record_rounds = self.config.record_rounds;
        let j = self.jobs.get_mut(job_idx);
        if j.phase == JobPhase::Allocating {
            // Async quorum before full allocation: close the open request.
            scheduler.withdraw(JobId::new(job_idx as u64), now);
            j.round_start = now;
        }
        j.record.sched_delay_ms += j.round_start - j.request_start;
        j.record.response_ms += now - j.round_start;
        j.record.rounds_completed += 1;
        // When a log is wanted it *takes* the participant list (the next
        // request clears it anyway) — no per-round clone; and when neither
        // the config nor any observer wants it, nothing is built at all.
        let log = (record_rounds || !observers.is_empty()).then(|| RoundLog {
            job_idx,
            round: j.rounds_done,
            start_ms: j.request_start,
            end_ms: now,
            participants: std::mem::take(&mut j.participants),
        });
        j.rounds_done += 1;
        j.epoch += 1;
        let finished = j.rounds_done >= plan_rounds;
        if finished {
            j.phase = JobPhase::Finished;
            j.record.finish(now);
        } else {
            j.phase = JobPhase::Idle;
            self.queue
                .push(now + AGG_DELAY_MS, EventKind::RoundStart { job_idx });
        }
        if let Some(log) = log {
            for o in observers.iter_mut() {
                o.on_round_complete(now, &log);
            }
            if record_rounds {
                // Observers first, then move (not clone) the log into the
                // result — hook order within the moment is unchanged
                // because observers cannot see `result.rounds` mid-run.
                self.result.rounds.push(log);
            }
        }
        if finished {
            for o in observers.iter_mut() {
                o.on_job_finish(now, job_idx);
            }
        }
    }

    /// Encodes every piece of mutable run state into `w` — the world half
    /// of a checkpoint (the scheduler half rides alongside; see
    /// [`snapshot_world`](crate::snapshot_world)).
    ///
    /// Immutable state (config, workload, compiled environment schedule,
    /// session stream entries, job specs, noise distribution, horizon) is
    /// *not* written: [`World::new`] re-derives it deterministically from
    /// `(config, workload)`, and the container fingerprint pins that the
    /// resuming process passes the same pair. Internal-layout-dependent
    /// structures (the timing wheel) are written in canonical form — the
    /// sorted `(time, seq)` event list — so snapshot bytes do not depend
    /// on where the wheel's cursor stood.
    pub fn encode_state(&self, w: &mut SnapWriter) {
        w.u64(self.now);
        self.devices.encode_state(w);

        // Job table: mutable fields only; `spec` is re-derived from the
        // workload plan by the constructor.
        w.len_prefix(self.jobs.len());
        for idx in 0..self.jobs.len() {
            self.jobs.get(idx).encode(w);
        }

        // Event queue in canonical sorted form, plus the seq counter
        // (reserved-but-unscheduled seqs must never be reissued) and the
        // high-water mark (a reported statistic).
        w.u64(self.queue.next_seq());
        w.usize(self.queue.peak_len());
        let events = self.queue.snapshot_events();
        w.seq(&events, |w, e| e.encode(w));

        // Parked polls. Only the `(time, seq, device)` identity is
        // written: cached session ends and capacities are pure caches of
        // device-pool facts, re-derived at re-park time.
        w.len_prefix(self.parked.len());
        for (time, seq, device) in self.parked.polls() {
            w.u64(time);
            w.u64(seq);
            w.u32(device);
        }

        // Environment runtime: only the three disturbance RNG streams
        // advance at runtime; everything else recompiles from the config.
        let env_states = self.env.as_ref().map(|e| e.rng_states());
        w.option(&env_states, |w, &(churn, fault, drop)| {
            for stream in [churn, fault, drop] {
                for word in stream {
                    w.u64(word);
                }
            }
        });

        // Cohort wheel (split population arms only).
        match &self.cohorts {
            Some(c) => {
                w.bool(true);
                c.encode_state(w);
            }
            None => w.bool(false),
        }

        // Session stream: entries are re-derived; only the drain cursor
        // moves. The entry count doubles as a cheap consistency check.
        w.usize(self.session_stream.entries.len());
        w.usize(self.session_stream.cursor);

        // Kernel RNG (response noise).
        self.rng.encode(w);

        self.result.encode_progress(w);
    }

    /// Overwrites this world's mutable state from a snapshot written by
    /// [`encode_state`](Self::encode_state).
    ///
    /// Call on a world freshly built by [`World::new`] with the *same*
    /// `(config, workload)` as the checkpointed run. The
    /// constructor's initial queue contents are discarded wholesale; the
    /// snapshot's pending-event set is authoritative. Returns
    /// [`SnapError::Corrupt`] — never panics — on any internally
    /// inconsistent input that slips past the container checksum.
    ///
    /// The world keeps its own scheduler name: a fork restores under
    /// another scheduler on purpose, and a resume leaves the identity
    /// check to [`Scheduler::load_state`].
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = r.u64()?;
        self.devices.restore_state(r)?;

        let job_count = r.len_prefix()?;
        if job_count != self.jobs.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {job_count} jobs, workload has {}",
                self.jobs.len()
            )));
        }
        for idx in 0..job_count {
            self.jobs.get_mut(idx).decode(r)?;
        }
        self.check_holds()?;

        let next_seq = r.u64()?;
        let peak_len = r.usize()?;
        let events = r.seq(Event::decode)?;
        for pair in events.windows(2) {
            if (pair[0].time, pair[0].seq) >= (pair[1].time, pair[1].seq) {
                return Err(SnapError::Corrupt("event list not sorted".into()));
            }
        }
        if events.iter().any(|e| e.seq >= next_seq) {
            return Err(SnapError::Corrupt("event seq beyond queue counter".into()));
        }
        for e in &events {
            self.check_event(e)?;
        }
        let polls = r.seq(|r| Ok((r.u64()?, r.u64()?, r.u32()?)))?;
        for pair in polls.windows(2) {
            if pair[0] >= pair[1] {
                return Err(SnapError::Corrupt("poll list not sorted".into()));
            }
        }
        // Poll times are not held to the clock: `run_until` moves it past
        // polls that only the next dispatched event elapses.
        for &(_, seq, device) in &polls {
            if seq >= next_seq {
                return Err(SnapError::Corrupt("poll seq beyond queue counter".into()));
            }
            if device as usize >= self.config.population {
                return Err(SnapError::Corrupt(format!(
                    "parked poll device {device} out of range"
                )));
            }
        }
        self.queue = EventQueue::restore(&events, next_seq, peak_len);

        // Re-park, re-reading the authoritative session end (and
        // capacity) from the just-restored device pool. A fresh plane
        // starts at generation 0 with all cached ends authoritative —
        // behaviorally identical to the checkpointed plane's cache state,
        // which only ever *under*-estimates session ends between
        // generation bumps.
        self.parked = ParkedPolls::new(self.horizon);
        for &(time, seq, device) in &polls {
            let device = device as usize;
            let end = self.devices.session_end(device);
            let cap = self.devices.snapshot_capacity(device).unwrap_or_else(|| {
                self.config
                    .capacity
                    .sample_device(self.config.seed, device)
                    .capacity
            });
            self.parked.park(device, time, seq, end, cap);
        }

        let env_states = r.option(|r| {
            let mut streams = [[0u64; 4]; 3];
            for stream in &mut streams {
                for word in stream.iter_mut() {
                    *word = r.u64()?;
                }
            }
            Ok(streams)
        })?;
        match (&mut self.env, env_states) {
            (Some(e), Some(s)) => e.restore_rng_states(s[0], s[1], s[2]),
            (None, None) => {}
            (have, _) => {
                return Err(SnapError::Corrupt(format!(
                    "environment presence mismatch (config compiles env: {})",
                    have.is_some()
                )));
            }
        }

        let has_cohorts = r.bool()?;
        match (&mut self.cohorts, has_cohorts) {
            (Some(c), true) => c.restore_state(r)?,
            (None, false) => {}
            (have, _) => {
                return Err(SnapError::Corrupt(format!(
                    "cohort presence mismatch (config uses cohorts: {})",
                    have.is_some()
                )));
            }
        }

        let entry_count = r.usize()?;
        if entry_count != self.session_stream.entries.len() {
            return Err(SnapError::Corrupt(format!(
                "snapshot has {entry_count} stream sessions, rebuild has {}",
                self.session_stream.entries.len()
            )));
        }
        let cursor = r.usize()?;
        if cursor > entry_count {
            return Err(SnapError::Corrupt(format!(
                "stream cursor {cursor} beyond {entry_count} entries"
            )));
        }
        self.session_stream.cursor = cursor;

        self.rng = StdRng::decode(r)?;

        self.result.restore_progress(r)
    }

    /// Refuses a restored event this world could not dispatch: one dated
    /// before the clock, or one naming a job, device, disturbance or
    /// cohort the world does not have — cohorts exist on the split
    /// population arms only, disturbances only with an environment.
    fn check_event(&self, e: &Event) -> Result<(), SnapError> {
        if e.time < self.now {
            return Err(SnapError::Corrupt(format!(
                "event at {} ms precedes the clock ({} ms)",
                e.time, self.now
            )));
        }
        let in_range = |what: &str, idx: usize, count: usize| {
            if idx < count {
                Ok(())
            } else {
                Err(SnapError::Corrupt(format!(
                    "event at {} ms names {what} {idx} of {count}",
                    e.time
                )))
            }
        };
        let jobs = self.jobs.len();
        let devices = self.config.population;
        let job_index = |job: JobId| usize::try_from(job.as_u64()).unwrap_or(usize::MAX);
        match e.kind {
            EventKind::JobArrival { job_idx } | EventKind::RoundStart { job_idx } => {
                in_range("job", job_idx, jobs)
            }
            EventKind::RoundDeadline { job, .. } => in_range("job", job_index(job), jobs),
            EventKind::SessionStart { device, .. } | EventKind::CheckIn { device } => {
                in_range("device", device, devices)
            }
            EventKind::HoldExpire { job, device, .. }
            | EventKind::Response { job, device, .. }
            | EventKind::AssignFailure { job, device, .. } => {
                in_range("job", job_index(job), jobs)?;
                in_range("device", device, devices)
            }
            EventKind::EnvDisturbance { env_idx } => {
                let count = self.env.as_ref().map_or(0, |env| env.disturbances().len());
                in_range("disturbance", env_idx, count)
            }
            EventKind::CohortWake { cohort } => {
                let count = self.cohorts.as_ref().map_or(0, |c| c.cohort_count());
                in_range("cohort", cohort, count)
            }
        }
    }
}
