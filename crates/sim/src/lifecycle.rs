//! The device × job relation and the transitions that change it.
//!
//! A device checks in, is matched to a job, is held until the job's
//! demand is met, computes, then responds or fails (paper Fig. 1, §4).
//! Each step is one [`World`] method here, and these methods are the
//! only writers of the relation: the device [`Role`], the job's
//! `assigned` count and hold list, the scheduler's returned demand, the
//! daily cap, the lazy store's retire notes and the follow-up event. The
//! event handlers in [`world`](crate::world) call transitions; they never
//! edit the relation themselves.
//!
//! | State | Lives in | Entered by | Left by |
//! |---|---|---|---|
//! | `Retired` | an empty lazy slot (+ durable overlay) | a retire note (`end_polls`, or a transition into `Idle`) once idle past session end | session start (materialize) |
//! | `Idle` | `Role::Idle` | materialize, `respond`, `fail`, `release_hold`, `return_to_poll` | `hold`, `start` (async) |
//! | `Parked` | a [`ParkedPolls`](crate::parked::ParkedPolls) entry of an `Idle` device | a gated unmatched poll | demand wake, poll death |
//! | `Held { job, slot }` | `Role::Held` + the job's hold list at `slot` | `hold` | `start`, `release_hold`, `return_to_poll` |
//! | `Computing { failed }` | `Role::Computing` | `start` | `respond`, `fail`; `force_offline` sets `failed` |
//!
//! An illegal transition — holding a device that is not idle, releasing a
//! hold the job does not own — panics in debug builds, naming the
//! transition, the device and the job.

use venn_core::{JobId, Scheduler, SimTime, SnapError};

use crate::config::REPOLL_MS;
use crate::device_pool::Role;
use crate::event::EventKind;
use crate::job_table::{JobPhase, HELD_TOMBSTONE};
use crate::world::World;

impl World {
    /// `Idle → Held`: the scheduler matched `device` to `job_idx`'s open
    /// request (sync mode). The hold counts as an assignment and arms its
    /// `HoldExpire` at the device's session end.
    pub(crate) fn hold(&mut self, job_idx: usize, device: usize) {
        debug_assert!(
            self.devices.get(device).role == Role::Idle,
            "hold: device {device} for job {job_idx} is {:?}, not idle",
            self.devices.get(device).role
        );
        let j = self.jobs.get_mut(job_idx);
        let slot = j.hold(device);
        let epoch = j.epoch;
        let hold_seq = self.devices.mark_held(device, job_idx, slot);
        self.queue.push(
            self.devices.session_end(device),
            EventKind::HoldExpire {
                job: JobId::new(job_idx as u64),
                epoch,
                device,
                hold_seq,
            },
        );
    }

    /// `Idle → Computing` (async assignment, counted here) or `Held →
    /// Computing` (sync round start): one task begins. Charges the daily
    /// cap, draws the response time and schedules the task's outcome.
    pub(crate) fn start(&mut self, job_idx: usize, device: usize, now: SimTime) {
        match self.devices.set_role(device, Role::Computing { failed: false }) {
            Role::Idle => self.jobs.get_mut(job_idx).count_assigned(),
            was => debug_assert!(
                matches!(was, Role::Held { job, .. } if job == job_idx),
                "start: device {device} for job {job_idx} is {was:?}, neither idle nor held by the job"
            ),
        }
        self.devices.note_task(device, now);
        let speed = self.devices.get(device).profile.speed;
        let task_ms = self.workload.jobs[job_idx].task_ms as f64;
        let response_ms = (task_ms / speed * self.noise.sample(&mut self.rng)).max(1_000.0) as u64;
        self.push_task_outcome(job_idx, device, response_ms, now);
    }

    /// `Computing → Idle`: the device's report arrives. It counts toward
    /// the round — a response, a participant, the scheduler's
    /// `on_response` — only while the round incarnation `epoch` is live;
    /// returns whether it counted. The report of a device forced offline
    /// mid-computation never arrives: its task [`fail`](Self::fail)s.
    pub(crate) fn respond(
        &mut self,
        job_idx: usize,
        epoch: u32,
        device: usize,
        response_ms: u64,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
    ) -> bool {
        let job = JobId::new(job_idx as u64);
        if self.devices.get(device).role == (Role::Computing { failed: true }) {
            self.fail(job, epoch, device, now, scheduler);
            return false;
        }
        let was = self.devices.set_role(device, Role::Idle);
        debug_assert!(
            was == Role::Computing { failed: false },
            "respond: device {device} for job {job_idx} is {was:?}, not computing"
        );
        let counts = self.round_live(job_idx, epoch);
        if counts {
            let j = self.jobs.get_mut(job_idx);
            j.responses += 1;
            j.participants.push(device);
            if let Some(env) = &self.env {
                self.result
                    .env
                    .record_response(env.tier_of(device), response_ms);
            }
            scheduler.on_response(job, self.devices.info(device), response_ms, now);
        }
        // After the last read of the reporting device's state: a response
        // arriving at its session's final instant can retire it here.
        self.devices.note_possible_retire(device, now);
        counts
    }

    /// `Computing → Idle`: the task failed — the device departed
    /// mid-computation, or was forced offline and its report never
    /// arrives. While an async request is still open, the failed
    /// assignment returns to the scheduler's demand.
    pub(crate) fn fail(
        &mut self,
        job: JobId,
        epoch: u32,
        device: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
    ) {
        let was = self.devices.set_role(device, Role::Idle);
        debug_assert!(
            matches!(was, Role::Computing { .. }),
            "fail: device {device} for job {} is {was:?}, not computing",
            job.as_u64()
        );
        self.devices.note_possible_retire(device, now);
        self.result.failures += 1;
        if self.config.async_mode {
            let j = self.jobs.get_mut(job.as_u64() as usize);
            if j.phase == JobPhase::Allocating && j.epoch_is(epoch) {
                j.uncount_assigned();
                scheduler.add_demand(job, 1, now);
            }
        }
    }

    /// `Held → Idle`: one hold of `job_idx`'s open request ends early —
    /// the device's session ended, or a fault forced it offline. O(1) via
    /// the held slot; the tombstone keeps later holds (and thus the
    /// round-start RNG draw order) in place. The unit of demand returns
    /// to the scheduler.
    pub(crate) fn release_hold(
        &mut self,
        job_idx: usize,
        device: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
    ) {
        let Role::Held { job, slot } = self.devices.set_role(device, Role::Idle) else {
            panic!("release_hold: device {device} is not held, by job {job_idx} or any other");
        };
        debug_assert!(
            job == job_idx,
            "release_hold: device {device} is held by job {job}, not by job {job_idx}"
        );
        let j = self.jobs.get_mut(job_idx);
        debug_assert_eq!(
            j.phase,
            JobPhase::Allocating,
            "holds only exist during allocation"
        );
        j.release_held(slot, device);
        self.devices.note_possible_retire(device, now);
        scheduler.add_demand(JobId::new(job_idx as u64), 1, now);
    }

    /// `Held → Idle` for every live hold of `job_idx`'s open request, if
    /// it has one, torn down by an abort or a withdrawal. The request
    /// leaves the scheduler; each released device re-enters its poll loop
    /// (assignment ended its poll chain) rather than idling, invisible to
    /// every scheduler, until its next session. The holds' pending
    /// expiries are retired by the hold-generation guard.
    pub(crate) fn return_to_poll(
        &mut self,
        job_idx: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
    ) {
        if self.jobs.get(job_idx).phase != JobPhase::Allocating {
            return;
        }
        scheduler.withdraw(JobId::new(job_idx as u64), now);
        // By index in assignment order: no clone of the list.
        for slot in 0..self.jobs.get(job_idx).held().len() {
            let device = self.jobs.get(job_idx).held()[slot];
            if device == HELD_TOMBSTONE {
                continue;
            }
            let was = self.devices.set_role(device, Role::Idle);
            debug_assert!(
                was == Role::Held { job: job_idx, slot },
                "return_to_poll: device {device} is {was:?}, not held by job {job_idx} at slot {slot}"
            );
            let next = now + REPOLL_MS;
            if next < self.devices.session_end(device) {
                self.queue.push(next, EventKind::CheckIn { device });
            } else {
                self.end_polls(device, now);
            }
        }
    }

    /// Forces one online device offline (mass-offline victim or scripted
    /// fault): its session ends now. A held device is released back to
    /// its job's demand — what its hold expiry would have done, just
    /// early; the hold-generation guard retires the stale expiry. A
    /// computing device becomes `Computing { failed: true }`, so its
    /// report arrives as a failure.
    pub(crate) fn force_offline(
        &mut self,
        device: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
    ) {
        self.result.env.forced_offline += 1;
        let role = self.devices.get(device).role;
        self.devices.cut_session(device, now);
        // The one transition that can shrink a session: invalidate the
        // parked polls' cached session ends.
        self.parked.bump_gen();
        match role {
            Role::Held { job, .. } => {
                self.release_hold(job, device, now, scheduler);
                // Demand reopened without a `submit`: wake parked pollers
                // so the gated arm keeps matching the un-gated reference.
                self.parked.wake(&mut self.queue);
            }
            Role::Computing { .. } => {
                self.devices
                    .set_role(device, Role::Computing { failed: true });
            }
            Role::Idle => {}
        }
    }

    /// The device's poll chain ends: nothing touches it again before its
    /// session end, so the lazy store may retire it then.
    pub(crate) fn end_polls(&mut self, device: usize, now: SimTime) {
        self.devices.note_possible_retire(device, now);
    }

    /// Schedules the in-flight task's outcome event: its response, an
    /// environment-injected mid-round dropout partway to that response,
    /// or the session-end departure failure. On the env-off arm the
    /// response time is untouched and no drop draw happens.
    fn push_task_outcome(
        &mut self,
        job_idx: usize,
        device: usize,
        mut response_ms: u64,
        now: SimTime,
    ) {
        let (job, epoch) = (JobId::new(job_idx as u64), self.jobs.get(job_idx).epoch);
        let session_end = self.devices.session_end(device);
        if let Some(env) = &self.env {
            response_ms = env.stretch(device, response_ms);
        }
        if now + response_ms > session_end {
            self.queue
                .push(session_end, EventKind::AssignFailure { job, epoch, device });
            return;
        }
        match self.env.as_mut().and_then(|env| env.sample_drop(device)) {
            Some(frac) => {
                // The participant's network tier drops it mid-round: an
                // `AssignFailure` lands partway to the would-be response,
                // and the existing quorum/abort machinery arbitrates.
                let lead = ((response_ms as f64 * frac) as u64)
                    .clamp(1, response_ms.saturating_sub(1).max(1));
                self.result.env.dropouts += 1;
                self.queue
                    .push(now + lead, EventKind::AssignFailure { job, epoch, device });
            }
            None => self.queue.push(
                now + response_ms,
                EventKind::Response {
                    job,
                    epoch,
                    device,
                    response_ms,
                },
            ),
        }
    }

    /// Cross-checks a restored relation: every live hold of an allocating
    /// job names an in-range, materialized device held by that job at
    /// that slot, and every held device is listed by its job at its slot.
    pub(crate) fn check_holds(&self) -> Result<(), SnapError> {
        for job in 0..self.jobs.len() {
            let j = self.jobs.get(job);
            if j.phase != JobPhase::Allocating {
                continue;
            }
            for (slot, &device) in j.held().iter().enumerate() {
                if device == HELD_TOMBSTONE {
                    continue;
                }
                let role = self.devices.role(device);
                if role != Some(Role::Held { job, slot }) {
                    let role = role.map_or("absent".to_string(), |r| format!("{r:?}"));
                    return Err(SnapError::Corrupt(format!(
                        "job {job} hold slot {slot} names device {device}, which is {role}"
                    )));
                }
            }
        }
        for device in 0..self.devices.len() {
            if let Some(Role::Held { job, slot }) = self.devices.role(device) {
                let listed = job < self.jobs.len()
                    && self.jobs.get(job).phase == JobPhase::Allocating
                    && self.jobs.get(job).held().get(slot) == Some(&device);
                if !listed {
                    return Err(SnapError::Corrupt(format!(
                        "device {device} is held by job {job} at slot {slot}, which the job does not list"
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use venn_baselines::BaselineScheduler;
    use venn_traces::Workload;

    use crate::config::SimConfig;
    use crate::world::World;

    fn world() -> World {
        let mut rng = StdRng::seed_from_u64(7);
        let workload = Workload::default_scenario(4, &mut rng);
        World::new(SimConfig::small(), &workload, "fifo")
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "hold: device 3 for job 1 is Held { job: 0, slot: 0 }, not idle")]
    fn a_device_is_held_by_at_most_one_job() {
        let mut w = world();
        w.hold(0, 3);
        w.hold(1, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "release_hold: device 3 is held by job 0, not by job 1")]
    fn only_the_holding_job_releases_a_hold() {
        let mut w = world();
        let mut sched = BaselineScheduler::fifo();
        w.hold(0, 3);
        w.release_hold(1, 3, 0, &mut sched);
    }
}
