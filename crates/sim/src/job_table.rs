//! Per-job runtime state: round phases, epochs, held devices, and JCT
//! accounting.

use venn_core::{CategoryThresholds, SimTime, SnapError, SnapReader, SnapWriter};
use venn_metrics::JctRecord;
use venn_traces::{JobPlan, Workload};

/// Where a job is in its round lifecycle (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Not yet arrived or between rounds.
    Idle,
    /// A round request is outstanding; devices are being held.
    Allocating,
    /// All participants are computing; the deadline is ticking.
    Running,
    /// All rounds done.
    Finished,
}

/// Tombstone marking a released slot in [`JobRuntime::held`]. Releases
/// must not shift later entries (the hold order drives the response-noise
/// draw order at round start), so freed slots are blanked in place.
pub(crate) const HELD_TOMBSTONE: usize = usize::MAX;

/// Mutable state of one job across its rounds.
#[derive(Debug)]
pub struct JobRuntime {
    /// Eligibility spec derived from the job's category.
    pub(crate) spec: venn_core::ResourceSpec,
    /// Rounds completed so far.
    pub rounds_done: u32,
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// Request incarnation; bumped on round completion/abort so stale
    /// events are ignored.
    pub(crate) epoch: u32,
    /// When the current round's request was submitted.
    pub(crate) request_start: SimTime,
    /// When the current round started computing.
    pub(crate) round_start: SimTime,
    /// Devices assigned to the current request. Written only by the
    /// [`lifecycle`](crate::lifecycle) transitions.
    assigned: u32,
    /// Responses received this round.
    pub responses: u32,
    /// Devices currently held (population indices), in assignment order.
    /// Released slots are blanked to [`HELD_TOMBSTONE`] rather than
    /// removed, so a release is O(1) *and* the order of the surviving
    /// holds — which fixes the RNG draw order at round start — is exactly
    /// what an order-preserving `retain` would leave. Written only by the
    /// [`lifecycle`](crate::lifecycle) transitions; once the round starts
    /// it lists the round's first participants until the next request.
    held: Vec<usize>,
    /// Devices that responded this round.
    pub(crate) participants: Vec<usize>,
    /// JCT accounting for the final report.
    pub record: JctRecord,
}

impl JobRuntime {
    fn new(plan: &JobPlan, thresholds: CategoryThresholds) -> Self {
        JobRuntime {
            spec: plan.spec(thresholds),
            rounds_done: 0,
            phase: JobPhase::Idle,
            epoch: 0,
            request_start: 0,
            round_start: 0,
            assigned: 0,
            responses: 0,
            held: Vec::new(),
            participants: Vec::new(),
            record: JctRecord::new(plan.arrival_ms),
        }
    }

    /// Resets per-round state when a new request is submitted.
    pub(crate) fn begin_request(&mut self, now: SimTime) {
        self.phase = JobPhase::Allocating;
        self.request_start = now;
        self.assigned = 0;
        self.responses = 0;
        self.held.clear();
        self.participants.clear();
    }

    /// Whether an event stamped with `epoch` still refers to the current
    /// round incarnation.
    pub(crate) fn epoch_is(&self, epoch: u32) -> bool {
        self.epoch == epoch
    }

    /// Devices assigned to the current request.
    pub fn assigned(&self) -> u32 {
        self.assigned
    }

    /// The hold list, tombstones included.
    pub fn held(&self) -> &[usize] {
        &self.held
    }

    /// Counts one more device assigned to the current request.
    pub(crate) fn count_assigned(&mut self) {
        self.assigned += 1;
    }

    /// Uncounts an assigned device whose task failed while the request
    /// is still open.
    pub(crate) fn uncount_assigned(&mut self) {
        debug_assert!(self.assigned > 0, "uncount with nothing assigned");
        self.assigned = self.assigned.saturating_sub(1);
    }

    /// Records `device` as held and assigned, and returns its slot in the
    /// hold list — the position index [`release_held`](Self::release_held)
    /// frees in O(1).
    pub(crate) fn hold(&mut self, device: usize) -> usize {
        debug_assert_ne!(device, HELD_TOMBSTONE);
        self.assigned += 1;
        self.held.push(device);
        self.held.len() - 1
    }

    /// Releases the hold at `slot` in O(1) without shifting later holds
    /// (a tombstone takes its place until the round ends), and uncounts
    /// its assignment.
    pub(crate) fn release_held(&mut self, slot: usize, device: usize) {
        debug_assert_eq!(self.held[slot], device, "hold index out of sync");
        self.held[slot] = HELD_TOMBSTONE;
        self.uncount_assigned();
    }

    /// The devices still held, in assignment order (tombstones skipped).
    pub(crate) fn held_devices(&self) -> impl Iterator<Item = usize> + '_ {
        self.held.iter().copied().filter(|&d| d != HELD_TOMBSTONE)
    }

    /// Encodes the mutable fields; `spec` is re-derived from the workload
    /// plan by the constructor.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        w.u32(self.rounds_done);
        w.u8(match self.phase {
            JobPhase::Idle => 0,
            JobPhase::Allocating => 1,
            JobPhase::Running => 2,
            JobPhase::Finished => 3,
        });
        w.u32(self.epoch);
        w.u64(self.request_start);
        w.u64(self.round_start);
        w.u32(self.assigned);
        w.u32(self.responses);
        w.seq(&self.held, |w, &d| w.usize(d));
        w.seq(&self.participants, |w, &d| w.usize(d));
        let rec = &self.record;
        w.u64(rec.arrival_ms);
        w.option(&rec.finish_ms, |w, &t| w.u64(t));
        w.u64(rec.sched_delay_ms);
        w.u64(rec.response_ms);
        w.u32(rec.rounds_completed);
        w.u32(rec.rounds_aborted);
    }

    /// Overwrites the mutable fields from [`encode`](Self::encode)'s bytes.
    /// The hold list is taken as written; the world cross-checks it
    /// against the device roles once every job is decoded.
    pub(crate) fn decode(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rounds_done = r.u32()?;
        self.phase = match r.u8()? {
            0 => JobPhase::Idle,
            1 => JobPhase::Allocating,
            2 => JobPhase::Running,
            3 => JobPhase::Finished,
            other => {
                return Err(SnapError::Corrupt(format!("job phase tag {other}")));
            }
        };
        self.epoch = r.u32()?;
        self.request_start = r.u64()?;
        self.round_start = r.u64()?;
        self.assigned = r.u32()?;
        self.responses = r.u32()?;
        self.held = r.seq(|r| r.usize())?;
        self.participants = r.seq(|r| r.usize())?;
        let rec = &mut self.record;
        rec.arrival_ms = r.u64()?;
        rec.finish_ms = r.option(|r| r.u64())?;
        rec.sched_delay_ms = r.u64()?;
        rec.response_ms = r.u64()?;
        rec.rounds_completed = r.u32()?;
        rec.rounds_aborted = r.u32()?;
        Ok(())
    }
}

/// Runtime state of every job in the workload, indexed like
/// `workload.jobs`.
#[derive(Debug)]
pub struct JobTable {
    jobs: Vec<JobRuntime>,
}

impl JobTable {
    /// Builds the table from the workload's job plans.
    pub(crate) fn new(workload: &Workload, thresholds: CategoryThresholds) -> Self {
        JobTable {
            jobs: workload
                .jobs
                .iter()
                .map(|plan| JobRuntime::new(plan, thresholds))
                .collect(),
        }
    }

    /// Appends runtime state for one job admitted mid-run (online
    /// serving): identical initial state to what [`JobTable::new`] builds
    /// for a plan known at t=0, so a dynamically submitted job is
    /// indistinguishable from a pre-planned one with the same arrival.
    pub(crate) fn push(&mut self, plan: &JobPlan, thresholds: CategoryThresholds) {
        self.jobs.push(JobRuntime::new(plan, thresholds));
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Read access to one job.
    pub fn get(&self, job_idx: usize) -> &JobRuntime {
        &self.jobs[job_idx]
    }

    /// Write access to one job.
    pub(crate) fn get_mut(&mut self, job_idx: usize) -> &mut JobRuntime {
        &mut self.jobs[job_idx]
    }

    /// Consumes the table, yielding the per-job completion records in
    /// workload order.
    pub(crate) fn into_records(self) -> Vec<JctRecord> {
        self.jobs.into_iter().map(|j| j.record).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> JobTable {
        let mut rng = StdRng::seed_from_u64(11);
        let workload = Workload::default_scenario(4, &mut rng);
        JobTable::new(
            &workload,
            CategoryThresholds {
                cpu: 0.55,
                mem: 0.55,
            },
        )
    }

    #[test]
    fn starts_idle_with_zeroed_counters() {
        let t = table();
        assert_eq!(t.len(), 4);
        for i in 0..t.len() {
            let j = t.get(i);
            assert_eq!(j.phase, JobPhase::Idle);
            assert_eq!(j.rounds_done, 0);
            assert_eq!(j.epoch, 0);
            assert!(j.held.is_empty());
        }
    }

    #[test]
    fn begin_request_resets_round_state() {
        let mut t = table();
        let j = t.get_mut(0);
        j.assigned = 5;
        j.responses = 3;
        j.held = vec![1, 2];
        j.participants = vec![1];
        j.begin_request(9_000);
        assert_eq!(j.phase, JobPhase::Allocating);
        assert_eq!(j.request_start, 9_000);
        assert_eq!(j.assigned, 0);
        assert_eq!(j.responses, 0);
        assert!(j.held.is_empty() && j.participants.is_empty());
    }

    #[test]
    fn epochs_guard_stale_events() {
        let mut t = table();
        assert!(t.get(1).epoch_is(0));
        t.get_mut(1).epoch += 1;
        assert!(!t.get(1).epoch_is(0));
        assert!(t.get(1).epoch_is(1));
    }

    #[test]
    fn hold_release_preserves_surviving_order() {
        let mut t = table();
        let j = t.get_mut(0);
        let slots: Vec<usize> = [10, 11, 12, 13, 14].iter().map(|&d| j.hold(d)).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        // Release from the middle and the front: the survivors must keep
        // their assignment order (what an order-preserving retain leaves),
        // because round start draws response noise in hold order.
        j.release_held(1, 11);
        j.release_held(3, 13);
        j.release_held(0, 10);
        assert_eq!(j.held_devices().collect::<Vec<_>>(), vec![12, 14]);
        // Later holds append after the tombstones, keeping order.
        let s = j.hold(15);
        assert_eq!(s, 5);
        assert_eq!(j.held_devices().collect::<Vec<_>>(), vec![12, 14, 15]);
        // A new request clears tombstones with the rest of the list.
        j.begin_request(1_000);
        assert!(j.held.is_empty());
        assert_eq!(j.hold(20), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "hold index out of sync")]
    fn mismatched_release_is_caught() {
        let mut t = table();
        let j = t.get_mut(0);
        j.hold(10);
        j.release_held(0, 99);
    }

    #[test]
    fn into_records_preserves_workload_order() {
        let t = table();
        let arrivals: Vec<_> = (0..t.len()).map(|i| t.get(i).record.arrival_ms).collect();
        let records = t.into_records();
        assert_eq!(
            records.iter().map(|r| r.arrival_ms).collect::<Vec<_>>(),
            arrivals
        );
    }
}
