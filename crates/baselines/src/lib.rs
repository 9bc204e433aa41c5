//! Baseline CL resource managers the paper compares Venn against (§5.1):
//!
//! * **Random matching** — what Apple/Meta/Google-style infrastructures
//!   effectively do. The paper strengthens it: instead of re-rolling per
//!   device, jobs are scheduled in a *randomized order*, which reduces
//!   round abortions under contention. Both flavours are available.
//! * **FIFO** — first-submitted job first.
//! * **SRSF** — shortest remaining service first, the strongest classical
//!   baseline (total remaining device-rounds, smallest first).
//!
//! All baselines share one engine, [`BaselineScheduler`], which implements
//! the same [`Scheduler`] trait as [`venn_core::VennScheduler`], so the
//! simulator can swap them freely.
//!
//! # Examples
//!
//! ```
//! use venn_baselines::BaselineScheduler;
//! use venn_core::{Capacity, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler};
//!
//! let mut srsf = BaselineScheduler::srsf();
//! srsf.submit(Request::new(JobId::new(1), ResourceSpec::any(), 4, 400), 0);
//! srsf.submit(Request::new(JobId::new(2), ResourceSpec::any(), 4, 8), 0);
//! let d = DeviceInfo::new(DeviceId::new(1), Capacity::new(0.5, 0.5));
//! // Job 2 has far less remaining service, so it is served first.
//! assert_eq!(srsf.assign(&d, 1), Some(JobId::new(2)));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use venn_core::{
    DeviceInfo, JobId, PerJob, Request, Scheduler, SimTime, SnapError, SnapReader, SnapWriter,
    Snapshot,
};

/// Scheduling policy of a [`BaselineScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Serve jobs in a per-job random order fixed at submission (the
    /// paper's optimized random baseline).
    RandomOrder,
    /// Pick uniformly among eligible jobs per device (naive random).
    RandomPerDevice,
    /// First submitted, first served.
    Fifo,
    /// Smallest total remaining service first.
    Srsf,
}

#[derive(Debug, Clone)]
struct Entry {
    request: Request,
    pending: u32,
    submit_time: SimTime,
    /// Random priority drawn at submission (RandomOrder policy).
    lottery: u64,
}

impl Snapshot for Entry {
    fn encode(&self, w: &mut SnapWriter) {
        self.request.encode(w);
        w.u32(self.pending);
        w.u64(self.submit_time);
        w.u64(self.lottery);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Entry {
            request: Request::decode(r)?,
            pending: r.u32()?,
            submit_time: r.u64()?,
            lottery: r.u64()?,
        })
    }
}

/// One engine implementing all three baseline policies.
///
/// Like the Venn scheduler, the request table is part of the dense data
/// plane: entries live in a [`PerJob`] indexed by the dense [`JobId`]
/// (a withdrawal vacates the job's cell), and the per-device candidate
/// walk works over a persistent active-id list plus a reusable sort
/// buffer — no hashing and no allocation per `assign`.
///
/// Construct via [`BaselineScheduler::random_order`],
/// [`BaselineScheduler::random_per_device`], [`BaselineScheduler::fifo`], or
/// [`BaselineScheduler::srsf`].
#[derive(Debug)]
pub struct BaselineScheduler {
    policy: Policy,
    /// Each job's active request; a withdrawal vacates the job's cell.
    entries: PerJob<Entry>,
    /// Ids of the jobs in `entries`, in no particular order (the
    /// candidate sort's keys are total, so iteration order never shows).
    active: Vec<u32>,
    /// Reused buffer for the per-device eligible-candidate sort.
    candidates: Vec<u32>,
    rng: StdRng,
    name: &'static str,
}

impl BaselineScheduler {
    fn with_policy(policy: Policy, seed: u64, name: &'static str) -> Self {
        BaselineScheduler {
            policy,
            entries: PerJob::new(),
            active: Vec::new(),
            candidates: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            name,
        }
    }

    /// The paper's optimized random baseline: jobs are served in a random
    /// but *fixed* order, re-drawn per request.
    pub fn random_order(seed: u64) -> Self {
        Self::with_policy(Policy::RandomOrder, seed, "random")
    }

    /// Naive random matching: each device picks uniformly among eligible
    /// jobs.
    pub fn random_per_device(seed: u64) -> Self {
        Self::with_policy(Policy::RandomPerDevice, seed, "random-per-device")
    }

    /// First-in-first-out job order.
    pub fn fifo() -> Self {
        Self::with_policy(Policy::Fifo, 0, "fifo")
    }

    /// Shortest remaining service first.
    pub fn srsf() -> Self {
        Self::with_policy(Policy::Srsf, 0, "srsf")
    }

    /// The policy's winning candidate for `device`, if any.
    ///
    /// Fills the persistent candidate buffer with the eligible active
    /// ids and orders it by the policy's key. Every key ends in the job
    /// id, so the order is total and independent of the active list's
    /// iteration order.
    fn best_candidate(&mut self, device: &DeviceInfo) -> Option<JobId> {
        let entries = &self.entries;
        let entry = |id: u32| entries.get(id.into()).expect("active job has a request");
        self.candidates.clear();
        self.candidates
            .extend(self.active.iter().copied().filter(|&id| {
                let e = entry(id);
                e.pending > 0 && e.request.spec.is_eligible(device.capacity())
            }));
        if self.candidates.is_empty() {
            return None;
        }
        let key_of = |id: u32| {
            let e = entry(id);
            match self.policy {
                // Determinism before sampling.
                Policy::RandomPerDevice => (0, 0, id),
                Policy::RandomOrder => (e.lottery, 0, id),
                Policy::Fifo => (e.submit_time, 0, id),
                Policy::Srsf => (e.request.total_remaining, e.submit_time, id),
            }
        };
        let winner = match self.policy {
            Policy::RandomPerDevice => {
                self.candidates.sort_unstable_by_key(|&id| key_of(id));
                let pick = self.rng.gen_range(0..self.candidates.len());
                self.candidates[pick]
            }
            // The winner is the key minimum — no need to order the rest.
            _ => *self.candidates.iter().min_by_key(|&&id| key_of(id))?,
        };
        Some(winner.into())
    }
}

impl Scheduler for BaselineScheduler {
    fn name(&self) -> &str {
        self.name
    }

    fn submit(&mut self, request: Request, now: SimTime) {
        let lottery = self.rng.gen();
        let entry = Entry {
            pending: request.demand,
            request,
            submit_time: now,
            lottery,
        };
        // Resubmission before withdrawal replaces the request in place.
        if self.entries.entry(request.job).replace(entry).is_none() {
            // `entry` checked the dense-id bound.
            self.active.push(request.job.as_u64() as u32);
        }
    }

    fn withdraw(&mut self, job: JobId, _now: SimTime) {
        if self.entries.remove(job).is_some() {
            let pos = self
                .active
                .iter()
                .position(|&id| JobId::from(id) == job)
                .expect("a job with a request is active");
            self.active.swap_remove(pos);
        }
    }

    fn add_demand(&mut self, job: JobId, count: u32, _now: SimTime) {
        if let Some(e) = self.entries.get_mut(job) {
            e.pending = e.pending.saturating_add(count);
        }
    }

    fn assign(&mut self, device: &DeviceInfo, _now: SimTime) -> Option<JobId> {
        let job = self.best_candidate(device)?;
        let e = self.entries.get_mut(job).expect("candidate has a request");
        e.pending -= 1;
        Some(job)
    }

    fn pending_demand(&self, job: JobId) -> Option<u32> {
        self.entries.get(job).map(|e| e.pending)
    }

    fn has_open_demand(&self) -> bool {
        !self.active.is_empty()
    }

    fn observes_check_ins(&self) -> bool {
        // Baselines ignore check-in observations (`on_check_in` keeps its
        // default no-op body), so gated check-ins need no replay.
        false
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // Name validates the policy arm on restore; the active list is
        // rebuilt from the entries.
        w.str(self.name);
        self.entries.encode(w);
        self.rng.encode(w);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let name = r.str()?;
        if name != self.name {
            return Err(SnapError::Corrupt(format!(
                "scheduler mismatch: snapshot is {name:?}, this scheduler is {:?}",
                self.name
            )));
        }
        self.entries = PerJob::decode(r)?;
        self.rng = StdRng::decode(r)?;
        // Id order; never visible, as every policy key ends in the job id.
        self.active = self.entries.iter().map(|(id, _)| id).collect();
        self.candidates.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venn_core::{Capacity, DeviceId, ResourceSpec};

    fn dev(id: u64) -> DeviceInfo {
        DeviceInfo::new(DeviceId::new(id), Capacity::new(0.5, 0.5))
    }

    fn req(job: u64, demand: u32, total: u64) -> Request {
        Request::new(JobId::new(job), ResourceSpec::any(), demand, total)
    }

    #[test]
    fn fifo_serves_in_submission_order() {
        let mut s = BaselineScheduler::fifo();
        s.submit(req(1, 1, 100), 0);
        s.submit(req(2, 1, 1), 5);
        assert_eq!(s.assign(&dev(1), 6), Some(JobId::new(1)));
        assert_eq!(s.assign(&dev(2), 6), Some(JobId::new(2)));
    }

    #[test]
    fn srsf_serves_smallest_remaining_service() {
        let mut s = BaselineScheduler::srsf();
        s.submit(req(1, 1, 100), 0);
        s.submit(req(2, 1, 1), 5);
        assert_eq!(s.assign(&dev(1), 6), Some(JobId::new(2)));
    }

    #[test]
    fn random_order_is_fixed_within_request() {
        let mut s = BaselineScheduler::random_order(42);
        s.submit(req(1, 5, 5), 0);
        s.submit(req(2, 5, 5), 0);
        let first = s.assign(&dev(1), 1).unwrap();
        // The same job keeps winning until its demand is exhausted.
        for i in 2..=5 {
            assert_eq!(s.assign(&dev(i), 1), Some(first));
        }
        let other = s.assign(&dev(6), 1).unwrap();
        assert_ne!(other, first);
    }

    #[test]
    fn random_per_device_spreads_assignments() {
        let mut s = BaselineScheduler::random_per_device(7);
        s.submit(req(1, 100, 100), 0);
        s.submit(req(2, 100, 100), 0);
        let mut seen = std::collections::HashSet::new();
        for i in 0..50 {
            seen.insert(s.assign(&dev(i), 1).unwrap());
        }
        assert_eq!(seen.len(), 2, "both jobs should receive devices");
    }

    #[test]
    fn ineligible_devices_are_rejected() {
        let mut s = BaselineScheduler::fifo();
        s.submit(
            Request::new(JobId::new(1), ResourceSpec::new(0.9, 0.9), 1, 1),
            0,
        );
        assert_eq!(s.assign(&dev(1), 1), None);
    }

    #[test]
    fn demand_is_decremented_and_restored() {
        let mut s = BaselineScheduler::fifo();
        s.submit(req(1, 1, 1), 0);
        assert_eq!(s.assign(&dev(1), 1), Some(JobId::new(1)));
        assert_eq!(s.assign(&dev(2), 1), None);
        s.add_demand(JobId::new(1), 1, 2);
        assert_eq!(s.pending_demand(JobId::new(1)), Some(1));
        assert_eq!(s.assign(&dev(3), 2), Some(JobId::new(1)));
    }

    #[test]
    fn withdraw_removes_request() {
        let mut s = BaselineScheduler::srsf();
        s.submit(req(1, 5, 5), 0);
        assert_eq!(s.active.len(), 1);
        s.withdraw(JobId::new(1), 1);
        assert_eq!(s.active.len(), 0);
        assert_eq!(s.assign(&dev(1), 2), None);
        assert_eq!(s.pending_demand(JobId::new(1)), None);
    }

    #[test]
    fn unknown_job_operations_are_harmless() {
        let mut s = BaselineScheduler::fifo();
        s.withdraw(JobId::new(9), 0);
        s.add_demand(JobId::new(9), 2, 0);
        assert_eq!(s.pending_demand(JobId::new(9)), None);
    }

    #[test]
    fn resubmission_redraws_lottery_deterministically() {
        let mut a = BaselineScheduler::random_order(1);
        let mut b = BaselineScheduler::random_order(1);
        for s in [&mut a, &mut b] {
            s.submit(req(1, 1, 1), 0);
            s.submit(req(2, 1, 1), 0);
        }
        assert_eq!(a.assign(&dev(1), 1), b.assign(&dev(1), 1));
    }

    const EVERY_POLICY: [fn() -> BaselineScheduler; 4] = [
        || BaselineScheduler::random_order(11),
        || BaselineScheduler::random_per_device(11),
        BaselineScheduler::fifo,
        BaselineScheduler::srsf,
    ];

    fn restored(s: &BaselineScheduler, build: fn() -> BaselineScheduler) -> BaselineScheduler {
        let mut w = SnapWriter::new();
        s.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut restored = build();
        let mut r = SnapReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        restored
    }

    #[test]
    fn snapshot_round_trip_continues_bit_identically() {
        for build in EVERY_POLICY {
            let mut s = build();
            for j in 0..5u64 {
                s.submit(req(j, 3, 6 + j), j * 10);
            }
            for i in 0..7u64 {
                s.assign(&dev(i), 100 + i);
            }
            s.withdraw(JobId::new(2), 200);
            let mut restored = restored(&s, build);

            for i in 0..30u64 {
                let t = 300 + i * 5;
                assert_eq!(s.assign(&dev(50 + i), t), restored.assign(&dev(50 + i), t));
                if i % 7 == 0 {
                    let j = JobId::new(i % 5);
                    s.withdraw(j, t);
                    restored.withdraw(j, t);
                    s.submit(req(j.as_u64(), 2, 4), t);
                    restored.submit(req(j.as_u64(), 2, 4), t);
                }
            }
        }
    }

    /// The active list is not stored: a restored scheduler rebuilds it
    /// from the requests, so vacated ids (the smallest and the largest
    /// among them) stay vacant, and every job assigns and withdraws
    /// exactly as in the scheduler the state was saved from.
    #[test]
    fn restored_state_with_vacated_ids_matches_the_live_scheduler() {
        for build in EVERY_POLICY {
            let mut s = build();
            for j in 0..6u64 {
                s.submit(req(j, 2, 4 + j), j);
            }
            for j in [0, 3, 5] {
                s.withdraw(JobId::new(j), 10);
            }
            let mut restored = restored(&s, build);
            for i in 0..8u64 {
                assert_eq!(
                    s.assign(&dev(i), 20),
                    restored.assign(&dev(i), 20),
                    "device {i}"
                );
            }
            for j in 0..6u64 {
                let job = JobId::new(j);
                s.withdraw(job, 30);
                restored.withdraw(job, 30);
                assert_eq!(restored.pending_demand(job), None);
                assert_eq!(restored.has_open_demand(), s.has_open_demand(), "job {j}");
                assert_eq!(restored.active.len(), s.active.len(), "job {j}");
            }
            assert!(!restored.has_open_demand());
            assert_eq!(restored.assign(&dev(99), 40), None);
            s.submit(req(3, 1, 1), 50);
            restored.submit(req(3, 1, 1), 50);
            assert_eq!(s.assign(&dev(100), 50), restored.assign(&dev(100), 50));
        }
    }

    #[test]
    fn snapshot_rejects_wrong_policy() {
        let s = BaselineScheduler::fifo();
        let mut w = SnapWriter::new();
        s.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut other = BaselineScheduler::srsf();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BaselineScheduler::fifo().name(), "fifo");
        assert_eq!(BaselineScheduler::srsf().name(), "srsf");
        assert_eq!(BaselineScheduler::random_order(0).name(), "random");
        assert_eq!(
            BaselineScheduler::random_per_device(0).name(),
            "random-per-device"
        );
    }
}
