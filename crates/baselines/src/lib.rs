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
    DeviceInfo, JobId, JobIdIndex, JobSlot, Request, Scheduler, SimTime, SlotMap, SnapError,
    SnapReader, SnapWriter, Snapshot,
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
/// plane: entries live in a generation-checked [`SlotMap`] (freed slots are
/// reused across withdraw/resubmit churn), the external [`JobId`] space
/// crosses in through a direct-indexed [`JobIdIndex`], and the per-device
/// candidate walk works over a persistent active-slot list plus a reusable
/// sort buffer — no hashing and no allocation per `assign`.
///
/// Construct via [`BaselineScheduler::random_order`],
/// [`BaselineScheduler::random_per_device`], [`BaselineScheduler::fifo`], or
/// [`BaselineScheduler::srsf`].
#[derive(Debug)]
pub struct BaselineScheduler {
    policy: Policy,
    entries: SlotMap<Entry>,
    job_slots: JobIdIndex,
    /// Slots with an active request, in no particular order (the candidate
    /// sort's keys are total, so iteration order never shows).
    active: Vec<JobSlot>,
    /// Reused buffer for the per-device eligible-candidate sort.
    candidates: Vec<JobSlot>,
    rng: StdRng,
    name: &'static str,
}

impl BaselineScheduler {
    fn with_policy(policy: Policy, seed: u64, name: &'static str) -> Self {
        BaselineScheduler {
            policy,
            entries: SlotMap::new(),
            job_slots: JobIdIndex::new(),
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
    /// slots and orders it by the policy's key. Every key ends in the job
    /// id, so the order is total and independent of the active list's
    /// iteration order (exactly as the old hash-map walk, whose arbitrary
    /// order the same sort keys normalized).
    fn best_candidate(&mut self, device: &DeviceInfo) -> Option<JobSlot> {
        let entries = &self.entries;
        self.candidates.clear();
        self.candidates
            .extend(self.active.iter().copied().filter(|&slot| {
                let e = entries.get(slot).expect("active slot is live");
                e.pending > 0 && e.request.spec.is_eligible(device.capacity())
            }));
        if self.candidates.is_empty() {
            return None;
        }
        let key_of = |slot: JobSlot| {
            let e = entries.get(slot).expect("active slot is live");
            match self.policy {
                // Determinism before sampling.
                Policy::RandomPerDevice => (0, 0, e.request.job),
                Policy::RandomOrder => (e.lottery, 0, e.request.job),
                Policy::Fifo => (e.submit_time, 0, e.request.job),
                Policy::Srsf => (e.request.total_remaining, e.submit_time, e.request.job),
            }
        };
        match self.policy {
            Policy::RandomPerDevice => {
                self.candidates.sort_unstable_by_key(|&slot| key_of(slot));
                let pick = self.rng.gen_range(0..self.candidates.len());
                Some(self.candidates[pick])
            }
            // The winner is the key minimum — no need to order the rest.
            _ => self.candidates.iter().copied().min_by_key(|&s| key_of(s)),
        }
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
        match self
            .job_slots
            .get(request.job)
            .filter(|&s| self.entries.contains(s))
        {
            // Resubmission before withdrawal replaces the request in place.
            Some(slot) => *self.entries.get_mut(slot).expect("slot is live") = entry,
            None => {
                let slot = self.entries.insert(entry);
                self.job_slots.set(request.job, slot);
                self.active.push(slot);
            }
        }
    }

    fn withdraw(&mut self, job: JobId, _now: SimTime) {
        let Some(slot) = self.job_slots.get(job) else {
            return;
        };
        if self.entries.remove(slot).is_some() {
            self.job_slots.clear(job);
            let pos = self
                .active
                .iter()
                .position(|&s| s == slot)
                .expect("live entry was active");
            self.active.swap_remove(pos);
        }
    }

    fn add_demand(&mut self, job: JobId, count: u32, _now: SimTime) {
        let Some(slot) = self.job_slots.get(job) else {
            return;
        };
        if let Some(e) = self.entries.get_mut(slot) {
            e.pending = e.pending.saturating_add(count);
        }
    }

    fn assign(&mut self, device: &DeviceInfo, _now: SimTime) -> Option<JobId> {
        let slot = self.best_candidate(device)?;
        let e = self.entries.get_mut(slot).expect("candidate exists");
        e.pending -= 1;
        Some(e.request.job)
    }

    fn pending_demand(&self, job: JobId) -> Option<u32> {
        self.entries
            .get(self.job_slots.get(job)?)
            .map(|e| e.pending)
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
        // Name validates the policy arm on restore.
        w.str(self.name);
        self.entries.encode(w);
        self.job_slots.encode(w);
        w.seq(&self.active, |w, s| s.encode(w));
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
        self.entries = SlotMap::decode(r)?;
        self.job_slots = JobIdIndex::decode(r)?;
        self.active = r.seq(JobSlot::decode)?;
        self.rng = StdRng::decode(r)?;
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

    #[test]
    fn snapshot_round_trip_continues_bit_identically() {
        let builders: [fn() -> BaselineScheduler; 4] = [
            || BaselineScheduler::random_order(11),
            || BaselineScheduler::random_per_device(11),
            BaselineScheduler::fifo,
            BaselineScheduler::srsf,
        ];
        for build in builders {
            let mut s = build();
            for j in 0..5u64 {
                s.submit(req(j, 3, 6 + j), j * 10);
            }
            for i in 0..7u64 {
                s.assign(&dev(i), 100 + i);
            }
            s.withdraw(JobId::new(2), 200);

            let mut w = SnapWriter::new();
            s.save_state(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut restored = build();
            let mut r = SnapReader::new(&bytes);
            restored.load_state(&mut r).unwrap();
            r.finish().unwrap();

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
