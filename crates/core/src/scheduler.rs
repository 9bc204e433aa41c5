//! The scheduler interface shared by Venn and every baseline.

use crate::snapshot::{SnapError, SnapReader, SnapWriter};
use crate::{DeviceInfo, JobId, Request, SimTime};

/// One suppressed check-in replayed in batch: the device view the
/// scheduler would have observed, at the simulated time it would have
/// observed it.
///
/// Produced by the simulator's demand-gating machinery when parked poll
/// chains elapse between dispatched events — see
/// [`Scheduler::replay_check_ins`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckInRecord {
    /// When the suppressed check-in would have fired.
    pub time: SimTime,
    /// The device view at that instant.
    pub device: DeviceInfo,
}

/// A CL resource manager: decides which job each checked-in device serves.
///
/// The event-driven simulator (`venn-sim`) drives implementations through
/// this trait, so Venn, Random, FIFO, and SRSF are interchangeable. The
/// lifecycle per round of a job is:
///
/// 1. [`submit`](Scheduler::submit) — the job asks for `demand` devices.
/// 2. Devices check in over time; each check-in triggers
///    [`on_check_in`](Scheduler::on_check_in) (supply observation) and
///    [`assign`](Scheduler::assign) (the allocation decision, paper step 2).
/// 3. Assignment failures return capacity via
///    [`add_demand`](Scheduler::add_demand).
/// 4. [`on_alloc_complete`](Scheduler::on_alloc_complete) and
///    [`on_response`](Scheduler::on_response) feed profiling (Venn's tier
///    matching learns from them; baselines ignore them).
/// 5. [`withdraw`](Scheduler::withdraw) — the round reached quorum or
///    aborted; the request leaves the queue.
///
/// Implementations must tolerate `withdraw`/`add_demand` for unknown jobs
/// (the simulator may race a deadline against the last response).
///
/// # Examples
///
/// One full round, in the exact order the simulator drives the trait:
///
/// ```
/// use venn_core::{
///     Capacity, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler,
///     VennConfig, VennScheduler,
/// };
///
/// let mut sched: Box<dyn Scheduler> = Box::new(VennScheduler::new(VennConfig::default()));
/// let job = JobId::new(1);
///
/// // 1. The job requests 2 devices for its round.
/// sched.submit(Request::new(job, ResourceSpec::any(), 2, 10), 0);
/// assert_eq!(sched.pending_demand(job), Some(2));
///
/// // 2. Devices check in; each check-in is a supply observation followed
/// //    by an allocation decision that decrements pending demand.
/// let d1 = DeviceInfo::new(DeviceId::new(7), Capacity::new(0.9, 0.9));
/// sched.on_check_in(&d1, 1_000);
/// assert_eq!(sched.assign(&d1, 1_000), Some(job));
///
/// // 3. A held device departed before computing: its demand is returned.
/// sched.add_demand(job, 1, 2_000);
/// assert_eq!(sched.pending_demand(job), Some(2));
///
/// let d2 = DeviceInfo::new(DeviceId::new(8), Capacity::new(0.4, 0.4));
/// sched.on_check_in(&d2, 3_000);
/// assert_eq!(sched.assign(&d2, 3_000), Some(job));
/// assert_eq!(sched.assign(&d2, 3_000), Some(job)); // last unit
/// assert_eq!(sched.assign(&d2, 3_000), None); // demand exhausted
///
/// // 4. The round runs: allocation completed, responses stream back.
/// sched.on_alloc_complete(job, 3_000, 3_000);
/// sched.withdraw(job, 3_000); // request leaves the queue at round start
/// sched.on_response(job, &d1, 60_000, 63_000);
/// assert_eq!(sched.pending_demand(job), None);
/// ```
pub trait Scheduler {
    /// Human-readable scheduler name used in experiment tables.
    fn name(&self) -> &str;

    /// Enqueues a round request.
    fn submit(&mut self, request: Request, now: SimTime);

    /// Removes the job's current request (round quorum reached or aborted).
    fn withdraw(&mut self, job: JobId, now: SimTime);

    /// Returns `count` units of demand to the job's current request after
    /// assignment failures (device departed before responding).
    fn add_demand(&mut self, job: JobId, count: u32, now: SimTime);

    /// Observes a device check-in (supply signal). Default: ignored.
    fn on_check_in(&mut self, _device: &DeviceInfo, _now: SimTime) {}

    /// Chooses a job for the checked-in device, or `None` to leave it idle.
    ///
    /// On `Some(job)`, the scheduler must decrement that job's pending
    /// demand so subsequent devices are not over-assigned.
    fn assign(&mut self, device: &DeviceInfo, now: SimTime) -> Option<JobId>;

    /// Observes a successful response from a device serving `job`.
    /// Default: ignored.
    fn on_response(&mut self, _job: JobId, _device: &DeviceInfo, _response_ms: u64, _now: SimTime) {
    }

    /// Observes that `job`'s current request became fully allocated after
    /// `delay_ms` of scheduling delay. Default: ignored.
    fn on_alloc_complete(&mut self, _job: JobId, _delay_ms: u64, _now: SimTime) {}

    /// Remaining unassigned demand of the job's current request, or `None`
    /// if the job has no active request.
    fn pending_demand(&self, job: JobId) -> Option<u32>;

    /// Whether any job currently has an active (non-withdrawn) request —
    /// the *demand-open signal* behind the simulator's check-in gating.
    ///
    /// While this returns `false`, [`assign`](Scheduler::assign) is
    /// guaranteed to return `None` for every device, and that can only
    /// change at the next [`submit`](Scheduler::submit) — so the simulator
    /// parks idle pollers instead of re-polling them, and wakes them when
    /// a request arrives. This is the only switch for that optimization.
    /// The default (`true`, "demand may be open") never parks: a scheduler
    /// that keeps it runs the un-gated reference arm, which the parity
    /// tests compare the gated one against.
    fn has_open_demand(&self) -> bool {
        true
    }

    /// Whether [`on_check_in`](Scheduler::on_check_in) observations feed
    /// scheduler state (supply estimation).
    ///
    /// When `false` (schedulers that leave `on_check_in` as the default
    /// no-op), the simulator's demand gating skips replaying suppressed
    /// check-ins entirely. The default (`true`) is the safe choice for
    /// implementations that override `on_check_in`.
    fn observes_check_ins(&self) -> bool {
        true
    }

    /// Replays a batch of suppressed check-ins in `(time, seq)` stream
    /// order — the bulk equivalent of calling
    /// [`on_check_in`](Scheduler::on_check_in) once per record.
    ///
    /// The simulator's demand gating elapses parked poll chains lazily:
    /// whole windows of suppressed check-ins are resolved at once, right
    /// before the next dispatched event. Batching them into a single call
    /// lets implementations skip the per-record virtual dispatch and feed
    /// their supply estimator directly. The default forwards each record
    /// to `on_check_in`, so overriding is purely an optimization — it must
    /// leave scheduler state exactly as the per-record calls would.
    fn replay_check_ins(&mut self, batch: &[CheckInRecord]) {
        for r in batch {
            self.on_check_in(&r.device, r.time);
        }
    }

    /// Appends the scheduler's full mutable state to `w` so a checkpoint
    /// can resume it mid-run. A restored scheduler must continue the run
    /// bit-identically — RNG stream positions, queue orders, and learned
    /// profiles included.
    ///
    /// The default reports [`SnapError::Unsupported`]; every shipped
    /// scheduler overrides it.
    fn save_state(&self, _w: &mut SnapWriter) -> Result<(), SnapError> {
        Err(SnapError::Unsupported("this scheduler"))
    }

    /// Restores state written by [`save_state`](Scheduler::save_state)
    /// into a freshly constructed scheduler of the same configuration.
    ///
    /// The default reports [`SnapError::Unsupported`]; every shipped
    /// scheduler overrides it.
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Err(SnapError::Unsupported("this scheduler"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capacity, DeviceId, ResourceSpec};

    /// A minimal scheduler proving the trait is object-safe and the default
    /// methods compile.
    #[derive(Debug, Default)]
    struct Greedy {
        queue: Vec<Request>,
    }

    impl Scheduler for Greedy {
        fn name(&self) -> &str {
            "greedy"
        }
        fn submit(&mut self, request: Request, _now: SimTime) {
            self.queue.push(request);
        }
        fn withdraw(&mut self, job: JobId, _now: SimTime) {
            self.queue.retain(|r| r.job != job);
        }
        fn add_demand(&mut self, job: JobId, count: u32, _now: SimTime) {
            if let Some(r) = self.queue.iter_mut().find(|r| r.job == job) {
                r.demand += count;
            }
        }
        fn assign(&mut self, device: &DeviceInfo, _now: SimTime) -> Option<JobId> {
            let r = self
                .queue
                .iter_mut()
                .find(|r| r.demand > 0 && r.spec.is_eligible(device.capacity()))?;
            r.demand -= 1;
            Some(r.job)
        }
        fn pending_demand(&self, job: JobId) -> Option<u32> {
            self.queue.iter().find(|r| r.job == job).map(|r| r.demand)
        }
    }

    #[test]
    fn replay_check_ins_defaults_to_per_record_dispatch() {
        #[derive(Default)]
        struct Recorder(Vec<(u64, SimTime)>);
        impl Scheduler for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn submit(&mut self, _request: Request, _now: SimTime) {}
            fn withdraw(&mut self, _job: JobId, _now: SimTime) {}
            fn add_demand(&mut self, _job: JobId, _count: u32, _now: SimTime) {}
            fn on_check_in(&mut self, device: &DeviceInfo, now: SimTime) {
                self.0.push((device.id().as_u64(), now));
            }
            fn assign(&mut self, _device: &DeviceInfo, _now: SimTime) -> Option<JobId> {
                None
            }
            fn pending_demand(&self, _job: JobId) -> Option<u32> {
                None
            }
        }

        let batch = [
            CheckInRecord {
                time: 100,
                device: DeviceInfo::new(DeviceId::new(3), Capacity::new(0.5, 0.5)),
            },
            CheckInRecord {
                time: 250,
                device: DeviceInfo::new(DeviceId::new(9), Capacity::new(0.8, 0.2)),
            },
        ];
        let mut s = Recorder::default();
        // Through the object-safe trait surface, as the simulator calls it.
        (&mut s as &mut dyn Scheduler).replay_check_ins(&batch);
        assert_eq!(s.0, vec![(3, 100), (9, 250)]);
    }

    #[test]
    fn trait_is_object_safe() {
        let mut s: Box<dyn Scheduler> = Box::<Greedy>::default();
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 1, 1), 0);
        let d = DeviceInfo::new(DeviceId::new(1), Capacity::new(0.5, 0.5));
        s.on_check_in(&d, 0);
        assert_eq!(s.assign(&d, 0), Some(JobId::new(1)));
        assert_eq!(s.pending_demand(JobId::new(1)), Some(0));
        s.on_response(JobId::new(1), &d, 100, 100);
        s.on_alloc_complete(JobId::new(1), 0, 0);
        s.withdraw(JobId::new(1), 0);
        assert_eq!(s.pending_demand(JobId::new(1)), None);
    }
}
