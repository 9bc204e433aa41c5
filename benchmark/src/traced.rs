//! The traced run's instruments: a [`Scheduler`] wrapper that counts every
//! call and times a fixed share of the hot ones, and a [`SimObserver`]
//! that notes each event's kind while the step loop times `World::step`.

use std::hint::black_box;
use std::time::Instant;

use venn_core::{
    Capacity, CheckInRecord, DeviceId, DeviceInfo, JobId, Request, Scheduler, SimTime, SnapError,
    SnapReader, SnapWriter,
};
use venn_sim::{EventKind, SimObserver, World};

use crate::stats::median;

/// Hot calls are timed one in 64 (a mask on the call count): the call is
/// ~15 ns and two clock reads are ~50, so timing every one tripled
/// `paper-5k-venn`. The other calls are rare enough to time every time.
const SAMPLED: u64 = 63;
const ALWAYS: u64 = 0;

/// The scheduler calls the wrapper accounts for, in reporting order.
pub const CALLS: [&str; 6] = [
    "on_check_in",
    "assign",
    "submit",
    "add_demand",
    "on_response",
    "replay_check_ins",
];

/// Count of one scheduler call and the timed share's durations.
#[derive(Debug, Default, Clone)]
pub struct CallStat {
    pub calls: u64,
    /// Nanoseconds of each timed call, the timer's own cost taken off
    /// (per record for `replay_check_ins`).
    timed_ns: Vec<f64>,
}

impl CallStat {
    /// Median nanoseconds of a timed call (per record for
    /// `replay_check_ins`): the latency of one call on its own. A mean
    /// over a 1-in-64 sample is at the mercy of the rare call that grows a
    /// 100 MB ring, and back-to-back calls overlap, so this overstates a
    /// tight replay loop's amortized cost (`core.supply.record_ns` is
    /// that).
    pub fn ns_per_call(&self) -> f64 {
        median(&self.timed_ns)
    }
}

/// A scheduler that does nothing, for calibrating the timer.
struct Idle;

impl Scheduler for Idle {
    fn name(&self) -> &str {
        "idle"
    }
    fn submit(&mut self, _request: Request, _now: SimTime) {}
    fn withdraw(&mut self, _job: JobId, _now: SimTime) {}
    fn add_demand(&mut self, _job: JobId, _count: u32, _now: SimTime) {}
    fn assign(&mut self, _device: &DeviceInfo, _now: SimTime) -> Option<JobId> {
        None
    }
    fn pending_demand(&self, _job: JobId) -> Option<u32> {
        None
    }
}

/// Delegates every [`Scheduler`] method to `inner`, counting calls.
pub struct TracedScheduler {
    inner: Box<dyn Scheduler>,
    pub stats: [CallStat; 6],
    /// Records seen by `replay_check_ins`.
    pub replay_records: u64,
    /// Nanoseconds of each timed `replay_check_ins` batch as a whole.
    replay_batch_ns: Vec<f64>,
    /// `(start, end)` of every `submit`, for the span file.
    pub submit_spans: Vec<(Instant, Instant)>,
    /// What timing a call that does nothing measures (two clock reads
    /// and a dynamic dispatch); taken off every timed call and step.
    pub clock_ns: f64,
}

impl TracedScheduler {
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        let mut idle = Idle;
        let device = DeviceInfo::new(DeviceId::new(0), Capacity::new(0.5, 0.5));
        let empty_calls: Vec<f64> = (0..1_001)
            .map(|_| {
                let start = Instant::now();
                black_box(&mut idle as &mut dyn Scheduler).on_check_in(&device, 0);
                Instant::now().duration_since(start).as_nanos() as f64
            })
            .collect();
        TracedScheduler {
            clock_ns: median(&empty_calls),
            inner,
            stats: Default::default(),
            replay_records: 0,
            replay_batch_ns: Vec::new(),
            submit_spans: Vec::new(),
        }
    }

    pub fn stat(&self, call: &str) -> &CallStat {
        let idx = CALLS.iter().position(|c| *c == call).expect("known call");
        &self.stats[idx]
    }

    /// Median nanoseconds of a timed `replay_check_ins` batch.
    pub fn replay_ns_per_batch(&self) -> f64 {
        median(&self.replay_batch_ns)
    }

    /// How many units of work each call has done so far: calls, and
    /// records for `replay_check_ins`.
    pub fn work(&self) -> [u64; 6] {
        let mut work = [0; 6];
        for (w, stat) in work.iter_mut().zip(&self.stats) {
            *w = stat.calls;
        }
        work[5] = self.replay_records;
        work
    }

    /// Nanoseconds per unit of [`work`](Self::work).
    pub fn ns_per_work(&self) -> [f64; 6] {
        let mut ns = [0.0; 6];
        for (n, stat) in ns.iter_mut().zip(&self.stats) {
            *n = stat.ns_per_call();
        }
        ns
    }

    /// Runs `f` on the inner scheduler as call `idx`, timing it when the
    /// call count has no bit of `mask` set. Returns the timed interval.
    #[inline]
    fn call<R>(
        &mut self,
        idx: usize,
        mask: u64,
        f: impl FnOnce(&mut dyn Scheduler) -> R,
    ) -> (R, Option<(Instant, Instant)>) {
        let stat = &mut self.stats[idx];
        stat.calls += 1;
        if stat.calls & mask != 0 {
            return (f(&mut *self.inner), None);
        }
        let start = Instant::now();
        let out = f(&mut *self.inner);
        let end = Instant::now();
        (out, Some((start, end)))
    }

    /// Nanoseconds of a timed interval with the timer's own cost off.
    fn net_ns(&self, (start, end): (Instant, Instant)) -> f64 {
        (end.duration_since(start).as_nanos() as f64 - self.clock_ns).max(0.0)
    }

    /// [`call`](Self::call) that records the timed duration per call.
    #[inline]
    fn timed<R>(
        &mut self,
        idx: usize,
        mask: u64,
        f: impl FnOnce(&mut dyn Scheduler) -> R,
    ) -> (R, Option<(Instant, Instant)>) {
        let (out, interval) = self.call(idx, mask, f);
        if let Some(interval) = interval {
            let ns = self.net_ns(interval);
            self.stats[idx].timed_ns.push(ns);
        }
        (out, interval)
    }
}

impl Scheduler for TracedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&mut self, request: Request, now: SimTime) {
        let (_, timed) = self.timed(2, ALWAYS, |s| s.submit(request, now));
        self.submit_spans.extend(timed);
    }

    fn withdraw(&mut self, job: JobId, now: SimTime) {
        self.inner.withdraw(job, now);
    }

    fn add_demand(&mut self, job: JobId, count: u32, now: SimTime) {
        self.timed(3, ALWAYS, |s| s.add_demand(job, count, now));
    }

    fn on_check_in(&mut self, device: &DeviceInfo, now: SimTime) {
        self.timed(0, SAMPLED, |s| s.on_check_in(device, now));
    }

    fn assign(&mut self, device: &DeviceInfo, now: SimTime) -> Option<JobId> {
        self.timed(1, SAMPLED, |s| s.assign(device, now)).0
    }

    fn on_response(&mut self, job: JobId, device: &DeviceInfo, response_ms: u64, now: SimTime) {
        self.timed(4, ALWAYS, |s| s.on_response(job, device, response_ms, now));
    }

    fn on_alloc_complete(&mut self, job: JobId, delay_ms: u64, now: SimTime) {
        self.inner.on_alloc_complete(job, delay_ms, now);
    }

    fn pending_demand(&self, job: JobId) -> Option<u32> {
        self.inner.pending_demand(job)
    }

    fn has_open_demand(&self) -> bool {
        self.inner.has_open_demand()
    }

    fn observes_check_ins(&self) -> bool {
        self.inner.observes_check_ins()
    }

    fn replay_check_ins(&mut self, batch: &[CheckInRecord]) {
        self.replay_records += batch.len() as u64;
        let (_, interval) = self.call(5, SAMPLED, |s| s.replay_check_ins(batch));
        if let (Some(interval), false) = (interval, batch.is_empty()) {
            let ns = self.net_ns(interval);
            self.replay_batch_ns.push(ns);
            self.stats[5].timed_ns.push(ns / batch.len() as f64);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.save_state(w)
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// Event kinds in reporting order (`sim.world.events.<kind>`).
pub const KINDS: [&str; 10] = [
    "job_arrival",
    "session_start",
    "cohort_wake",
    "check_in",
    "hold_expire",
    "response",
    "assign_failure",
    "round_deadline",
    "round_start",
    "env_disturbance",
];

fn kind_index(kind: &EventKind) -> usize {
    match kind {
        EventKind::JobArrival { .. } => 0,
        EventKind::SessionStart { .. } => 1,
        EventKind::CohortWake { .. } => 2,
        EventKind::CheckIn { .. } => 3,
        EventKind::HoldExpire { .. } => 4,
        EventKind::Response { .. } => 5,
        EventKind::AssignFailure { .. } => 6,
        EventKind::RoundDeadline { .. } => 7,
        EventKind::RoundStart { .. } => 8,
        EventKind::EnvDisturbance { .. } => 9,
    }
}

/// Notes the kind of the event a step dispatches.
#[derive(Default)]
struct KindObserver {
    dispatched: Option<usize>,
}

impl SimObserver for KindObserver {
    fn on_event(&mut self, _now: SimTime, kind: &EventKind) {
        self.dispatched = Some(kind_index(kind));
    }
}

/// What one traced step loop saw, per event kind.
#[derive(Debug, Default, Clone)]
pub struct KindTable {
    /// Events dispatched. Exact.
    pub events: [u64; 10],
    /// Nanoseconds of the timed steps, the timer's own cost taken off.
    pub timed_step_ns: [f64; 10],
    /// Scheduler work done inside the timed steps, per call (see
    /// [`TracedScheduler::work`]). Exact.
    pub timed_work: [[u64; 6]; 10],
}

/// One step in eight is timed: a clock read costs ~60 ns on this host and
/// an event ~200, so reading it on every step cost `paper-5k-venn` 30 %.
pub const TIMED_STEPS: u64 = 8;

/// Steps `world` to the horizon, noting every event's kind and timing a
/// fixed share of the steps. The parked-poll advance that precedes a
/// dispatch is part of that event's step.
pub fn step_traced(world: &mut World, sched: &mut TracedScheduler) -> KindTable {
    let mut table = KindTable::default();
    let mut obs = KindObserver::default();
    let mut steps = 0u64;
    loop {
        let before = steps
            .is_multiple_of(TIMED_STEPS)
            .then(|| (sched.work(), Instant::now()));
        steps += 1;
        let more = world.step(sched, &mut [&mut obs]);
        if let Some(k) = obs.dispatched.take() {
            table.events[k] += 1;
            if let Some((work, start)) = before {
                table.timed_step_ns[k] += start.elapsed().as_nanos() as f64 - sched.clock_ns;
                for (sum, (after, before)) in table.timed_work[k]
                    .iter_mut()
                    .zip(sched.work().iter().zip(&work))
                {
                    *sum += after - before;
                }
            }
        }
        if !more {
            return table;
        }
    }
}
