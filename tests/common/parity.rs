//! The shared differential-test harness: run one experiment under two
//! configurations and byte-compare the full observable surface.
//!
//! Every parity suite in `tests/` is a variation on the same shape —
//! build a deterministic workload, run it under a reference arm and a
//! candidate arm, and assert the candidate changed *cost only*, never
//! behavior. This module centralizes that shape:
//!
//! - [`observe`] / [`observe_kind`] run one `(config, workload,
//!   scheduler)` cell and capture everything a run exposes: the
//!   [`SimResult`], the full assignment stream, and the full dispatched
//!   event trace.
//! - [`assert_run_parity`] is the strict comparison — every
//!   deterministic field byte for byte, including the event stream and
//!   `peak_queue_len`. Two arms that claim bit-identity (storage modes,
//!   crash/resume) must pass this.
//! - [`CheckInTap`] records the supply observations a scheduler is fed,
//!   the one thing demand gating promises to replay exactly. An
//!   `ungated` tap keeps the trait's default `has_open_demand`, so the
//!   kernel never parks an idle poller: the un-gated reference arm
//!   ([`observe_ungated`]).
//! - [`assert_outcome_parity`] is the weaker comparison for arms that
//!   legitimately dispatch a *different event stream* (the un-gated arm
//!   re-polls idle devices) but must still produce identical scheduling
//!   outcomes.
//!
//! The conventional scheduler seed is `sim.seed ^ SCHED_SEED_SALT`, so
//! arms that differ only in kernel configuration share scheduler RNG
//! streams.

// Each integration-test crate compiles its own copy of this module and
// uses a subset of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use venn::bench::SchedKind;
use venn::core::{
    CheckInRecord, DeviceInfo, JobId, Request, Scheduler, SimTime, VennConfig, MINUTE_MS,
};
use venn::sim::{AssignmentLog, EventTrace, SimConfig, SimResult, Simulation};
use venn::traces::{JobDemandModel, Workload, WorkloadKind};

/// Salt XOR-ed into the simulation seed to derive the scheduler seed,
/// shared by every suite so arms compare like with like.
pub const SCHED_SEED_SALT: u64 = 0xA5A5;

/// Everything one run exposes: the final result plus the complete
/// assignment and dispatched-event streams.
#[derive(Debug, Clone)]
pub struct Observed {
    pub result: SimResult,
    pub log: AssignmentLog,
    pub trace: EventTrace,
}

/// All eight scheduler arms the differential suites sweep: the three
/// baselines, the three Venn ablations, and two `VennWith` variants
/// (fairness knob, steal disabled).
pub fn every_sched_kind() -> Vec<SchedKind> {
    vec![
        SchedKind::Random,
        SchedKind::Fifo,
        SchedKind::Srsf,
        SchedKind::Venn,
        SchedKind::VennWoSched,
        SchedKind::VennWoMatch,
        SchedKind::VennWith(VennConfig::with_fairness(2.0)),
        SchedKind::VennWith(VennConfig {
            use_steal: false,
            ..VennConfig::default()
        }),
    ]
}

/// The small-but-contended workload shared by the parity suites: enough
/// churn to cross the periodic refresh interval and exercise steals,
/// tiers, and re-submissions, while staying fast enough to sweep every
/// `SchedKind` across seeds.
pub fn contended_workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
    Workload::generate(
        WorkloadKind::Even,
        None,
        6,
        &JobDemandModel {
            rounds_mean: 3.0,
            rounds_max: 5,
            demand_mean: 10.0,
            demand_max: 20,
            ..JobDemandModel::default()
        },
        10.0 * MINUTE_MS as f64,
        &mut rng,
    )
}

/// Forwards every call to `inner`, recording each supply observation
/// `(time, device)` it is fed — per check-in or replayed in a batch.
/// With `ungated` set it answers `has_open_demand` with the trait's
/// default `true` instead of forwarding it, so the kernel never parks an
/// idle poller.
pub struct CheckInTap<'a> {
    pub inner: &'a mut dyn Scheduler,
    pub seen: Vec<(SimTime, u64)>,
    pub ungated: bool,
}

impl<'a> CheckInTap<'a> {
    pub fn new(inner: &'a mut dyn Scheduler, ungated: bool) -> Self {
        CheckInTap {
            inner,
            seen: Vec::new(),
            ungated,
        }
    }
}

impl Scheduler for CheckInTap<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn submit(&mut self, request: Request, now: SimTime) {
        self.inner.submit(request, now)
    }
    fn withdraw(&mut self, job: JobId, now: SimTime) {
        self.inner.withdraw(job, now)
    }
    fn add_demand(&mut self, job: JobId, count: u32, now: SimTime) {
        self.inner.add_demand(job, count, now)
    }
    fn on_check_in(&mut self, device: &DeviceInfo, now: SimTime) {
        self.seen.push((now, device.id().as_u64()));
        self.inner.on_check_in(device, now)
    }
    fn assign(&mut self, device: &DeviceInfo, now: SimTime) -> Option<JobId> {
        self.inner.assign(device, now)
    }
    fn on_response(&mut self, job: JobId, device: &DeviceInfo, response_ms: u64, now: SimTime) {
        self.inner.on_response(job, device, response_ms, now)
    }
    fn on_alloc_complete(&mut self, job: JobId, delay_ms: u64, now: SimTime) {
        self.inner.on_alloc_complete(job, delay_ms, now)
    }
    fn pending_demand(&self, job: JobId) -> Option<u32> {
        self.inner.pending_demand(job)
    }
    fn has_open_demand(&self) -> bool {
        self.ungated || self.inner.has_open_demand()
    }
    fn observes_check_ins(&self) -> bool {
        self.inner.observes_check_ins()
    }
    fn replay_check_ins(&mut self, batch: &[CheckInRecord]) {
        self.seen
            .extend(batch.iter().map(|r| (r.time, r.device.id().as_u64())));
        self.inner.replay_check_ins(batch)
    }
}

/// Runs one cell under `scheduler`, capturing the full observable
/// surface.
pub fn observe(sim: SimConfig, workload: &Workload, scheduler: &mut dyn Scheduler) -> Observed {
    let mut log = AssignmentLog::default();
    let mut trace = EventTrace::default();
    let result =
        Simulation::new(sim).run_observed(workload, scheduler, &mut [&mut log, &mut trace]);
    Observed { result, log, trace }
}

/// Builds `kind` with the conventional scheduler seed and runs it.
pub fn observe_kind(sim: SimConfig, workload: &Workload, kind: SchedKind) -> Observed {
    let mut sched = kind.build(sim.seed ^ SCHED_SEED_SALT);
    observe(sim, workload, &mut *sched)
}

/// Runs `scheduler` on the un-gated reference arm: every idle poll is
/// dispatched, none parked.
pub fn observe_ungated(
    sim: SimConfig,
    workload: &Workload,
    scheduler: &mut dyn Scheduler,
) -> Observed {
    observe(sim, workload, &mut CheckInTap::new(scheduler, true))
}

/// Strict parity: every deterministic field of the observable surface,
/// byte for byte. Arms that claim bit-identity must pass this.
pub fn assert_run_parity(a: &Observed, b: &Observed, ctx: &str) {
    assert_eq!(a.result.records, b.result.records, "{ctx}: job records");
    assert_eq!(a.result.rounds, b.result.rounds, "{ctx}: round logs");
    assert_eq!(
        a.result.aborted_rounds, b.result.aborted_rounds,
        "{ctx}: aborts"
    );
    assert_eq!(
        a.result.assignments, b.result.assignments,
        "{ctx}: assignment count"
    );
    assert_eq!(a.result.failures, b.result.failures, "{ctx}: failures");
    assert_eq!(a.result.events, b.result.events, "{ctx}: dispatched events");
    assert_eq!(
        a.result.peak_queue_len, b.result.peak_queue_len,
        "{ctx}: peak queue"
    );
    assert_eq!(a.result.env, b.result.env, "{ctx}: env counters");
    assert_eq!(a.log, b.log, "{ctx}: assignment stream");
    assert_eq!(a.trace, b.trace, "{ctx}: event trace");
}

/// Outcome parity for arms whose event *streams* legitimately differ
/// (the un-gated arm dispatches extra polls): the scheduling outcome —
/// records, rounds, assignment stream, aborts, failures, environment
/// counters — must still be identical.
pub fn assert_outcome_parity(a: &Observed, b: &Observed, ctx: &str) {
    assert_eq!(a.result.records, b.result.records, "{ctx}: job records");
    assert_eq!(a.result.rounds, b.result.rounds, "{ctx}: round logs");
    assert_eq!(
        a.result.aborted_rounds, b.result.aborted_rounds,
        "{ctx}: aborts"
    );
    assert_eq!(
        a.result.assignments, b.result.assignments,
        "{ctx}: assignment count"
    );
    assert_eq!(a.result.failures, b.result.failures, "{ctx}: failures");
    assert_eq!(a.result.env, b.result.env, "{ctx}: env counters");
    assert_eq!(a.log, b.log, "{ctx}: assignment stream");
}
