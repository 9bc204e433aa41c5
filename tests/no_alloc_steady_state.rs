//! Steady-state allocation audit for the scheduler hot paths.
//!
//! The dense data plane's contract is not just "no hashing" but "no
//! allocation": once a scheduler has seen its jobs and groups, the whole
//! check-in → assign → demand-return cycle — *including* the refresh
//! triggers (resubmission, withdrawal, the periodic supply-drift rebuild)
//! that re-sort group orders and re-run IRS — must run out of persistent
//! buffers. A counting global allocator pins that: after a warm-up pass
//! that grows every scratch buffer to its high-water mark, an identical
//! traffic pass must perform exactly zero allocations. In a debug build
//! every refresh trigger also runs the Venn scheduler's freshness check,
//! which is held to the same contract.
//!
//! The same contract extends to the parked-poll plane: once its deque
//! and observation batch have grown to their high-water marks, a full
//! park → advance → wake cycle must allocate nothing, below and above
//! the replay batch size.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test pollutes the process-wide allocation counter.

use venn::baselines::BaselineScheduler;
use venn::core::{
    Capacity, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler, SimTime, VennConfig,
    VennScheduler, DAY_MS,
};
use venn::metrics::alloc::{allocation_calls as allocations, TrackingAlloc};
use venn::sim::config::REPOLL_MS as REPOLL;
use venn::sim::{DevicePool, EventQueue, ParkedPolls};
use venn::traces::CapacityModel;

// The shared counting allocator from `venn-metrics` (grown out of this
// harness): `allocation_calls()` counts every alloc/realloc entry point,
// which is exactly the steady-state invariant measured below.
#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

fn dev(i: u64) -> DeviceInfo {
    let cpu = ((i * 13) % 10) as f64 / 10.0;
    let mem = ((i * 7) % 10) as f64 / 10.0;
    DeviceInfo::new(DeviceId::new(10_000 + i), Capacity::new(cpu, mem))
}

fn spec_of(j: u64) -> ResourceSpec {
    match j % 3 {
        0 => ResourceSpec::any(),
        1 => ResourceSpec::new(0.5, 0.5),
        _ => ResourceSpec::new(0.5, 0.0),
    }
}

/// One pass of steady-state traffic: check-ins with assignments and demand
/// returns, plus the refresh triggers — rotating withdraw/resubmit churn —
/// and enough simulated time to cross the periodic rebuild interval many
/// times. Returns the advanced clock so passes chain seamlessly.
fn drive(sched: &mut dyn Scheduler, mut t: u64, steps: u64) -> u64 {
    for i in 0..steps {
        // 7-second steps cross the 60 s periodic-refresh interval.
        t += 7_000;
        let d = dev(i % 97);
        sched.on_check_in(&d, t);
        if let Some(job) = sched.assign(&d, t) {
            // Return the demand so the queue never drains mid-measurement.
            sched.add_demand(job, 1, t);
            if i % 5 == 0 {
                sched.on_response(job, &d, 1_000 + i, t);
            }
            if i % 11 == 0 {
                sched.on_alloc_complete(job, i, t);
            }
        }
        if i % 25 == 0 {
            // Round-completion churn: an existing job's request leaves the
            // queue and returns — the submit/withdraw refresh triggers.
            let j = (i / 25) % 8;
            sched.withdraw(JobId::new(j), t);
            sched.submit(
                Request::new(JobId::new(j), spec_of(j), 2 + (j % 3) as u32, 40 + j),
                t,
            );
        }
    }
    t
}

/// Warm a scheduler to its steady state, then assert a full traffic pass
/// allocates nothing.
fn assert_no_alloc_steady_state(mut sched: Box<dyn Scheduler>, label: &str) {
    let mut t = 0;
    for j in 0..8u64 {
        sched.submit(
            Request::new(JobId::new(j), spec_of(j), 2 + (j % 3) as u32, 40 + j),
            t,
        );
    }
    // Pre-fill the per-job profiler ring buffers (512 samples each) to
    // their caps: once full they overwrite in place, so none of the
    // doubling growth below is left for the measured pass.
    for j in 0..8u64 {
        for k in 0..600u64 {
            sched.on_response(JobId::new(j), &dev(k % 97), 1_000 + k, t);
            sched.on_alloc_complete(JobId::new(j), k, t);
        }
    }
    // Warm-up passes grow every scratch buffer (and the score rings, which
    // only fill through assignments) to their high-water marks. They run
    // past the 24 h supply window, so the check-in ring has begun to
    // expire and holds no more than it will from here on.
    while t <= DAY_MS {
        t = drive(sched.as_mut(), t, 3_000);
    }

    let before = allocations();
    drive(sched.as_mut(), t, 3_000);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{label}: steady-state pass performed {delta} allocations"
    );
}

/// Counts replayed supply observations (through the trait's default
/// per-record `replay_check_ins`) and holds no other state.
struct CountCheckIns(usize);

impl Scheduler for CountCheckIns {
    fn name(&self) -> &str {
        "count-check-ins"
    }
    fn submit(&mut self, _request: Request, _now: SimTime) {}
    fn withdraw(&mut self, _job: JobId, _now: SimTime) {}
    fn add_demand(&mut self, _job: JobId, _count: u32, _now: SimTime) {}
    fn on_check_in(&mut self, _device: &DeviceInfo, _now: SimTime) {
        self.0 += 1;
    }
    fn assign(&mut self, _device: &DeviceInfo, _now: SimTime) -> Option<JobId> {
        None
    }
    fn pending_demand(&self, _job: JobId) -> Option<u32> {
        None
    }
}

/// One steady-state parked-plane cycle: park one poll per device on the
/// repoll grid, elapse two grid steps (every chain survives and
/// re-parks twice), then wake every parked continuation into the queue
/// and drain it as the dispatcher would. The cached session ends prove
/// every elapse alive, so the cycle never touches the device pool at all.
fn drive_parked_cycle(
    plane: &mut ParkedPolls,
    queue: &mut EventQueue,
    pool: &mut DevicePool,
    n: usize,
    t: &mut u64,
) {
    const FAR_END: u64 = 1 << 60;
    let base = *t + REPOLL;
    for d in 0..n {
        let seq = queue.reserve_seq();
        plane.park(d, base, seq, FAR_END, Capacity::new(0.5, 0.5));
    }
    *t = base + 2 * REPOLL;
    let mut seen = CountCheckIns(0);
    plane.advance(*t, 0, pool, queue, &mut seen);
    assert_eq!(seen.0, 2 * n, "each chain elapses twice");
    plane.wake(queue);
    assert_eq!(plane.len(), 0);
    while queue.pop().is_some() {}
}

/// Warm a parked plane to its steady state, then assert a full
/// park → advance → wake cycle allocates nothing.
fn assert_no_alloc_parked_plane(n: usize, label: &str) {
    let mut pool = DevicePool::lazy(CapacityModel::default(), 7, n);
    for d in 0..n {
        pool.begin_session(d, 1 << 60);
    }
    let mut plane = ParkedPolls::new(u64::MAX);
    let mut queue = EventQueue::new();
    let mut t = 0_u64;
    // The queue the cycle wakes into reaches its steady state in the
    // first cycle: its chunk slab and drain buffer grow to the cycle's
    // peak once, and every later cycle reuses the chunks its drains
    // return, wherever in the wheel its events land. The 768 warm-up
    // cycles of the 180 s stride walk every tier-0..2 slot it can reach.
    for _ in 0..768 {
        drive_parked_cycle(&mut plane, &mut queue, &mut pool, n, &mut t);
    }

    let before = allocations();
    drive_parked_cycle(&mut plane, &mut queue, &mut pool, n, &mut t);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{label}: steady-state parked cycle performed {delta} allocations"
    );
}

#[test]
fn schedulers_do_not_allocate_in_steady_state() {
    assert_no_alloc_steady_state(Box::new(VennScheduler::new(VennConfig::default())), "venn");
    // The FIFO ablation arm exercises the group-order rebuilds by arrival.
    assert_no_alloc_steady_state(
        Box::new(VennScheduler::new(VennConfig {
            use_irs: false,
            ..VennConfig::default()
        })),
        "venn-wo-sched",
    );
    // Baselines share the id-indexed data plane and the persistent
    // candidate buffer.
    assert_no_alloc_steady_state(Box::new(BaselineScheduler::random_order(42)), "random");
    assert_no_alloc_steady_state(Box::new(BaselineScheduler::fifo()), "fifo");
    assert_no_alloc_steady_state(Box::new(BaselineScheduler::srsf()), "srsf");
    // The parked-poll plane, with a window inside one replay batch and
    // one spanning several.
    assert_no_alloc_parked_plane(512, "parked plane, one batch");
    assert_no_alloc_parked_plane(6_144, "parked plane, several batches");
}
