//! The parked-poll plane: check-ins suppressed by demand gating.
//!
//! While no job has an open request every poll provably assigns nothing,
//! so an idle device parks here instead of re-enqueueing a `CheckIn`
//! event. An entry keeps the would-be poll's exact `(time, seq)` identity
//! — the seq is reserved from the queue's counter at the same instant the
//! un-gated run would have consumed it — so a later [`wake`] re-enters
//! the event stream at precisely its original position and
//! same-millisecond tie-breaks are unchanged. Parked polls that elapse
//! before demand opens are [`advance`]d instead: their supply observation
//! is replayed into the scheduler in exact stream order, and the next
//! grid poll is parked.
//!
//! # Cached session ends
//!
//! Entries cache their device's session end and capacity at park time so
//! the elapse loop runs without touching the pool. Sessions only ever
//! *extend* (`DevicePool::begin_session` takes the max), so a cached end
//! can under-estimate but never over-estimate — an "alive" verdict from
//! the cache is always correct, while every "dead" and every
//! end-of-chain verdict is confirmed against the authoritative pool
//! value first. The one way a session can shrink is an environment fault
//! (`force_offline`); those call [`bump_gen`], which invalidates every
//! cached end at once (each entry re-reads the pool on its next elapse).
//! Capacities are immutable per device, so that half of the cache needs
//! no invalidation, and neither half is written to a snapshot.
//!
//! [`wake`]: ParkedPolls::wake
//! [`advance`]: ParkedPolls::advance
//! [`bump_gen`]: ParkedPolls::bump_gen

use std::collections::VecDeque;

use venn_core::{Capacity, CheckInRecord, DeviceId, DeviceInfo, Scheduler, SimTime};

use crate::config::REPOLL_MS;
use crate::device_pool::DevicePool;
use crate::event::{EventKind, EventQueue};

/// Observations buffered before a replay: bounds the scratch (128 KiB)
/// however many polls one overnight window elapses.
const REPLAY_BATCH: usize = 4096;

/// One parked poll.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// When the suppressed check-in would have fired.
    time: SimTime,
    /// The insertion seq it would have carried (reserved, never reused).
    seq: u64,
    /// Session end cached at entry creation (see the module docs).
    end: SimTime,
    /// The polling device.
    device: u32,
    /// [`ParkedPolls::gen`] at cache time.
    gen: u32,
    /// The device's immutable capacity, for replayed observations.
    cap: Capacity,
}

/// Every parked poll of one world, ascending by `(time, seq)`.
///
/// The ordering is maintained with plain `push_back`s: every entry is
/// created [`REPOLL_MS`] after a stream position that is itself
/// non-decreasing, so a new entry's key always trails the back's.
#[derive(Debug)]
pub struct ParkedPolls {
    q: VecDeque<Entry>,
    /// Bumped by every forced-offline fault.
    gen: u32,
    /// Supply observations awaiting replay, in stream order. Persistent
    /// scratch: drained (capacity retained) by every flush.
    obs: Vec<CheckInRecord>,
    horizon: SimTime,
}

impl ParkedPolls {
    /// An empty plane for a world polling every [`REPOLL_MS`] until
    /// `horizon`.
    pub fn new(horizon: SimTime) -> Self {
        ParkedPolls {
            q: VecDeque::new(),
            gen: 0,
            obs: Vec::new(),
            horizon,
        }
    }

    /// Number of parked polls.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether no poll is parked.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Parks a suppressed check-in. `end` is the device's current session
    /// end and `cap` its capacity — the cached facts.
    pub fn park(&mut self, device: usize, time: SimTime, seq: u64, end: SimTime, cap: Capacity) {
        debug_assert!(
            self.q
                .back()
                .map_or(true, |b| (b.time, b.seq) < (time, seq)),
            "parked polls must stay strictly ascending by (time, seq)"
        );
        self.q.push_back(Entry {
            time,
            seq,
            end,
            device: device as u32,
            gen: self.gen,
            cap,
        });
    }

    /// Invalidates every cached session end: an environment fault forced
    /// a device offline, the one transition that can shrink a session.
    pub(crate) fn bump_gen(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }

    /// Every parked poll as `(time, seq, device)` in `(time, seq)` order —
    /// the snapshot form.
    pub(crate) fn polls(&self) -> impl Iterator<Item = (SimTime, u64, u32)> + '_ {
        self.q.iter().map(|e| (e.time, e.seq, e.device))
    }

    /// Demand just opened: every parked poll re-enters the event queue at
    /// its reserved `(time, seq)` position — the next instant of the
    /// device's own [`REPOLL_MS`] grid, with its original tie-break rank.
    pub fn wake(&mut self, queue: &mut EventQueue) {
        for e in self.q.drain(..) {
            let device = e.device as usize;
            queue.push_reserved(e.time, e.seq, EventKind::CheckIn { device });
        }
    }

    /// Elapses every parked poll that precedes `(time, seq)` — the event
    /// about to be dispatched — in exact stream order.
    ///
    /// Each elapsed poll is what the un-gated run would have dispatched as
    /// a `CheckIn` returning `None`: its only scheduler-visible effect is
    /// the `on_check_in` supply observation, which is replayed here (for
    /// schedulers that observe check-ins) at the original timestamp; the
    /// `assign` call is skipped because with no open demand it provably
    /// returns `None` without touching scheduler state the next request
    /// trigger would not rebuild anyway. The continuation poll reserves
    /// the seq the un-gated run would have allocated at this very stream
    /// position, keeping all later tie-breaks aligned.
    pub fn advance(
        &mut self,
        time: SimTime,
        seq: u64,
        devices: &mut DevicePool,
        queue: &mut EventQueue,
        scheduler: &mut dyn Scheduler,
    ) {
        let observes = !self.q.is_empty() && scheduler.observes_check_ins();
        while let Some(e) = self.pop_due(time, seq) {
            let device = e.device as usize;
            let next = e.time + REPOLL_MS;
            // The cache may only say "alive, and so is the next poll".
            let end = if e.gen == self.gen && next < e.end {
                e.end
            } else {
                devices.session_end(device)
            };
            if e.time < end && observes {
                self.obs.push(CheckInRecord {
                    time: e.time,
                    device: DeviceInfo::new(DeviceId::new(e.device as u64), e.cap),
                });
                if self.obs.len() == REPLAY_BATCH {
                    self.flush(scheduler);
                }
            }
            if next < end {
                self.park(device, next, queue.reserve_seq(), end, e.cap);
            } else {
                // A fault ended the session under the parked poll (the
                // un-gated check-in would fail `can_check_in` and observe
                // nothing), or this was its last grid poll: the chain
                // dies here.
                devices.note_possible_retire(device, e.time);
            }
        }
        self.flush(scheduler);
    }

    /// Pops the front poll if it precedes `(time, seq)` within the horizon.
    fn pop_due(&mut self, time: SimTime, seq: u64) -> Option<Entry> {
        let f = self.q.front()?;
        if (f.time, f.seq) >= (time, seq) || f.time > self.horizon {
            return None;
        }
        self.q.pop_front()
    }

    /// Replays the buffered observations — same records, same order, same
    /// timestamps as one `on_check_in` per elapsed poll.
    fn flush(&mut self, scheduler: &mut dyn Scheduler) {
        if !self.obs.is_empty() {
            scheduler.replay_check_ins(&self.obs);
            self.obs.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venn_core::{JobId, Request};
    use venn_traces::CapacityModel;

    /// Records every replayed observation and the size of each batch.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u64)>,
        batches: Vec<usize>,
    }

    impl Scheduler for Recorder {
        fn name(&self) -> &str {
            "recorder"
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
        fn replay_check_ins(&mut self, batch: &[CheckInRecord]) {
            self.batches.push(batch.len());
            self.seen
                .extend(batch.iter().map(|r| (r.time, r.device.id().as_u64())));
        }
    }

    fn cap() -> Capacity {
        Capacity::new(0.5, 0.5)
    }

    fn pool(n: usize, session_end: SimTime) -> DevicePool {
        let mut p = DevicePool::lazy(CapacityModel::default(), 7, n);
        for d in 0..n {
            p.begin_session(d, session_end);
        }
        p
    }

    #[test]
    fn stale_generation_rereads_the_pool() {
        let mut plane = ParkedPolls::new(1_000_000);
        let mut queue = EventQueue::new();
        let mut devices = pool(4, 500_000);
        let mut sched = Recorder::default();
        plane.park(1, 100_000, queue.reserve_seq(), 500_000, cap());
        // A fault forces the device offline after it parked: the cached
        // end (500_000) now over-estimates.
        devices.cut_session(1, 50_000);
        plane.bump_gen();
        plane.advance(200_000, u64::MAX, &mut devices, &mut queue, &mut sched);
        assert!(sched.seen.is_empty(), "dead chain must not observe");
        assert!(plane.is_empty(), "chain must die, not re-park");
    }

    #[test]
    fn an_extended_session_outlives_its_cached_end() {
        let mut plane = ParkedPolls::new(1_000_000);
        let mut queue = EventQueue::new();
        let mut devices = pool(1, 150_000);
        let mut sched = Recorder::default();
        plane.park(0, 100_000, queue.reserve_seq(), 150_000, cap());
        // Sessions only extend: the cached end now under-estimates, and
        // the end-of-chain verdict must be confirmed against the pool.
        devices.begin_session(0, 400_000);
        plane.advance(230_000, 0, &mut devices, &mut queue, &mut sched);
        assert_eq!(sched.seen, vec![(100_000, 0), (160_000, 0), (220_000, 0)]);
        assert_eq!(plane.polls().map(|p| p.0).collect::<Vec<_>>(), [280_000]);
    }

    #[test]
    fn wake_reenters_the_queue_in_time_seq_order() {
        let mut plane = ParkedPolls::new(1_000_000);
        let mut queue = EventQueue::new();
        for (device, time) in [(4usize, 200u64), (8, 200), (0, 500), (5, 650), (1, 900)] {
            plane.park(device, time, queue.reserve_seq(), 10_000, cap());
        }
        let parked: Vec<_> = plane.polls().collect();
        plane.wake(&mut queue);
        assert!(plane.is_empty());
        let mut popped = Vec::new();
        while let Some(e) = queue.pop() {
            let EventKind::CheckIn { device } = e.kind else {
                panic!("wake pushes check-ins only");
            };
            popped.push((e.time, e.seq, device as u32));
        }
        assert_eq!(popped, parked, "wake keeps every reserved (time, seq)");
    }

    #[test]
    fn last_grid_poll_files_a_retire_note() {
        let mut plane = ParkedPolls::new(1_000_000);
        let mut queue = EventQueue::new();
        let mut devices = pool(1, 150_000);
        let mut sched = Recorder::default();
        plane.park(0, 100_000, queue.reserve_seq(), 150_000, cap());
        plane.advance(120_000, 0, &mut devices, &mut queue, &mut sched);
        assert_eq!(sched.seen, vec![(100_000, 0)], "the last poll observes");
        assert!(plane.is_empty(), "160_000 is past the session end");
        devices.sweep_retire(150_000);
        assert_eq!(devices.live_devices(), 0, "the note retires the device");
    }

    /// A window far larger than the replay batch: the scratch is flushed
    /// at the batch size, and the concatenated batches are the stream.
    #[test]
    fn a_long_window_replays_in_bounded_batches_in_stream_order() {
        let n = 2 * REPLAY_BATCH + 3;
        let mut plane = ParkedPolls::new(2_000_000);
        let mut queue = EventQueue::new();
        let mut devices = pool(n, 1_000_000);
        let mut sched = Recorder::default();
        for d in 0..n {
            // Plateaus of equal times: the seq must break the ties.
            let time = 60_000 + (d / (n / 4)) as u64 * 30;
            plane.park(d, time, queue.reserve_seq(), 1_000_000, cap());
        }
        // Every chain elapses twice.
        plane.advance(150_000, u64::MAX, &mut devices, &mut queue, &mut sched);
        assert_eq!(sched.seen.len(), 2 * n);
        assert!(sched.batches.iter().all(|&b| b <= REPLAY_BATCH));
        assert_eq!(sched.batches.iter().sum::<usize>(), 2 * n);
        let lap: Vec<(SimTime, u64)> = (0..n)
            .map(|d| (60_000 + (d / (n / 4)) as u64 * 30, d as u64))
            .collect();
        let expected: Vec<(SimTime, u64)> = lap
            .iter()
            .copied()
            .chain(lap.iter().map(|&(t, d)| (t + REPOLL_MS, d)))
            .collect();
        assert_eq!(sched.seen, expected);
        assert_eq!(plane.len(), n, "every chain re-parked its third poll");
    }
}
