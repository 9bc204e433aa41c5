//! Cohort-compressed session streaming for the split population modes.
//!
//! The eager arm materializes the full session trace up front; at a
//! million devices that is tens of millions of `Session` values and an
//! event queue holding every one of them. The split arms instead keep one
//! *stream cursor* per device — `(day, index-within-day)` into the
//! device's own per-`(device, day)` RNG stream
//! ([`AvailabilityModel::device_day_sessions`]) — and hold exactly **one
//! upcoming session per device** in a per-cohort min-heap. Devices are
//! grouped into fixed cohorts of [`COHORT_SIZE`] consecutive indices, and
//! the [`World`](crate::world::World) keeps exactly **one pending
//! `CohortWake` event per non-empty cohort**, armed at the cohort's
//! earliest upcoming start. On wake, every due device's session begins
//! (materializing it on the lazy arm), its cursor advances to its next
//! session, and the wake re-arms at the new minimum.
//!
//! The result: the event queue holds O(cohorts) session machinery instead
//! of O(total sessions), and the per-device resident cost is one heap
//! entry plus one cursor (~32 bytes) — the irreducible "when does this
//! device next appear" streaming state — rather than a full
//! `DeviceState`.
//!
//! Why touch order cannot affect draws: a device's sessions come from an
//! RNG keyed by `(seed, device, day)` only. Popping device A before
//! device B, or never popping B at all, replays the exact same per-key
//! streams — purity is pinned by `split_day_sessions_are_pure_and_sorted`
//! in `venn-traces` and end-to-end by `tests/lazy_parity.rs`.
//!
//! Ordering note: within one wake timestamp, due devices pop in `(start,
//! device)` order — the same tie order the eager trace's global `(start,
//! device)` sort yields. Environment churn clips (`clip_session`) map
//! `start` to `max(start, window_lo)`, a monotone function, so clipping
//! preserves each device's start monotonicity and the stream stays a
//! valid merge.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use venn_core::{SimTime, SnapError, SnapReader, SnapWriter};
use venn_env::EnvRuntime;
use venn_traces::AvailabilityModel;

/// Devices per cohort. 1024 keeps the per-cohort heaps cache-friendly
/// while bounding pending `CohortWake` events at population/1024.
pub(crate) const COHORT_SIZE: usize = 1024;

/// A device's position in its own session stream: the next `(day, idx)`
/// pair to consume from `device_day_sessions(seed, device, day)`.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    day: u32,
    idx: u8,
}

/// One upcoming session, heap-ordered by `(start, device)`; `end` rides
/// along (already horizon-clamped).
type Entry = Reverse<(SimTime, u32, SimTime)>;

/// The streamed session source of every device, cohort by cohort.
#[derive(Debug)]
pub(crate) struct CohortSet {
    availability: AvailabilityModel,
    seed: u64,
    days: u32,
    horizon: SimTime,
    cohort_size: usize,
    cursors: Vec<Cursor>,
    heaps: Vec<BinaryHeap<Entry>>,
    /// Reusable day-block scratch buffer for session regeneration.
    scratch: Vec<venn_traces::Session>,
}

impl CohortSet {
    /// Builds the stream state for `population` devices with every cursor
    /// at day 0 and every cohort heap empty: the part a checkpoint does
    /// not hold. A fresh run then [`prime`](Self::prime)s it; a restore
    /// overwrites cursors and heaps from the snapshot instead.
    pub(crate) fn new(
        availability: AvailabilityModel,
        seed: u64,
        days: u32,
        horizon: SimTime,
        population: usize,
    ) -> Self {
        Self::with_cohort_size(availability, seed, days, horizon, population, COHORT_SIZE)
    }

    /// [`CohortSet::new`] with an explicit cohort size (tests only).
    pub(crate) fn with_cohort_size(
        availability: AvailabilityModel,
        seed: u64,
        days: u32,
        horizon: SimTime,
        population: usize,
        cohort_size: usize,
    ) -> Self {
        assert!(cohort_size > 0, "cohort size must be positive");
        let cohorts = population.div_ceil(cohort_size);
        CohortSet {
            availability,
            seed,
            days,
            horizon,
            cohort_size,
            cursors: vec![Cursor::default(); population],
            heaps: (0..cohorts).map(|_| BinaryHeap::new()).collect(),
            scratch: Vec::new(),
        }
    }

    /// Advances every device's cursor to its first live (env-clipped,
    /// pre-horizon) session, filling the per-cohort heaps: a fresh run's
    /// initial stream state.
    pub(crate) fn prime(&mut self, env: Option<&EnvRuntime>) {
        for device in 0..self.cursors.len() {
            self.advance(device, env);
        }
    }

    /// Number of cohorts.
    pub(crate) fn cohort_count(&self) -> usize {
        self.heaps.len()
    }

    /// The cohort a device belongs to.
    pub(crate) fn cohort_of(&self, device: usize) -> usize {
        device / self.cohort_size
    }

    /// The cohort's earliest upcoming session start (`None` when the
    /// cohort's devices are all exhausted) — the time its one pending
    /// `CohortWake` should be armed at.
    pub(crate) fn next_wake(&self, cohort: usize) -> Option<SimTime> {
        self.heaps[cohort]
            .peek()
            .map(|Reverse((start, _, _))| *start)
    }

    /// Pops the cohort's earliest session iff it starts exactly at `now`,
    /// returning `(device, session_end)`. The world drains a wake by
    /// calling this until it returns `None`, beginning each popped
    /// device's session and [`advance`](Self::advance)-ing it in between
    /// — replacement entries at the same `now` are picked up by the same
    /// drain.
    pub(crate) fn pop_due(&mut self, cohort: usize, now: SimTime) -> Option<(usize, SimTime)> {
        let Reverse((start, device, end)) = *self.heaps[cohort].peek()?;
        if start != now {
            debug_assert!(start > now, "cohort wake missed a session start");
            return None;
        }
        self.heaps[cohort].pop();
        Some((device as usize, end))
    }

    /// Advances `device`'s cursor to its next live session and pushes it
    /// into the device's cohort heap: regenerates day blocks from the
    /// device's split stream, applies the environment churn clip (a
    /// clipped-away session is skipped; on the eager trace it is likewise
    /// never enqueued), skips post-horizon starts, and clamps ends to the
    /// horizon — mirroring exactly what `World::new` does to the eager
    /// trace. No push when the device is exhausted.
    pub(crate) fn advance(&mut self, device: usize, env: Option<&EnvRuntime>) {
        loop {
            let cursor = self.cursors[device];
            if cursor.day >= self.days {
                return; // stream exhausted
            }
            self.scratch.clear();
            self.availability.device_day_sessions(
                self.seed,
                device,
                cursor.day as u64,
                &mut self.scratch,
            );
            if usize::from(cursor.idx) >= self.scratch.len() {
                self.cursors[device] = Cursor {
                    day: cursor.day + 1,
                    idx: 0,
                };
                continue;
            }
            let s = self.scratch[usize::from(cursor.idx)];
            self.cursors[device] = Cursor {
                day: cursor.day,
                idx: cursor.idx + 1,
            };
            let (start, end) = match env {
                Some(e) => match e.clip_session(s.device, s.start, s.end) {
                    Some(w) => w,
                    None => continue,
                },
                None => (s.start, s.end),
            };
            if start >= self.horizon {
                continue;
            }
            let cohort = self.cohort_of(device);
            self.heaps[cohort].push(Reverse((start, device as u32, end.min(self.horizon))));
            return;
        }
    }

    /// Encodes the mutable stream state: every device's cursor and every
    /// cohort heap's pending entries (sorted — the heap's internal layout
    /// is an implementation detail; only the multiset matters). The
    /// model, seed, days, horizon, and cohort size are re-derived by
    /// world reconstruction.
    pub(crate) fn encode_state(&self, w: &mut SnapWriter) {
        w.len_prefix(self.cursors.len());
        for c in &self.cursors {
            w.u32(c.day);
            w.u8(c.idx);
        }
        w.len_prefix(self.heaps.len());
        for heap in &self.heaps {
            let mut entries: Vec<(SimTime, u32, SimTime)> =
                heap.iter().map(|&Reverse(e)| e).collect();
            entries.sort_unstable();
            w.len_prefix(entries.len());
            for (start, device, end) in &entries {
                w.u64(*start);
                w.u32(*device);
                w.u64(*end);
            }
        }
    }

    /// Overwrites every cursor and heap from the snapshot. The set must
    /// have the snapshot's population and cohort size; it need not be
    /// [`prime`](Self::prime)d, since nothing the prime sets survives.
    pub(crate) fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.len_prefix()?;
        if n != self.cursors.len() {
            return Err(SnapError::Corrupt(format!(
                "cohort cursors {} != snapshot {n}",
                self.cursors.len()
            )));
        }
        for c in self.cursors.iter_mut() {
            c.day = r.u32()?;
            c.idx = r.u8()?;
        }
        let cohorts = r.len_prefix()?;
        if cohorts != self.heaps.len() {
            return Err(SnapError::Corrupt(format!(
                "cohort count {} != snapshot {cohorts}",
                self.heaps.len()
            )));
        }
        let population = self.cursors.len();
        for (cohort, heap) in self.heaps.iter_mut().enumerate() {
            heap.clear();
            let members =
                cohort * self.cohort_size..population.min((cohort + 1) * self.cohort_size);
            let entries = r.len_prefix()?;
            heap.reserve(entries.min(members.len()));
            for _ in 0..entries {
                let start = r.u64()?;
                let device = r.u32()?;
                let end = r.u64()?;
                if !members.contains(&(device as usize)) {
                    return Err(SnapError::Corrupt(format!(
                        "cohort {cohort} entry for device {device}, \
                         which is not in it (population {population})"
                    )));
                }
                heap.push(Reverse((start, device, end)));
            }
        }
        self.scratch.clear();
        Ok(())
    }

    /// Refuses a restored queue whose `CohortWake`s break the wake
    /// invariant: exactly one wake per non-empty cohort, at its heap's
    /// earliest start, and none for an empty cohort. A later wake would
    /// miss a session start and an absent one would strand the cohort.
    /// `wakes` lists the queued wakes as `(cohort, time)`, every cohort
    /// already range-checked.
    pub(crate) fn check_wakes(
        &self,
        wakes: impl Iterator<Item = (usize, SimTime)>,
    ) -> Result<(), SnapError> {
        let mut armed: Vec<Option<SimTime>> = vec![None; self.heaps.len()];
        for (cohort, time) in wakes {
            if let Some(first) = armed[cohort].replace(time) {
                return Err(SnapError::Corrupt(format!(
                    "cohort {cohort} has two wakes queued, at {first} and {time} ms"
                )));
            }
        }
        for (cohort, wake) in armed.into_iter().enumerate() {
            let why = match (wake, self.next_wake(cohort)) {
                (Some(w), Some(start)) if w == start => continue,
                (None, None) => continue,
                (Some(w), Some(start)) => {
                    format!("wake at {w} ms, but its earliest session starts at {start} ms")
                }
                (None, Some(start)) => {
                    format!("no wake queued, but a session starts at {start} ms")
                }
                (Some(w), None) => format!("wake at {w} ms, but no session pending"),
            };
            return Err(SnapError::Corrupt(format!("cohort {cohort} has {why}")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venn_core::DAY_MS;

    fn model() -> AvailabilityModel {
        AvailabilityModel::default()
    }

    /// A primed env-off set of `pop` devices over `days` days.
    fn primed(seed: u64, days: u32, pop: usize, cohort_size: usize) -> CohortSet {
        let horizon = days as SimTime * DAY_MS;
        let mut set = CohortSet::with_cohort_size(model(), seed, days, horizon, pop, cohort_size);
        set.prime(None);
        set
    }

    /// Drains the whole set into a flat, globally-merged session list.
    fn drain_all(set: &mut CohortSet) -> Vec<(SimTime, usize, SimTime)> {
        let mut out = Vec::new();
        loop {
            // Earliest wake across cohorts; ties drain in cohort order
            // (deterministic either way — each device is in one cohort).
            let Some((cohort, now)) = (0..set.cohort_count())
                .filter_map(|c| set.next_wake(c).map(|t| (c, t)))
                .min_by_key(|&(c, t)| (t, c))
            else {
                return out;
            };
            while let Some((device, end)) = set.pop_due(cohort, now) {
                out.push((now, device, end));
                set.advance(device, None);
            }
        }
    }

    #[test]
    fn streams_the_exact_split_trace_in_merge_order() {
        let (days, pop, seed) = (2u32, 300usize, 42u64);
        let horizon = days as SimTime * DAY_MS;
        let mut set = primed(seed, days, pop, 64);
        let streamed = drain_all(&mut set);

        // Reference: regenerate every (device, day) block directly.
        let mut expect = Vec::new();
        for device in 0..pop {
            for day in 0..days as u64 {
                model().device_day_sessions(seed, device, day, &mut expect);
            }
        }
        let mut expect: Vec<(SimTime, usize, SimTime)> = expect
            .into_iter()
            .filter(|s| s.start < horizon)
            .map(|s| (s.start, s.device, s.end.min(horizon)))
            .collect();
        expect.sort_by_key(|&(start, device, _)| (start, device));
        assert_eq!(streamed, expect);
    }

    #[test]
    fn one_pending_entry_per_device() {
        let set = primed(7, 3, 500, 128);
        let pending: usize = (0..set.cohort_count()).map(|c| set.heaps[c].len()).sum();
        assert!(pending <= 500, "at most one entry per device: {pending}");
        assert!(pending > 300, "most devices have day-0..2 sessions");
    }

    #[test]
    fn pop_due_only_pops_exact_matches() {
        let horizon = 2 * DAY_MS;
        let mut set = primed(11, 2, 64, 64);
        let t = set.next_wake(0).expect("some session exists");
        assert!(set.pop_due(0, t.saturating_sub(1)).is_none());
        let (device, end) = set.pop_due(0, t).expect("due at its own wake time");
        assert!(end > t && end <= horizon);
        assert!(device < 64);
    }

    /// A stream state for 10 devices in cohorts of 8 whose only pending
    /// entry is `device`'s, filed under `cohort`.
    fn state_with_entry(cohort: usize, device: u32) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.len_prefix(10);
        for _ in 0..10 {
            w.u32(0);
            w.u8(0);
        }
        w.len_prefix(2);
        for c in 0..2 {
            w.len_prefix(usize::from(c == cohort));
            if c == cohort {
                w.u64(100);
                w.u32(device);
                w.u64(200);
            }
        }
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_entries_for_devices_outside_their_cohort() {
        let horizon = DAY_MS;
        let mut set = CohortSet::with_cohort_size(model(), 5, 1, horizon, 10, 8);
        for (cohort, device) in [(0, 99), (1, 10), (0, 9), (1, 3)] {
            let bytes = state_with_entry(cohort, device);
            let err = set.restore_state(&mut SnapReader::new(&bytes)).unwrap_err();
            assert!(
                matches!(&err, SnapError::Corrupt(m) if m.contains(&format!("device {device},"))),
                "cohort {cohort} device {device}: {err:?}"
            );
        }
        for (cohort, device) in [(0, 3), (1, 9)] {
            let bytes = state_with_entry(cohort, device);
            set.restore_state(&mut SnapReader::new(&bytes))
                .expect("a device in its own cohort restores");
            assert_eq!(set.pop_due(cohort, 100), Some((device as usize, 200)));
        }
    }

    #[test]
    fn exhausted_devices_stop_producing() {
        let mut set = primed(3, 1, 32, 32);
        let n = drain_all(&mut set).len();
        assert!(n > 0);
        assert!(set.next_wake(0).is_none(), "drained set stays drained");
        // Advancing an exhausted device is a no-op.
        set.advance(5, None);
        assert!(set.next_wake(0).is_none());
    }
}
