//! The simulation event queue: a hierarchical timing wheel.
//!
//! ## Total order
//!
//! Events are totally ordered by `(time, seq)`: time in simulated
//! milliseconds, `seq` a monotonically increasing insertion number that
//! makes simultaneous events fire in a deterministic order. The wheel
//! pops exactly that order — pinned against a plain min-heap model by the
//! property tests in `tests/queue_equivalence.rs`.
//!
//! ## Why a wheel
//!
//! The kernel funnels millions of events per run through this queue, and
//! a binary heap pays `O(log n)` comparator walks on a queue that holds
//! tens of thousands of entries at scale. The wheel buckets events by
//! millisecond digit instead:
//!
//! * **Tier 0** — 256 one-millisecond slots covering the current 256 ms
//!   epoch; a slot holds the events of exactly one timestamp-digit.
//! * **Tiers 1–3** — 256 slots each of width 256^tier ms. An event lands
//!   in the lowest tier whose digits above it match the cursor, and
//!   cascades one tier down each time the cursor enters its slot — at
//!   most 3 moves per event, amortized O(1).
//! * **Overflow tier** — events beyond tier 3's ~49-day range (only
//!   reachable in synthetic tests) wait in a binary heap and re-enter
//!   the wheel epoch by epoch.
//!
//! Per-tier occupancy bitmaps (256 bits) let the cursor skip empty slots
//! with `trailing_zeros` instead of scanning, so a quiet simulated hour
//! costs a handful of word reads, not thousands of slot probes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use venn_core::{JobId, SimTime, SnapError, SnapReader, SnapWriter, Snapshot};

/// What happens at an event's firing time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A job from the workload arrives and submits its first round.
    JobArrival { job_idx: usize },
    /// A device availability session begins.
    SessionStart { device: usize, session_end: SimTime },
    /// A scheduled `venn-env` disturbance (mass-offline wave, scripted
    /// device fault, or abort storm) fires; the payload indexes the
    /// compiled environment's disturbance schedule. Never emitted on the
    /// env-off arm.
    EnvDisturbance { env_idx: usize },
    /// An online, idle device polls the resource manager.
    CheckIn { device: usize },
    /// A held (allocated but not yet computing) device's session ends.
    HoldExpire {
        job: JobId,
        epoch: u32,
        device: usize,
        /// The device's hold-generation counter at hold time. A fault
        /// can now release a hold *early* (forced offline), so the
        /// expiry must prove it still refers to the same hold instance
        /// before releasing — on the env-off arm the counter check is
        /// always true exactly when the phase/epoch guards pass.
        hold_seq: u64,
    },
    /// A device finishes its task and reports back.
    Response {
        job: JobId,
        epoch: u32,
        device: usize,
        response_ms: u64,
    },
    /// A device departed before finishing its task.
    AssignFailure {
        job: JobId,
        epoch: u32,
        device: usize,
    },
    /// The deadline of a round request fires.
    RoundDeadline { job: JobId, epoch: u32 },
    /// A job starts its next round (after aggregation or an abort).
    RoundStart { job_idx: usize },
    /// The next session start of a device cohort is due (streamed split
    /// population modes only): the world drains every due device from the
    /// cohort's session heap, begins their sessions, and re-arms one wake
    /// at the cohort's new earliest start. Never emitted on the eager arm.
    CohortWake { cohort: usize },
}

/// A scheduled event. Ordered by time, then by insertion sequence so
/// simultaneous events fire in a deterministic order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Firing time.
    pub time: SimTime,
    /// Tie-breaking insertion sequence number.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl Snapshot for EventKind {
    fn encode(&self, w: &mut SnapWriter) {
        match *self {
            EventKind::JobArrival { job_idx } => {
                w.u8(0);
                w.usize(job_idx);
            }
            EventKind::SessionStart {
                device,
                session_end,
            } => {
                w.u8(1);
                w.usize(device);
                w.u64(session_end);
            }
            EventKind::EnvDisturbance { env_idx } => {
                w.u8(2);
                w.usize(env_idx);
            }
            EventKind::CheckIn { device } => {
                w.u8(3);
                w.usize(device);
            }
            EventKind::HoldExpire {
                job,
                epoch,
                device,
                hold_seq,
            } => {
                w.u8(4);
                w.u64(job.as_u64());
                w.u32(epoch);
                w.usize(device);
                w.u64(hold_seq);
            }
            EventKind::Response {
                job,
                epoch,
                device,
                response_ms,
            } => {
                w.u8(5);
                w.u64(job.as_u64());
                w.u32(epoch);
                w.usize(device);
                w.u64(response_ms);
            }
            EventKind::AssignFailure { job, epoch, device } => {
                w.u8(6);
                w.u64(job.as_u64());
                w.u32(epoch);
                w.usize(device);
            }
            EventKind::RoundDeadline { job, epoch } => {
                w.u8(7);
                w.u64(job.as_u64());
                w.u32(epoch);
            }
            EventKind::RoundStart { job_idx } => {
                w.u8(8);
                w.usize(job_idx);
            }
            EventKind::CohortWake { cohort } => {
                w.u8(9);
                w.usize(cohort);
            }
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => EventKind::JobArrival {
                job_idx: r.usize()?,
            },
            1 => EventKind::SessionStart {
                device: r.usize()?,
                session_end: r.u64()?,
            },
            2 => EventKind::EnvDisturbance {
                env_idx: r.usize()?,
            },
            3 => EventKind::CheckIn { device: r.usize()? },
            4 => EventKind::HoldExpire {
                job: JobId::new(r.u64()?),
                epoch: r.u32()?,
                device: r.usize()?,
                hold_seq: r.u64()?,
            },
            5 => EventKind::Response {
                job: JobId::new(r.u64()?),
                epoch: r.u32()?,
                device: r.usize()?,
                response_ms: r.u64()?,
            },
            6 => EventKind::AssignFailure {
                job: JobId::new(r.u64()?),
                epoch: r.u32()?,
                device: r.usize()?,
            },
            7 => EventKind::RoundDeadline {
                job: JobId::new(r.u64()?),
                epoch: r.u32()?,
            },
            8 => EventKind::RoundStart {
                job_idx: r.usize()?,
            },
            9 => EventKind::CohortWake { cohort: r.usize()? },
            other => {
                return Err(SnapError::Corrupt(format!("event kind tag {other}")));
            }
        })
    }
}

impl Snapshot for Event {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.time);
        w.u64(self.seq);
        self.kind.encode(w);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Event {
            time: r.u64()?,
            seq: r.u64()?,
            kind: EventKind::decode(r)?,
        })
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap pops the *earliest* event.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel tiers below the overflow heap. Tier `l` slots are `256^l` ms
/// wide, so four tiers cover `256^4` ms ≈ 49.7 days from the cursor.
const TIERS: usize = 4;
/// Events per slab chunk (a chunk's buffer is `CHUNK × 48` bytes),
/// chosen by measurement among 16–128: smaller chunks link more often on
/// the push path, larger ones strand more memory in the partly filled
/// tail chunk of each occupied slot.
const CHUNK: usize = 64;
/// End of a chunk list.
const NIL: u32 = u32::MAX;

fn digit(t: SimTime, tier: usize) -> usize {
    ((t >> (SLOT_BITS * tier as u32)) & (SLOTS as u64 - 1)) as usize
}

/// One slab chunk: up to `CHUNK` events of one slot, and the next chunk
/// of that slot's list (or of the free list).
#[derive(Debug)]
struct Chunk {
    events: Vec<Event>,
    next: u32,
}

/// A slot's chunk list; `head == NIL` iff the slot is empty.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

/// The hierarchical timing wheel.
///
/// Slot contents live in one slab of fixed-capacity chunks shared by
/// every slot: a slot is a singly linked chunk list, and a drained chunk
/// returns to the free list for any slot to reuse. Retained memory is
/// therefore bounded by the peak number of pending events (plus one
/// partly filled chunk per occupied slot), not by the sum of every
/// slot's own high-water mark — the +60 s re-poll flood walks all 256
/// tier-2 slots in turn.
#[derive(Debug, Default)]
struct TimingWheel {
    /// Cursor: the timestamp currently being drained. All queued events
    /// have `time >= now`; events with `time == now` live in `current`.
    now: SimTime,
    /// Events at `time == now`, sorted by `seq`; `current[..pos]` are
    /// already popped.
    current: Vec<Event>,
    pos: usize,
    /// `TIERS × SLOTS` chunk lists (tier-major).
    slots: Vec<List>,
    /// Every chunk ever created; a free chunk is empty.
    chunks: Vec<Chunk>,
    /// Head of the free-chunk list, linked through `Chunk::next`.
    free: u32,
    /// Occupancy bitmap per tier: bit `s` set iff `slots[tier][s]` is
    /// non-empty.
    occupied: Vec<[u64; SLOTS / 64]>,
    /// Events beyond tier 3's range, kept in a heap until their 2^32 ms
    /// epoch begins.
    overflow: BinaryHeap<Event>,
}

impl TimingWheel {
    fn new() -> Self {
        TimingWheel {
            slots: vec![EMPTY; TIERS * SLOTS],
            free: NIL,
            occupied: vec![[0; SLOTS / 64]; TIERS],
            ..TimingWheel::default()
        }
    }

    /// Files one event: the drain buffer for `time == now`, the lowest
    /// tier whose higher digits match the cursor otherwise, the overflow
    /// heap past the wheel's range.
    fn place(&mut self, e: Event) {
        debug_assert!(
            e.time > self.now || (e.time == self.now && self.pos <= self.current.len()),
            "event scheduled in the past"
        );
        if e.time == self.now {
            // Same-timestamp insert during a drain: keep `current` sorted
            // by seq past the already-popped prefix.
            let at = self.current[self.pos..].partition_point(|x| x.seq < e.seq) + self.pos;
            self.current.insert(at, e);
            return;
        }
        for tier in 0..TIERS {
            if e.time >> (SLOT_BITS * (tier as u32 + 1))
                == self.now >> (SLOT_BITS * (tier as u32 + 1))
            {
                let s = digit(e.time, tier);
                self.append(tier * SLOTS + s, e);
                self.occupied[tier][s / 64] |= 1 << (s % 64);
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Appends `e` to slot `i`'s tail chunk, linking a fresh one when the
    /// tail is full or the slot is empty.
    fn append(&mut self, i: usize, e: Event) {
        let tail = self.slots[i].tail;
        if tail != NIL {
            let events = &mut self.chunks[tail as usize].events;
            if events.len() < CHUNK {
                events.push(e);
                return;
            }
        }
        let c = self.take_chunk();
        self.chunks[c as usize].events.push(e);
        if tail == NIL {
            self.slots[i].head = c;
        } else {
            self.chunks[tail as usize].next = c;
        }
        self.slots[i].tail = c;
    }

    /// An empty chunk off the free list, or a new one once the slab has
    /// no free chunk left — the only allocation on the push path.
    fn take_chunk(&mut self) -> u32 {
        let c = self.free;
        if c == NIL {
            self.chunks.push(Chunk {
                events: Vec::with_capacity(CHUNK),
                next: NIL,
            });
            return u32::try_from(self.chunks.len() - 1).expect("chunk index fits in u32");
        }
        let chunk = &mut self.chunks[c as usize];
        self.free = chunk.next;
        chunk.next = NIL;
        c
    }

    /// Empties chunk `c` onto the free list; returns the chunk that
    /// followed it in its slot's list.
    fn release_chunk(&mut self, c: u32) -> u32 {
        let chunk = &mut self.chunks[c as usize];
        chunk.events.clear();
        let next = chunk.next;
        chunk.next = self.free;
        self.free = c;
        next
    }

    /// Unlinks slot `s` of `tier`, returning its list's first chunk.
    fn detach(&mut self, tier: usize, s: usize) -> u32 {
        self.occupied[tier][s / 64] &= !(1 << (s % 64));
        std::mem::replace(&mut self.slots[tier * SLOTS + s], EMPTY).head
    }

    /// The events of slot `i`, chunk by chunk.
    fn slot_events(&self, i: usize) -> impl Iterator<Item = &Event> + '_ {
        let mut c = self.slots[i].head;
        std::iter::from_fn(move || {
            if c == NIL {
                return None;
            }
            let chunk = &self.chunks[c as usize];
            c = chunk.next;
            Some(chunk.events.iter())
        })
        .flatten()
    }

    fn pop(&mut self) -> Option<Event> {
        loop {
            if self.pos < self.current.len() {
                let e = self.current[self.pos];
                self.pos += 1;
                return Some(e);
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Key `(time, seq)` of the earliest pending event, without touching
    /// the cursor or any slot — the non-destructive lookahead behind
    /// bounded draining ([`World::run_until`](crate::World::run_until)).
    ///
    /// The tier invariants make this cheap: the drain buffer (if
    /// non-empty) is earliest by construction; otherwise every tier-0
    /// slot past the cursor's digit holds exactly one timestamp, each
    /// strictly earlier than anything in tier 1+, and within a tier the
    /// first occupied slot strictly precedes later ones (its events share
    /// all digits above the tier with the cursor). So the scan touches at
    /// most one slot per tier plus the overflow heap's root.
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.pos < self.current.len() {
            let e = &self.current[self.pos];
            return Some((e.time, e.seq));
        }
        if let Some(s) = self.next_occupied(0, digit(self.now, 0) + 1) {
            let time = (self.now & !(SLOTS as u64 - 1)) | s as u64;
            let seq = self
                .slot_events(s)
                .map(|e| e.seq)
                .min()
                .expect("occupied tier-0 slot");
            return Some((time, seq));
        }
        for tier in 1..TIERS {
            if let Some(s) = self.next_occupied(tier, digit(self.now, tier) + 1) {
                // One slot spans 256^tier ms, so the minimum is over the
                // slot's own contents, by full `(time, seq)` key.
                return self
                    .slot_events(tier * SLOTS + s)
                    .map(|e| (e.time, e.seq))
                    .min();
            }
        }
        self.overflow.peek().map(|e| (e.time, e.seq))
    }

    /// First occupied slot of `tier` at index ≥ `from`, via the bitmap.
    fn next_occupied(&self, tier: usize, from: usize) -> Option<usize> {
        if from >= SLOTS {
            return None;
        }
        let words = &self.occupied[tier];
        let mut w = from / 64;
        let mut word = words[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == SLOTS / 64 {
                return None;
            }
            word = words[w];
        }
    }

    /// Moves the cursor to the next non-empty timestamp and refills
    /// `current`. Returns `false` when the wheel is empty.
    fn advance(&mut self) -> bool {
        self.current.clear();
        self.pos = 0;
        loop {
            // Tier 0: the next occupied millisecond of this 256 ms epoch.
            if let Some(s) = self.next_occupied(0, digit(self.now, 0) + 1) {
                self.now = (self.now & !(SLOTS as u64 - 1)) | s as u64;
                let mut c = self.detach(0, s);
                while c != NIL {
                    self.current
                        .extend_from_slice(&self.chunks[c as usize].events);
                    c = self.release_chunk(c);
                }
                // Direct pushes and cascades interleave in a slot, so the
                // seq order is restored here, once, at drain time.
                self.current.sort_unstable_by_key(|e| e.seq);
                return true;
            }
            // Higher tiers: enter the next occupied slot and cascade its
            // events one tier down (or into `current` when they fire at
            // the slot's base timestamp).
            let mut cascaded = false;
            for tier in 1..TIERS {
                if let Some(s) = self.next_occupied(tier, digit(self.now, tier) + 1) {
                    let above = SLOT_BITS * (tier as u32 + 1);
                    self.now =
                        ((self.now >> above) << above) | ((s as u64) << (SLOT_BITS * tier as u32));
                    let mut c = self.detach(tier, s);
                    while c != NIL {
                        // Release the chunk only once its events are
                        // re-filed: a free chunk may be taken at once by
                        // the lower-tier appends they make.
                        let events = std::mem::take(&mut self.chunks[c as usize].events);
                        for &e in &events {
                            self.place(e);
                        }
                        self.chunks[c as usize].events = events;
                        c = self.release_chunk(c);
                    }
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                if !self.current.is_empty() {
                    self.current.sort_unstable_by_key(|e| e.seq);
                    return true;
                }
                continue;
            }
            // Overflow: pull in the earliest pending 2^32 ms epoch.
            let Some(first) = self.overflow.peek() else {
                return false;
            };
            let epoch = first.time >> (SLOT_BITS * TIERS as u32);
            self.now = epoch << (SLOT_BITS * TIERS as u32);
            while let Some(e) = self.overflow.peek() {
                if e.time >> (SLOT_BITS * TIERS as u32) != epoch {
                    break;
                }
                let e = *e;
                self.overflow.pop();
                self.place(e);
            }
            if !self.current.is_empty() {
                self.current.sort_unstable_by_key(|e| e.seq);
                return true;
            }
        }
    }
}

/// Queue of pending events with deterministic `(time, seq)` total order,
/// backed by a hierarchical timing wheel.
#[derive(Debug)]
pub struct EventQueue {
    wheel: TimingWheel,
    next_seq: u64,
    len: usize,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            next_seq: 0,
            len: 0,
            peak_len: 0,
        }
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.push_reserved(time, seq, kind);
    }

    /// Allocates the next insertion sequence number *without* scheduling
    /// an event — the demand-gating machinery reserves the seq a parked
    /// check-in would have consumed, so that a later
    /// [`push_reserved`](Self::push_reserved) wake-up ties against
    /// same-millisecond events exactly as the un-gated event stream would.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `kind` at `time` under a previously
    /// [reserved](Self::reserve_seq) sequence number.
    pub fn push_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        debug_assert!(seq < self.next_seq, "seq was never reserved");
        self.wheel.place(Event { time, seq, kind });
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
    }

    /// Key `(time, seq)` of the earliest pending event without popping it
    /// — `None` on an empty queue. Agrees with what [`pop`](Self::pop)
    /// would return next, so a driver can decide whether the next event
    /// falls inside a virtual-time window before committing to dispatch
    /// it.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.wheel.peek_key()
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event> {
        let popped = self.wheel.pop();
        if popped.is_some() {
            self.len -= 1;
        }
        popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of simultaneously pending events seen so far — the
    /// queue-pressure telemetry behind `peak_queue_len` in the benchmark
    /// baseline.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Next sequence number this queue would issue — part of a snapshot,
    /// because reserved-but-unscheduled seqs (parked polls) must keep
    /// their exact tie-break positions across a resume.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Every pending event in `(time, seq)` order — the queue's canonical
    /// snapshot form, identical for a wheel cursor at any position, so
    /// snapshot bytes never depend on the wheel's internal layout.
    pub fn snapshot_events(&self) -> Vec<Event> {
        let w = &self.wheel;
        let mut out = Vec::with_capacity(self.len);
        out.extend_from_slice(&w.current[w.pos..]);
        for i in 0..w.slots.len() {
            out.extend(w.slot_events(i));
        }
        out.extend(w.overflow.iter().copied());
        out.sort_unstable_by_key(|e| (e.time, e.seq));
        debug_assert_eq!(out.len(), self.len);
        out
    }

    /// Rebuilds a queue from its snapshot form: every pending event (each
    /// keeping its original seq), the seq counter, and the peak-length
    /// high-water mark. The pop sequence of the restored queue is
    /// identical to the snapshotted one's.
    pub fn restore(events: &[Event], next_seq: u64, peak_len: usize) -> EventQueue {
        let mut q = EventQueue::new();
        q.next_seq = next_seq;
        for e in events {
            q.push_reserved(e.time, e.seq, e.kind);
        }
        q.peak_len = peak_len.max(q.len);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, EventKind::CheckIn { device: 3 });
        q.push(10, EventKind::CheckIn { device: 1 });
        q.push(20, EventKind::CheckIn { device: 2 });
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for d in 0..5 {
            q.push(7, EventKind::CheckIn { device: d });
        }
        let devices: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::CheckIn { device } => device,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(devices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, EventKind::RoundStart { job_idx: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(100, EventKind::CheckIn { device: 0 });
        q.push(50, EventKind::CheckIn { device: 1 });
        assert_eq!(q.pop().unwrap().time, 50);
        // Push at the timestamp currently being drained and beyond.
        q.push(50, EventKind::CheckIn { device: 2 });
        q.push(75, EventKind::CheckIn { device: 3 });
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![50, 75, 100]);
    }

    #[test]
    fn far_future_events_cross_the_overflow_tier() {
        // Beyond 256^4 ms the wheel must fall back to the overflow heap
        // and still pop in exact order.
        let horizon = 1u64 << 32;
        let mut q = EventQueue::new();
        q.push(3 * horizon + 17, EventKind::CheckIn { device: 3 });
        q.push(5, EventKind::CheckIn { device: 0 });
        q.push(horizon + 1, EventKind::CheckIn { device: 1 });
        q.push(3 * horizon + 17, EventKind::CheckIn { device: 4 });
        q.push(horizon, EventKind::CheckIn { device: 2 });
        let devices: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::CheckIn { device } => device,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(devices, vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn reserved_seqs_tie_break_like_the_original_push() {
        let mut q = EventQueue::new();
        q.push(10, EventKind::CheckIn { device: 0 }); // seq 0
        let reserved = q.reserve_seq(); // seq 1
        q.push(10, EventKind::CheckIn { device: 2 }); // seq 2
        q.push_reserved(10, reserved, EventKind::CheckIn { device: 1 });
        let devices: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::CheckIn { device } => device,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(devices, vec![0, 1, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        // Mixed tiers (same-ms ties, tier 0/1/2 spans, overflow) — peek
        // must agree with the next pop at every drain position.
        let times = [7u64, 7, 300, 70_000, 70_000, 20_000_000, (1u64 << 32) + 5];
        let mut q = EventQueue::new();
        for (d, &t) in times.iter().enumerate() {
            q.push(t, EventKind::CheckIn { device: d });
        }
        loop {
            let peeked = q.peek_key();
            let popped = q.pop();
            match (peeked, popped) {
                (Some(key), Some(e)) => assert_eq!(key, (e.time, e.seq)),
                (None, None) => break,
                other => panic!("peek/pop disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn peek_is_non_destructive() {
        let mut q = EventQueue::new();
        q.push(500, EventKind::CheckIn { device: 1 });
        assert_eq!(q.peek_key(), Some((500, 0)));
        assert_eq!(q.peek_key(), Some((500, 0)));
        // A peek must not move the wheel cursor: a push at an earlier
        // time afterwards is still legal and pops first.
        q.push(100, EventKind::CheckIn { device: 2 });
        assert_eq!(q.peek_key(), Some((100, 1)));
        assert_eq!(q.pop().unwrap().time, 100);
        assert_eq!(q.pop().unwrap().time, 500);
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        for t in 0..10 {
            q.push(t, EventKind::CheckIn { device: 0 });
        }
        for _ in 0..10 {
            q.pop();
        }
        q.push(99, EventKind::CheckIn { device: 0 });
        assert_eq!(q.peak_len(), 10);
        assert_eq!(q.len(), 1);
    }
}
