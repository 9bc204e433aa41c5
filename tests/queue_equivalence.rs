//! The timing-wheel event queue must pop exactly the `(time, seq)` order:
//! for any interleaving of pushes, reservations, wake-ups, peeks and pops
//! it returns the same `(time, seq, kind)` sequence as the reference
//! [`Model`] below — a plain binary heap fed the same pushes.
//!
//! The generated operation streams deliberately cover the wheel's hard
//! cases: same-tick ties (many pushes at one timestamp), pushes at the
//! timestamp currently being drained, multi-tier deltas (from 1 ms up to
//! beyond the 256^4 ms top-tier range, which exercises the overflow
//! tier), reserved-seq wake-ups landing between already-queued
//! same-millisecond events, and a snapshot → restore at any point of the
//! stream (a restored wheel starts with its cursor at zero, so the same
//! events sit in different slots).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use venn::sim::{Event, EventKind, EventQueue};

/// The reference the queue is held to: a min-heap of
/// `(time, seq, device)` with its own insertion counter. Every event the
/// suites push is a `CheckIn`, so the device id is the whole payload.
#[derive(Default)]
struct Model {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    next_seq: u64,
}

impl Model {
    fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn push_reserved(&mut self, time: u64, seq: u64, device: usize) {
        self.heap.push(Reverse((time, seq, device)));
    }

    fn peek_key(&self) -> Option<(u64, u64)> {
        self.heap.peek().map(|&Reverse((time, seq, _))| (time, seq))
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse((time, seq, device))| Event {
            time,
            seq,
            kind: EventKind::CheckIn { device },
        })
    }
}

/// One scripted queue operation. Push deltas are relative to the time of
/// the last popped event so generated streams never schedule into the
/// past (the simulator never does either).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push `count` events at `last_pop_time + delta`.
    Push { delta: u64, count: u8 },
    /// Pop up to `count` events.
    Pop { count: u8 },
    /// Reserve a seq without scheduling anything — a poll parking.
    Reserve,
    /// Schedule the `pick`-th outstanding reserved seq (a fresh one when
    /// none is outstanding) at `last_pop_time + delta` — a parked poll
    /// waking.
    PushReserved { delta: u64, pick: u8 },
    /// `peek_key` must name the model's minimum, and move nothing.
    Peek,
}

/// Queues under test driven in lock-step with the [`Model`]: every op is
/// applied to all of them, and every pop must equal the model's.
struct Harness {
    subjects: Vec<EventQueue>,
    model: Model,
    device: usize,
    last_pop: u64,
    /// Reserved seqs not yet scheduled.
    reserved: Vec<u64>,
    /// Everything popped so far, in order.
    popped: Vec<Event>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            subjects: vec![EventQueue::new()],
            model: Model::default(),
            device: 0,
            last_pop: 0,
            reserved: Vec::new(),
            popped: Vec::new(),
        }
    }

    /// Allocates the next seq on the model and every subject.
    fn reserve_seq(&mut self) -> u64 {
        let seq = self.model.reserve_seq();
        for q in &mut self.subjects {
            assert_eq!(q.reserve_seq(), seq, "seq counters diverged");
        }
        seq
    }

    /// Schedules a fresh device at `time` under the reserved `seq`.
    fn push_reserved(&mut self, time: u64, seq: u64) {
        let device = self.device;
        self.device += 1;
        self.model.push_reserved(time, seq, device);
        for q in &mut self.subjects {
            q.push_reserved(time, seq, EventKind::CheckIn { device });
        }
    }

    fn assert_peek(&self) {
        for q in &self.subjects {
            assert_eq!(
                q.peek_key(),
                self.model.peek_key(),
                "peek is not the minimum"
            );
        }
    }

    /// Pops the model and every subject once, peeking first; `false`
    /// once they are empty.
    fn pop(&mut self) -> bool {
        self.assert_peek();
        let expected = self.model.pop();
        for q in &mut self.subjects {
            assert_eq!(q.pop(), expected, "wheel left (time, seq) order");
        }
        if let Some(e) = expected {
            self.last_pop = e.time;
            self.popped.push(e);
        }
        expected.is_some()
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Push { delta, count } => {
                for _ in 0..count {
                    let seq = self.reserve_seq();
                    self.push_reserved(self.last_pop + delta, seq);
                }
            }
            Op::Pop { count } => {
                for _ in 0..count {
                    if !self.pop() {
                        break;
                    }
                }
            }
            Op::Reserve => {
                let seq = self.reserve_seq();
                self.reserved.push(seq);
            }
            Op::PushReserved { delta, pick } => {
                let seq = match self.reserved.len() {
                    0 => self.reserve_seq(),
                    n => self.reserved.remove(pick as usize % n),
                };
                self.push_reserved(self.last_pop + delta, seq);
            }
            Op::Peek => self.assert_peek(),
        }
        for q in &self.subjects {
            assert_eq!(q.len(), self.model.heap.len());
        }
    }

    /// Adds a subject rebuilt from the first one's snapshot form; from
    /// here on it must pop exactly what the original pops.
    fn fork_restored(&mut self) {
        let q = &self.subjects[0];
        let restored = EventQueue::restore(&q.snapshot_events(), q.next_seq(), q.peak_len());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.next_seq(), q.next_seq());
        assert_eq!(restored.peak_len(), q.peak_len());
        self.subjects.push(restored);
    }

    /// Drains to the end: the tail must match too.
    fn drain(&mut self) {
        while self.pop() {}
    }
}

/// Replays one op stream against the model, asserting every pop matches.
fn assert_equivalent(ops: &[Op]) {
    let mut h = Harness::new();
    for &op in ops {
        h.apply(op);
    }
    h.drain();
}

/// Deltas spanning every wheel tier: same-tick (0), tier 0 (1..256),
/// tiers 1–3, and past the 2^32 ms range into the overflow heap.
fn delta() -> impl Strategy<Value = u64> {
    (0u32..6u32, 0u64..255u64).prop_map(|(tier, units)| match tier {
        0 => 0,
        1 => 1 + units % 255,
        2 => (units + 1) << 8,
        3 => (units + 1) << 16,
        4 => (units + 1) << 24,
        _ => (units + 1) << 32,
    })
}

/// Decodes one generated op: pushes and pops dominate, the parked-poll
/// and peek ops ride along.
fn op((which, delta, count): (u32, u64, u8)) -> Op {
    match which {
        0..=2 => Op::Push { delta, count },
        3..=5 => Op::Pop { count },
        6 => Op::Reserve,
        7 => Op::PushReserved { delta, pick: count },
        _ => Op::Peek,
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u32..9, delta(), 1u8..6).prop_map(op), 1..120)
}

/// The top wheel tier covers `256^4` ms from the cursor; deltas at and
/// just past this horizon decide between tier 3 and the overflow heap.
const TOP_TIER_HORIZON: u64 = 1 << 32;

/// Deltas pinned to the overflow-tier boundary: exactly at the top
/// tier's horizon, a few ms either side, and whole multiples of it (so
/// epoch-by-epoch overflow re-entry is exercised too), mixed with small
/// deltas that keep the cursor moving between boundary pushes.
fn boundary_delta() -> impl Strategy<Value = u64> {
    (0u32..6u32, 0u64..4u64).prop_map(|(which, units)| match which {
        0 => TOP_TIER_HORIZON - 1 - units,
        1 => TOP_TIER_HORIZON,
        2 => TOP_TIER_HORIZON + 1 + units,
        3 => (units + 1) * TOP_TIER_HORIZON,
        4 => (units + 1) * TOP_TIER_HORIZON + units,
        _ => 1 + units,
    })
}

fn boundary_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u32..9, boundary_delta(), 1u8..6).prop_map(op), 1..80)
}

proptest! {
    /// Random interleavings across all tiers pop identically.
    #[test]
    fn wheel_matches_heap_on_random_interleavings(ops in ops()) {
        assert_equivalent(&ops);
    }

    /// After any op prefix, a queue restored from the snapshot form pops
    /// the same remaining sequence as the original — through the rest of
    /// the stream and the final drain.
    #[test]
    fn restored_queue_pops_the_same_remaining_sequence(
        ops in ops(),
        cut in 0usize..120,
    ) {
        let (prefix, suffix) = ops.split_at(cut.min(ops.len()));
        let mut h = Harness::new();
        for &op in prefix {
            h.apply(op);
        }
        h.fork_restored();
        for &op in suffix {
            h.apply(op);
        }
        h.drain();
    }

    /// Events pushed exactly at and just past the top tier's horizon —
    /// the tier-3/overflow boundary — must pop in `(time, seq)` order
    /// identical to the reference heap.
    #[test]
    fn overflow_tier_boundary_matches_heap(ops in boundary_ops()) {
        assert_equivalent(&ops);
    }
}

#[test]
fn pushes_straddling_the_top_tier_horizon_pop_in_order() {
    // Deterministic pin of the exact boundary: one event in the last
    // millisecond tier 3 covers, one exactly at the horizon (the first
    // overflow event), one just past it, plus same-tick ties on each
    // side of the edge.
    let ops = [
        Op::Push {
            delta: TOP_TIER_HORIZON - 1,
            count: 2,
        },
        Op::Push {
            delta: TOP_TIER_HORIZON,
            count: 2,
        },
        Op::Push {
            delta: TOP_TIER_HORIZON + 1,
            count: 2,
        },
        Op::Pop { count: 3 },
        // Mid-drain, push at the boundary relative to the new cursor.
        Op::Push {
            delta: TOP_TIER_HORIZON,
            count: 1,
        },
        Op::Pop { count: 200 },
    ];
    assert_equivalent(&ops);
}

#[test]
fn same_tick_bursts_pop_in_insertion_order() {
    // A dense burst at one timestamp interleaved with drains: the wheel's
    // in-slot seq sort and mid-drain inserts must preserve FIFO ties.
    let ops = [
        Op::Push { delta: 5, count: 5 },
        Op::Pop { count: 2 },
        Op::Push { delta: 0, count: 4 }, // same tick as the drain point
        Op::Push { delta: 1, count: 2 },
        Op::Pop { count: 200 },
    ];
    assert_equivalent(&ops);
}

#[test]
fn overflow_tier_round_trips_exactly() {
    // Far-future events park in the overflow heap and re-enter the wheel
    // epoch by epoch without losing their tie order.
    let ops = [
        Op::Push {
            delta: 7 << 32,
            count: 3,
        },
        Op::Push { delta: 3, count: 2 },
        Op::Push {
            delta: (7 << 32) + 1,
            count: 2,
        },
        Op::Pop { count: 200 },
    ];
    assert_equivalent(&ops);
}

#[test]
fn reserved_seq_wakeups_tie_identically() {
    // Reserve a seq between pushes (as demand gating does for a parked
    // check-in) and wake it later at a contested millisecond: the wake-up
    // must slot in at its reserved position.
    let mut h = Harness::new();
    h.apply(Op::Push {
        delta: 100,
        count: 1,
    }); // seq 0
    let reserved = h.reserve_seq(); // seq 1
    h.apply(Op::Push {
        delta: 100,
        count: 1,
    }); // seq 2
    h.apply(Op::Push {
        delta: 50,
        count: 1,
    }); // seq 3
        // Drain past 50, then wake the reserved check-in at the contested
        // tick 100 — it must pop between seqs 0 and 2.
    h.apply(Op::Pop { count: 1 });
    h.push_reserved(100, reserved);
    h.drain();
    let keys: Vec<(u64, u64)> = h.popped.iter().map(|e| (e.time, e.seq)).collect();
    assert_eq!(keys, vec![(50, 3), (100, 0), (100, 1), (100, 2)]);
}
