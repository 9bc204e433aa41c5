//! Retained-memory audit for the event queue.
//!
//! The timing wheel keeps every slot's events in one shared slab of
//! fixed-size chunks, so what the queue holds on to after a burst is
//! bounded by the burst's peak number of pending events — plus at most
//! one partly filled chunk per wheel slot — and not by the sum of every
//! slot's own high-water mark. The flood below is the case that tells
//! the two apart: devices re-polling every minute walk all 256 tier-2
//! slots (65.5 s each) in turn, and per-slot buffers would each keep a
//! minute's worth of polls after their slot drained.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test pollutes the process-wide byte counter.

use std::mem::size_of;

use venn::metrics::alloc::{current_bytes, TrackingAlloc};
use venn::sim::config::REPOLL_MS;
use venn::sim::{Event, EventKind, EventQueue};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Events per slab chunk (`CHUNK` in `crates/sim/src/event.rs`).
const CHUNK: usize = 64;
/// Wheel slots: four tiers of 256.
const WHEEL_SLOTS: usize = 4 * 256;

#[test]
fn queue_memory_tracks_pending_events_not_history() {
    const DEVICES: usize = 4_096;
    const HORIZON: u64 = 5 * 3_600_000;

    let before = current_bytes();
    let mut q = EventQueue::new();
    for device in 0..DEVICES {
        let first = 1 + (device as u64 * 7_919) % REPOLL_MS;
        q.push(first, EventKind::CheckIn { device });
    }
    let mut popped = 0_u64;
    while let Some(e) = q.pop() {
        popped += 1;
        let next = e.time + REPOLL_MS;
        if next < HORIZON {
            q.push(next, e.kind);
        }
    }
    assert!(
        popped > (DEVICES as u64) * 290,
        "the flood ran {popped} polls"
    );
    let retained = current_bytes() - before;

    // Every pending event fills a chunk share, every occupied slot may
    // hold one partly filled tail chunk; the slot table, chunk headers
    // and the one-millisecond drain buffer fit in the fixed allowance.
    let chunks = q.peak_len().div_ceil(CHUNK) + WHEEL_SLOTS;
    let bound = chunks * CHUNK * size_of::<Event>() + (128 << 10);
    assert!(
        retained as usize <= bound,
        "an empty queue retains {retained} bytes after a peak of {} pending events \
         (slab bound {bound})",
        q.peak_len()
    );
}
