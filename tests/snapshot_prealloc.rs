//! A sequence length read from a snapshot bounds the up-front
//! reservation by the bytes that remain, not by the element count.
//!
//! `SnapReader::len_prefix` only checks a length against the remaining
//! *bytes*, so a crafted body can claim as many wide elements as it has
//! bytes. Reserving `len` elements would then allocate
//! `len × size_of::<T>()` before a single element decodes — 16× the input
//! for the supply estimator's `u128` slot masks. A counting global
//! allocator pins the bound.
//!
//! This file deliberately contains a single `#[test]` so no concurrent
//! test pollutes the process-wide high-water mark.

use venn::core::{SnapError, SnapReader, SnapWriter};
use venn::metrics::alloc::{current_bytes, peak_bytes, reset_peak, TrackingAlloc};

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

#[test]
fn a_crafted_length_cannot_reserve_more_than_the_input() {
    // 1 KiB: a length prefix claiming 1 000 `u128`s, then 1 016 bytes —
    // enough to pass the byte-count check, 63 elements' worth of data.
    let mut w = SnapWriter::new();
    w.len_prefix(1_000);
    (0..1_016).for_each(|_| w.u8(0xA5));
    let body = w.into_bytes();
    assert_eq!(body.len(), 1_024);

    let before = current_bytes();
    reset_peak();
    let decoded = SnapReader::new(&body).seq(|r| r.u128());
    let peak = peak_bytes() - before;

    assert!(
        matches!(decoded, Err(SnapError::Truncated { .. })),
        "{decoded:?}"
    );
    assert!(peak < 2_048, "decoding a 1 KiB body peaked at {peak} bytes");
}
