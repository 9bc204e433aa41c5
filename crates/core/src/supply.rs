//! Sliding-window estimation of eligible device supply.
//!
//! IRS needs, for every job group `G_j`, the size of its eligible resource
//! pool `|S_j|` — and for every *atomic region* of the eligibility Venn
//! diagram, how much supply falls in it. The paper (§4.4, "dynamic resource
//! supply") records device check-ins in a time-series store and averages
//! eligibility over a 24-hour window so the diurnal pattern does not whipsaw
//! the scheduler.
//!
//! [`SupplyEstimator`] implements that store as a fixed grid over the
//! normalized (cpu, mem) capacity square plus an expiry ring: check-ins are
//! O(1), spec-rate queries are O(grid), and region queries are
//! O(grid × groups).
//!
//! The ring is the estimator's memory. It keeps one 4-byte word per
//! in-window check-in, `dt << 13 | cell`: the step in milliseconds from the
//! previous word (19 bits) and the grid cell (13 bits). At 100k devices a
//! 24-hour window holds ~30 M check-ins, and they do not compress by run
//! length (devices poll on their own millisecond phases, so consecutive
//! `(time, cell)` pairs almost never repeat), but nearly every step is a
//! few milliseconds. A step too long for one word is bridged by *filler*
//! words that only advance time.

use std::collections::VecDeque;

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::{Capacity, CheckInRecord, ResourceSpec, SimTime, DAY_MS};

/// Number of grid cells per axis. 64×64 keeps quantization error below the
/// noise floor of the traces while making queries effectively free.
const GRID: usize = 64;

/// Supply observed in one atomic region of the eligibility diagram.
///
/// The region is identified by its eligibility mask: bit `j` is set iff
/// devices in this region satisfy group `j`'s spec. Regions with equal
/// masks are interchangeable to the scheduler and therefore merged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSupply {
    /// Eligibility bitmask over the queried group specs.
    pub mask: u128,
    /// Estimated check-in rate in devices per millisecond.
    pub rate: f64,
}

/// Sliding-window device check-in recorder over the capacity grid.
///
/// Beyond the on-demand queries ([`rate`](Self::rate) /
/// [`region_supplies`](Self::region_supplies), which walk the grid), the
/// estimator keeps a *mask index* over specs registered with
/// [`register_spec`](Self::register_spec): every grid cell is mapped to a
/// slot for its eligibility mask, and per-slot live counts are maintained
/// incrementally on [`record`](Self::record)/expiry. The registered list
/// is the one spec registry: spec `j` is mask bit `j` here and job group
/// `j` in the Venn scheduler. Registered queries
/// ([`registered_rates`](Self::registered_rates) /
/// [`registered_regions`](Self::registered_regions)) then cost
/// O(regions) instead of O(grid × specs) — the delta API the incremental
/// Venn scheduler rebuilds its allocation plan from. Both paths count the
/// same integer cells, so their rates are bit-identical.
///
/// # Examples
///
/// ```
/// use venn_core::{Capacity, ResourceSpec, SupplyEstimator};
///
/// let mut s = SupplyEstimator::new(1_000); // 1-second window
/// s.record(0, &Capacity::new(0.8, 0.8));
/// s.record(0, &Capacity::new(0.2, 0.2));
/// assert_eq!(s.window_count(0), 2);
/// let high = ResourceSpec::new(0.5, 0.5);
/// assert!(s.rate(0, &high) > 0.0);
/// assert!(s.rate(0, &high) < s.rate(0, &ResourceSpec::any()));
///
/// // The incremental mask index returns the exact same rates.
/// let g = s.register_spec(high);
/// let mut rates = Vec::new();
/// s.registered_rates(0, &mut rates);
/// assert_eq!(rates[g], s.rate(0, &high));
/// ```
#[derive(Debug, Clone)]
pub struct SupplyEstimator {
    window_ms: SimTime,
    /// Per-cell in-window counts, maintained *lazily*: the check-in hot
    /// path only touches the queue and the slot counts; the grid queries
    /// that need per-cell resolution ([`rate`](Self::rate),
    /// [`region_supplies`](Self::region_supplies),
    /// [`register_spec`](Self::register_spec)) rebuild this table from the
    /// queue when stale.
    counts: Vec<u32>,
    /// Whether `counts` reflects the current queue contents.
    counts_fresh: bool,
    /// In-window check-ins, oldest first, as `dt << CELL_BITS | cell`
    /// words: `dt` is the step from the previous word's time (from
    /// `base` for the front word). Cell [`FILLER`] marks a word that only
    /// advances time by [`MAX_DT`]. At 24-hour windows this ring holds
    /// millions of entries and `record` runs once per device check-in, so
    /// bytes per word are the estimator's footprint.
    queue: VecDeque<u32>,
    /// Time the front word's `dt` counts from: the time of the last word
    /// expired (or of the last word pushed, once the ring is empty).
    base: SimTime,
    /// Time of the last word pushed. `base` plus every `dt` in the ring
    /// equals `back`.
    back: SimTime,
    /// Specs registered for the incremental mask index; bit `j` of every
    /// mask refers to `specs[j]`. The index below is a function of this
    /// list alone.
    specs: Vec<ResourceSpec>,
    /// Slot of each grid cell's eligibility mask (index into the two
    /// parallel slot vectors below).
    cell_slot: Vec<u32>,
    /// Distinct cell masks, ascending — so region output needs no sort.
    slot_masks: Vec<u128>,
    /// Live in-window check-in count per slot.
    slot_counts: Vec<u64>,
}

/// Bits of a ring word holding the grid cell.
const CELL_BITS: u32 = 13;

/// Mask of a ring word's cell bits.
const CELL_MASK: u32 = (1 << CELL_BITS) - 1;

/// Cell of a filler word: one past the last grid cell.
const FILLER: u32 = (GRID * GRID) as u32;

/// Longest step one ring word carries, in milliseconds (the 19 bits above
/// the cell: 524 287 ms, about 8.7 minutes).
const MAX_DT: SimTime = (u32::MAX >> CELL_BITS) as SimTime;

const _: () = assert!(
    FILLER <= CELL_MASK,
    "grid cells and the filler must fit the cell bits"
);

/// Packs a step and a cell into one ring word.
fn word(dt: SimTime, cell: u32) -> u32 {
    debug_assert!(dt <= MAX_DT && cell <= FILLER);
    (dt as u32) << CELL_BITS | cell
}

/// The step of a ring word.
fn dt_of(word: u32) -> SimTime {
    (word >> CELL_BITS) as SimTime
}

impl SupplyEstimator {
    /// Creates an estimator with the given sliding window length.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero.
    pub fn new(window_ms: SimTime) -> Self {
        assert!(window_ms > 0, "supply window must be positive");
        SupplyEstimator {
            window_ms,
            counts: vec![0; GRID * GRID],
            counts_fresh: true,
            queue: VecDeque::new(),
            base: 0,
            back: 0,
            specs: Vec::new(),
            cell_slot: vec![0; GRID * GRID],
            slot_masks: vec![0],
            slot_counts: vec![0],
        }
    }

    /// Creates an estimator with the paper's default 24-hour window.
    pub fn with_default_window() -> Self {
        SupplyEstimator::new(DAY_MS)
    }

    fn cell_of(capacity: &Capacity) -> u32 {
        let clamp = |v: f64| (v * GRID as f64).min((GRID - 1) as f64).max(0.0) as usize;
        (clamp(capacity.cpu()) * GRID + clamp(capacity.mem())) as u32
    }

    /// Expires every word older than `now - window`.
    fn prune(&mut self, now: SimTime) {
        let cutoff = now.saturating_sub(self.window_ms);
        while let Some(&word) = self.queue.front() {
            let time = self.base + dt_of(word);
            if time >= cutoff {
                break;
            }
            self.queue.pop_front();
            self.base = time;
            let cell = word & CELL_MASK;
            if cell != FILLER {
                self.slot_counts[self.cell_slot[cell as usize] as usize] -= 1;
                self.counts_fresh = false;
            }
        }
    }

    /// Records one device check-in.
    ///
    /// Times must be non-decreasing across `record` and
    /// [`record_batch`](Self::record_batch) calls, and queries must not ask
    /// about a time before the last record (the simulator's clock
    /// guarantees both). A time before the last record is a bug: debug
    /// builds panic, release builds record it at the last record's time.
    ///
    /// The hot path does no expiry: pushes keep the ring time-ordered
    /// regardless, the slot counts are only *read* through the query
    /// methods, and every query prunes first — so expiry batches up there
    /// (same total work, amortized off the per-check-in path) and a
    /// record is three array touches plus a ring push.
    pub fn record(&mut self, now: SimTime, capacity: &Capacity) {
        self.back = self.push(self.back, now, capacity);
        self.counts_fresh = false;
    }

    /// Records a batch of check-ins, oldest first — the same state
    /// transition as calling [`record`](Self::record) on each, under the
    /// same time-order contract, with one ring reservation for the batch.
    pub fn record_batch(&mut self, batch: &[CheckInRecord]) {
        if batch.is_empty() {
            return;
        }
        self.queue.reserve(batch.len());
        let mut back = self.back;
        for r in batch {
            back = self.push(back, r.time, r.device.capacity());
        }
        self.back = back;
        self.counts_fresh = false;
    }

    /// Pushes a check-in at `now` onto the ring, whose last word is at
    /// `back` (a batch keeps it in a local, so `self.back` may lag), and
    /// returns the new back time.
    #[inline(always)]
    fn push(&mut self, mut back: SimTime, now: SimTime, capacity: &Capacity) -> SimTime {
        debug_assert!(
            now >= back,
            "check-in at {now} ms recorded after one at {back} ms"
        );
        let now = now.max(back);
        if now - back > MAX_DT {
            self.back = back;
            self.bridge(now);
            back = self.back;
        }
        let cell = Self::cell_of(capacity);
        self.slot_counts[self.cell_slot[cell as usize] as usize] += 1;
        self.queue.push_back(word(now - back, cell));
        now
    }

    /// Brings `back` within [`MAX_DT`] of `now`, ahead of a record at
    /// `now`. Whatever `now` pushes out of the window expires first; an
    /// empty ring then restarts at `now`, and a non-empty one gets filler
    /// words across the gap — at most `window / MAX_DT` of them, since its
    /// front is still in the window.
    #[cold]
    #[inline(never)]
    fn bridge(&mut self, now: SimTime) {
        self.prune(now);
        if self.queue.is_empty() {
            self.base = now;
            self.back = now;
        }
        while now - self.back > MAX_DT {
            self.queue.push_back(word(MAX_DT, FILLER));
            self.back += MAX_DT;
        }
    }

    /// Rebuilds the per-cell count table from the ring — the cold-path
    /// complement of the hot path's slot-count-only maintenance.
    fn refresh_counts(&mut self) {
        if self.counts_fresh {
            return;
        }
        self.counts.iter_mut().for_each(|c| *c = 0);
        for &word in &self.queue {
            let cell = word & CELL_MASK;
            if cell != FILLER {
                self.counts[cell as usize] += 1;
            }
        }
        self.counts_fresh = true;
    }

    /// Registers a spec with the incremental mask index and returns its bit
    /// position.
    ///
    /// The slot table is maintained *incrementally*: the new spec's bit is
    /// the most significant bit used so far, so each existing slot at most
    /// splits in two — the cells eligible for the new spec (mask `m | bit`,
    /// which sorts after every old mask) and the rest (mask `m`, unchanged).
    /// Splitting therefore preserves the ascending mask order with no mask
    /// array, no sort, and no per-cell `u128` buffer — two grid walks and a
    /// handful of per-slot scratch rows, instead of the old
    /// collect-clone-sort-dedup rebuild.
    ///
    /// # Panics
    ///
    /// Panics past 128 registered specs (mask width).
    pub fn register_spec(&mut self, spec: ResourceSpec) -> usize {
        let j = self.specs.len();
        assert!(j < 128, "at most 128 registered specs (mask width)");
        self.refresh_counts();
        self.specs.push(spec);
        let bit = 1u128 << j;
        // Threshold specs are separable over the grid: eligibility of cell
        // (cpu, mem) is row-eligible AND column-eligible.
        let mut cpu_ok = [false; GRID];
        let mut mem_ok = [false; GRID];
        for i in 0..GRID {
            cpu_ok[i] = cell_low(i) >= spec.min_cpu();
            mem_ok[i] = cell_low(i) >= spec.min_mem();
        }
        // First walk: which old slots split, and how much in-window supply
        // moves to each slot's eligible half.
        let old_slots = self.slot_masks.len();
        let mut with_cells = vec![false; old_slots];
        let mut without_cells = vec![false; old_slots];
        let mut with_counts = vec![0u64; old_slots];
        for (cpu_cell, &cok) in cpu_ok.iter().enumerate() {
            for (mem_cell, &mok) in mem_ok.iter().enumerate() {
                let cell = cpu_cell * GRID + mem_cell;
                let s = self.cell_slot[cell] as usize;
                if cok && mok {
                    with_cells[s] = true;
                    with_counts[s] += self.counts[cell] as u64;
                } else {
                    without_cells[s] = true;
                }
            }
        }
        // New table: surviving old masks first (ascending), then the split
        // halves `m | bit` (ascending, and all greater than any old mask).
        let mut map_without = vec![u32::MAX; old_slots];
        let mut map_with = vec![u32::MAX; old_slots];
        let mut new_masks = Vec::with_capacity(2 * old_slots);
        let mut new_counts = Vec::with_capacity(2 * old_slots);
        for (s, &mask) in self.slot_masks.iter().enumerate() {
            if without_cells[s] {
                map_without[s] = new_masks.len() as u32;
                new_masks.push(mask);
                new_counts.push(self.slot_counts[s] - with_counts[s]);
            }
        }
        for (s, &mask) in self.slot_masks.iter().enumerate() {
            if with_cells[s] {
                map_with[s] = new_masks.len() as u32;
                new_masks.push(mask | bit);
                new_counts.push(with_counts[s]);
            }
        }
        // Second walk: retarget every cell at its half of the split.
        for (cpu_cell, &cok) in cpu_ok.iter().enumerate() {
            for (mem_cell, &mok) in mem_ok.iter().enumerate() {
                let cell = cpu_cell * GRID + mem_cell;
                let s = self.cell_slot[cell] as usize;
                self.cell_slot[cell] = if cok && mok {
                    map_with[s]
                } else {
                    map_without[s]
                };
            }
        }
        self.slot_masks = new_masks;
        self.slot_counts = new_counts;
        j
    }

    /// The bit `spec` was registered under, if it was: a linear scan of
    /// bit-compared thresholds (the same equivalence `ResourceSpec::eq`
    /// uses), cheaper than hashing at no more than 128 specs.
    pub fn lookup_spec(&self, spec: ResourceSpec) -> Option<usize> {
        self.specs.iter().position(|s| *s == spec)
    }

    /// The registered specs, in bit order.
    pub fn specs(&self) -> &[ResourceSpec] {
        &self.specs
    }

    /// Check-in rate of devices satisfying registered spec `j` — the same
    /// number [`rate`](Self::rate) returns for that spec, read from the
    /// mask index in O(regions).
    ///
    /// # Panics
    ///
    /// Panics if `j` was never registered.
    pub(crate) fn registered_rate(&mut self, now: SimTime, j: usize) -> f64 {
        assert!(j < self.specs.len(), "spec {j} not registered");
        self.prune(now);
        let bit = 1u128 << j;
        let count: u64 = self
            .slot_masks
            .iter()
            .zip(&self.slot_counts)
            .filter(|(&mask, _)| mask & bit != 0)
            .map(|(_, &c)| c)
            .sum();
        count as f64 / self.span_ms(now)
    }

    /// Rates of all registered specs at once, written into `out` (reused
    /// buffer, no allocation). Entry `j` equals `rate(now, &specs[j])` bit
    /// for bit: both sum the same integer cell counts before one division
    /// (the in-window count is far below 2^53, so the f64 partial sums
    /// stay exact integers).
    pub fn registered_rates(&mut self, now: SimTime, out: &mut Vec<f64>) {
        self.prune(now);
        let span = self.span_ms(now);
        out.clear();
        out.resize(self.specs.len(), 0.0);
        for (&mask, &count) in self.slot_masks.iter().zip(&self.slot_counts) {
            if count == 0 {
                continue;
            }
            // Iterate only the set bits (ascending, like a spec loop would):
            // popcount(mask) additions per slot, the promised O(regions).
            let mut m = mask;
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                debug_assert!(j < out.len(), "mask bit without a registered spec");
                out[j] += count as f64;
                m &= m - 1;
            }
        }
        for a in out.iter_mut() {
            *a /= span;
        }
    }

    /// Atomic-region supplies over the registered specs, written into
    /// `out` (reused buffer). Identical content and order to
    /// [`region_supplies`](Self::region_supplies) called with the
    /// registered spec slice, at O(regions) instead of O(grid × specs).
    pub fn registered_regions(&mut self, now: SimTime, out: &mut Vec<RegionSupply>) {
        self.prune(now);
        let span = self.span_ms(now);
        out.clear();
        for (&mask, &count) in self.slot_masks.iter().zip(&self.slot_counts) {
            if mask != 0 && count > 0 {
                out.push(RegionSupply {
                    mask,
                    rate: count as f64 / span,
                });
            }
        }
    }

    /// Number of check-ins currently inside the window.
    pub fn window_count(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.slot_counts.iter().sum::<u64>() as usize
    }

    /// Effective averaging span: the full window once enough history has
    /// accumulated, otherwise the elapsed time (so early-run rates are not
    /// underestimated).
    fn span_ms(&self, now: SimTime) -> f64 {
        self.window_ms.min(now.max(1)) as f64
    }

    /// Estimated check-in rate (devices/ms) of devices satisfying `spec`.
    pub fn rate(&mut self, now: SimTime, spec: &ResourceSpec) -> f64 {
        self.prune(now);
        self.refresh_counts();
        let span = self.span_ms(now);
        let mut count = 0u64;
        for cpu_cell in 0..GRID {
            let cpu = cell_low(cpu_cell);
            if cell_upper(cpu_cell) <= spec.min_cpu() && spec.min_cpu() > 0.0 {
                continue;
            }
            for mem_cell in 0..GRID {
                let cap = Capacity::new(cpu, cell_low(mem_cell));
                if spec.is_eligible(&cap) {
                    count += self.counts[cpu_cell * GRID + mem_cell] as u64;
                }
            }
        }
        count as f64 / span
    }

    /// Supply rates of the atomic regions induced by `specs`.
    ///
    /// Bit `j` of a region's mask is set iff `specs[j]` is satisfied by
    /// devices in that region. Cells whose mask is zero (eligible for no
    /// group) are omitted.
    ///
    /// # Panics
    ///
    /// Panics if more than 128 specs are given (mask width).
    pub fn region_supplies(&mut self, now: SimTime, specs: &[ResourceSpec]) -> Vec<RegionSupply> {
        assert!(specs.len() <= 128, "at most 128 concurrent job groups");
        self.prune(now);
        self.refresh_counts();
        let span = self.span_ms(now);
        // Occupied cells' (mask, count) pairs, merged by sorting — regions
        // number at most a few dozen, so a sort of the occupied cells beats
        // a hash map and the output needs no second sort.
        let mut pairs: Vec<(u128, u64)> = Vec::new();
        for cpu_cell in 0..GRID {
            for mem_cell in 0..GRID {
                let count = self.counts[cpu_cell * GRID + mem_cell];
                if count == 0 {
                    continue;
                }
                let cap = Capacity::new(cell_low(cpu_cell), cell_low(mem_cell));
                let mut mask = 0u128;
                for (j, spec) in specs.iter().enumerate() {
                    if spec.is_eligible(&cap) {
                        mask |= 1 << j;
                    }
                }
                if mask != 0 {
                    pairs.push((mask, count as u64));
                }
            }
        }
        pairs.sort_unstable_by_key(|&(mask, _)| mask);
        let mut out: Vec<RegionSupply> = Vec::new();
        for (mask, count) in pairs {
            match out.last_mut() {
                Some(last) if last.mask == mask => last.rate += count as f64,
                _ => out.push(RegionSupply {
                    mask,
                    rate: count as f64,
                }),
            }
        }
        for r in &mut out {
            r.rate /= span;
        }
        out
    }

    /// The eligibility mask of a single device against the registered
    /// specs (the bit layout of
    /// [`registered_regions`](Self::registered_regions)).
    pub(crate) fn mask_of(&self, capacity: &Capacity) -> u128 {
        let mut mask = 0u128;
        for (j, spec) in self.specs.iter().enumerate() {
            if spec.is_eligible(capacity) {
                mask |= 1 << j;
            }
        }
        mask
    }
}

/// The snapshot stores the estimator's inputs only: the window, the ring
/// (as `base`, `back` and its 4-byte words, the bulk of a Venn
/// checkpoint, written in bulk from the ring's two contiguous halves) and
/// the registered specs. The mask index is a function of the spec list,
/// so decode rebuilds it by registering the specs in order on an empty
/// ring, then sets the slot counts from the per-cell tally of the one
/// pass that reads and checks the ring. The cell-count cache comes back
/// stale, as every record leaves it. A restored estimator therefore
/// answers every query as the snapshotted one would.
///
/// Decode refuses, as [`SnapError::Corrupt`], a zero window, a cell past
/// the filler, a filler whose step is not `MAX_DT`, steps that overflow
/// or do not lead from `base` to `back`, and more specs than the mask
/// width — so hostile bytes give an error here, never a panic in
/// `register_spec` or a later query.
impl Snapshot for SupplyEstimator {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.window_ms);
        w.u64(self.base);
        w.u64(self.back);
        let (front, rest) = self.queue.as_slices();
        w.len_prefix(self.queue.len());
        w.u32s(front);
        w.u32s(rest);
        w.seq(&self.specs, |w, s| s.encode(w));
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let corrupt = |what: &str| SnapError::Corrupt(format!("supply {what}"));
        let window_ms = r.u64()?;
        if window_ms == 0 {
            return Err(corrupt("window is zero"));
        }
        let base = r.u64()?;
        let back = r.u64()?;
        let len = r.len_prefix()?;
        let queue: Vec<u32> = r.u32s(len)?.collect();
        // One tally pass over the copied ring: cell counts, cell and
        // filler checks, and the sum of the steps. The prefix sums of the
        // steps are monotone, so checking `base + steps` once for overflow
        // refuses exactly the rings a per-step check would.
        let mut cells = vec![0u64; GRID * GRID];
        let mut steps: u128 = 0;
        for &word in &queue {
            let cell = word & CELL_MASK;
            if cell < FILLER {
                cells[cell as usize] += 1;
            } else if cell > FILLER {
                return Err(corrupt("ring cell out of range"));
            } else if dt_of(word) != MAX_DT {
                return Err(corrupt("ring filler with a partial step"));
            }
            steps += u128::from(dt_of(word));
        }
        let time = SimTime::try_from(u128::from(base) + steps)
            .map_err(|_| corrupt("ring time overflows"))?;
        if time != back {
            return Err(corrupt("ring steps do not lead from base to back"));
        }
        let specs = r.seq(ResourceSpec::decode)?;
        if specs.len() > 128 {
            return Err(corrupt("spec count exceeds the mask width"));
        }
        let mut s = SupplyEstimator::new(window_ms);
        for spec in specs {
            s.register_spec(spec);
        }
        for (&n, &slot) in cells.iter().zip(&s.cell_slot) {
            s.slot_counts[slot as usize] += n;
        }
        s.queue = queue.into();
        s.base = base;
        s.back = back;
        s.counts_fresh = false;
        Ok(s)
    }
}

/// Low edge of grid cell `i` — the value devices in the cell are *at least*.
fn cell_low(i: usize) -> f64 {
    i as f64 / GRID as f64
}

/// High edge of grid cell `i`.
fn cell_upper(i: usize) -> f64 {
    (i + 1) as f64 / GRID as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_scale_with_counts() {
        let mut s = SupplyEstimator::new(1_000);
        for _ in 0..10 {
            s.record(500, &Capacity::new(0.9, 0.9));
        }
        for _ in 0..30 {
            s.record(500, &Capacity::new(0.1, 0.1));
        }
        let any = s.rate(500, &ResourceSpec::any());
        let high = s.rate(500, &ResourceSpec::new(0.5, 0.5));
        assert!((any / high - 4.0).abs() < 1e-9, "any={any} high={high}");
    }

    #[test]
    fn old_events_expire() {
        let mut s = SupplyEstimator::new(1_000);
        s.record(0, &Capacity::new(0.5, 0.5));
        assert_eq!(s.window_count(500), 1);
        assert_eq!(s.window_count(2_000), 0);
        assert_eq!(s.rate(2_000, &ResourceSpec::any()), 0.0);
    }

    #[test]
    fn early_run_rates_use_elapsed_time() {
        let mut s = SupplyEstimator::new(DAY_MS);
        s.record(1_000, &Capacity::new(0.5, 0.5));
        // One event in 1 second of elapsed time, not in 24 h.
        let r = s.rate(1_000, &ResourceSpec::any());
        assert!((r - 1.0 / 1_000.0).abs() < 1e-12);
    }

    #[test]
    fn region_masks_partition_supply() {
        let mut s = SupplyEstimator::new(10_000);
        // One device in each of the four canonical regions.
        s.record(0, &Capacity::new(0.1, 0.1)); // general only
        s.record(0, &Capacity::new(0.9, 0.1)); // compute
        s.record(0, &Capacity::new(0.1, 0.9)); // memory
        s.record(0, &Capacity::new(0.9, 0.9)); // high-perf
        let specs = [
            ResourceSpec::any(),         // bit 0
            ResourceSpec::new(0.5, 0.0), // bit 1
            ResourceSpec::new(0.0, 0.5), // bit 2
            ResourceSpec::new(0.5, 0.5), // bit 3
        ];
        let regions = s.region_supplies(100, &specs);
        let masks: Vec<u128> = regions.iter().map(|r| r.mask).collect();
        assert_eq!(masks, vec![0b0001, 0b0011, 0b0101, 0b1111]);
        // Supply is conserved across regions.
        let total: f64 = regions.iter().map(|r| r.rate).sum();
        assert!((total - s.rate(100, &ResourceSpec::any())).abs() < 1e-12);
    }

    #[test]
    fn mask_of_matches_eligibility() {
        let mut s = SupplyEstimator::new(1_000);
        s.register_spec(ResourceSpec::any());
        s.register_spec(ResourceSpec::new(0.5, 0.5));
        assert_eq!(s.mask_of(&Capacity::new(0.6, 0.6)), 0b11);
        assert_eq!(s.mask_of(&Capacity::new(0.6, 0.4)), 0b01);
    }

    #[test]
    fn grid_threshold_alignment_is_conservative() {
        // A device exactly at a non-grid-aligned threshold is still counted
        // consistently between `rate` and `mask_of`.
        let spec = ResourceSpec::new(0.505, 0.0);
        let mut s = SupplyEstimator::new(1_000);
        s.record(0, &Capacity::new(0.51, 0.5));
        let r = s.rate(100, &spec);
        // Cell low edge 0.5 < 0.505 so grid may or may not count it; we only
        // require non-negative and bounded by the total rate.
        assert!(r >= 0.0);
        assert!(r <= s.rate(100, &ResourceSpec::any()) + 1e-12);
    }

    #[test]
    fn cell_edges_cover_unit_square() {
        assert_eq!(cell_low(0), 0.0);
        assert!((cell_upper(GRID - 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        SupplyEstimator::new(0);
    }

    // --- incremental mask index -------------------------------------------

    fn four_region_specs() -> [ResourceSpec; 4] {
        [
            ResourceSpec::any(),
            ResourceSpec::new(0.5, 0.0),
            ResourceSpec::new(0.0, 0.5),
            ResourceSpec::new(0.5, 0.5),
        ]
    }

    #[test]
    fn registered_rates_match_grid_rates_bit_for_bit() {
        let mut s = SupplyEstimator::new(10_000);
        let specs = four_region_specs();
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(s.register_spec(*spec), j);
        }
        for i in 0..200u64 {
            let v = (i % 17) as f64 / 17.0;
            let w = (i % 11) as f64 / 11.0;
            s.record(i * 7, &Capacity::new(v, w));
        }
        let mut rates = Vec::new();
        s.registered_rates(1_500, &mut rates);
        for (j, spec) in specs.iter().enumerate() {
            assert_eq!(rates[j], s.rate(1_500, spec), "spec {j}");
            assert_eq!(s.registered_rate(1_500, j), rates[j], "spec {j}");
        }
    }

    #[test]
    fn registered_regions_match_grid_regions() {
        let mut s = SupplyEstimator::new(10_000);
        let specs = four_region_specs();
        for spec in &specs {
            s.register_spec(*spec);
        }
        s.record(0, &Capacity::new(0.1, 0.1));
        s.record(0, &Capacity::new(0.9, 0.1));
        s.record(0, &Capacity::new(0.1, 0.9));
        s.record(0, &Capacity::new(0.9, 0.9));
        let mut fast = Vec::new();
        s.registered_regions(100, &mut fast);
        let slow = s.region_supplies(100, &specs);
        assert_eq!(fast, slow);
    }

    #[test]
    fn registration_after_records_rebuilds_counts() {
        let mut s = SupplyEstimator::new(10_000);
        // Check-ins land before any spec exists...
        s.record(0, &Capacity::new(0.9, 0.9));
        s.record(0, &Capacity::new(0.2, 0.2));
        // ...and are still counted once the index is built.
        let g = s.register_spec(ResourceSpec::new(0.5, 0.5));
        assert_eq!(
            s.registered_rate(100, g),
            s.rate(100, &ResourceSpec::new(0.5, 0.5))
        );
        // Late registration of a second spec keeps both consistent.
        let any = s.register_spec(ResourceSpec::any());
        assert_eq!(
            s.registered_rate(100, any),
            s.rate(100, &ResourceSpec::any())
        );
    }

    #[test]
    fn registered_index_expires_old_events() {
        let mut s = SupplyEstimator::new(1_000);
        let g = s.register_spec(ResourceSpec::any());
        s.record(0, &Capacity::new(0.5, 0.5));
        assert!(s.registered_rate(500, g) > 0.0);
        assert_eq!(s.registered_rate(2_000, g), 0.0);
        let mut regions = Vec::new();
        s.registered_regions(2_000, &mut regions);
        assert!(regions.is_empty());
    }

    // --- packed ring ---------------------------------------------------------

    #[test]
    fn long_gaps_bridge_with_fillers_that_count_for_nothing() {
        let mut s = SupplyEstimator::new(4 * MAX_DT);
        s.record(3, &Capacity::new(0.5, 0.5));
        s.record(3 + 2 * MAX_DT + 1, &Capacity::new(0.5, 0.5));
        // Two fillers carry the gap; the second record steps 1 ms.
        assert_eq!(s.queue.len(), 4);
        assert_eq!(
            s.queue.iter().filter(|&&w| w & CELL_MASK == FILLER).count(),
            2
        );
        assert_eq!(s.window_count(s.back), 2);
        // Expiring the first record leaves the fillers until their turn.
        assert_eq!(s.window_count(4 * MAX_DT + 4), 1);
        assert_eq!(s.window_count(6 * MAX_DT + 5), 0);
        assert!(s.queue.is_empty());
        assert_eq!(s.base, s.back);
    }

    #[test]
    fn a_far_future_record_restarts_an_expired_ring() {
        // The gap is 2^25 words long, but nothing in the ring survives it.
        let mut s = SupplyEstimator::new(1_000);
        s.record(0, &Capacity::new(0.5, 0.5));
        let far = 1 << 44;
        s.record(far, &Capacity::new(0.5, 0.5));
        assert_eq!(s.queue.len(), 1);
        assert_eq!((s.base, s.back), (far, far));
        assert_eq!(s.window_count(far), 1);
    }

    #[test]
    fn record_batch_matches_per_record_calls() {
        let batch: Vec<CheckInRecord> = [0, 0, 5, MAX_DT + 5, 3 * MAX_DT, 3 * MAX_DT]
            .iter()
            .enumerate()
            .map(|(i, &time)| CheckInRecord {
                time,
                device: crate::DeviceInfo::new(
                    crate::DeviceId::new(i as u64),
                    Capacity::new(i as f64 / 6.0, 0.5),
                ),
            })
            .collect();
        let mut one = SupplyEstimator::new(2 * MAX_DT);
        let mut many = one.clone();
        one.record_batch(&batch);
        one.record_batch(&[]);
        for r in &batch {
            many.record(r.time, r.device.capacity());
        }
        let bytes = |s: &SupplyEstimator| {
            let mut w = SnapWriter::new();
            s.encode(&mut w);
            w.into_bytes()
        };
        assert_eq!(bytes(&one), bytes(&many));
    }

    #[test]
    fn decode_refuses_rings_that_do_not_add_up() {
        let valid = || {
            let mut s = SupplyEstimator::new(4 * MAX_DT);
            s.register_spec(ResourceSpec::new(0.5, 0.5));
            s.record(3, &Capacity::new(0.5, 0.5));
            s.record(3 + 2 * MAX_DT + 1, &Capacity::new(0.9, 0.9));
            s
        };
        let decoded = |s: &SupplyEstimator| {
            let mut w = SnapWriter::new();
            s.encode(&mut w);
            SupplyEstimator::decode(&mut SnapReader::new(&w.into_bytes()))
        };
        let refused = |s: SupplyEstimator, why: &str| match decoded(&s) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected a corrupt `{why}`, got {other:?}"),
        };
        assert!(decoded(&valid()).is_ok());
        let mut s = valid();
        s.queue[0] |= CELL_MASK;
        refused(s, "cell out of range");
        let mut s = valid();
        s.queue[1] -= 1 << CELL_BITS;
        refused(s, "partial step");
        let mut s = valid();
        s.back += 1;
        refused(s, "from base to back");
        let mut s = valid();
        s.base = u64::MAX - 1;
        refused(s, "overflows");
        let mut s = valid();
        s.window_ms = 0;
        refused(s, "window is zero");
        let mut s = valid();
        s.specs = vec![ResourceSpec::any(); 129];
        refused(s, "mask width");
    }

    #[test]
    fn a_wrapped_ring_encodes_both_halves_in_order() {
        fn record(s: &mut SupplyEstimator, t: &mut SimTime) {
            *t += 7;
            s.record(*t, &Capacity::new((*t % 640) as f64 / 640.0, 0.3));
        }
        let mut s = SupplyEstimator::new(1_000);
        s.register_spec(ResourceSpec::new(0.5, 0.5));
        let mut t = 0;
        for _ in 0..200 {
            record(&mut s, &mut t);
        }
        // Expire from the front, then push up to capacity without growing:
        // the back wraps around to the start of the buffer.
        assert!(s.window_count(t + 500) < 200);
        while s.queue.len() < s.queue.capacity() {
            record(&mut s, &mut t);
        }
        let (front, rest) = s.queue.as_slices();
        assert!(!front.is_empty() && !rest.is_empty(), "the ring must wrap");

        let mut reference = SnapWriter::new();
        reference.u64(s.window_ms);
        reference.u64(s.base);
        reference.u64(s.back);
        reference.len_prefix(s.queue.len());
        for &word in &s.queue {
            reference.u32(word);
        }
        reference.seq(&s.specs, |w, spec| spec.encode(w));
        let mut bulk = SnapWriter::new();
        s.encode(&mut bulk);
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, reference.into_bytes());

        let mut r = SnapReader::new(&bytes);
        let decoded = SupplyEstimator::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded.queue, s.queue);
        assert_eq!((decoded.base, decoded.back), (s.base, s.back));
        let mut again = SnapWriter::new();
        decoded.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn a_decoded_estimator_answers_every_query_as_the_live_one() {
        let specs = four_region_specs();
        let mut live = SupplyEstimator::new(5 * MAX_DT);
        live.register_spec(specs[3]);
        for i in 0..300u64 {
            let v = (i % 13) as f64 / 13.0;
            let w = (i % 7) as f64 / 7.0;
            live.record(i * 3_001 + (i / 100) * 2 * MAX_DT, &Capacity::new(v, w));
            if i == 150 {
                live.register_spec(specs[1]);
            }
        }
        live.register_spec(specs[0]);
        live.register_spec(specs[2]);
        let encode = |s: &SupplyEstimator| {
            let mut w = SnapWriter::new();
            s.encode(&mut w);
            w.into_bytes()
        };
        let bytes = encode(&live);
        let mut r = SnapReader::new(&bytes);
        let mut decoded = SupplyEstimator::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(encode(&decoded), bytes);
        // The index rebuilt from the specs is the one the live registrations
        // built around the ring.
        assert_eq!(decoded.cell_slot, live.cell_slot);
        assert_eq!(decoded.slot_masks, live.slot_masks);
        assert_eq!(decoded.slot_counts, live.slot_counts);
        let order = [specs[3], specs[1], specs[0], specs[2]];
        for now in [live.back, live.back + MAX_DT, live.back + 4 * MAX_DT] {
            for s in [&mut live, &mut decoded] {
                s.record(now, &Capacity::new(0.7, 0.2));
            }
            assert_eq!(decoded.window_count(now), live.window_count(now));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            live.registered_rates(now, &mut a);
            decoded.registered_rates(now, &mut b);
            assert_eq!(a, b);
            let (mut a, mut b) = (Vec::new(), Vec::new());
            live.registered_regions(now, &mut a);
            decoded.registered_regions(now, &mut b);
            assert_eq!(a, b);
            assert_eq!(
                decoded.region_supplies(now, &order),
                live.region_supplies(now, &order)
            );
            for (j, spec) in order.iter().enumerate() {
                assert_eq!(decoded.rate(now, spec), live.rate(now, spec));
                assert_eq!(
                    decoded.registered_rate(now, j),
                    live.registered_rate(now, j)
                );
            }
            assert_eq!(encode(&decoded), encode(&live));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "recorded after one at")]
    fn out_of_order_records_panic_in_debug_builds() {
        let mut s = SupplyEstimator::new(1_000);
        s.record(10, &Capacity::new(0.5, 0.5));
        s.record(9, &Capacity::new(0.5, 0.5));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_order_records_land_at_the_last_time_in_release_builds() {
        let mut s = SupplyEstimator::new(1_000);
        s.record(10, &Capacity::new(0.5, 0.5));
        s.record(9, &Capacity::new(0.5, 0.5));
        assert_eq!(s.queue.len(), 2);
        assert_eq!(s.back, 10);
        assert_eq!(s.window_count(1_010), 2);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_rate_panics() {
        let mut s = SupplyEstimator::new(1_000);
        s.registered_rate(0, 0);
    }
}
