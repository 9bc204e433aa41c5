//! Intersection Resource Scheduling (IRS) — the paper's Algorithm 1.
//!
//! Given job groups whose eligible device pools overlap, contain, or nest
//! within one another, IRS produces a *resource allocation plan*: which
//! job group owns each atomic region of the eligibility Venn diagram, so
//! that every checked-in device can be routed to the first eligible job in
//! a fixed order. The heuristic has two steps:
//!
//! 1. **Intra-group** (§4.2.1): within a group, jobs are served smallest
//!    remaining demand first (computed by the caller; see
//!    [`crate::fairness`] for the starvation-adjusted demand).
//! 2. **Inter-group** (§4.2.2): groups are seeded scarcest-first with their
//!    still-unclaimed regions, then — walking groups from most to least
//!    abundant — a group greedily *steals* intersected regions from scarcer
//!    groups whenever its queue-pressure ratio `m'_j / |S'_j|` exceeds the
//!    victim's `m'_k / |S'_k|` (Algorithm 1, line 15).
//!
//! The whole computation is `O(m log m + n² · R)` for `m` jobs, `n` groups
//! and `R` distinct regions; with threshold specs `R ≤ n + 1` in practice.
//!
//! The plan's owner table is a *sorted mask table* — region masks ascending
//! with a parallel owner column — so the per-check-in owner lookup is a
//! branch-predictable binary search over at most a few dozen `u128`s
//! instead of a SipHash probe, and rebuilding the plan on every request
//! arrival/completion ([`allocate_into`] with an [`IrsScratch`]) allocates
//! nothing in steady state.

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::supply::RegionSupply;

/// Scheduling-relevant summary of one resource-homogeneous job group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSummary {
    /// Caller-side index identifying the group (bit position in region
    /// masks).
    pub index: usize,
    /// Total eligible supply rate `|S_j|` (devices/ms over the window).
    pub eligible_supply: f64,
    /// Queue length `m_j` — number of jobs waiting in the group, optionally
    /// fairness-scaled (§4.4).
    pub queue_len: f64,
}

/// The output of Algorithm 1: region ownership plus a fallback order.
///
/// A device with eligibility mask `m` is offered first to
/// [`owner_of(m)`](Self::owner_of), then to the remaining eligible groups
/// in `fallback_order` (scarcest first), which maximizes utilization when
/// the owner has no pending demand.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AllocationPlan {
    /// Owned atomic-region masks, ascending — the search column of the
    /// owner table.
    region_masks: Vec<u128>,
    /// Owner group index of `region_masks[i]` — the payload column.
    region_owners: Vec<u32>,
    /// All group indices ordered by ascending eligible supply (scarcest
    /// first), used to break ties and to place devices the owner declines.
    pub(crate) fallback_order: Vec<usize>,
}

impl AllocationPlan {
    /// Owner group of the atomic region `mask`, if the region is owned —
    /// a binary search over the sorted mask table, no hashing.
    pub fn owner_of(&self, mask: u128) -> Option<usize> {
        self.region_masks
            .binary_search(&mask)
            .ok()
            .map(|i| self.region_owners[i] as usize)
    }

    /// Iterator over group indices in the order a device with eligibility
    /// mask `mask` should be offered: owner first, then scarcity order.
    pub fn offer_order(&self, mask: u128) -> impl Iterator<Item = usize> + '_ {
        let owner = self.owner_of(mask);
        owner.into_iter().chain(
            self.fallback_order
                .iter()
                .copied()
                .filter(move |&g| mask & (1u128 << g) != 0 && Some(g) != owner),
        )
    }
}

impl Snapshot for AllocationPlan {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq(&self.region_masks, |w, &m| w.u128(m));
        w.seq(&self.region_owners, |w, &o| w.u32(o));
        w.seq(&self.fallback_order, |w, &g| w.usize(g));
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let region_masks = r.seq(|r| r.u128())?;
        let region_owners = r.seq(|r| r.u32())?;
        let fallback_order = r.seq(|r| r.usize())?;
        if region_masks.len() != region_owners.len() {
            return Err(SnapError::Corrupt("plan owner table mismatch".into()));
        }
        Ok(AllocationPlan {
            region_masks,
            region_owners,
            fallback_order,
        })
    }
}

/// Reusable working memory for [`allocate_into`].
///
/// Every buffer Algorithm 1 needs lives here and is cleared — capacity
/// retained — per invocation, so a scheduler that replans on every request
/// arrival/completion pays zero allocations once warm.
#[derive(Debug, Clone, Default)]
pub struct IrsScratch {
    /// Positions into the caller's `groups` slice, scarcity order.
    asc: Vec<u32>,
    /// Region indices owned per group index.
    owned_regions: Vec<Vec<u32>>,
    /// Allocated supply `|S'_j|` per group index.
    alloc_supply: Vec<f64>,
    /// Affected queue length `m'_j` per group index.
    queue: Vec<f64>,
    /// Per-region claimed flag for the scarcest-first seeding.
    claimed: Vec<bool>,
    /// Regions moved by the current steal.
    moved: Vec<u32>,
    /// `(mask, push sequence, owner)` rows awaiting the final sort.
    pairs: Vec<(u128, u32, u32)>,
}

/// Runs the inter-group step of Algorithm 1.
///
/// `groups` summarizes each active job group; `regions` is the atomic-region
/// supply decomposition from
/// [`SupplyEstimator::region_supplies`](crate::SupplyEstimator::region_supplies)
/// (bit `j` of a mask refers to `groups[j']` with `groups[j'].index == j`).
///
/// # Panics
///
/// Panics if any group index is ≥ 128 (mask width).
pub fn allocate(groups: &[GroupSummary], regions: &[RegionSupply]) -> AllocationPlan {
    allocate_with(groups, regions, true)
}

/// [`allocate`] with the greedy cross-group reallocation (Algorithm 1 lines
/// 10–23) optionally disabled — the "scarcity-only" design ablation: groups
/// keep exactly their initial scarcest-first seeding.
pub(crate) fn allocate_with(
    groups: &[GroupSummary],
    regions: &[RegionSupply],
    steal: bool,
) -> AllocationPlan {
    let mut plan = AllocationPlan::default();
    let mut scratch = IrsScratch::default();
    allocate_into(&mut plan, groups, regions, steal, &mut scratch);
    plan
}

/// `allocate_with` writing into an existing plan through reusable
/// working memory — the delta-friendly entry point: callers that rebuild
/// the plan on every request arrival and completion (the incremental
/// [`VennScheduler`](crate::VennScheduler)) reuse the plan's and scratch's
/// allocations instead of rebuilding maps each time.
pub fn allocate_into(
    plan: &mut AllocationPlan,
    groups: &[GroupSummary],
    regions: &[RegionSupply],
    steal: bool,
    scratch: &mut IrsScratch,
) {
    for g in groups {
        assert!(g.index < 128, "group index exceeds mask width");
    }
    plan.region_masks.clear();
    plan.region_owners.clear();
    plan.fallback_order.clear();
    if groups.is_empty() {
        return;
    }

    // Scarcity order: ascending |S_j|, stable on index for determinism.
    scratch.asc.clear();
    scratch.asc.extend(0..groups.len() as u32);
    scratch.asc.sort_unstable_by(|&a, &b| {
        let (ga, gb) = (&groups[a as usize], &groups[b as usize]);
        ga.eligible_supply
            .partial_cmp(&gb.eligible_supply)
            .expect("non-finite supply")
            .then(ga.index.cmp(&gb.index))
            .then(a.cmp(&b))
    });
    plan.fallback_order
        .extend(scratch.asc.iter().map(|&p| groups[p as usize].index));

    // Per-group state, indexed directly by group index (< 128).
    let slots = groups.iter().map(|g| g.index).max().unwrap_or(0) + 1;
    if scratch.owned_regions.len() < slots {
        scratch.owned_regions.resize_with(slots, Vec::new);
    }
    for owned in &mut scratch.owned_regions[..slots] {
        owned.clear();
    }
    scratch.alloc_supply.clear();
    scratch.alloc_supply.resize(slots, 0.0);
    scratch.queue.clear();
    scratch.queue.resize(slots, 0.0);
    for g in groups {
        scratch.queue[g.index] = g.queue_len;
    }

    // --- Initial allocation (Algorithm 1, lines 5-9): walk groups from the
    // scarcest and give each all still-unclaimed regions it is eligible for.
    scratch.claimed.clear();
    scratch.claimed.resize(regions.len(), false);
    for &p in &scratch.asc {
        let g = &groups[p as usize];
        let bit = 1u128 << g.index;
        for (ri, region) in regions.iter().enumerate() {
            if !scratch.claimed[ri] && region.mask & bit != 0 {
                scratch.claimed[ri] = true;
                scratch.owned_regions[g.index].push(ri as u32);
                scratch.alloc_supply[g.index] += region.rate;
            }
        }
    }

    // --- Greedy reallocation (lines 10-23): from the most abundant group,
    // steal intersected regions from scarcer groups while the queue-pressure
    // ratio favours it. (`asc` walked back to front is the descending order.)
    let n = scratch.asc.len();
    for dj in 0..if steal { n } else { 0 } {
        let gj = &groups[scratch.asc[n - 1 - dj] as usize];
        let j = gj.index;
        if scratch.alloc_supply[j] <= 0.0 {
            continue; // nothing was left for this group; it cannot anchor a steal
        }
        // Victims: strictly scarcer groups whose eligible set intersects
        // G_j's, visited from the most abundant of them downwards.
        for dk in dj + 1..n {
            let gk = &groups[scratch.asc[n - 1 - dk] as usize];
            let k = gk.index;
            if gk.eligible_supply >= gj.eligible_supply {
                continue;
            }
            let bit_j = 1u128 << j;
            let intersects = regions
                .iter()
                .any(|r| r.mask & bit_j != 0 && r.mask & (1u128 << k) != 0);
            if !intersects {
                continue;
            }
            let sj = scratch.alloc_supply[j];
            let sk = scratch.alloc_supply[k];
            let ratio_j = if sj > 0.0 {
                scratch.queue[j] / sj
            } else {
                f64::INFINITY
            };
            let ratio_k = if sk > 0.0 {
                scratch.queue[k] / sk
            } else {
                f64::INFINITY
            };
            if ratio_j > ratio_k && ratio_k.is_finite() {
                // Move the regions of S'_k that G_j is eligible for —
                // in place: survivors keep their order, movers append to
                // G_j in theirs (what a partition would produce).
                let mut victim = std::mem::take(&mut scratch.owned_regions[k]);
                scratch.moved.clear();
                let mut moved_rate = 0.0;
                victim.retain(|&ri| {
                    if regions[ri as usize].mask & bit_j != 0 {
                        scratch.moved.push(ri);
                        moved_rate += regions[ri as usize].rate;
                        false
                    } else {
                        true
                    }
                });
                scratch.owned_regions[k] = victim;
                scratch.owned_regions[j].extend_from_slice(&scratch.moved);
                scratch.alloc_supply[j] += moved_rate;
                scratch.alloc_supply[k] -= moved_rate;
                // The deprioritized group's jobs now queue behind G_j's.
                scratch.queue[j] += scratch.queue[k];
            } else {
                // G_j should first look to groups more abundant than G_k.
                break;
            }
        }
    }

    // --- Owner table: rows pushed in group-then-region order (the order
    // the hash map used to be written in), sorted by (mask, sequence) so
    // duplicate-mask regions resolve to the *last* write, then compacted.
    scratch.pairs.clear();
    let mut seq = 0u32;
    for (g, owned) in scratch.owned_regions[..slots].iter().enumerate() {
        for &ri in owned {
            scratch
                .pairs
                .push((regions[ri as usize].mask, seq, g as u32));
            seq += 1;
        }
    }
    scratch
        .pairs
        .sort_unstable_by_key(|&(mask, s, _)| (mask, s));
    for &(mask, _, owner) in &scratch.pairs {
        if plan.region_masks.last() == Some(&mask) {
            *plan.region_owners.last_mut().expect("parallel columns") = owner;
        } else {
            plan.region_masks.push(mask);
            plan.region_owners.push(owner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(mask: u128, rate: f64) -> RegionSupply {
        RegionSupply { mask, rate }
    }

    fn group(index: usize, supply: f64, queue: f64) -> GroupSummary {
        GroupSummary {
            index,
            eligible_supply: supply,
            queue_len: queue,
        }
    }

    /// Two groups, nested pools (the Lemma 2 setting): group 1 (scarce,
    /// needs >=2GB analog) owns the scarce region; group 0 owns the rest.
    #[test]
    fn nested_pools_seed_scarcest_first() {
        // Region 0b01: only general eligible; 0b11: both.
        let regions = [region(0b01, 0.7), region(0b11, 0.3)];
        let groups = [group(0, 1.0, 1.0), group(1, 0.3, 1.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(plan.owner_of(0b11), Some(1));
        assert_eq!(plan.owner_of(0b01), Some(0));
        assert_eq!(plan.fallback_order, vec![1, 0]);
    }

    /// When the abundant group's queue pressure dominates, it steals the
    /// intersection (Algorithm 1 line 15-17).
    #[test]
    fn abundant_group_steals_under_queue_pressure() {
        let regions = [region(0b01, 0.7), region(0b11, 0.3)];
        // Group 0: huge queue on abundant pool; group 1: single job on the
        // scarce pool. m0/s0 = 20/0.7 > m1/s1 = 1/0.3.
        let groups = [group(0, 1.0, 20.0), group(1, 0.3, 1.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(
            plan.owner_of(0b11),
            Some(0),
            "intersection stolen by group 0"
        );
        assert_eq!(plan.owner_of(0b01), Some(0));
    }

    #[test]
    fn no_steal_when_scarce_queue_dominates() {
        let regions = [region(0b01, 0.7), region(0b11, 0.3)];
        // m0/s0 = 1/0.7 < m1/s1 = 10/0.3.
        let groups = [group(0, 1.0, 1.0), group(1, 0.3, 10.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(plan.owner_of(0b11), Some(1));
    }

    /// Fig. 3 toy shape: Keyboard (all devices) vs two Emoji jobs (half the
    /// devices). Emoji group must own the emoji region.
    #[test]
    fn toy_example_reserves_scarce_devices() {
        let regions = [region(0b01, 0.5), region(0b11, 0.5)];
        let keyboard = group(0, 1.0, 1.0);
        let emoji = group(1, 0.5, 2.0);
        let plan = allocate(&[keyboard, emoji], &regions);
        assert_eq!(plan.owner_of(0b11), Some(1));
        assert_eq!(plan.owner_of(0b01), Some(0));
    }

    #[test]
    fn empty_inputs_yield_empty_plan() {
        let plan = allocate(&[], &[]);
        assert!(plan.region_masks.is_empty());
        assert!(plan.fallback_order.is_empty());
        assert_eq!(plan.owner_of(0b1), None);
    }

    #[test]
    fn every_region_with_an_eligible_group_is_owned() {
        let regions = [
            region(0b001, 0.2),
            region(0b011, 0.2),
            region(0b101, 0.2),
            region(0b111, 0.2),
        ];
        let groups = [group(0, 0.8, 3.0), group(1, 0.4, 1.0), group(2, 0.4, 2.0)];
        let plan = allocate(&groups, &regions);
        for r in &regions {
            let owner = plan.owner_of(r.mask).expect("region owned");
            assert!(r.mask & (1 << owner) != 0, "owner must be eligible");
        }
    }

    #[test]
    fn offer_order_starts_with_owner_then_scarcity() {
        let regions = [region(0b01, 0.7), region(0b11, 0.3)];
        let groups = [group(0, 1.0, 1.0), group(1, 0.3, 1.0)];
        let plan = allocate(&groups, &regions);
        let order: Vec<usize> = plan.offer_order(0b11).collect();
        assert_eq!(order, vec![1, 0]);
        let order: Vec<usize> = plan.offer_order(0b01).collect();
        assert_eq!(order, vec![0]);
    }

    #[test]
    fn disjoint_groups_never_steal() {
        // Two disjoint pools: no region carries both bits.
        let regions = [region(0b01, 0.5), region(0b10, 0.1)];
        let groups = [group(0, 0.5, 100.0), group(1, 0.1, 1.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(plan.owner_of(0b10), Some(1));
        assert_eq!(plan.owner_of(0b01), Some(0));
    }

    #[test]
    fn three_level_nesting_respects_scarcity_without_pressure() {
        // general ⊃ compute ⊃ high-perf, equal queues.
        let regions = [region(0b001, 0.5), region(0b011, 0.3), region(0b111, 0.2)];
        let groups = [group(0, 1.0, 1.0), group(1, 0.5, 1.0), group(2, 0.2, 1.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(plan.owner_of(0b111), Some(2));
        assert_eq!(plan.owner_of(0b011), Some(1));
        assert_eq!(plan.owner_of(0b001), Some(0));
    }

    #[test]
    fn steal_ablation_keeps_initial_seeding() {
        let regions = [region(0b01, 0.7), region(0b11, 0.3)];
        // Queue pressure that *would* trigger a steal...
        let groups = [group(0, 1.0, 20.0), group(1, 0.3, 1.0)];
        let no_steal = allocate_with(&groups, &regions, false);
        // ...is ignored: the scarce group keeps its region.
        assert_eq!(no_steal.owner_of(0b11), Some(1));
        let with_steal = allocate_with(&groups, &regions, true);
        assert_eq!(with_steal.owner_of(0b11), Some(0));
    }

    #[test]
    fn allocate_into_reuses_plan_and_matches_allocate() {
        let regions = [region(0b01, 0.7), region(0b11, 0.3)];
        let groups = [group(0, 1.0, 20.0), group(1, 0.3, 1.0)];
        let mut plan = AllocationPlan::default();
        let mut scratch = IrsScratch::default();
        // Pre-populate with unrelated state that must be fully replaced.
        allocate_into(
            &mut plan,
            &[group(5, 1.0, 1.0)],
            &[region(0b100000, 1.0)],
            true,
            &mut scratch,
        );
        allocate_into(&mut plan, &groups, &regions, true, &mut scratch);
        assert_eq!(plan, allocate(&groups, &regions));
        allocate_into(&mut plan, &[], &[], true, &mut scratch);
        assert_eq!(plan, AllocationPlan::default());
    }

    #[test]
    fn zero_supply_group_does_not_anchor_steals() {
        let regions = [region(0b01, 1.0)]; // nothing eligible for group 1
        let groups = [group(0, 1.0, 1.0), group(1, 0.0, 50.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(plan.owner_of(0b01), Some(0));
    }

    #[test]
    fn duplicate_region_masks_resolve_to_the_last_writer() {
        // Two regions with the same mask can end up owned by different
        // groups; the owner table keeps whichever was written last in
        // group-then-region order — exactly what the old hash-map insert
        // loop produced.
        let regions = [region(0b11, 0.4), region(0b11, 0.4), region(0b01, 0.2)];
        let groups = [group(0, 1.0, 1.0), group(1, 0.8, 1.0)];
        let plan = allocate(&groups, &regions);
        assert_eq!(plan.region_masks, [0b01, 0b11]);
        assert_eq!(plan.region_owners.len(), 2);
    }
}
