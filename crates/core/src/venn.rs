//! The Venn scheduler: IRS job ordering + tier-based device matching.
//!
//! ## Incremental maintenance
//!
//! The scheduler's hot path is [`assign`](Scheduler::assign) — it runs on
//! every device check-in, millions of times per simulated day — while its
//! *inputs* (the per-group job order and the IRS allocation plan) only
//! change on request arrival/completion and on supply drift. The
//! implementation therefore maintains that state by deltas:
//!
//! * **Dirty-flag per job group** — each group's serving order is re-sorted
//!   only when a member's sort key actually changed (membership, remaining
//!   demand crossing the current request's pending count, fairness usage),
//!   not on every trigger.
//! * **Persistent candidate index** — `assign` walks the group orders in
//!   place; no per-check-in clones or allocations.
//! * **O(regions) supply snapshots** — the IRS plan is refreshed from
//!   [`SupplyEstimator`]'s incremental mask index instead of a full
//!   capacity-grid walk.
//!
//! ## Dense data plane
//!
//! All of that state is *index-addressed*, never hash-addressed. A job's
//! [`ResourceSpec`] maps to a dense [`GroupId`] at submit time (its bit
//! in the [`SupplyEstimator`]'s spec registry); job state lives in a
//! [`PerJob`] indexed by the dense [`JobId`], and
//! `members`/`group_order` hold `u32` job ids, so every
//! candidate probe in `assign` is one array access. The IRS plan's owner
//! table is a sorted mask table searched by binary search — no `HashMap`
//! anywhere on the check-in/submit/assign path, and no steady-state
//! allocation (pinned by the counting-allocator test in
//! `tests/no_alloc_steady_state.rs`).
//!
//! The triggers are unchanged from the paper (request arrival, request
//! completion, and a periodic refresh for supply drift), so the deltas must
//! leave exactly the state a from-scratch rebuild at the same trigger would
//! compute. Debug builds check that at every trigger: before the dirty
//! groups are rebuilt, every clean group is re-scored and must match its
//! stored order and queue length bit for bit.
//!
//! The Fig. 11 ablations are settings of this one path: "Venn w/o match"
//! is `tiers = 1`; "Venn w/o sched" (`use_irs = false`) orders groups by
//! `(submit_time, id)`, skips the IRS plan, and serves the earliest
//! assignable head among a device's eligible groups.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{MIN_PROFILE_SAMPLES, REBUILD_INTERVAL_MS};
use crate::fairness::{fair_target_ms, FairnessKnob};
use crate::irs::{self, AllocationPlan, GroupSummary, IrsScratch};
use crate::matching::{decide_tier, TierProfiler, TierRange};
use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::supply::RegionSupply;
use crate::{
    CheckInRecord, DeviceInfo, GroupId, JobId, PerJob, Request, ResourceSpec, Scheduler, SimTime,
    SupplyEstimator, VennConfig, DAY_MS,
};

/// Fallback per-round response estimate (ms) used for the uncontended-JCT
/// guess before any profiling data exists.
const DEFAULT_RESPONSE_EST_MS: f64 = 120_000.0;

/// Fallback supply rate (devices/ms) when the estimator has seen nothing
/// eligible yet; keeps uncontended-JCT estimates finite.
const MIN_RATE: f64 = 1e-9;

#[derive(Debug)]
struct JobEntry {
    group: GroupId,
    /// Unassigned demand of the current request.
    pending: u32,
    /// Demand of the current request as submitted.
    demand: u32,
    /// Total remaining work in device-rounds (from the latest request).
    total_remaining: u64,
    active: bool,
    submit_time: SimTime,
    /// Requests that reached full allocation — the job's served rounds.
    allocs_done: u32,
    /// Estimated total number of rounds (from the first request).
    rounds_est: f64,
    /// Estimated JCT without contention (fairness `sd_i`).
    uncontended_jct_ms: f64,
    profiler: TierProfiler,
    tier: Option<TierRange>,
}

impl JobEntry {
    /// The remaining-demand component of the intra-group sort key:
    /// `max(total_remaining, pending)` (§4.2.1 — total remaining demand
    /// when disclosed, floored by the current request). Pending only moves
    /// the key while it exceeds the disclosed total (over-committed final
    /// rounds), which is what lets most assignments skip re-sorting.
    fn remaining_key(&self) -> u64 {
        self.total_remaining.max(self.pending as u64)
    }

    /// Whether the job would take `device` now: an active request with
    /// unassigned demand, and the device's score inside its tier, if any.
    /// Group eligibility is the caller's check.
    fn takes(&self, device: &DeviceInfo) -> bool {
        self.active
            && self.pending > 0
            && self.tier.map_or(true, |(lo, hi)| {
                let s = device.score();
                !(s < lo || s >= hi)
            })
    }
}

impl Snapshot for JobEntry {
    fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.group.as_u64());
        w.u32(self.pending);
        w.u32(self.demand);
        w.u64(self.total_remaining);
        w.bool(self.active);
        w.u64(self.submit_time);
        w.u32(self.allocs_done);
        w.f64(self.rounds_est);
        w.f64(self.uncontended_jct_ms);
        self.profiler.encode(w);
        w.option(&self.tier, |w, &(lo, hi)| {
            w.f64(lo);
            w.f64(hi);
        });
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(JobEntry {
            group: GroupId::new(r.u64()?),
            pending: r.u32()?,
            demand: r.u32()?,
            total_remaining: r.u64()?,
            active: r.bool()?,
            submit_time: r.u64()?,
            allocs_done: r.u32()?,
            rounds_est: r.f64()?,
            uncontended_jct_ms: r.f64()?,
            profiler: TierProfiler::decode(r)?,
            tier: r.option(|r| Ok((r.f64()?, r.f64()?)))?,
        })
    }
}

/// The Venn collaborative-learning resource manager (paper §4).
///
/// Composes the [`irs`] allocation plan (which job group owns each atomic
/// region of the eligibility diagram, refreshed on every request arrival
/// and completion) with per-job [tier-based matching](crate::matching) and
/// the [fairness knob](crate::fairness). Its [`name`](Scheduler::name)
/// follows the arm, `(use_irs, tiers > 1)`: `venn`, `venn-wo-match`,
/// `venn-wo-sched` or `venn-disabled`.
///
/// # Examples
///
/// ```
/// use venn_core::{
///     Capacity, DeviceId, DeviceInfo, JobId, Request, ResourceSpec, Scheduler,
///     VennConfig, VennScheduler,
/// };
///
/// let mut venn = VennScheduler::new(VennConfig::default());
/// venn.submit(Request::new(JobId::new(1), ResourceSpec::new(0.5, 0.5), 1, 1), 0);
/// venn.submit(Request::new(JobId::new(2), ResourceSpec::any(), 1, 1), 0);
///
/// // A high-end device goes to the scarce-spec job, not the general one.
/// let strong = DeviceInfo::new(DeviceId::new(1), Capacity::new(0.9, 0.9));
/// venn.on_check_in(&strong, 10);
/// assert_eq!(venn.assign(&strong, 10), Some(JobId::new(1)));
/// ```
#[derive(Debug)]
pub struct VennScheduler {
    config: VennConfig,
    knob: FairnessKnob,
    supply: SupplyEstimator,
    /// Per-job state by job id. Entries persist across withdrawals (the
    /// tier profiler survives resubmission).
    jobs: PerJob<JobEntry>,
    plan: AllocationPlan,
    /// Active members of each group in insertion order — the stable input
    /// every order rebuild sorts from. The order is not derivable: the
    /// group's queue length sums floats in it.
    members: Vec<Vec<u32>>,
    /// Per-group job order: ascending fairness-adjusted remaining demand,
    /// or arrival on the FIFO arm. Persistent: `assign` iterates it in
    /// place, no per-check-in clone.
    group_order: Vec<Vec<u32>>,
    /// Fairness-adjusted queue length per group, cached from the group's
    /// last order rebuild (valid while the group is clean; 0 on the FIFO
    /// arm, which has no plan to feed).
    queue_len: Vec<f64>,
    /// Dirty flag per group: set when a member's sort key, the membership,
    /// or (with fairness on) its usage sums may have changed since the
    /// group's order was last rebuilt.
    dirty: Vec<bool>,
    /// Number of jobs with an active request (the fairness `M`). Derived
    /// on load.
    active_count: usize,
    last_rebuild: SimTime,
    rng: StdRng,
    name: &'static str,
    stats: MatchingStats,
    /// Scratch buffers reused across plan refreshes and order rebuilds.
    rates_scratch: Vec<f64>,
    regions_scratch: Vec<RegionSupply>,
    summaries_scratch: Vec<GroupSummary>,
    irs_scratch: IrsScratch,
    scored_scratch: Vec<(f64, SimTime, u32)>,
}

/// Counters describing how often tier-based matching engaged — useful for
/// calibration and the Fig. 13 tier sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatchingStats {
    /// Requests for which a tier decision was evaluated.
    pub considered: u64,
    /// Requests that were tier-restricted.
    pub fired: u64,
    /// Requests whose profile was not yet ready.
    pub not_ready: u64,
    /// Sum of observed cost ratios `c` (over ready decisions).
    pub(crate) cost_ratio_sum: f64,
}

impl MatchingStats {
    /// Mean observed cost ratio `c = t_response / t_schedule`.
    pub fn mean_cost_ratio(&self) -> f64 {
        let ready = self.considered - self.not_ready;
        if ready == 0 {
            0.0
        } else {
            self.cost_ratio_sum / ready as f64
        }
    }
}

impl VennScheduler {
    /// Creates a scheduler from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`VennConfig::check`]).
    pub fn new(config: VennConfig) -> Self {
        config.validate();
        let name = match (config.use_irs, config.tiers > 1) {
            (true, true) => "venn",
            (true, false) => "venn-wo-match",
            (false, true) => "venn-wo-sched",
            (false, false) => "venn-disabled",
        };
        VennScheduler {
            knob: FairnessKnob::new(config.epsilon),
            supply: SupplyEstimator::with_default_window(),
            jobs: PerJob::new(),
            plan: AllocationPlan::default(),
            members: Vec::new(),
            group_order: Vec::new(),
            queue_len: Vec::new(),
            dirty: Vec::new(),
            active_count: 0,
            last_rebuild: 0,
            rng: StdRng::seed_from_u64(config.seed),
            name,
            stats: MatchingStats::default(),
            rates_scratch: Vec::new(),
            regions_scratch: Vec::new(),
            summaries_scratch: Vec::new(),
            irs_scratch: IrsScratch::default(),
            scored_scratch: Vec::new(),
            config,
        }
    }

    /// Counters describing tier-matching engagement so far.
    pub fn matching_stats(&self) -> MatchingStats {
        self.stats
    }

    /// Number of jobs with an active request.
    pub(crate) fn active_jobs(&self) -> usize {
        debug_assert_eq!(
            self.active_count,
            self.jobs.iter().filter(|(_, j)| j.active).count()
        );
        self.active_count
    }

    /// Estimated fair-share JCT `T_i = M · sd_i` for `job`, if known.
    ///
    /// Exposed for the Fig. 14 fairness experiments.
    pub fn fair_target_of(&self, job: JobId) -> Option<f64> {
        let entry = self.jobs.get(job)?;
        let m = self.active_jobs().max(1);
        Some(fair_target_ms(m, entry.uncontended_jct_ms))
    }

    /// The group of `spec` — its bit in the supply estimator's spec
    /// registry — registering it and growing the per-group state on
    /// first sight.
    pub(crate) fn group_index(&mut self, spec: ResourceSpec) -> GroupId {
        let g = match self.supply.lookup_spec(spec) {
            Some(g) => g,
            None => {
                self.members.push(Vec::new());
                self.group_order.push(Vec::new());
                self.queue_len.push(0.0);
                self.dirty.push(false);
                self.supply.register_spec(spec)
            }
        };
        GroupId::new(g as u64)
    }

    /// Recomputes the allocation plan and all job orders from scratch
    /// (Algorithm 1), ignoring dirty flags.
    ///
    /// The scheduler normally refreshes itself on request arrival and
    /// completion — exactly the paper's triggers — plus a periodic refresh
    /// so the plan tracks supply drift; this entry point exists for
    /// benchmarks and external callers that invalidated supply wholesale.
    pub fn rebuild_now(&mut self, now: SimTime) {
        self.mark_all_dirty();
        self.refresh(now);
    }

    /// Brings job orders (dirty groups only) and the IRS plan up to date.
    ///
    /// Runs at every trigger the paper names: request arrival (`submit`),
    /// request completion (`withdraw`), and the periodic supply-drift
    /// refresh in `assign`.
    fn refresh(&mut self, now: SimTime) {
        self.last_rebuild = now;
        let m_total = self.active_count.max(1);
        #[cfg(debug_assertions)]
        self.assert_clean_state_fresh(m_total);
        for g in 0..self.members.len() {
            if std::mem::take(&mut self.dirty[g]) {
                self.rebuild_group_order(g, m_total);
            }
        }
        if !self.config.use_irs {
            // FIFO arm: the plan is never consulted, so neither is supply.
            return;
        }

        // Refresh the plan against current supply: per-group rates |S_j|
        // and atomic-region supplies from the estimator's mask index.
        self.supply.registered_rates(now, &mut self.rates_scratch);
        self.supply
            .registered_regions(now, &mut self.regions_scratch);
        self.summaries_scratch.clear();
        for g in 0..self.members.len() {
            if self.group_order[g].is_empty() {
                continue;
            }
            self.summaries_scratch.push(GroupSummary {
                index: g,
                eligible_supply: self.rates_scratch[g],
                queue_len: self.queue_len[g],
            });
        }
        irs::allocate_into(
            &mut self.plan,
            &self.summaries_scratch,
            &self.regions_scratch,
            self.config.use_steal,
            &mut self.irs_scratch,
        );
    }

    /// Re-sorts one group's serving order and recomputes its queue length.
    fn rebuild_group_order(&mut self, g: usize, m_total: usize) {
        self.queue_len[g] = self.score_group(g, m_total);
        self.group_order[g].clear();
        self.group_order[g].extend(self.scored_scratch.iter().map(|&(_, _, id)| id));
    }

    /// Scores `g`'s members into `scored_scratch` in serving order and
    /// returns the group's fairness-adjusted queue length. The FIFO arm
    /// scores every member 0, so `(submit_time, id)` is the whole order,
    /// and its queue length is 0.
    fn score_group(&mut self, g: usize, m_total: usize) -> f64 {
        self.scored_scratch.clear();
        let mut sum_targets = 0.0;
        let mut sum_usage = 0.0;
        for &id in &self.members[g] {
            let entry = self.jobs.get(id.into()).expect("group member is a job");
            debug_assert!(entry.active && entry.group.index() == g);
            if !self.config.use_irs {
                self.scored_scratch.push((0.0, entry.submit_time, id));
                continue;
            }
            let target = fair_target_ms(m_total, entry.uncontended_jct_ms);
            // Fairness time-usage t_i: the share of the job's
            // uncontended JCT it has already been served
            // (progress × sd_i). A starved job has low usage relative
            // to its fair target and rises in priority.
            let progress = (entry.allocs_done as f64 / entry.rounds_est).min(1.0);
            let usage = progress * entry.uncontended_jct_ms;
            // Remaining demand: the paper orders by the current request
            // by default but prefers total remaining demand when jobs
            // disclose it (§4.2.1) — ours do, via `Request`.
            let adjusted = self
                .knob
                .adjusted_demand(entry.remaining_key() as f64, usage, target);
            sum_targets += target;
            sum_usage += usage.max(1.0);
            self.scored_scratch.push((adjusted, entry.submit_time, id));
        }
        // Smallest adjusted remaining demand first (§4.2.1); ties by
        // arrival then id for determinism. The key is total (ids are
        // unique), so the unstable sort is deterministic.
        self.scored_scratch.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("non-finite adjusted demand")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        if !self.config.use_irs {
            return 0.0;
        }
        self.knob
            .adjusted_queue_len(self.scored_scratch.len() as f64, sum_targets, sum_usage)
    }

    /// Panics unless the delta-maintained state equals what a from-scratch
    /// rebuild at this trigger would compute: every clean group's order and
    /// queue length, re-scored and compared bit for bit. Compares in
    /// place, so it allocates nothing once `scored_scratch` is warm.
    #[cfg(debug_assertions)]
    fn assert_clean_state_fresh(&mut self, m_total: usize) {
        for g in 0..self.members.len() {
            if self.dirty[g] {
                continue;
            }
            let queue_len = self.score_group(g, m_total);
            assert_eq!(
                queue_len.to_bits(),
                self.queue_len[g].to_bits(),
                "clean group {g}: stale queue length"
            );
            assert!(
                self.group_order[g]
                    .iter()
                    .eq(self.scored_scratch.iter().map(|(_, _, id)| id)),
                "clean group {g}: stale serving order"
            );
        }
    }

    /// Marks every group dirty — used when a change affects all sort keys
    /// (the fairness knob couples them through `M` and the usage sums).
    fn mark_all_dirty(&mut self) {
        for d in &mut self.dirty {
            *d = true;
        }
    }

    /// Offers `device` to `g`'s members in serving order. On success the
    /// group is re-flagged dirty only if the winner's sort key moved
    /// (pending dropped below the disclosed total remaining).
    fn assign_from_group(&mut self, g: usize, device: &DeviceInfo) -> Option<JobId> {
        for i in 0..self.group_order[g].len() {
            let id = self.group_order[g][i];
            if let Some(key_changed) = Self::try_assign_job(&mut self.jobs, id, device) {
                if key_changed {
                    self.dirty[g] = true;
                }
                return Some(id.into());
            }
        }
        None
    }

    /// Attempts the assignment; `Some(key_changed)` on success, where
    /// `key_changed` reports whether the job's intra-group sort key moved.
    fn try_assign_job(jobs: &mut PerJob<JobEntry>, id: u32, device: &DeviceInfo) -> Option<bool> {
        let entry = jobs.get_mut(id.into())?;
        if !entry.takes(device) {
            return None;
        }
        let key_before = entry.remaining_key();
        entry.pending -= 1;
        entry.profiler.record_participant(device.score());
        Some(entry.remaining_key() != key_before)
    }
}

impl Scheduler for VennScheduler {
    fn name(&self) -> &str {
        self.name
    }

    fn submit(&mut self, request: Request, now: SimTime) {
        let group = self.group_index(request.spec);
        let rate = self
            .supply
            .registered_rate(now, group.index())
            .max(MIN_RATE);
        let rounds_est = (request.total_remaining as f64 / request.demand as f64).max(1.0);
        let uncontended = rounds_est * (request.demand as f64 / rate + DEFAULT_RESPONSE_EST_MS);

        let tiers = self.config.tiers;
        let u = if tiers > 1 {
            self.rng.gen_range(0..tiers)
        } else {
            0
        };

        let entry = self
            .jobs
            .entry(request.job)
            .get_or_insert_with(|| JobEntry {
                group,
                pending: 0,
                demand: 0,
                total_remaining: 0,
                active: false,
                submit_time: now,
                allocs_done: 0,
                rounds_est: rounds_est.max(1.0),
                uncontended_jct_ms: uncontended,
                profiler: TierProfiler::new(),
                tier: None,
            });
        // `entry` checked the dense-id bound.
        let id = request.job.as_u64() as u32;
        let was_active = entry.active;
        let old_group = entry.group;
        entry.group = group;
        entry.pending = request.demand;
        entry.demand = request.demand;
        entry.total_remaining = request.total_remaining;
        entry.active = true;
        entry.submit_time = now;
        entry.tier = if tiers > 1 {
            self.stats.considered += 1;
            if entry.profiler.is_ready(MIN_PROFILE_SAMPLES) {
                self.stats.cost_ratio_sum += entry.profiler.cost_ratio().unwrap_or(0.0);
            } else {
                self.stats.not_ready += 1;
            }
            let tier = decide_tier(&mut entry.profiler, tiers, u, MIN_PROFILE_SAMPLES);
            if tier.is_some() {
                self.stats.fired += 1;
            }
            tier
        } else {
            None
        };

        // Delta maintenance: membership and dirty flags.
        if !was_active {
            self.active_count += 1;
            self.members[group.index()].push(id);
        } else if old_group != group {
            self.members[old_group.index()].retain(|&s| s != id);
            self.members[group.index()].push(id);
            self.dirty[old_group.index()] = true;
        }
        self.dirty[group.index()] = true;
        if self.knob.is_enabled() {
            // M and the usage sums feed every group's keys and queue length.
            self.mark_all_dirty();
        }

        self.refresh(now);
    }

    fn withdraw(&mut self, job: JobId, now: SimTime) {
        let mut deactivated = None;
        if let Some(entry) = self.jobs.get_mut(job) {
            if entry.active {
                entry.active = false;
                entry.pending = 0;
                entry.tier = None;
                deactivated = Some(entry.group.index());
            }
        }
        if let Some(g) = deactivated {
            // A known job's id fits the table's `u32` range.
            let id = job.as_u64() as u32;
            self.active_count -= 1;
            self.members[g].retain(|&s| s != id);
            self.dirty[g] = true;
            if self.knob.is_enabled() {
                self.mark_all_dirty();
            }
        }
        // Unconditional, matching the paper's completion trigger: even a
        // no-op withdrawal refreshes the plan against current supply.
        self.refresh(now);
    }

    fn add_demand(&mut self, job: JobId, count: u32, _now: SimTime) {
        if let Some(entry) = self.jobs.get_mut(job) {
            if entry.active {
                let key_before = entry.remaining_key();
                entry.pending = entry.pending.saturating_add(count);
                if entry.remaining_key() != key_before {
                    self.dirty[entry.group.index()] = true;
                }
            }
        }
    }

    fn on_check_in(&mut self, device: &DeviceInfo, now: SimTime) {
        self.supply.record(now, device.capacity());
    }

    fn assign(&mut self, device: &DeviceInfo, now: SimTime) -> Option<JobId> {
        if now.saturating_sub(self.last_rebuild) > REBUILD_INTERVAL_MS {
            self.refresh(now);
        }
        let mask = self.supply.mask_of(device.capacity());
        if mask == 0 {
            return None;
        }
        if self.config.use_irs {
            // Owner first, then remaining eligible groups scarcest-first —
            // `offer_order`, walked in place. The owner's bit is re-checked:
            // a stale plan may name a group the device is ineligible for.
            let owner = self.plan.owner_of(mask);
            if let Some(g) = owner {
                if mask & (1u128 << g) != 0 {
                    if let Some(id) = self.assign_from_group(g, device) {
                        return Some(id);
                    }
                }
            }
            for i in 0..self.plan.fallback_order.len() {
                let g = self.plan.fallback_order[i];
                if Some(g) == owner || mask & (1u128 << g) == 0 {
                    continue;
                }
                if let Some(id) = self.assign_from_group(g, device) {
                    return Some(id);
                }
            }
            None
        } else {
            // FIFO arm: the earliest assignable head among the eligible
            // groups. A group's scan stops at its first taker or at a
            // job no earlier than the best head so far. No dirty flag is
            // set: arrival order does not move with pending demand.
            let mut best: Option<(SimTime, u32)> = None;
            let mut groups = mask;
            while groups != 0 {
                let g = groups.trailing_zeros() as usize;
                groups &= groups - 1;
                for &id in &self.group_order[g] {
                    let entry = self.jobs.get(id.into()).expect("ordered job is known");
                    let key = (entry.submit_time, id);
                    if best.is_some_and(|b| key >= b) {
                        break;
                    }
                    if entry.takes(device) {
                        best = Some(key);
                        break;
                    }
                }
            }
            let (_, id) = best?;
            Self::try_assign_job(&mut self.jobs, id, device);
            Some(id.into())
        }
    }

    fn on_response(&mut self, job: JobId, device: &DeviceInfo, response_ms: u64, _now: SimTime) {
        if let Some(entry) = self.jobs.get_mut(job) {
            entry.profiler.record_response(device.score(), response_ms);
        }
    }

    fn on_alloc_complete(&mut self, job: JobId, delay_ms: u64, _now: SimTime) {
        if let Some(entry) = self.jobs.get_mut(job) {
            entry.profiler.record_sched_delay(delay_ms);
            entry.allocs_done += 1;
            if self.knob.is_enabled() {
                // Progress moves the job's fairness usage, which shifts its
                // adjusted demand and the group's queue length.
                self.dirty[entry.group.index()] = true;
            }
        }
    }

    fn pending_demand(&self, job: JobId) -> Option<u32> {
        self.jobs.get(job).filter(|e| e.active).map(|e| e.pending)
    }

    fn has_open_demand(&self) -> bool {
        self.active_count > 0
    }

    fn observes_check_ins(&self) -> bool {
        // Check-ins feed the supply estimator; gated check-ins must be
        // replayed or the IRS plan's rates (and thus assignments) drift.
        true
    }

    fn replay_check_ins(&mut self, batch: &[CheckInRecord]) {
        // Same state transition as `on_check_in` per record, minus the
        // per-record virtual dispatch: suppressed check-ins only touch the
        // supply estimator, so a whole gated window folds into one tight
        // loop over the ring.
        self.supply.record_batch(batch);
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        // The name doubles as an arm fingerprint: it encodes
        // (use_irs, tiers > 1), so a snapshot loaded into a
        // differently-ablated scheduler fails cleanly instead of drifting.
        // The active count is derived on load.
        w.str(self.name);
        self.supply.encode(w);
        self.jobs.encode(w);
        self.plan.encode(w);
        for lists in [&self.members, &self.group_order] {
            w.seq(lists, |w, ids| w.seq(ids, |w, &id| w.u32(id)));
        }
        w.seq(&self.queue_len, |w, &q| w.f64(q));
        w.seq(&self.dirty, |w, &d| w.bool(d));
        w.u64(self.last_rebuild);
        self.rng.encode(w);
        w.u64(self.stats.considered);
        w.u64(self.stats.fired);
        w.u64(self.stats.not_ready);
        w.f64(self.stats.cost_ratio_sum);
        Ok(())
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let name = r.str()?;
        if name != self.name {
            return Err(SnapError::Corrupt(format!(
                "scheduler mismatch: snapshot is {name:?}, this scheduler is {:?}",
                self.name
            )));
        }
        self.supply = SupplyEstimator::decode(r)?;
        self.jobs = PerJob::decode(r)?;
        self.plan = AllocationPlan::decode(r)?;
        self.members = r.seq(|r| r.seq(|r| r.u32()))?;
        self.group_order = r.seq(|r| r.seq(|r| r.u32()))?;
        self.queue_len = r.seq(|r| r.f64())?;
        self.dirty = r.seq(|r| r.bool())?;
        self.last_rebuild = r.u64()?;
        self.rng = StdRng::decode(r)?;
        self.stats = MatchingStats {
            considered: r.u64()?,
            fired: r.u64()?,
            not_ready: r.u64()?,
            cost_ratio_sum: r.f64()?,
        };
        // The supply window is the paper's 24 h, every group is a
        // registered spec, every ordered id a job, and the members hold
        // each active job once, in its group, so crafted bytes fail here
        // instead of in a later index.
        let groups = self.supply.specs().len();
        let corrupt = |what: &str| Err(SnapError::Corrupt(format!("venn {what}")));
        if self.supply.window_ms() != DAY_MS {
            return corrupt("supply window is not 24 h");
        }
        if self.members.len() != groups
            || self.group_order.len() != groups
            || self.queue_len.len() != groups
            || self.dirty.len() != groups
        {
            return corrupt("per-group table size mismatch");
        }
        if self.jobs.iter().any(|(_, e)| e.group.index() >= groups) {
            return corrupt("job group is not a registered spec");
        }
        let jobs = &self.jobs;
        if self
            .group_order
            .iter()
            .flatten()
            .any(|&id| jobs.get(id.into()).is_none())
        {
            return corrupt("job id does not resolve");
        }
        let active = jobs.iter().filter(|(_, e)| e.active).count();
        let mut listed = vec![false; jobs.iter().last().map_or(0, |(id, _)| id as usize + 1)];
        for (g, ids) in self.members.iter().enumerate() {
            for &id in ids {
                let member = jobs
                    .get(id.into())
                    .is_some_and(|e| e.active && e.group.index() == g);
                if !member || std::mem::replace(&mut listed[id as usize], true) {
                    return corrupt("group members are not exactly the active jobs");
                }
            }
        }
        if self.members.iter().map(Vec::len).sum::<usize>() != active {
            return corrupt("group members are not exactly the active jobs");
        }
        self.active_count = active;
        if !self.config.use_irs {
            // The FIFO key is total, so the rebuilt orders equal the live
            // ones; a checkpoint written before the FIFO arm served from
            // group orders holds them empty. The dirty flags stay as
            // stored.
            for g in 0..groups {
                self.rebuild_group_order(g, self.active_count.max(1));
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capacity, DeviceId};

    fn dev(id: u64, cpu: f64, mem: f64) -> DeviceInfo {
        DeviceInfo::new(DeviceId::new(id), Capacity::new(cpu, mem))
    }

    /// The "Venn w/o sched" arm: arrival order, tier matching on.
    fn matching_only() -> VennConfig {
        VennConfig {
            use_irs: false,
            ..VennConfig::default()
        }
    }

    /// The "Venn w/o match" arm: IRS, one tier.
    fn scheduling_only() -> VennConfig {
        VennConfig {
            tiers: 1,
            ..VennConfig::default()
        }
    }

    fn feed_supply(s: &mut VennScheduler, now: SimTime) {
        // Mixed population: 3 low-end for each high-end device.
        for i in 0..40 {
            let (cpu, mem) = if i % 4 == 0 { (0.9, 0.9) } else { (0.2, 0.2) };
            s.on_check_in(&dev(1000 + i, cpu, mem), now);
        }
    }

    #[test]
    fn assigns_eligible_job_only() {
        let mut s = VennScheduler::new(VennConfig::default());
        s.submit(
            Request::new(JobId::new(1), ResourceSpec::new(0.5, 0.5), 2, 2),
            0,
        );
        let weak = dev(1, 0.1, 0.1);
        assert_eq!(s.assign(&weak, 1), None);
        let strong = dev(2, 0.9, 0.9);
        assert_eq!(s.assign(&strong, 1), Some(JobId::new(1)));
        assert_eq!(s.pending_demand(JobId::new(1)), Some(1));
    }

    #[test]
    fn scarce_spec_job_wins_contended_device() {
        let mut s = VennScheduler::new(VennConfig::default());
        feed_supply(&mut s, 0);
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 5, 5), 1);
        s.submit(
            Request::new(JobId::new(2), ResourceSpec::new(0.5, 0.5), 5, 5),
            1,
        );
        // High-end device is claimed by the high-perf job...
        assert_eq!(s.assign(&dev(1, 0.9, 0.9), 2), Some(JobId::new(2)));
        // ...while a low-end device can only serve the general job.
        assert_eq!(s.assign(&dev(2, 0.1, 0.1), 2), Some(JobId::new(1)));
    }

    #[test]
    fn smaller_demand_served_first_within_group() {
        let mut s = VennScheduler::new(VennConfig::default());
        feed_supply(&mut s, 0);
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 10, 10), 0);
        s.submit(Request::new(JobId::new(2), ResourceSpec::any(), 2, 2), 0);
        // Job 2 (smaller remaining demand) gets devices first.
        assert_eq!(s.assign(&dev(1, 0.5, 0.5), 1), Some(JobId::new(2)));
        assert_eq!(s.assign(&dev(2, 0.5, 0.5), 1), Some(JobId::new(2)));
        assert_eq!(s.assign(&dev(3, 0.5, 0.5), 1), Some(JobId::new(1)));
    }

    #[test]
    fn fallback_serves_other_groups_when_owner_idle() {
        let mut s = VennScheduler::new(VennConfig::default());
        feed_supply(&mut s, 0);
        // Only a general job is active; high-end devices must still be used.
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 2, 2), 0);
        s.submit(
            Request::new(JobId::new(2), ResourceSpec::new(0.5, 0.5), 1, 1),
            0,
        );
        s.withdraw(JobId::new(2), 1); // high-perf group now empty
        assert_eq!(s.assign(&dev(1, 0.9, 0.9), 2), Some(JobId::new(1)));
    }

    #[test]
    fn withdraw_stops_assignment() {
        let mut s = VennScheduler::new(VennConfig::default());
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 5, 5), 0);
        s.withdraw(JobId::new(1), 10);
        assert_eq!(s.assign(&dev(1, 0.5, 0.5), 11), None);
        assert_eq!(s.pending_demand(JobId::new(1)), None);
    }

    #[test]
    fn add_demand_restores_capacity() {
        let mut s = VennScheduler::new(VennConfig::default());
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 1, 1), 0);
        assert_eq!(s.assign(&dev(1, 0.5, 0.5), 1), Some(JobId::new(1)));
        assert_eq!(s.assign(&dev(2, 0.5, 0.5), 1), None);
        s.add_demand(JobId::new(1), 1, 2);
        assert_eq!(s.assign(&dev(3, 0.5, 0.5), 2), Some(JobId::new(1)));
    }

    #[test]
    fn fifo_mode_serves_in_arrival_order() {
        let mut s = VennScheduler::new(matching_only());
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 10, 10), 0);
        s.submit(Request::new(JobId::new(2), ResourceSpec::any(), 1, 1), 5);
        // FIFO ignores remaining demand: job 1 first.
        assert_eq!(s.assign(&dev(1, 0.5, 0.5), 6), Some(JobId::new(1)));
    }

    #[test]
    fn unknown_job_operations_are_harmless() {
        let mut s = VennScheduler::new(VennConfig::default());
        s.withdraw(JobId::new(99), 0);
        s.add_demand(JobId::new(99), 3, 0);
        s.on_response(JobId::new(99), &dev(1, 0.5, 0.5), 100, 100);
        assert_eq!(s.pending_demand(JobId::new(99)), None);
    }

    #[test]
    fn resubmission_reuses_job_entry() {
        let mut s = VennScheduler::new(VennConfig::default());
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 2, 4), 0);
        s.withdraw(JobId::new(1), 100);
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 2, 2), 100);
        assert_eq!(s.pending_demand(JobId::new(1)), Some(2));
        assert_eq!(s.active_jobs(), 1);
    }

    #[test]
    fn fairness_promotes_underserved_large_job() {
        let mut s = VennScheduler::new(VennConfig {
            tiers: 1,
            ..VennConfig::with_fairness(2.0)
        });
        feed_supply(&mut s, 0);
        // Large job that has received no service vs small job that has
        // already consumed far beyond its fair share.
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 50, 50), 0);
        s.submit(Request::new(JobId::new(2), ResourceSpec::any(), 2, 2), 0);
        // Simulate job 2 having already been served a full round while the
        // large job received nothing.
        s.on_alloc_complete(JobId::new(2), 1_000, 50_000);
        s.withdraw(JobId::new(2), 50_000);
        s.submit(
            Request::new(JobId::new(2), ResourceSpec::any(), 2, 2),
            50_000,
        );
        // Under SRJF job 2 would win; with ε=2 and its fair share consumed
        // it must yield to the untouched large job.
        assert_eq!(s.assign(&dev(1, 0.5, 0.5), 50_001), Some(JobId::new(1)));
    }

    #[test]
    fn name_reflects_ablation() {
        assert_eq!(VennScheduler::new(VennConfig::default()).name(), "venn");
        assert_eq!(
            VennScheduler::new(scheduling_only()).name(),
            "venn-wo-match"
        );
        assert_eq!(VennScheduler::new(matching_only()).name(), "venn-wo-sched");
        let disabled = VennConfig {
            tiers: 1,
            ..matching_only()
        };
        assert_eq!(VennScheduler::new(disabled).name(), "venn-disabled");
    }

    #[test]
    fn fifo_arm_repositions_on_resubmission() {
        let mut s = VennScheduler::new(matching_only());
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 3, 3), 0);
        s.submit(Request::new(JobId::new(2), ResourceSpec::any(), 3, 3), 5);
        s.withdraw(JobId::new(1), 10);
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 3, 3), 10);
        // Job 1 re-arrived after job 2: FIFO now serves job 2 first.
        assert_eq!(s.assign(&dev(1, 0.5, 0.5), 11), Some(JobId::new(2)));
    }

    /// The reference for the FIFO arm: one global scan of the active jobs
    /// by `(submit_time, id)`, taking the first one whose group the device
    /// is eligible for, with pending demand and the device inside its tier.
    fn global_fifo_pick(s: &VennScheduler, device: &DeviceInfo) -> Option<JobId> {
        let mut active: Vec<(SimTime, u32)> = (s.jobs.iter())
            .filter(|(_, e)| e.active)
            .map(|(id, e)| (e.submit_time, id))
            .collect();
        active.sort_unstable();
        let score = device.score();
        active.into_iter().map(|(_, id)| id).find_map(|id| {
            let e = s.jobs.get(id.into()).unwrap();
            let eligible = s.supply.specs()[e.group.index()].is_eligible(device.capacity());
            let in_tier = e.tier.map_or(true, |(lo, hi)| lo <= score && score < hi);
            (eligible && e.pending > 0 && in_tier).then_some(id.into())
        })
    }

    /// One random churn step at `t`: a submission (a resubmission lands in
    /// a random group), a withdrawal, returned demand, a response, a
    /// completed allocation, or — most often — a check-in, whose device
    /// is returned for the caller to assign.
    fn churn_step(s: &mut VennScheduler, rng: &mut StdRng, t: SimTime) -> Option<DeviceInfo> {
        let specs = [
            ResourceSpec::any(),
            ResourceSpec::new(0.5, 0.5),
            ResourceSpec::new(0.5, 0.0),
            ResourceSpec::new(0.0, 0.7),
        ];
        let job = JobId::new(rng.gen_range(0..12));
        let d = dev(
            rng.gen_range(0..500),
            rng.gen_range(0..10) as f64 / 10.0,
            rng.gen_range(0..10) as f64 / 10.0,
        );
        match rng.gen_range(0..100) {
            0..=5 => {
                let spec = specs[rng.gen_range(0..specs.len())];
                let demand: u32 = rng.gen_range(1..6);
                s.submit(Request::new(job, spec, demand, u64::from(demand) * 4), t);
            }
            6..=9 => s.withdraw(job, t),
            10..=14 => s.add_demand(job, rng.gen_range(1..4), t),
            // Fast responses from high-score devices and short allocation
            // delays make tiering pay, so the 3-tier runs restrict jobs.
            15..=34 => {
                let ms = 1_000 + ((1.0 - d.score()).max(0.0) * 100_000.0) as u64;
                s.on_response(job, &d, ms, t);
            }
            35..=39 => s.on_alloc_complete(job, rng.gen_range(0..2_000), t),
            _ => {
                s.on_check_in(&d, t);
                return Some(d);
            }
        }
        None
    }

    /// Every FIFO-arm assignment under random churn is the global scan's
    /// pick, with and without tiers and fairness.
    #[test]
    fn fifo_arm_assigns_the_global_scan_pick() {
        for (tiers, epsilon) in [(1, 0.0), (1, 2.0), (3, 0.0), (3, 2.0)] {
            let mut s = VennScheduler::new(VennConfig {
                tiers,
                epsilon,
                ..matching_only()
            });
            let mut rng = StdRng::seed_from_u64(tiers as u64 * 31 + epsilon as u64);
            let (mut t, mut picks): (SimTime, usize) = (0, 0);
            for step in 0..6_000 {
                t += rng.gen_range(0..20_000u64);
                if let Some(d) = churn_step(&mut s, &mut rng, t) {
                    let want = global_fifo_pick(&s, &d);
                    picks += usize::from(want.is_some());
                    assert_eq!(
                        s.assign(&d, t),
                        want,
                        "tiers {tiers} eps {epsilon} step {step}"
                    );
                }
            }
            assert!(picks > 500, "tiers {tiers} eps {epsilon}: {picks} picks");
            if tiers > 1 {
                assert!(
                    s.stats.fired > 0,
                    "tiers {tiers} eps {epsilon}: no tier set"
                );
            }
        }
    }

    /// A FIFO-arm state saved before the arm served from group orders
    /// holds them empty, with every dirty flag clear. It loads, rebuilds
    /// the orders the live scheduler holds, and assigns as it does.
    #[test]
    fn a_fifo_state_with_empty_group_orders_resumes_like_the_live_one() {
        let mut s = VennScheduler::new(matching_only());
        let mut rng = StdRng::seed_from_u64(7);
        let mut t: SimTime = 0;
        for _ in 0..2_000 {
            t += rng.gen_range(0..20_000u64);
            if let Some(d) = churn_step(&mut s, &mut rng, t) {
                s.assign(&d, t);
            }
        }
        let groups = s.group_order.len();
        let orders = std::mem::replace(&mut s.group_order, vec![Vec::new(); groups]);
        let dirty = std::mem::replace(&mut s.dirty, vec![false; groups]);
        let mut w = SnapWriter::new();
        s.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        (s.group_order, s.dirty) = (orders, dirty);
        assert!(
            s.group_order.iter().any(|o| o.len() > 1),
            "orders to rebuild"
        );

        let mut restored = VennScheduler::new(matching_only());
        restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(restored.group_order, s.group_order);
        let mut rng2 = rng.clone();
        for step in 0..2_000 {
            t += rng.gen_range(0..20_000u64);
            rng2.gen_range(0..20_000u64);
            let live = churn_step(&mut s, &mut rng, t);
            let resumed = churn_step(&mut restored, &mut rng2, t);
            if let (Some(d), Some(_)) = (live, resumed) {
                assert_eq!(s.assign(&d, t), restored.assign(&d, t), "step {step}");
            }
        }
    }

    /// Drives churn (submissions, check-ins, assignments, demand returns,
    /// completions, withdrawals, timer refreshes) through one scheduler.
    /// Every trigger runs the debug freshness check, so in a debug build
    /// each refresh compares the delta-maintained orders against a
    /// from-scratch rebuild at that trigger.
    fn assert_churn_parity(base: VennConfig) {
        let mut s = VennScheduler::new(base);
        let spec_of = |j: u64| match j % 3 {
            0 => ResourceSpec::any(),
            1 => ResourceSpec::new(0.5, 0.5),
            _ => ResourceSpec::new(0.5, 0.0),
        };
        let mut t = 0u64;
        let mut assigned = 0;
        for round in 0..4u64 {
            feed_supply(&mut s, t);
            for j in 0..8u64 {
                s.submit(
                    Request::new(JobId::new(j), spec_of(j), 2 + (j % 3) as u32, 4 + j),
                    t,
                );
            }
            for i in 0..150u64 {
                // 7-second steps cross the 60 s periodic-refresh interval
                // many times per round.
                t += 7_000;
                let cpu = ((i * 13) % 10) as f64 / 10.0;
                let mem = ((i * 7) % 10) as f64 / 10.0;
                let d = dev(10_000 + i, cpu, mem);
                s.on_check_in(&d, t);
                if let Some(job) = s.assign(&d, t) {
                    assigned += 1;
                    if i % 3 == 0 {
                        s.add_demand(job, 1, t);
                    }
                    if i % 5 == 0 {
                        s.on_response(job, &d, 1_000 + i, t);
                    }
                    if i % 11 == 0 {
                        s.on_alloc_complete(job, i, t);
                    }
                }
            }
            for j in 0..8u64 {
                if j % 2 == round % 2 {
                    s.withdraw(JobId::new(j), t);
                }
            }
        }
        // One more trigger checks the state the last withdrawals left.
        s.refresh(t);
        assert!(assigned > 0, "the churn must exercise assignment");
    }

    #[test]
    fn incremental_matches_full_rebuild_default() {
        assert_churn_parity(VennConfig::default());
    }

    #[test]
    fn incremental_matches_full_rebuild_with_fairness() {
        assert_churn_parity(VennConfig::with_fairness(2.0));
    }

    #[test]
    fn incremental_matches_full_rebuild_fifo_arm() {
        assert_churn_parity(matching_only());
    }

    #[test]
    fn incremental_matches_full_rebuild_irs_only_arm() {
        assert_churn_parity(scheduling_only());
    }

    #[test]
    fn incremental_matches_full_rebuild_without_steal() {
        assert_churn_parity(VennConfig {
            use_steal: false,
            ..VennConfig::default()
        });
    }

    #[test]
    fn snapshot_round_trip_continues_bit_identically() {
        for base in [
            VennConfig::default(),
            VennConfig::with_fairness(2.0),
            matching_only(),
        ] {
            let mut s = VennScheduler::new(base);
            feed_supply(&mut s, 0);
            for j in 0..6u64 {
                let spec = if j % 2 == 0 {
                    ResourceSpec::any()
                } else {
                    ResourceSpec::new(0.5, 0.5)
                };
                s.submit(Request::new(JobId::new(j), spec, 2, 6), j * 100);
            }
            for i in 0..40u64 {
                let d = dev(
                    100 + i,
                    (i % 10) as f64 / 10.0,
                    ((i * 3) % 10) as f64 / 10.0,
                );
                s.on_check_in(&d, 1_000 + i * 500);
                if let Some(job) = s.assign(&d, 1_000 + i * 500) {
                    s.on_response(job, &d, 2_000, 1_000 + i * 500);
                }
            }

            let mut w = SnapWriter::new();
            s.save_state(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut restored = VennScheduler::new(base);
            let mut r = SnapReader::new(&bytes);
            restored.load_state(&mut r).unwrap();
            r.finish().unwrap();

            // Identical continuation: every decision matches from here on.
            for i in 0..80u64 {
                let t = 30_000 + i * 700;
                let d = dev(
                    500 + i,
                    ((i * 7) % 10) as f64 / 10.0,
                    (i % 10) as f64 / 10.0,
                );
                s.on_check_in(&d, t);
                restored.on_check_in(&d, t);
                assert_eq!(s.assign(&d, t), restored.assign(&d, t), "step {i}");
                if i % 9 == 0 {
                    let j = JobId::new(i % 6);
                    s.withdraw(j, t);
                    restored.withdraw(j, t);
                    s.submit(Request::new(j, ResourceSpec::any(), 2, 4), t);
                    restored.submit(Request::new(j, ResourceSpec::any(), 2, 4), t);
                }
            }
            assert_eq!(s.matching_stats(), restored.matching_stats());
        }
    }

    #[test]
    fn snapshot_rejects_wrong_scheduler_arm() {
        let s = VennScheduler::new(VennConfig::default());
        let mut w = SnapWriter::new();
        s.save_state(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut other = VennScheduler::new(matching_only());
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            other.load_state(&mut r),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn load_state_refuses_groups_and_slots_that_do_not_resolve() {
        let tampered = |tamper: &dyn Fn(&mut VennScheduler)| {
            let mut s = VennScheduler::new(matching_only());
            s.submit(Request::new(JobId::new(0), ResourceSpec::any(), 2, 2), 0);
            s.submit(
                Request::new(JobId::new(1), ResourceSpec::new(0.5, 0.5), 2, 2),
                0,
            );
            tamper(&mut s);
            let mut w = SnapWriter::new();
            s.save_state(&mut w).unwrap();
            let bytes = w.into_bytes();
            VennScheduler::new(matching_only()).load_state(&mut SnapReader::new(&bytes))
        };
        assert!(tampered(&|_| {}).is_ok());
        let refused = |tamper: &dyn Fn(&mut VennScheduler), why: &str| match tampered(tamper) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("expected a corrupt `{why}`, got {other:?}"),
        };
        refused(
            &|s| s.jobs.get_mut(JobId::new(1)).unwrap().group = GroupId::new(2),
            "not a registered spec",
        );
        // Id 99 is beyond the table; id 2 is vacant once job 3 is known.
        let with_vacant_2 = |s: &mut VennScheduler| {
            s.submit(Request::new(JobId::new(3), ResourceSpec::any(), 1, 1), 1);
            s.withdraw(JobId::new(3), 1);
        };
        refused(&|s| s.group_order[1].push(99), "does not resolve");
        refused(
            &|s| {
                with_vacant_2(s);
                s.group_order[0].push(2);
            },
            "does not resolve",
        );
        let not_members = "members are not exactly the active jobs";
        refused(&|s| s.members[0].push(99), not_members);
        refused(
            &|s| {
                with_vacant_2(s);
                s.members[0].push(2);
            },
            not_members,
        );
        refused(&|s| s.members[0].push(0), not_members); // listed twice
        refused(&|s| s.members[1].push(0), not_members); // in the wrong group
        refused(&|s| s.members[0].clear(), not_members); // active, not listed
        refused(
            &|s| {
                with_vacant_2(s);
                s.members[0].push(3); // withdrawn
            },
            not_members,
        );
        refused(&|s| s.dirty.push(false), "size mismatch");
        // A checkpoint's window no longer replaces the scheduler's own.
        refused(
            &|s| s.supply = SupplyEstimator::new(600_000),
            "supply window is not 24 h",
        );
    }

    /// The batched replay the simulator's demand gating depends on must be
    /// the per-record calls, bit for bit — across more than the 24 h
    /// window, so old supply records expire, with jobs queued so the
    /// state the estimator feeds is live.
    #[test]
    fn replay_check_ins_leaves_the_state_per_record_calls_leave() {
        let saved = |batched: bool| {
            let mut s = VennScheduler::new(VennConfig::default());
            s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 5, 5), 0);
            s.submit(
                Request::new(JobId::new(2), ResourceSpec::new(0.5, 0.5), 5, 5),
                0,
            );
            s.withdraw(JobId::new(1), 1);
            s.withdraw(JobId::new(2), 1);
            let batch: Vec<CheckInRecord> = (0..500u64)
                .map(|i| CheckInRecord {
                    time: 2 + i * 200_000,
                    device: dev(i % 37, ((i * 7) % 10) as f64 / 10.0, (i % 10) as f64 / 10.0),
                })
                .collect();
            if batched {
                // As the simulator flushes: several batches, uneven sizes.
                for chunk in batch.chunks(193) {
                    s.replay_check_ins(chunk);
                }
            } else {
                for r in &batch {
                    s.on_check_in(&r.device, r.time);
                }
            }
            let mut w = SnapWriter::new();
            s.save_state(&mut w).unwrap();
            w.into_bytes()
        };
        assert_eq!(saved(true), saved(false));
    }

    /// The active count is not stored, and the FIFO arm's group orders
    /// are rebuilt: a restored scheduler derives them, so withdrawing
    /// every job after a resume counts down to zero exactly as the live
    /// scheduler does.
    #[test]
    fn load_state_derives_the_active_count_and_group_orders() {
        for base in [VennConfig::default(), matching_only()] {
            let mut s = VennScheduler::new(base);
            for j in 0..5u64 {
                s.submit(
                    Request::new(JobId::new(j), ResourceSpec::any(), 2, 2),
                    10 - j,
                );
            }
            s.withdraw(JobId::new(1), 20);
            let mut w = SnapWriter::new();
            s.save_state(&mut w).unwrap();
            let bytes = w.into_bytes();
            let mut restored = VennScheduler::new(base);
            restored.load_state(&mut SnapReader::new(&bytes)).unwrap();
            assert_eq!(restored.group_order, s.group_order);
            assert_eq!(restored.active_jobs(), 4);
            for j in 0..5u64 {
                for x in [&mut s, &mut restored] {
                    x.withdraw(JobId::new(j), 30);
                }
                assert_eq!(restored.active_jobs(), s.active_jobs(), "after job {j}");
            }
            assert_eq!(restored.active_jobs(), 0);
            assert!(!restored.has_open_demand());
        }
    }

    #[test]
    fn group_count_tracks_distinct_specs() {
        let mut s = VennScheduler::new(VennConfig::default());
        s.submit(Request::new(JobId::new(1), ResourceSpec::any(), 1, 1), 0);
        s.submit(Request::new(JobId::new(2), ResourceSpec::any(), 1, 1), 0);
        s.submit(
            Request::new(JobId::new(3), ResourceSpec::new(0.5, 0.0), 1, 1),
            0,
        );
        assert_eq!(s.members.len(), 2);
        assert_eq!(s.active_jobs(), 3);
    }
}
