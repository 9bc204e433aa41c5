//! Resource-aware tier-based device-to-job matching — the paper's
//! Algorithm 2.
//!
//! Response collection time is set by the *slowest* of a round's
//! participants, so mixing fast and slow devices wastes the fast ones.
//! Venn therefore partitions a served job's eligible devices into `V`
//! capacity tiers, picks one tier in a rotating random fashion (diversity!),
//! and restricts the job to that tier **only when the projected JCT
//! improves**:
//!
//! ```text
//! 1 + c  >  V + c · g_u        (paper §4.3, Fig. 7)
//! ```
//!
//! where `c = t_response / t_schedule` is the job's response-to-scheduling
//! cost ratio and `g_u ≤ 1` the tier's p95 response-time speed-up. Tiering
//! multiplies scheduling delay by up to `V` (only `1/V` of the supply
//! remains eligible) while scaling response time by `g_u`; the inequality
//! triggers exactly when that trade wins.
//!
//! [`TierProfiler`] accumulates the per-job observations (participant
//! capacity scores, response times, scheduling delays) the decision needs;
//! the paper's Venn likewise profiles a job's earlier rounds before tiering
//! it.

use crate::snapshot::{SnapError, SnapReader, SnapWriter, Snapshot};

/// Per-job profile of participant capacities and response behaviour.
///
/// Sample buffers are bounded (ring semantics) so long-running jobs adapt to
/// drift and memory stays constant.
#[derive(Debug, Clone)]
pub struct TierProfiler {
    scores: Vec<f64>,
    responses: Vec<(f64, f64)>, // (capacity score, response ms)
    sched_delays: Vec<f64>,
    cap: usize,
    cursor_scores: usize,
    cursor_resp: usize,
    cursor_delay: usize,
    /// Reused sort buffer for the percentile computations on the
    /// per-submit decision path — no allocation once warm.
    sort_scratch: Vec<f64>,
    /// Reused tier-edge buffer for [`decide_tier`].
    edges_scratch: Vec<f64>,
}

impl Default for TierProfiler {
    fn default() -> Self {
        TierProfiler::new()
    }
}

impl TierProfiler {
    /// Default bound on each sample buffer.
    pub(crate) const DEFAULT_CAPACITY: usize = 512;

    /// Creates a profiler with the default buffer capacity.
    pub fn new() -> Self {
        TierProfiler::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a profiler bounding each sample buffer at `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        assert!(cap > 0, "profiler capacity must be positive");
        // The rings are bounded at `cap` anyway; reserving them up front
        // keeps every later record/percentile strictly allocation-free
        // (the sort scratch's high-water mark is one full ring).
        TierProfiler {
            scores: Vec::with_capacity(cap),
            responses: Vec::with_capacity(cap),
            sched_delays: Vec::with_capacity(cap),
            cap,
            cursor_scores: 0,
            cursor_resp: 0,
            cursor_delay: 0,
            sort_scratch: Vec::with_capacity(cap),
            edges_scratch: Vec::new(),
        }
    }

    fn push_bounded(buf: &mut Vec<f64>, cursor: &mut usize, cap: usize, v: f64) {
        if buf.len() < cap {
            buf.push(v);
        } else {
            buf[*cursor] = v;
            *cursor = (*cursor + 1) % cap;
        }
    }

    /// Records the capacity score of a device assigned to the job.
    pub fn record_participant(&mut self, score: f64) {
        Self::push_bounded(&mut self.scores, &mut self.cursor_scores, self.cap, score);
    }

    /// Records a completed response: the device's capacity score and its
    /// response time in milliseconds.
    pub fn record_response(&mut self, score: f64, response_ms: u64) {
        if self.responses.len() < self.cap {
            self.responses.push((score, response_ms as f64));
        } else {
            self.responses[self.cursor_resp] = (score, response_ms as f64);
            self.cursor_resp = (self.cursor_resp + 1) % self.cap;
        }
    }

    /// Records the scheduling delay of one fully allocated request.
    pub fn record_sched_delay(&mut self, delay_ms: u64) {
        Self::push_bounded(
            &mut self.sched_delays,
            &mut self.cursor_delay,
            self.cap,
            delay_ms as f64,
        );
    }

    /// Whether enough history exists to drive a tier decision.
    pub(crate) fn is_ready(&self, min_samples: usize) -> bool {
        self.responses.len() >= min_samples && !self.sched_delays.is_empty()
    }

    /// Capacity-score tier edges for `v` tiers: `v + 1` edges where edge 0
    /// is `-inf` and edge `v` is `+inf`, interior edges at score quantiles.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0`.
    pub fn tier_edges(&self, v: usize) -> Vec<f64> {
        let mut edges = Vec::new();
        Self::fill_tier_edges(&mut edges, &mut Vec::new(), &self.scores, v);
        edges
    }

    /// The one edge computation both the allocating [`tier_edges`] and the
    /// scratch-backed decision path run; `sort` is the score sort buffer.
    ///
    /// [`tier_edges`]: Self::tier_edges
    fn fill_tier_edges(edges: &mut Vec<f64>, sort: &mut Vec<f64>, scores: &[f64], v: usize) {
        assert!(v > 0, "tier count must be positive");
        edges.clear();
        edges.push(f64::NEG_INFINITY);
        if v > 1 && !scores.is_empty() {
            sort.clear();
            sort.extend_from_slice(scores);
            sort.sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-finite score"));
            for i in 1..v {
                let rank = (i as f64 / v as f64 * (sort.len() - 1) as f64).round() as usize;
                edges.push(sort[rank]);
            }
        } else {
            // No data yet: degenerate interior edges collapse to one tier.
            for _ in 1..v {
                edges.push(f64::NEG_INFINITY);
            }
        }
        edges.push(f64::INFINITY);
    }

    /// p95 over `values`, sorting inside `scratch` (capacity reused). The
    /// unstable sort matches the old stable one bit for bit: only the
    /// values themselves are ordered, so equal elements are
    /// interchangeable.
    fn p95_into(scratch: &mut Vec<f64>, values: impl Iterator<Item = f64>) -> Option<f64> {
        scratch.clear();
        scratch.extend(values);
        if scratch.is_empty() {
            return None;
        }
        scratch.sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
        let rank = ((scratch.len() - 1) as f64 * 0.95).round() as usize;
        Some(scratch[rank])
    }

    /// Response-time speed-up factor `g_u = t_u / t_0` of tier `u` under a
    /// `v`-tier partition: the tier's p95 response time relative to the
    /// untired p95 (the paper uses p95 as the statistical tail excluding
    /// failures and stragglers).
    ///
    /// Returns `1.0` when the tier has no samples (no evidence of benefit).
    pub fn speedup(&self, v: usize, u: usize) -> f64 {
        assert!(u < v, "tier index out of range");
        self.speedup_with_edges(&self.tier_edges(v), u)
    }

    /// [`speedup`](Self::speedup) against precomputed
    /// [`tier_edges`](Self::tier_edges) — lets one decision share a single
    /// score sort.
    ///
    /// # Panics
    ///
    /// Panics if `u + 1` is not a valid edge index.
    pub(crate) fn speedup_with_edges(&self, edges: &[f64], u: usize) -> f64 {
        Self::speedup_over_edges(&self.responses, &mut Vec::new(), edges, u)
    }

    /// The one speed-up computation both the public [`speedup_with_edges`]
    /// and the scratch-backed decision path run.
    ///
    /// [`speedup_with_edges`]: Self::speedup_with_edges
    fn speedup_over_edges(
        responses: &[(f64, f64)],
        scratch: &mut Vec<f64>,
        edges: &[f64],
        u: usize,
    ) -> f64 {
        assert!(u + 1 < edges.len(), "tier index out of range");
        let overall = match Self::p95_into(scratch, responses.iter().map(|r| r.1)) {
            Some(t0) if t0 > 0.0 => t0,
            _ => return 1.0,
        };
        let (lo, hi) = (edges[u], edges[u + 1]);
        let tier = Self::p95_into(
            scratch,
            responses
                .iter()
                .filter(|(s, _)| *s >= lo && *s < hi)
                .map(|r| r.1),
        );
        match tier {
            Some(t) => t / overall,
            None => 1.0,
        }
    }

    /// Fills the reused edge buffer with the same content
    /// [`tier_edges`](Self::tier_edges) returns, allocation-free.
    fn tier_edges_scratch(&mut self, v: usize) {
        Self::fill_tier_edges(
            &mut self.edges_scratch,
            &mut self.sort_scratch,
            &self.scores,
            v,
        );
    }

    /// [`speedup_with_edges`](Self::speedup_with_edges) against the edge
    /// buffer [`tier_edges_scratch`](Self::tier_edges_scratch) filled,
    /// allocation-free.
    fn speedup_from_scratch_edges(&mut self, u: usize) -> f64 {
        Self::speedup_over_edges(
            &self.responses,
            &mut self.sort_scratch,
            &self.edges_scratch,
            u,
        )
    }

    /// The job's cost ratio `c = t_response / t_schedule` from profiled p95
    /// response time and mean scheduling delay; `None` without history.
    /// Takes `&mut self` for the reused percentile sort buffer.
    pub(crate) fn cost_ratio(&mut self) -> Option<f64> {
        let resp = Self::p95_into(&mut self.sort_scratch, self.responses.iter().map(|r| r.1))?;
        if self.sched_delays.is_empty() {
            return None;
        }
        let sched = self.sched_delays.iter().sum::<f64>() / self.sched_delays.len() as f64;
        // A job that has never waited still pays at least one scheduling
        // quantum; floor the denominator so c stays finite.
        Some(resp / sched.max(1.0))
    }
}

/// The snapshot carries the sample rings and their cursors — the learned
/// profile and its exact overwrite schedule — and restores the scratch
/// buffers empty (they are filled from scratch by every decision).
impl Snapshot for TierProfiler {
    fn encode(&self, w: &mut SnapWriter) {
        w.seq(&self.scores, |w, &s| w.f64(s));
        w.seq(&self.responses, |w, &(s, t)| {
            w.f64(s);
            w.f64(t);
        });
        w.seq(&self.sched_delays, |w, &d| w.f64(d));
        w.usize(self.cap);
        w.usize(self.cursor_scores);
        w.usize(self.cursor_resp);
        w.usize(self.cursor_delay);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let scores = r.seq(|r| r.f64())?;
        let responses = r.seq(|r| Ok((r.f64()?, r.f64()?)))?;
        let sched_delays = r.seq(|r| r.f64())?;
        let cap = r.usize()?;
        if cap == 0 {
            return Err(SnapError::Corrupt("zero profiler capacity".into()));
        }
        if scores.len() > cap || responses.len() > cap || sched_delays.len() > cap {
            return Err(SnapError::Corrupt("profiler ring exceeds capacity".into()));
        }
        let mut p = TierProfiler::with_capacity(cap);
        p.scores = scores;
        p.responses = responses;
        p.sched_delays = sched_delays;
        p.cursor_scores = r.usize()?;
        p.cursor_resp = r.usize()?;
        p.cursor_delay = r.usize()?;
        if p.cursor_scores >= cap || p.cursor_resp >= cap || p.cursor_delay >= cap {
            return Err(SnapError::Corrupt("profiler cursor out of range".into()));
        }
        Ok(p)
    }
}

/// A tier restriction: the half-open capacity-score range `[lo, hi)` a
/// served job will accept devices from.
pub(crate) type TierRange = (f64, f64);

/// Runs Algorithm 2's trigger for job with profile `profile`, `v` tiers, and
/// rotating tier pick `u` (caller supplies the randomness).
///
/// Returns the tier's score range when tier-based matching is projected to
/// reduce JCT (`V + g_u·c < 1 + c`), otherwise `None` (the job accepts any
/// eligible device).
///
/// # Panics
///
/// Panics if `v == 0` or `u >= v`.
pub fn decide_tier(
    profile: &mut TierProfiler,
    v: usize,
    u: usize,
    min_samples: usize,
) -> Option<TierRange> {
    assert!(v > 0, "tier count must be positive");
    assert!(u < v, "tier index out of range");
    if v == 1 || !profile.is_ready(min_samples) {
        return None;
    }
    let c = profile.cost_ratio()?;
    // One edge computation (one score sort) serves both the speed-up
    // estimate and the returned range; all of it runs in the profiler's
    // reused scratch, so a ready-profile decision allocates nothing.
    profile.tier_edges_scratch(v);
    let g = profile.speedup_from_scratch_edges(u);
    if (v as f64) + g * c < 1.0 + c {
        Some((profile.edges_scratch[u], profile.edges_scratch[u + 1]))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a profile where high-score devices respond 10× faster and
    /// scheduling is cheap relative to response time.
    fn fast_high_tier_profile() -> TierProfiler {
        let mut p = TierProfiler::new();
        for i in 0..100 {
            let score = i as f64 / 100.0;
            let resp = if score >= 0.5 { 1_000 } else { 60_000 };
            p.record_participant(score);
            p.record_response(score, resp);
        }
        p.record_sched_delay(1_000);
        p
    }

    #[test]
    fn edges_are_monotone_and_cover() {
        let p = fast_high_tier_profile();
        let edges = p.tier_edges(4);
        assert_eq!(edges.len(), 5);
        assert!(edges.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(edges[0], f64::NEG_INFINITY);
        assert_eq!(edges[4], f64::INFINITY);
    }

    #[test]
    fn top_tier_has_large_speedup() {
        let p = fast_high_tier_profile();
        let g_top = p.speedup(2, 1);
        let g_bottom = p.speedup(2, 0);
        assert!(g_top < 0.1, "top tier p95 should be ~1s vs 60s: {g_top}");
        assert!((g_bottom - 1.0).abs() < 0.2, "bottom tier ~= overall");
    }

    #[test]
    fn trigger_fires_when_response_dominates() {
        let mut p = fast_high_tier_profile();
        // c = 60_000 / 1_000 = 60. Top tier: g ~ 1/60. 2 + 1 < 1 + 60 → tier.
        let range = decide_tier(&mut p, 2, 1, 10).expect("should tier");
        assert!(range.0 > 0.0);
        assert_eq!(range.1, f64::INFINITY);
    }

    #[test]
    fn trigger_declines_when_scheduling_dominates() {
        let mut p = fast_high_tier_profile();
        p.record_sched_delay(10_000_000); // scheduling hugely dominant → c ~ 0
                                          // Many delays so the mean is dominated by the big one.
        let range = decide_tier(&mut p, 4, 3, 10);
        assert!(range.is_none(), "V=4 cannot pay off when c≈0");
    }

    #[test]
    fn bottom_tier_never_helps() {
        let mut p = fast_high_tier_profile();
        // Bottom tier has g≈1: V + c·g ≥ 1 + c for V>1.
        assert!(decide_tier(&mut p, 2, 0, 10).is_none());
    }

    #[test]
    fn single_tier_never_triggers() {
        let mut p = fast_high_tier_profile();
        assert!(decide_tier(&mut p, 1, 0, 10).is_none());
    }

    #[test]
    fn unready_profile_never_triggers() {
        let mut p = TierProfiler::new();
        p.record_response(0.5, 100);
        assert!(!p.is_ready(10));
        assert!(decide_tier(&mut p, 4, 3, 10).is_none());
    }

    #[test]
    fn cost_ratio_is_resp_over_sched() {
        let mut p = TierProfiler::new();
        for _ in 0..20 {
            p.record_response(0.5, 30_000);
        }
        p.record_sched_delay(10_000);
        let c = p.cost_ratio().unwrap();
        assert!((c - 3.0).abs() < 1e-9);
    }

    #[test]
    fn buffers_are_bounded() {
        let mut p = TierProfiler::with_capacity(8);
        for i in 0..100 {
            p.record_participant(i as f64);
            p.record_response(i as f64, i);
            p.record_sched_delay(i);
        }
        assert_eq!(p.responses.len(), 8);
        // Old entries overwritten: all remaining scores are recent.
        assert!(p.tier_edges(2)[1] >= 90.0);
    }

    #[test]
    fn speedup_without_samples_is_one() {
        let p = TierProfiler::new();
        assert_eq!(p.speedup(4, 2), 1.0);
    }

    #[test]
    #[should_panic(expected = "tier count must be positive")]
    fn zero_tiers_panics() {
        TierProfiler::new().tier_edges(0);
    }
}
