//! Starvation prevention — the paper's fairness knob ε (§4.4).
//!
//! Smallest-remaining-demand-first ordering can starve large jobs. Venn
//! guarantees each job a *fair-share JCT* `T_i = M · sd_i`, where `M` is the
//! number of simultaneous jobs and `sd_i` the job's JCT without contention.
//! It then scales each job's scheduling weight by how much of that fair
//! share the job has already used:
//!
//! * within a group, the effective demand becomes
//!   `d'_i = d_i · (t_i / T_i)^ε` — a job that has received little service
//!   relative to its fair share shrinks its demand and rises in the
//!   smallest-first order;
//! * across groups, the queue length becomes
//!   `q'_j = q_j · (Σ T_i / Σ t_i)^ε` — groups whose jobs are behind their
//!   fair share weigh more in the IRS steal ratio.
//!
//! `ε = 0` disables the knob (pure §4.2 behaviour); `ε → ∞` makes fairness
//! dominate.

/// Fairness control knob.
///
/// # Examples
///
/// ```
/// use venn_core::fairness::FairnessKnob;
///
/// let knob = FairnessKnob::new(1.0);
/// // A job at half of its fair share halves its effective demand.
/// let d = knob.adjusted_demand(100.0, 50.0, 100.0);
/// assert!((d - 50.0).abs() < 1e-9);
/// // ε = 0 is the identity.
/// assert_eq!(FairnessKnob::disabled().adjusted_demand(100.0, 50.0, 100.0), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessKnob {
    epsilon: f64,
}

/// Ratios are clamped to this band so a brand-new job (zero usage) or a
/// degenerate target cannot produce infinite priority swings. The band is
/// deliberately narrow: the knob should *re-rank* jobs, not erase the
/// demand signal entirely even at large ε.
const RATIO_MIN: f64 = 0.05;
const RATIO_MAX: f64 = 20.0;

impl FairnessKnob {
    /// Creates a knob with the given ε.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or non-finite.
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be finite and non-negative"
        );
        FairnessKnob { epsilon }
    }

    /// The ε = 0 knob (identical to §4.2 scheduling).
    pub fn disabled() -> Self {
        FairnessKnob { epsilon: 0.0 }
    }

    /// Whether the knob changes anything.
    pub(crate) fn is_enabled(&self) -> bool {
        self.epsilon > 0.0
    }

    fn clamped_pow(&self, ratio: f64) -> f64 {
        ratio.clamp(RATIO_MIN, RATIO_MAX).powf(self.epsilon)
    }

    /// Adjusted per-job demand `d'_i = d_i · (t_i / T_i)^ε`.
    ///
    /// `usage_ms` is the service time the job has received so far and
    /// `fair_target_ms` its fair-share JCT `T_i`. Degenerate inputs
    /// (zero/negative target) fall back to the unadjusted demand.
    pub fn adjusted_demand(&self, demand: f64, usage_ms: f64, fair_target_ms: f64) -> f64 {
        if !self.is_enabled() || fair_target_ms <= 0.0 {
            return demand;
        }
        demand * self.clamped_pow(usage_ms.max(0.0) / fair_target_ms)
    }

    /// Adjusted group queue length `q'_j = q_j · (Σ T_i / Σ t_i)^ε`.
    ///
    /// Degenerate inputs (zero totals) fall back to the unadjusted length.
    pub(crate) fn adjusted_queue_len(
        &self,
        queue_len: f64,
        sum_targets_ms: f64,
        sum_usage_ms: f64,
    ) -> f64 {
        if !self.is_enabled() || sum_targets_ms <= 0.0 || sum_usage_ms <= 0.0 {
            return queue_len;
        }
        queue_len * self.clamped_pow(sum_targets_ms / sum_usage_ms)
    }
}

impl Default for FairnessKnob {
    fn default() -> Self {
        FairnessKnob::disabled()
    }
}

/// Fair-share JCT `T_i = M · sd_i` for a job whose uncontended JCT is
/// `uncontended_jct_ms` when `concurrent_jobs` jobs share the pool.
pub fn fair_target_ms(concurrent_jobs: usize, uncontended_jct_ms: f64) -> f64 {
    concurrent_jobs.max(1) as f64 * uncontended_jct_ms.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_zero_is_identity() {
        let k = FairnessKnob::disabled();
        assert!(!k.is_enabled());
        assert_eq!(k.adjusted_demand(10.0, 5.0, 1.0), 10.0);
        assert_eq!(k.adjusted_queue_len(4.0, 100.0, 1.0), 4.0);
    }

    #[test]
    fn underserved_job_gains_priority() {
        let k = FairnessKnob::new(2.0);
        // Job received 10% of fair share → demand shrinks by 100×.
        let d = k.adjusted_demand(100.0, 10.0, 100.0);
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overserved_job_loses_priority() {
        let k = FairnessKnob::new(1.0);
        let d = k.adjusted_demand(100.0, 200.0, 100.0);
        assert!((d - 200.0).abs() < 1e-9);
    }

    #[test]
    fn higher_epsilon_is_stronger() {
        let weak = FairnessKnob::new(0.5);
        let strong = FairnessKnob::new(4.0);
        let ratio_weak = weak.adjusted_demand(1.0, 10.0, 100.0);
        let ratio_strong = strong.adjusted_demand(1.0, 10.0, 100.0);
        assert!(ratio_strong < ratio_weak);
    }

    #[test]
    fn group_behind_fair_share_weighs_more() {
        let k = FairnessKnob::new(1.0);
        // Targets total 100, usage only 20 → queue ×5.
        let q = k.adjusted_queue_len(3.0, 100.0, 20.0);
        assert!((q - 15.0).abs() < 1e-9);
    }

    #[test]
    fn ratios_are_clamped() {
        let k = FairnessKnob::new(1.0);
        // Zero usage would be ratio 0 → clamped at the band floor.
        let d = k.adjusted_demand(1.0, 0.0, 100.0);
        assert!((d - 0.05).abs() < 1e-12);
        let q = k.adjusted_queue_len(1.0, 1e12, 1.0);
        assert!((q - 20.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_targets_fall_back() {
        let k = FairnessKnob::new(1.0);
        assert_eq!(k.adjusted_demand(7.0, 10.0, 0.0), 7.0);
        assert_eq!(k.adjusted_queue_len(7.0, 0.0, 10.0), 7.0);
        assert_eq!(k.adjusted_queue_len(7.0, 10.0, 0.0), 7.0);
    }

    #[test]
    fn fair_target_scales_with_job_count() {
        assert_eq!(fair_target_ms(4, 100.0), 400.0);
        assert_eq!(fair_target_ms(0, 100.0), 100.0); // M floors at 1
        assert_eq!(fair_target_ms(2, -5.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_epsilon_panics() {
        FairnessKnob::new(-1.0);
    }
}
