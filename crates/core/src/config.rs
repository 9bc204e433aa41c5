//! Configuration of the Venn scheduler.

use crate::{SimTime, MINUTE_MS};

/// Periodic plan refresh between job arrival/completion triggers, so the
/// plan tracks diurnal supply drift (§4.2 re-plans on those triggers; the
/// interval is this implementation's choice).
pub(crate) const REBUILD_INTERVAL_MS: SimTime = MINUTE_MS;
/// Responses a job's profile needs before tier matching may restrict it
/// (§4.3 matches by profiled response times; the threshold is this
/// implementation's choice).
pub(crate) const MIN_PROFILE_SAMPLES: usize = 10;

/// Tunables of [`VennScheduler`](crate::VennScheduler).
///
/// The defaults reproduce the paper's evaluation setup; the toggles exist
/// for the Fig. 11 ablation ("Venn w/o sched" is `use_irs = false`,
/// "Venn w/o match" is `tiers = 1`), the Fig. 13/14 sweeps (`tiers` /
/// `epsilon`) and the steal ablation (`use_steal`). What no caller varies
/// is a constant: `REBUILD_INTERVAL_MS`, `MIN_PROFILE_SAMPLES` and the
/// paper's 24 h supply window. Job orders and the IRS plan are always
/// maintained by deltas; debug builds check them against a from-scratch
/// rebuild at every trigger.
///
/// # Examples
///
/// ```
/// use venn_core::VennConfig;
///
/// let without_matching = VennConfig {
///     tiers: 1,
///     ..VennConfig::default()
/// };
/// assert!(without_matching.use_irs);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VennConfig {
    /// Fairness knob ε (§4.4). `0.0` disables starvation prevention.
    pub epsilon: f64,
    /// Number of device tiers `V` for Algorithm 2. `1` disables tiering —
    /// the paper's "Venn w/o match" ablation arm.
    pub tiers: usize,
    /// Enable the IRS job-ordering algorithm (Algorithm 1). When `false`
    /// jobs are served in arrival order — the paper's "Venn w/o sched"
    /// ablation arm.
    pub use_irs: bool,
    /// Enable Algorithm 1's greedy cross-group reallocation (lines 10-23).
    /// When `false`, groups keep their scarcest-first seeding — a design
    /// ablation isolating the value of the queue-ratio steal step.
    pub use_steal: bool,
    /// Seed for the rotating random tier pick.
    pub seed: u64,
}

impl Default for VennConfig {
    fn default() -> Self {
        VennConfig {
            epsilon: 0.0,
            tiers: 3,
            use_irs: true,
            use_steal: true,
            seed: 0xC0FFEE,
        }
    }
}

impl VennConfig {
    /// Full Venn with the starvation-prevention knob set to `epsilon`.
    pub fn with_fairness(epsilon: f64) -> Self {
        VennConfig {
            epsilon,
            ..VennConfig::default()
        }
    }

    /// Checks the invariants a front end can report as a usage error,
    /// naming the first violated one with its valid range: at least one
    /// tier, ε finite and `>= 0`.
    pub fn check(&self) -> Result<(), String> {
        let ensure = |ok: bool, why: &str| if ok { Ok(()) } else { Err(why.to_string()) };
        ensure(self.tiers > 0, "tier count must be at least 1")?;
        ensure(
            self.epsilon.is_finite() && self.epsilon >= 0.0,
            "epsilon must be finite and >= 0",
        )
    }

    /// Validates invariants; called by the scheduler constructor.
    ///
    /// # Panics
    ///
    /// Panics on whatever [`check`](Self::check) rejects.
    pub(crate) fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = VennConfig::default();
        assert_eq!(c.epsilon, 0.0);
        assert_eq!(c.tiers, 3);
        assert!(c.use_irs && c.use_steal);
        c.validate();
    }

    #[test]
    fn ablation_arms() {
        // The knob sweeps and ablations each move one field.
        let fair = VennConfig::with_fairness(2.0);
        assert_eq!(
            fair,
            VennConfig {
                epsilon: 2.0,
                ..VennConfig::default()
            }
        );
        let one_tier = VennConfig {
            tiers: 1,
            ..VennConfig::default()
        };
        one_tier.validate();
    }

    #[test]
    #[should_panic(expected = "tier count")]
    fn zero_tiers_rejected() {
        VennConfig {
            tiers: 0,
            ..VennConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn negative_epsilon_rejected() {
        VennConfig {
            epsilon: -1.0,
            ..VennConfig::default()
        }
        .validate();
    }
}
