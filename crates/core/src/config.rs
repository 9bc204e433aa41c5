//! Configuration of the Venn scheduler.

use crate::{SimTime, DAY_MS, MINUTE_MS};

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
/// for the Fig. 11 ablation (`use_irs` / `use_matching`) and the Fig. 13/14
/// sweeps (`tiers` / `epsilon`). What no caller varies is a constant:
/// `REBUILD_INTERVAL_MS` and `MIN_PROFILE_SAMPLES`. Job orders and the
/// IRS plan are always maintained by deltas; debug builds check them
/// against a from-scratch rebuild at every trigger.
///
/// # Examples
///
/// ```
/// use venn_core::VennConfig;
///
/// let sched_only = VennConfig {
///     use_matching: false,
///     ..VennConfig::default()
/// };
/// assert!(sched_only.use_irs);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VennConfig {
    /// Fairness knob ε (§4.4). `0.0` disables starvation prevention.
    pub epsilon: f64,
    /// Number of device tiers `V` for Algorithm 2. `1` disables tiering.
    pub tiers: usize,
    /// Enable the IRS job-ordering algorithm (Algorithm 1). When `false`
    /// jobs are served FIFO — the paper's "Venn w/o sched" ablation arm.
    pub use_irs: bool,
    /// Enable Algorithm 1's greedy cross-group reallocation (lines 10-23).
    /// When `false`, groups keep their scarcest-first seeding — a design
    /// ablation isolating the value of the queue-ratio steal step.
    pub use_steal: bool,
    /// Enable tier-based matching (Algorithm 2). When `false` this is the
    /// paper's "Venn w/o match" ablation arm.
    pub use_matching: bool,
    /// Sliding window for supply estimation; the paper averages over 24 h.
    pub supply_window_ms: SimTime,
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
            use_matching: true,
            supply_window_ms: DAY_MS,
            seed: 0xC0FFEE,
        }
    }
}

impl VennConfig {
    /// The "Venn w/o match" ablation arm: IRS only.
    pub fn scheduling_only() -> Self {
        VennConfig {
            use_matching: false,
            ..VennConfig::default()
        }
    }

    /// The "Venn w/o sched" ablation arm: FIFO order + tier matching.
    pub fn matching_only() -> Self {
        VennConfig {
            use_irs: false,
            ..VennConfig::default()
        }
    }

    /// Full Venn with the starvation-prevention knob set to `epsilon`.
    pub fn with_fairness(epsilon: f64) -> Self {
        VennConfig {
            epsilon,
            ..VennConfig::default()
        }
    }

    /// Checks the invariants a front end can report as a usage error,
    /// naming the first violated one with its valid range: at least one
    /// tier, ε finite and `>= 0`, a non-zero supply window.
    pub fn check(&self) -> Result<(), String> {
        let ensure = |ok: bool, why: &str| if ok { Ok(()) } else { Err(why.to_string()) };
        ensure(self.tiers > 0, "tier count must be at least 1")?;
        ensure(
            self.epsilon.is_finite() && self.epsilon >= 0.0,
            "epsilon must be finite and >= 0",
        )?;
        ensure(
            self.supply_window_ms > 0,
            "supply window must be at least 1 ms",
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
        assert!(c.use_irs && c.use_matching);
        assert_eq!(c.supply_window_ms, DAY_MS);
        c.validate();
    }

    #[test]
    fn ablation_arms() {
        assert!(!VennConfig::scheduling_only().use_matching);
        assert!(VennConfig::scheduling_only().use_irs);
        assert!(!VennConfig::matching_only().use_irs);
        assert!(VennConfig::matching_only().use_matching);
        assert_eq!(VennConfig::with_fairness(2.0).epsilon, 2.0);
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
