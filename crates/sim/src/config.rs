//! Simulation parameters.

use venn_core::{CategoryThresholds, SimTime, MINUTE_MS};
use venn_env::EnvConfig;
use venn_traces::{AvailabilityModel, CapacityModel};

/// How the device population is generated and stored.
///
/// The three arms trade determinism lineage against scale:
///
/// * [`PopMode::Eager`] (default) draws profiles and sessions from the
///   one sequential run RNG — byte-identical to every historical result.
///   Since the streaming refactor its session *enqueue* is incremental
///   (one pending `SessionStart` at a time under reserved seqs), so only
///   `peak_queue_len` differs from the original bulk-enqueue kernel;
///   every event, draw, and JCT field is unchanged.
/// * [`PopMode::SplitEager`] draws every device up front from per-device
///   split RNG streams (`venn_traces`' `stream.rs`) and feeds session starts
///   through the cohort wheel. It exists as the dense, fully-materialized
///   parity reference for the lazy arm.
/// * [`PopMode::Lazy`] uses the same split streams but materializes a
///   `DeviceState` only when a device's session actually begins (or an
///   environment fault individually disturbs it), retiring it once the
///   device is idle past its session end — memory is O(active ∪ assigned)
///   instead of O(population). Byte-identical to `SplitEager` by
///   construction (pinned by `tests/lazy_parity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PopMode {
    /// Sequential draws, dense storage — the legacy-deterministic arm.
    #[default]
    Eager,
    /// Per-device split streams, dense storage — the lazy arm's parity
    /// reference.
    SplitEager,
    /// Per-device split streams, cohort-compressed lazy storage —
    /// O(active) memory, the million-device arm.
    Lazy,
}

/// Declared for source compatibility with `benchmark/`; selects nothing:
/// every value runs the same code and produces the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The default.
    #[default]
    Sequential,
    /// Runs exactly as [`ExecMode::Sequential`].
    Sharded {
        /// Ignored.
        shards: u32,
    },
}

/// Fraction of a round's participants that must report for the round to
/// succeed: the paper's 80 % quorum.
pub(crate) const QUORUM: f64 = 0.8;
/// How often an idle online device re-polls the resource manager. Devices
/// check in and wait to be matched (paper §4); the interval is this
/// model's choice.
pub const REPOLL_MS: SimTime = MINUTE_MS;
/// Round deadline floor. A round of `demand` participants gets
/// `DEADLINE_BASE_MS + demand × DEADLINE_PER_DEMAND_MS`, clamped to
/// [`DEADLINE_MAX_MS`]: the paper's 5–15 min deadlines by demand.
pub(crate) const DEADLINE_BASE_MS: SimTime = 5 * MINUTE_MS;
/// Per-participant deadline slack (see [`DEADLINE_BASE_MS`]).
pub(crate) const DEADLINE_PER_DEMAND_MS: SimTime = 5_000;
/// Deadline upper clamp (see [`DEADLINE_BASE_MS`]).
pub(crate) const DEADLINE_MAX_MS: SimTime = 15 * MINUTE_MS;
/// Coefficient of variation of the log-normal noise on every response
/// time, around the device's speed-scaled task time (a modelling choice).
pub(crate) const RESPONSE_NOISE_CV: f64 = 0.35;
/// Server-side aggregation delay between a round's quorum and the next
/// round's request (a modelling choice).
pub(crate) const AGG_DELAY_MS: SimTime = 2_000;
/// Pause before retrying an aborted round, so a failed round does not
/// immediately burn the replenishing device pool again.
pub(crate) const ABORT_BACKOFF_MS: SimTime = MINUTE_MS;

/// The knobs of one simulation run.
///
/// Defaults reproduce the paper's setup at a laptop-tractable scale;
/// [`SimConfig::small`] shrinks everything further for unit tests. What no
/// caller varies is a constant of the model instead of a field:
/// `QUORUM`, [`REPOLL_MS`], the deadline rule (`DEADLINE_BASE_MS`,
/// `DEADLINE_PER_DEMAND_MS`, `DEADLINE_MAX_MS`), `RESPONSE_NOISE_CV`,
/// `AGG_DELAY_MS` and `ABORT_BACKOFF_MS`.
/// Every device takes at most one task per day (the paper's realism
/// cap). Whether idle pollers park while no request is open is the
/// scheduler's call ([`Scheduler::has_open_demand`]).
///
/// [`Scheduler::has_open_demand`]: venn_core::Scheduler::has_open_demand
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of devices in the population.
    pub population: usize,
    /// Simulated horizon in days.
    pub days: u32,
    /// RNG seed for the environment (availability, capacities, response
    /// noise). Scheduler seeds are separate, inside each scheduler.
    pub seed: u64,
    /// Eligibility-region thresholds.
    pub thresholds: CategoryThresholds,
    /// Device availability model.
    pub availability: AvailabilityModel,
    /// Device capacity model.
    pub capacity: CapacityModel,
    /// Overcommit factor α: jobs request `ceil(demand × (1 + α))` devices
    /// so dropouts during the round do not sink the quorum (Appendix A
    /// delegates the amount of overcommit to jobs; this models a uniform
    /// policy). `0.0` disables overcommit.
    pub overcommit: f64,
    /// Asynchronous CL mode (§5.1): assigned devices start computing
    /// immediately instead of waiting for the full allocation, and a round
    /// completes as soon as the quorum of responses arrives. The round
    /// deadline runs from request submission.
    pub async_mode: bool,
    /// Record per-round participant logs (needed by the FL experiments;
    /// costs memory on big runs).
    pub record_rounds: bool,
    /// Environment dynamics (`venn-env`): churn, flash crowds, network
    /// tiers, and fault plans, each on its own split RNG stream. The
    /// default ([`EnvConfig::off`]) injects nothing — that arm is
    /// bit-identical to the pre-environment kernel and parity-pinned
    /// against the committed benchmark baseline.
    pub env: EnvConfig,
    /// Population generation/storage mode (see [`PopMode`]). The default
    /// eager arm preserves the historical sequential RNG lineage; the
    /// split arms trade that lineage for per-device streams that scale to
    /// millions of devices.
    pub pop_mode: PopMode,
    /// Declared for source compatibility with `benchmark/`; nothing
    /// reads it (see [`ExecMode`]).
    pub exec: ExecMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            population: 5_000,
            days: 10,
            seed: 42,
            // 0.55/0.55 thresholds leave ~15 % of devices in the
            // High-Perf region — scarce enough that wasting them on
            // General jobs (what Random/SRSF do) visibly hurts, while
            // keeping the largest rounds feasible.
            thresholds: CategoryThresholds {
                cpu: 0.55,
                mem: 0.55,
            },
            availability: AvailabilityModel::default(),
            capacity: CapacityModel::default(),
            overcommit: 0.0,
            async_mode: false,
            record_rounds: false,
            env: EnvConfig::off(),
            pop_mode: PopMode::Eager,
            exec: ExecMode::Sequential,
        }
    }
}

impl SimConfig {
    /// A tiny configuration for fast unit/integration tests.
    pub fn small() -> Self {
        SimConfig {
            population: 600,
            days: 3,
            ..SimConfig::default()
        }
    }

    /// Deadline for a round of `demand` participants.
    pub(crate) fn deadline_ms(demand: u32) -> SimTime {
        (DEADLINE_BASE_MS + demand as SimTime * DEADLINE_PER_DEMAND_MS).min(DEADLINE_MAX_MS)
    }

    /// Simulated horizon in milliseconds.
    pub fn horizon_ms(&self) -> SimTime {
        self.days as SimTime * venn_core::DAY_MS
    }

    /// Checks the invariants a front end can report as a usage error:
    /// a non-empty population that `u32` device indices can address, a
    /// horizon of at least one day, overcommit in `[0, 1)`.
    pub fn check(&self) -> Result<(), String> {
        let ensure = |ok: bool, why: &str| if ok { Ok(()) } else { Err(why.to_string()) };
        ensure(self.population > 0, "population must be positive")?;
        // Cohort heaps, parked polls, retire notes and snapshot device
        // words store a device index as `u32`.
        ensure(
            u32::try_from(self.population).is_ok(),
            "population must be at most 4294967295 (device indices are u32)",
        )?;
        ensure(self.days > 0, "horizon must cover at least one day")?;
        ensure(
            (0.0..1.0).contains(&self.overcommit),
            "overcommit must be in [0, 1)",
        )
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters: whatever [`check`](Self::check)
    /// rejects, or an invalid [`env`](Self::env).
    pub(crate) fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
        self.env.validate();
    }

    /// Devices a job actually requests for a round of `demand`
    /// participants, including overcommit.
    pub(crate) fn requested(&self, demand: u32) -> u32 {
        ((demand as f64 * (1.0 + self.overcommit)).ceil() as u32).max(demand)
    }

    /// Quorum target for a round of `demand` participants (at least 1).
    pub fn quorum_target(demand: u32) -> u32 {
        ((demand as f64 * QUORUM).ceil() as u32).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimConfig::default().validate();
        SimConfig::small().validate();
    }

    #[test]
    fn deadline_scales_and_clamps() {
        assert_eq!(SimConfig::deadline_ms(0), 5 * MINUTE_MS);
        assert!(SimConfig::deadline_ms(50) > SimConfig::deadline_ms(10));
        assert_eq!(SimConfig::deadline_ms(10_000), 15 * MINUTE_MS);
    }

    #[test]
    fn quorum_target_rounds_up() {
        assert_eq!(SimConfig::quorum_target(10), 8);
        assert_eq!(SimConfig::quorum_target(1), 1);
        assert_eq!(SimConfig::quorum_target(3), 3); // ceil(2.4)
    }

    #[test]
    fn horizon_is_days_in_ms() {
        let c = SimConfig::small();
        assert_eq!(c.horizon_ms(), 3 * venn_core::DAY_MS);
    }

    #[test]
    fn overcommit_scales_requests() {
        let c = SimConfig {
            overcommit: 0.25,
            ..SimConfig::default()
        };
        c.validate();
        assert_eq!(c.requested(8), 10);
        assert_eq!(c.requested(1), 2);
        assert_eq!(SimConfig::default().requested(8), 8);
    }

    #[test]
    fn check_names_the_first_violated_rule() {
        let bad = |c: SimConfig| c.check().unwrap_err();
        let d = SimConfig::default();
        assert!(bad(SimConfig { population: 0, ..d }).contains("population"));
        assert!(bad(SimConfig {
            population: u32::MAX as usize + 1,
            ..d
        })
        .contains("population"));
        assert!(bad(SimConfig { days: 0, ..d }).contains("horizon"));
        assert!(bad(SimConfig {
            overcommit: 3.0,
            ..d
        })
        .contains("overcommit"));
        assert_eq!(d.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "overcommit")]
    fn bad_overcommit_panics() {
        SimConfig {
            overcommit: 1.5,
            ..SimConfig::default()
        }
        .validate();
    }

    #[test]
    fn exec_mode_defaults_sequential_and_selects_nothing() {
        assert_eq!(SimConfig::default().exec, ExecMode::Sequential);
        SimConfig {
            exec: ExecMode::Sharded { shards: 0 },
            ..SimConfig::small()
        }
        .validate();
    }
}
