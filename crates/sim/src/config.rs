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
///   split RNG streams ([`venn_traces::stream`]) and feeds session starts
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

/// All knobs of one simulation run.
///
/// Defaults reproduce the paper's setup at a laptop-tractable scale (see
/// `DESIGN.md` for the scaling argument); [`SimConfig::small`] shrinks
/// everything further for unit tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of devices in the population.
    pub population: usize,
    /// Simulated horizon in days.
    pub days: u32,
    /// RNG seed for the environment (availability, capacities, response
    /// noise). Scheduler seeds are separate, inside each scheduler.
    pub seed: u64,
    /// Fraction of a round's participants that must report for success
    /// (the paper uses 80 %).
    pub quorum: f64,
    /// How often an idle online device re-polls the resource manager.
    pub repoll_ms: SimTime,
    /// Round deadline = `deadline_base_ms + demand × deadline_per_demand_ms`
    /// clamped to `deadline_max_ms` (the paper: 5–15 min by demand).
    pub deadline_base_ms: SimTime,
    /// Per-participant deadline slack.
    pub deadline_per_demand_ms: SimTime,
    /// Deadline upper clamp.
    pub deadline_max_ms: SimTime,
    /// Coefficient of variation of the log-normal response-time noise.
    pub response_noise_cv: f64,
    /// Server-side aggregation delay between rounds.
    pub agg_delay_ms: SimTime,
    /// Pause before retrying an aborted round, so a failed round does not
    /// immediately burn the replenishing device pool again.
    pub abort_backoff_ms: SimTime,
    /// Eligibility-region thresholds.
    pub thresholds: CategoryThresholds,
    /// Device availability model.
    pub availability: AvailabilityModel,
    /// Device capacity model.
    pub capacity: CapacityModel,
    /// Enforce the paper's one-task-per-device-per-day realism cap.
    pub one_task_per_day: bool,
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
    /// Demand-gated check-ins (default on): while no job has an open
    /// request, idle devices are parked instead of re-polling every
    /// [`repoll_ms`](SimConfig::repoll_ms), and woken on the next request
    /// at exactly the poll-grid instants they would have used — dispatched
    /// events shrink, while schedules, RNG draws, and results stay
    /// byte-identical to the un-gated run (`false` is that reference arm).
    pub demand_gating: bool,
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
            quorum: 0.8,
            repoll_ms: MINUTE_MS,
            deadline_base_ms: 5 * MINUTE_MS,
            deadline_per_demand_ms: 5_000,
            deadline_max_ms: 15 * MINUTE_MS,
            response_noise_cv: 0.35,
            agg_delay_ms: 2_000,
            abort_backoff_ms: MINUTE_MS,
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
            one_task_per_day: true,
            overcommit: 0.0,
            async_mode: false,
            record_rounds: false,
            demand_gating: true,
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
    pub fn deadline_ms(&self, demand: u32) -> SimTime {
        (self.deadline_base_ms + demand as SimTime * self.deadline_per_demand_ms)
            .min(self.deadline_max_ms)
    }

    /// Simulated horizon in milliseconds.
    pub fn horizon_ms(&self) -> SimTime {
        self.days as SimTime * venn_core::DAY_MS
    }

    /// Checks the invariants a front end can report as a usage error:
    /// non-empty population, a horizon of at least one day, quorum in
    /// `(0, 1]`, positive repoll, non-negative noise, overcommit in
    /// `[0, 1)`.
    pub fn check(&self) -> Result<(), String> {
        let ensure = |ok: bool, why: &str| if ok { Ok(()) } else { Err(why.to_string()) };
        ensure(self.population > 0, "population must be positive")?;
        ensure(self.days > 0, "horizon must cover at least one day")?;
        ensure(
            self.quorum > 0.0 && self.quorum <= 1.0,
            "quorum must be in (0, 1]",
        )?;
        ensure(self.repoll_ms > 0, "repoll interval must be positive")?;
        ensure(
            self.response_noise_cv >= 0.0,
            "noise cv must be non-negative",
        )?;
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
    pub fn validate(&self) {
        if let Err(why) = self.check() {
            panic!("{why}");
        }
        self.env.validate();
    }

    /// Devices a job actually requests for a round of `demand`
    /// participants, including overcommit.
    pub fn requested(&self, demand: u32) -> u32 {
        ((demand as f64 * (1.0 + self.overcommit)).ceil() as u32).max(demand)
    }

    /// Quorum target for a round of `demand` participants (at least 1).
    pub fn quorum_target(&self, demand: u32) -> u32 {
        ((demand as f64 * self.quorum).ceil() as u32).max(1)
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
        let c = SimConfig::default();
        assert_eq!(c.deadline_ms(0), 5 * MINUTE_MS);
        assert!(c.deadline_ms(50) > c.deadline_ms(10));
        assert_eq!(c.deadline_ms(10_000), 15 * MINUTE_MS);
    }

    #[test]
    fn quorum_target_rounds_up() {
        let c = SimConfig::default();
        assert_eq!(c.quorum_target(10), 8);
        assert_eq!(c.quorum_target(1), 1);
        assert_eq!(c.quorum_target(3), 3); // ceil(2.4)
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
        assert!(bad(SimConfig { days: 0, ..d }).contains("horizon"));
        assert!(bad(SimConfig { quorum: 0.0, ..d }).contains("quorum"));
        assert!(bad(SimConfig { repoll_ms: 0, ..d }).contains("repoll"));
        let nan_cv = SimConfig {
            response_noise_cv: f64::NAN,
            ..d
        };
        assert!(bad(nan_cv).contains("noise"));
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

    #[test]
    #[should_panic(expected = "quorum")]
    fn bad_quorum_panics() {
        SimConfig {
            quorum: 1.5,
            ..SimConfig::default()
        }
        .validate();
    }
}
