//! Environment configuration: component knobs and named presets.
//!
//! [`EnvConfig`] is a plain `Copy` value embedded in the simulator's
//! `SimConfig`, so scheduled disturbances are `'static` slices (presets
//! are consts; tests build ad-hoc scripts with `Box::leak`). Times of
//! recurring scenario elements are *fractions of the simulated horizon*
//! so one preset scales from smoke tests to paper-scale runs; scripted
//! [`DeviceFault`]s use absolute milliseconds because scripts target
//! concrete moments of one concrete run.

use venn_core::SimTime;

/// A surge of extra device availability: `frac` of the population comes
/// online together shortly after `at_frac × horizon`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// When the crowd arrives, as a fraction of the horizon in `[0, 1]`.
    pub(crate) at_frac: f64,
    /// Fraction of the population that surges online.
    pub(crate) frac: f64,
    /// Mean duration of the surge sessions in milliseconds.
    pub(crate) mean_dur_ms: f64,
}

/// A correlated mass-offline disturbance: at `at_frac × horizon`, each
/// online device independently goes offline with probability `frac`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MassOffline {
    /// When the disturbance fires, as a fraction of the horizon.
    pub(crate) at_frac: f64,
    /// Per-device probability of being forced offline.
    pub(crate) frac: f64,
}

/// One network/straggler class. Devices are assigned a tier once per run
/// (weighted by `weight`) from the environment's network RNG stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetTier {
    /// Relative share of the population in this tier.
    pub(crate) weight: f64,
    /// Multiplier applied to every response time of the tier's devices.
    pub(crate) response_mult: f64,
    /// Probability that an assigned participant of this tier drops
    /// mid-round (an `AssignFailure` before its response would land).
    pub(crate) drop_prob: f64,
}

/// Identity tier used when a config enables the environment without
/// declaring tiers: one class, no stretch, no drops.
pub(crate) const DEFAULT_TIERS: &[NetTier] = &[NetTier {
    weight: 1.0,
    response_mult: 1.0,
    drop_prob: 0.0,
}];

/// A scripted single-device failure at an absolute simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFault {
    /// When the device fails (absolute milliseconds).
    pub at_ms: SimTime,
    /// Population index of the failing device.
    pub device: usize,
}

/// A job abort/retry storm: at `at_frac × horizon`, each round currently
/// computing aborts with probability `prob` (and retries after the
/// kernel's usual abort backoff).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbortStorm {
    /// When the storm fires, as a fraction of the horizon.
    pub(crate) at_frac: f64,
    /// Per-round abort probability.
    pub(crate) prob: f64,
}

/// All environment-dynamics knobs of one run.
///
/// The default ([`EnvConfig::off`]) disables everything: the kernel
/// makes no environment draws and injects no events, keeping the
/// env-off arm bit-identical to the pre-environment kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnvConfig {
    /// Master switch. When `false` every other field is ignored.
    pub enabled: bool,
    /// Fraction of devices that join the population late (their sessions
    /// before a uniformly drawn join time are dropped) — population
    /// drift inward.
    pub join_frac: f64,
    /// Fraction of devices that permanently leave (their sessions after
    /// a uniformly drawn leave time are dropped) — population drift
    /// outward.
    pub leave_frac: f64,
    /// Flash-crowd surges.
    pub flash_crowds: &'static [FlashCrowd],
    /// Correlated mass-offline disturbances.
    pub mass_offline: &'static [MassOffline],
    /// Network/straggler tiers (empty ⇒ `DEFAULT_TIERS`).
    pub tiers: &'static [NetTier],
    /// Scripted device failures.
    pub faults: &'static [DeviceFault],
    /// Job abort/retry storms.
    pub abort_storms: &'static [AbortStorm],
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig::off()
    }
}

impl EnvConfig {
    /// The disabled environment (the default arm; parity-pinned against
    /// the benchmark baseline).
    pub const fn off() -> Self {
        EnvConfig {
            enabled: false,
            join_frac: 0.0,
            leave_frac: 0.0,
            flash_crowds: &[],
            mass_offline: &[],
            tiers: &[],
            faults: &[],
            abort_storms: &[],
        }
    }

    /// An enabled environment with no dynamics — the identity arm used
    /// by tests that script their own faults.
    pub const fn neutral() -> Self {
        EnvConfig {
            enabled: true,
            ..EnvConfig::off()
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range probabilities/fractions or non-positive
    /// tier parameters.
    pub fn validate(&self) {
        if !self.enabled {
            return;
        }
        let frac01 = |v: f64, what: &str| {
            assert!(
                (0.0..=1.0).contains(&v),
                "{what} must be in [0, 1], got {v}"
            );
        };
        frac01(self.join_frac, "join_frac");
        frac01(self.leave_frac, "leave_frac");
        assert!(
            self.join_frac + self.leave_frac <= 1.0,
            "join_frac + leave_frac must not exceed 1"
        );
        for c in self.flash_crowds {
            frac01(c.at_frac, "flash crowd at_frac");
            frac01(c.frac, "flash crowd frac");
            assert!(c.mean_dur_ms > 0.0, "flash crowd duration must be positive");
        }
        for m in self.mass_offline {
            frac01(m.at_frac, "mass offline at_frac");
            frac01(m.frac, "mass offline frac");
        }
        for t in self.tiers {
            assert!(t.weight >= 0.0, "tier weight must be non-negative");
            assert!(t.response_mult > 0.0, "tier response_mult must be positive");
            frac01(t.drop_prob, "tier drop_prob");
        }
        if !self.tiers.is_empty() {
            assert!(
                self.tiers.iter().map(|t| t.weight).sum::<f64>() > 0.0,
                "tier weights must not all be zero"
            );
        }
        for s in self.abort_storms {
            frac01(s.at_frac, "abort storm at_frac");
            frac01(s.prob, "abort storm prob");
        }
    }
}

/// Named environment scenarios for the CLIs (`--env <preset>`) and the
/// sweep harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnvPreset {
    /// No environment dynamics (the default, parity-pinned arm).
    #[default]
    Off,
    /// Population drift plus two flash-crowd surges.
    FlashCrowd,
    /// Four network tiers with heavy tails and mid-round drops.
    StragglerHeavy,
    /// Correlated mass-offline waves, churn, and an abort storm.
    MassDropout,
    /// Everything at once — the kitchen-sink stress scenario.
    Chaos,
}

/// Three-tier flash-crowd scenario: a quarter of the population surges
/// online mid-morning of the run, a third again late.
const FLASH_CROWD: EnvConfig = EnvConfig {
    enabled: true,
    join_frac: 0.15,
    leave_frac: 0.05,
    // Early fractions of the horizon: the evaluation workloads are
    // front-loaded (Poisson arrivals over the first day or two), so
    // surges land while rounds are actually in flight at every scale.
    flash_crowds: &[
        FlashCrowd {
            at_frac: 0.1,
            frac: 0.25,
            mean_dur_ms: 2.0 * 3_600_000.0,
        },
        FlashCrowd {
            at_frac: 0.25,
            frac: 0.35,
            mean_dur_ms: 1.5 * 3_600_000.0,
        },
    ],
    mass_offline: &[],
    tiers: &[],
    faults: &[],
    abort_storms: &[],
};

const STRAGGLER_HEAVY: EnvConfig = EnvConfig {
    enabled: true,
    join_frac: 0.0,
    leave_frac: 0.0,
    flash_crowds: &[],
    mass_offline: &[],
    tiers: &[
        NetTier {
            weight: 0.20,
            response_mult: 1.0,
            drop_prob: 0.0,
        },
        NetTier {
            weight: 0.45,
            response_mult: 1.8,
            drop_prob: 0.01,
        },
        NetTier {
            weight: 0.25,
            response_mult: 3.5,
            drop_prob: 0.04,
        },
        NetTier {
            weight: 0.10,
            response_mult: 6.0,
            drop_prob: 0.12,
        },
    ],
    faults: &[],
    abort_storms: &[],
};

const MASS_DROPOUT: EnvConfig = EnvConfig {
    enabled: true,
    join_frac: 0.0,
    leave_frac: 0.15,
    flash_crowds: &[],
    // Two offline waves and one storm inside the workload's active
    // window (see the FLASH_CROWD timing note).
    mass_offline: &[
        MassOffline {
            at_frac: 0.08,
            frac: 0.5,
        },
        MassOffline {
            at_frac: 0.25,
            frac: 0.6,
        },
    ],
    tiers: &[],
    faults: &[],
    abort_storms: &[AbortStorm {
        at_frac: 0.12,
        prob: 0.5,
    }],
};

const CHAOS: EnvConfig = EnvConfig {
    enabled: true,
    join_frac: 0.1,
    leave_frac: 0.1,
    flash_crowds: FLASH_CROWD.flash_crowds,
    mass_offline: MASS_DROPOUT.mass_offline,
    tiers: STRAGGLER_HEAVY.tiers,
    faults: &[],
    abort_storms: MASS_DROPOUT.abort_storms,
};

impl EnvPreset {
    /// Every preset, `Off` first, in CLI/doc order.
    pub const ALL: [EnvPreset; 5] = [
        EnvPreset::Off,
        EnvPreset::FlashCrowd,
        EnvPreset::StragglerHeavy,
        EnvPreset::MassDropout,
        EnvPreset::Chaos,
    ];

    /// The CLI/JSON name of the preset.
    pub fn label(&self) -> &'static str {
        match self {
            EnvPreset::Off => "off",
            EnvPreset::FlashCrowd => "flash-crowd",
            EnvPreset::StragglerHeavy => "straggler-heavy",
            EnvPreset::MassDropout => "mass-dropout",
            EnvPreset::Chaos => "chaos",
        }
    }

    /// Parses a CLI/JSON name back into the preset.
    pub fn parse(name: &str) -> Option<EnvPreset> {
        EnvPreset::ALL.into_iter().find(|p| p.label() == name)
    }

    /// The preset's environment configuration.
    pub fn config(&self) -> EnvConfig {
        match self {
            EnvPreset::Off => EnvConfig::off(),
            EnvPreset::FlashCrowd => FLASH_CROWD,
            EnvPreset::StragglerHeavy => STRAGGLER_HEAVY,
            EnvPreset::MassDropout => MASS_DROPOUT,
            EnvPreset::Chaos => CHAOS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_round_trip_labels() {
        for p in EnvPreset::ALL {
            p.config().validate();
            assert_eq!(EnvPreset::parse(p.label()), Some(p), "{p:?}");
        }
        assert_eq!(EnvPreset::parse("nope"), None);
    }

    #[test]
    fn off_is_the_default_and_disabled() {
        assert_eq!(EnvConfig::default(), EnvConfig::off());
        assert!(!EnvConfig::off().enabled);
        assert_eq!(EnvPreset::default(), EnvPreset::Off);
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn bad_drop_prob_panics() {
        EnvConfig {
            enabled: true,
            tiers: Box::leak(Box::new([NetTier {
                weight: 1.0,
                response_mult: 1.0,
                drop_prob: 1.5,
            }])),
            ..EnvConfig::off()
        }
        .validate();
    }

    #[test]
    fn disabled_configs_skip_validation() {
        // A nonsense config with the master switch off must not panic.
        EnvConfig {
            enabled: false,
            join_frac: 7.0,
            ..EnvConfig::off()
        }
        .validate();
    }
}
