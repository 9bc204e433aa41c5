//! The compiled per-run environment: per-device tiers and active
//! windows, flash-crowd sessions, a time-ordered disturbance schedule,
//! and the split RNG streams for runtime draws.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use venn_core::{SimTime, MINUTE_MS};

use crate::config::{EnvConfig, NetTier, DEFAULT_TIERS};

/// The environment's independent RNG streams. Each is seeded from the
/// simulation seed and the stream's fixed salt, so components never
/// share a generator — adding draws to one component cannot shift
/// another's stream (or the kernel's response-noise stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnvStream {
    /// Population drift windows, flash-crowd membership, mass-offline
    /// victim draws.
    Churn,
    /// Network-tier assignment.
    Net,
    /// Scripted/stochastic fault plans and abort-storm draws.
    Fault,
    /// Mid-round participant-drop decisions.
    Drop,
}

impl EnvStream {
    fn salt(self) -> u64 {
        match self {
            EnvStream::Churn => 0x43_48_55_52_4E, // "CHURN"
            EnvStream::Net => 0x4E_45_54,         // "NET"
            EnvStream::Fault => 0x46_41_55_4C_54, // "FAULT"
            EnvStream::Drop => 0x44_52_4F_50,     // "DROP"
        }
    }

    /// The stream's generator for a simulation seed.
    pub(crate) fn rng(self, seed: u64) -> StdRng {
        // SplitMix-style mix keeps nearby seeds from producing nearby
        // stream seeds; the salt separates the streams of one seed.
        StdRng::seed_from_u64(
            (seed ^ self.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(0xFF51_AFD7_ED55_8CCD),
        )
    }
}

/// One extra availability session injected by a flash crowd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvSession {
    /// Population index of the surging device.
    pub device: usize,
    /// Session start.
    pub start: SimTime,
    /// Session end.
    pub end: SimTime,
}

/// One scheduled environment disturbance, dispatched by the kernel as an
/// `EnvDisturbance` event at its compiled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Disturbance {
    /// Each online device goes offline with probability `frac`.
    MassOffline {
        /// Per-device offline probability.
        frac: f64,
    },
    /// A scripted single-device failure.
    DeviceFail {
        /// Population index of the failing device.
        device: usize,
    },
    /// Each computing round aborts with probability `prob`.
    AbortStorm {
        /// Per-round abort probability.
        prob: f64,
    },
}

/// The environment of one run, compiled from an [`EnvConfig`] by
/// [`EnvConfig::compile`]. The kernel queries it (and lets it draw from
/// its own streams); it never mutates kernel state itself.
#[derive(Debug, Clone)]
pub struct EnvRuntime {
    /// Per-device tier index into `specs`.
    tiers: Vec<u8>,
    /// The tier table ([`DEFAULT_TIERS`] when the config declared none).
    specs: Vec<NetTier>,
    /// Per-device active windows `[join, leave)`; `None` when the config
    /// has no population drift.
    windows: Option<Vec<(SimTime, SimTime)>>,
    /// Flash-crowd sessions, in compile order.
    extra_sessions: Vec<EnvSession>,
    /// Time-ordered disturbance schedule.
    disturbances: Vec<(SimTime, Disturbance)>,
    /// Runtime stream for mass-offline victim draws.
    churn_rng: StdRng,
    /// Runtime stream for abort-storm draws.
    fault_rng: StdRng,
    /// Runtime stream for mid-round drop decisions.
    drop_rng: StdRng,
}

impl EnvConfig {
    /// Compiles the static per-run environment state: tier assignment,
    /// drift windows, flash-crowd sessions, and the disturbance
    /// schedule. Returns `None` when the environment is disabled — the
    /// kernel then takes its pre-environment path with zero overhead
    /// and zero extra draws.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`EnvConfig::validate`]).
    pub fn compile(&self, population: usize, horizon: SimTime, seed: u64) -> Option<EnvRuntime> {
        if !self.enabled {
            return None;
        }
        self.validate();

        let mut churn_rng = EnvStream::Churn.rng(seed);
        // Population drift: one class draw per device, then a uniform
        // join/leave instant for drifting devices.
        let windows = if self.join_frac + self.leave_frac > 0.0 {
            let mut w = vec![(0, SimTime::MAX); population];
            for win in w.iter_mut() {
                let u: f64 = churn_rng.gen();
                if u < self.join_frac {
                    win.0 = churn_rng.gen_range(0..horizon.max(1));
                } else if u < self.join_frac + self.leave_frac {
                    win.1 = churn_rng.gen_range(0..horizon.max(1)).max(1);
                }
            }
            Some(w)
        } else {
            None
        };
        // Flash crowds: membership, start jitter, and duration per
        // member, in (crowd, device) order.
        let mut extra_sessions = Vec::new();
        for crowd in self.flash_crowds {
            let at = (crowd.at_frac * horizon as f64) as SimTime;
            for device in 0..population {
                if churn_rng.gen::<f64>() >= crowd.frac {
                    continue;
                }
                let start = at + churn_rng.gen_range(0..10 * MINUTE_MS);
                let dur = (crowd.mean_dur_ms * (0.5 + churn_rng.gen::<f64>()))
                    .max(5.0 * MINUTE_MS as f64) as SimTime;
                extra_sessions.push(EnvSession {
                    device,
                    start,
                    end: start + dur,
                });
            }
        }

        // Tier assignment from the network stream (skipped entirely for
        // a single-tier table — no draws to make).
        let specs: Vec<NetTier> = if self.tiers.is_empty() {
            DEFAULT_TIERS.to_vec()
        } else {
            self.tiers.to_vec()
        };
        assert!(specs.len() <= u8::MAX as usize + 1, "too many tiers");
        let tiers = if specs.len() == 1 {
            vec![0u8; population]
        } else {
            let mut net_rng = EnvStream::Net.rng(seed);
            let total: f64 = specs.iter().map(|t| t.weight).sum();
            (0..population)
                .map(|_| {
                    let mut u = net_rng.gen::<f64>() * total;
                    let mut pick = specs.len() - 1;
                    for (i, t) in specs.iter().enumerate() {
                        if u < t.weight {
                            pick = i;
                            break;
                        }
                        u -= t.weight;
                    }
                    pick as u8
                })
                .collect()
        };

        // Disturbance schedule: mass-offline waves, scripted faults,
        // then storms; stable-sorted by time so same-time disturbances
        // keep this declaration order.
        let mut disturbances: Vec<(SimTime, Disturbance)> = Vec::new();
        for m in self.mass_offline {
            disturbances.push((
                (m.at_frac * horizon as f64) as SimTime,
                Disturbance::MassOffline { frac: m.frac },
            ));
        }
        for f in self.faults {
            disturbances.push((f.at_ms, Disturbance::DeviceFail { device: f.device }));
        }
        for s in self.abort_storms {
            disturbances.push((
                (s.at_frac * horizon as f64) as SimTime,
                Disturbance::AbortStorm { prob: s.prob },
            ));
        }
        disturbances.sort_by_key(|(t, _)| *t);

        Some(EnvRuntime {
            tiers,
            specs,
            windows,
            extra_sessions,
            disturbances,
            churn_rng,
            fault_rng: EnvStream::Fault.rng(seed),
            drop_rng: EnvStream::Drop.rng(seed),
        })
    }
}

impl EnvRuntime {
    /// Clips one availability session to the device's active window.
    /// `None` means the session falls entirely outside the window (the
    /// device had not joined yet, or has permanently left).
    pub fn clip_session(
        &self,
        device: usize,
        start: SimTime,
        end: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let Some(w) = &self.windows else {
            return Some((start, end));
        };
        let (lo, hi) = w[device];
        let s = start.max(lo);
        let e = end.min(hi);
        (s < e).then_some((s, e))
    }

    /// Flash-crowd sessions to inject at world construction.
    pub fn extra_sessions(&self) -> &[EnvSession] {
        &self.extra_sessions
    }

    /// The time-ordered disturbance schedule.
    pub fn disturbances(&self) -> &[(SimTime, Disturbance)] {
        &self.disturbances
    }

    /// The disturbance at schedule index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of schedule bounds.
    pub fn disturbance(&self, idx: usize) -> Disturbance {
        self.disturbances[idx].1
    }

    /// Number of network tiers.
    pub fn tier_count(&self) -> usize {
        self.specs.len()
    }

    /// The tier index of a device.
    pub fn tier_of(&self, device: usize) -> usize {
        self.tiers[device] as usize
    }

    /// Stretches a response time by the device's tier multiplier.
    pub fn stretch(&self, device: usize, response_ms: u64) -> u64 {
        let mult = self.specs[self.tiers[device] as usize].response_mult;
        if mult == 1.0 {
            return response_ms;
        }
        ((response_ms as f64 * mult) as u64).max(1)
    }

    /// Decides whether an assigned participant drops mid-round, drawing
    /// from the drop stream. `Some(frac)` means it drops after `frac` of
    /// its would-be response time.
    pub fn sample_drop(&mut self, device: usize) -> Option<f64> {
        let p = self.specs[self.tiers[device] as usize].drop_prob;
        if p <= 0.0 {
            return None;
        }
        if self.drop_rng.gen::<f64>() < p {
            Some(self.drop_rng.gen::<f64>())
        } else {
            None
        }
    }

    /// Draws whether one online device is a victim of a mass-offline
    /// disturbance with per-device probability `frac` (churn stream).
    pub fn mass_offline_hits(&mut self, frac: f64) -> bool {
        self.churn_rng.gen::<f64>() < frac
    }

    /// Draws whether one computing round aborts in a storm with
    /// probability `prob` (fault stream).
    pub fn storm_hits(&mut self, prob: f64) -> bool {
        self.fault_rng.gen::<f64>() < prob
    }

    /// The raw states of the three runtime streams `(churn, fault,
    /// drop)` — the only parts of a compiled environment that advance
    /// during a run. Snapshots store these and re-derive everything else
    /// by recompiling the config.
    pub fn rng_states(&self) -> ([u64; 4], [u64; 4], [u64; 4]) {
        (
            self.churn_rng.state(),
            self.fault_rng.state(),
            self.drop_rng.state(),
        )
    }

    /// Overwrites the three runtime stream states (snapshot restore into
    /// a freshly recompiled environment).
    pub fn restore_rng_states(&mut self, churn: [u64; 4], fault: [u64; 4], drop: [u64; 4]) {
        self.churn_rng = StdRng::from_state(churn);
        self.fault_rng = StdRng::from_state(fault);
        self.drop_rng = StdRng::from_state(drop);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EnvPreset;
    use venn_core::DAY_MS;

    const HORIZON: SimTime = 5 * DAY_MS;

    #[test]
    fn off_compiles_to_none() {
        assert!(EnvConfig::off().compile(100, HORIZON, 1).is_none());
        assert!(EnvPreset::Off.config().compile(100, HORIZON, 1).is_none());
    }

    #[test]
    fn compilation_is_deterministic_per_seed() {
        let cfg = EnvPreset::Chaos.config();
        let a = cfg.compile(300, HORIZON, 7).unwrap();
        let b = cfg.compile(300, HORIZON, 7).unwrap();
        assert_eq!(a.tiers, b.tiers);
        assert_eq!(a.extra_sessions, b.extra_sessions);
        assert_eq!(a.disturbances.len(), b.disturbances.len());
        let c = cfg.compile(300, HORIZON, 8).unwrap();
        assert_ne!(
            a.extra_sessions, c.extra_sessions,
            "different seeds must produce different crowds"
        );
    }

    #[test]
    fn streams_are_independent() {
        // The four streams of one seed start from distinct states.
        let mut seen = Vec::new();
        for s in [
            EnvStream::Churn,
            EnvStream::Net,
            EnvStream::Fault,
            EnvStream::Drop,
        ] {
            let mut rng = s.rng(42);
            seen.push(rng.gen::<u64>());
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "streams must not collide");
    }

    #[test]
    fn tier_assignment_tracks_weights() {
        let env = EnvPreset::StragglerHeavy
            .config()
            .compile(20_000, HORIZON, 3)
            .unwrap();
        assert_eq!(env.tier_count(), 4);
        let mut counts = [0usize; 4];
        for d in 0..20_000 {
            counts[env.tier_of(d)] += 1;
        }
        // Weights 0.20/0.45/0.25/0.10 within loose tolerance.
        for (count, expect) in counts.iter().zip([0.20, 0.45, 0.25, 0.10]) {
            let frac = *count as f64 / 20_000.0;
            assert!(
                (frac - expect).abs() < 0.03,
                "tier share {frac} vs expected {expect}"
            );
        }
    }

    #[test]
    fn stretch_and_drop_follow_tier_specs() {
        let mut env = EnvPreset::StragglerHeavy
            .config()
            .compile(5_000, HORIZON, 3)
            .unwrap();
        let slowest = (0..5_000).find(|&d| env.tier_of(d) == 3).unwrap();
        let fastest = (0..5_000).find(|&d| env.tier_of(d) == 0).unwrap();
        assert_eq!(env.stretch(fastest, 10_000), 10_000);
        assert_eq!(env.stretch(slowest, 10_000), 60_000);
        // Tier 0 never drops (no draw); tier 3 drops 12 % of the time.
        for _ in 0..100 {
            assert!(env.sample_drop(fastest).is_none());
        }
        let drops = (0..2_000)
            .filter(|_| env.sample_drop(slowest).is_some())
            .count();
        assert!((140..=340).contains(&drops), "tier-3 drops {drops}/2000");
    }

    #[test]
    fn drift_windows_clip_sessions() {
        let cfg = EnvConfig {
            enabled: true,
            join_frac: 0.5,
            leave_frac: 0.5,
            ..EnvConfig::off()
        };
        let env = cfg.compile(2_000, HORIZON, 9).unwrap();
        let mut clipped = 0;
        let mut dropped = 0;
        for d in 0..2_000 {
            match env.clip_session(d, 0, HORIZON) {
                Some((s, e)) => {
                    assert!(s < e);
                    if (s, e) != (0, HORIZON) {
                        clipped += 1;
                    }
                }
                None => dropped += 1,
            }
        }
        assert!(clipped > 0, "drift must clip some sessions");
        // Leave time 0 can drop a device outright; joiners/leavers
        // otherwise clip. Either way most devices drift here.
        assert!(clipped + dropped > 1_500);
    }

    #[test]
    fn disturbances_are_time_ordered_and_within_horizon() {
        let env = EnvPreset::MassDropout
            .config()
            .compile(100, HORIZON, 11)
            .unwrap();
        let times: Vec<SimTime> = env.disturbances().iter().map(|(t, _)| *t).collect();
        assert!(!times.is_empty());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| *t <= HORIZON));
    }

    #[test]
    fn flash_crowds_inject_sessions_after_their_time() {
        let env = EnvPreset::FlashCrowd
            .config()
            .compile(1_000, HORIZON, 13)
            .unwrap();
        let first_at = (0.1 * HORIZON as f64) as SimTime;
        assert!(
            env.extra_sessions().len() > 300,
            "two crowds over 1000 devices must surge hundreds of sessions: {}",
            env.extra_sessions().len()
        );
        for s in env.extra_sessions() {
            assert!(s.start >= first_at);
            assert!(s.end > s.start);
            assert!(s.device < 1_000);
        }
    }
}
