//! Diurnal device availability (substitute for the FedScale trace).
//!
//! Figure 2a of the paper shows the fraction of available devices
//! (charging and on WiFi) swinging diurnally between roughly 15 % and
//! 30 % of the population over a multi-day horizon. [`AvailabilityModel`] generates
//! per-device availability *sessions* from a sinusoidal daily intensity:
//! each device independently starts 0–2 sessions per day, biased toward the
//! nightly charging peak, with log-normal session durations. The union of
//! sessions reproduces the diurnal supply curve the scheduler observes.

use rand::Rng;

use venn_core::{SimTime, DAY_MS, HOUR_MS};

use crate::dist::LogNormal;

/// One availability window of one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    /// Index of the device in the population.
    pub device: usize,
    /// When the device checks in.
    pub start: SimTime,
    /// When the device departs (battery unplugged, WiFi lost...).
    pub end: SimTime,
}

/// Generator of diurnal availability sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityModel {
    /// Expected number of sessions a device starts per day.
    pub(crate) sessions_per_day: f64,
    /// Hour of day (0-24) at which session starts peak.
    pub(crate) peak_hour: f64,
    /// Peak-to-trough ratio of the diurnal start-time density (≥ 1).
    pub(crate) diurnal_strength: f64,
    /// Mean session duration in milliseconds.
    pub(crate) mean_session_ms: f64,
    /// Coefficient of variation of session durations.
    pub(crate) duration_cv: f64,
}

impl Default for AvailabilityModel {
    fn default() -> Self {
        AvailabilityModel {
            sessions_per_day: 1.5,
            peak_hour: 22.0, // overnight charging
            diurnal_strength: 3.0,
            mean_session_ms: 3.0 * HOUR_MS as f64,
            duration_cv: 0.8,
        }
    }
}

impl AvailabilityModel {
    /// Relative session-start intensity at millisecond `t` (peak = 1.0).
    pub(crate) fn intensity(&self, t: SimTime) -> f64 {
        let hour = (t % DAY_MS) as f64 / HOUR_MS as f64;
        let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        // Cosine between trough (1/strength) and peak (1.0).
        let lo = 1.0 / self.diurnal_strength;
        lo + (1.0 - lo) * (0.5 + 0.5 * phase.cos())
    }

    /// Samples a session start hour of day via rejection against the
    /// diurnal intensity.
    fn sample_start_in_day<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        loop {
            let t = rng.gen_range(0..DAY_MS);
            if rng.gen::<f64>() < self.intensity(t) {
                return t;
            }
        }
    }

    /// Appends the sessions `device` starts on `day` to `out`, drawing
    /// from `rng` in the model's canonical order (two Bernoulli count
    /// draws, then start + duration per session). Both generation paths —
    /// the eager sequential trace and the per-`(device, day)` split
    /// streams — funnel through this one body, so they cannot drift.
    fn day_sessions_into<R: Rng + ?Sized>(
        &self,
        duration: &LogNormal,
        device: usize,
        day: u64,
        rng: &mut R,
        out: &mut Vec<Session>,
    ) {
        // Bernoulli split of the expected rate into 0..=2 sessions.
        let mut count = 0usize;
        let lambda = self.sessions_per_day;
        if rng.gen::<f64>() < (lambda / 2.0).min(1.0) {
            count += 1;
        }
        if rng.gen::<f64>() < (lambda / 2.0).min(1.0) {
            count += 1;
        }
        for _ in 0..count {
            let start = day * DAY_MS + self.sample_start_in_day(rng);
            let dur = duration.sample(rng).max(5.0 * 60_000.0) as SimTime;
            out.push(Session {
                device,
                start,
                end: start + dur,
            });
        }
    }

    /// Generates the availability sessions of a population of `population`
    /// devices over `days` days, sorted by start time.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0`.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        population: usize,
        days: u32,
        rng: &mut R,
    ) -> Vec<Session> {
        assert!(days > 0, "horizon must cover at least one day");
        let duration = LogNormal::from_mean_cv(self.mean_session_ms, self.duration_cv);
        let mut sessions = Vec::new();
        for device in 0..population {
            for day in 0..days as u64 {
                self.day_sessions_into(&duration, device, day, rng, &mut sessions);
            }
        }
        sessions.sort_by_key(|s| (s.start, s.device));
        sessions
    }

    /// Regenerates the sessions `device` starts on `day` from the device's
    /// own split RNG stream (see `stream.rs`), appended to `out`
    /// sorted by start (stable, so same-start sessions keep draw order —
    /// matching the relative order [`generate`](Self::generate)'s global
    /// `(start, device)` sort gives one device's ties).
    ///
    /// Because the stream is keyed by `(seed, device, day)` the result is
    /// a pure function of those values: no other device's generation, and
    /// no materialization order, can perturb it. Cost is O(sessions in
    /// the day) — a cursor resuming mid-horizon replays one day block.
    pub fn device_day_sessions(&self, seed: u64, device: usize, day: u64, out: &mut Vec<Session>) {
        let duration = LogNormal::from_mean_cv(self.mean_session_ms, self.duration_cv);
        let mut rng = crate::stream::session_rng(seed, device, day);
        let base = out.len();
        self.day_sessions_into(&duration, device, day, &mut rng, out);
        out[base..].sort_by_key(|s| s.start);
    }

    /// Fraction of the population online at each sampled timestamp —
    /// regenerates the Fig. 2a curve.
    pub fn online_fraction_curve(
        sessions: &[Session],
        population: usize,
        horizon_ms: SimTime,
        step_ms: SimTime,
    ) -> Vec<(SimTime, f64)> {
        assert!(step_ms > 0, "step must be positive");
        let mut curve = Vec::new();
        let mut t = 0;
        while t <= horizon_ms {
            let online = sessions
                .iter()
                .filter(|s| s.start <= t && t < s.end)
                .count();
            curve.push((t, online as f64 / population.max(1) as f64));
            t += step_ms;
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sessions_are_well_formed_and_sorted() {
        let mut rng = StdRng::seed_from_u64(1);
        let sessions = AvailabilityModel::default().generate(200, 3, &mut rng);
        assert!(!sessions.is_empty());
        for s in &sessions {
            assert!(s.end > s.start);
            assert!(s.device < 200);
        }
        assert!(sessions.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn intensity_peaks_at_peak_hour() {
        let m = AvailabilityModel::default();
        let peak_t = (m.peak_hour * HOUR_MS as f64) as SimTime;
        let trough_t = ((m.peak_hour + 12.0) % 24.0 * HOUR_MS as f64) as SimTime;
        assert!(m.intensity(peak_t) > 0.99);
        let expected_trough = 1.0 / m.diurnal_strength;
        assert!((m.intensity(trough_t) - expected_trough).abs() < 0.01);
    }

    #[test]
    fn supply_is_diurnal() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = AvailabilityModel::default();
        let pop = 2_000;
        let sessions = m.generate(pop, 4, &mut rng);
        let curve = AvailabilityModel::online_fraction_curve(&sessions, pop, 4 * DAY_MS, HOUR_MS);
        // Skip day 0 warm-up (no sessions carry in from "yesterday").
        let steady: Vec<f64> = curve
            .iter()
            .filter(|(t, _)| *t >= DAY_MS)
            .map(|(_, f)| *f)
            .collect();
        let max = steady.iter().cloned().fold(0.0, f64::max);
        let min = steady.iter().cloned().fold(1.0, f64::min);
        assert!(
            max > 1.5 * min,
            "diurnal swing expected: min={min} max={max}"
        );
        // Magnitudes in the Fig. 2a ballpark (a few percent to tens of %).
        assert!(max < 0.6 && max > 0.05, "online fraction peak {max}");
    }

    #[test]
    fn session_count_scales_with_rate() {
        let mut rng = StdRng::seed_from_u64(3);
        let low = AvailabilityModel {
            sessions_per_day: 0.4,
            ..AvailabilityModel::default()
        };
        let high = AvailabilityModel {
            sessions_per_day: 2.0,
            ..AvailabilityModel::default()
        };
        let nl = low.generate(500, 2, &mut rng).len();
        let nh = high.generate(500, 2, &mut rng).len();
        assert!(nh > 3 * nl, "low={nl} high={nh}");
    }

    #[test]
    fn generation_is_deterministic() {
        let m = AvailabilityModel::default();
        let a = m.generate(50, 2, &mut StdRng::seed_from_u64(9));
        let b = m.generate(50, 2, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one day")]
    fn zero_days_panics() {
        AvailabilityModel::default().generate(1, 0, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn split_day_sessions_are_pure_and_sorted() {
        let m = AvailabilityModel::default();
        for device in [0usize, 17, 123_456] {
            for day in 0..4u64 {
                let mut a = Vec::new();
                let mut b = Vec::new();
                m.device_day_sessions(42, device, day, &mut a);
                m.device_day_sessions(42, device, day, &mut b);
                assert_eq!(a, b, "split stream must be a pure function of its key");
                assert!(a.windows(2).all(|w| w[0].start <= w[1].start));
                for s in &a {
                    assert_eq!(s.device, device);
                    assert!(s.start >= day * DAY_MS && s.start < (day + 1) * DAY_MS);
                    assert!(s.end > s.start);
                }
            }
        }
    }

    #[test]
    fn split_day_sessions_match_model_statistics() {
        // The split path draws through the same body as `generate`, so
        // per-day session counts follow the same 0..=2 Bernoulli split.
        let m = AvailabilityModel::default();
        let mut out = Vec::new();
        for device in 0..500usize {
            for day in 0..2u64 {
                m.device_day_sessions(7, device, day, &mut out);
            }
        }
        let per_device_day = out.len() as f64 / 1_000.0;
        assert!(
            (per_device_day - m.sessions_per_day).abs() < 0.25,
            "rate {per_device_day} vs {}",
            m.sessions_per_day
        );
    }
}
