//! Device hardware capacity sampling (substitute for AI-Benchmark data).
//!
//! Figure 2b/8a of the paper shows normalized CPU and memory scores with
//! most devices in the low-to-mid range and a long right tail of flagship
//! hardware, stratified into four eligibility regions. [`CapacityModel`]
//! reproduces that shape with a two-component log-normal mixture per axis
//! (mainstream + flagship cluster), clipped to `[0, 1]`, and derives each
//! device's *execution speed* from its capacity — faster hardware responds
//! faster, which is what makes tier-based matching worthwhile.

use rand::Rng;

use venn_core::{Capacity, CategoryThresholds, SpecCategory};

use crate::dist::{LogNormal, Normal};

/// A sampled device: advertised capacity plus hidden execution speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Advertised (scheduler-visible) hardware capacity.
    pub capacity: Capacity,
    /// Hidden relative execution speed; `1.0` is the population baseline.
    /// Response time = task cost / speed × log-normal noise.
    pub speed: f64,
}

/// Generator of device hardware profiles.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use venn_traces::CapacityModel;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let model = CapacityModel::default();
/// let d = model.sample(&mut rng);
/// assert!(d.capacity.cpu() <= 1.0 && d.speed > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityModel {
    /// Fraction of devices in the flagship cluster.
    pub(crate) flagship_fraction: f64,
    /// Mainstream cluster means (cpu, mem).
    pub(crate) mainstream_mean: (f64, f64),
    /// Flagship cluster means (cpu, mem).
    pub(crate) flagship_mean: (f64, f64),
    /// Coefficient of variation inside each cluster.
    pub(crate) cv: f64,
    /// Correlation-inducing shared factor between cpu and mem (0..1).
    pub(crate) axis_correlation: f64,
}

impl Default for CapacityModel {
    fn default() -> Self {
        CapacityModel {
            flagship_fraction: 0.25,
            mainstream_mean: (0.30, 0.32),
            flagship_mean: (0.70, 0.68),
            cv: 0.45,
            axis_correlation: 0.6,
        }
    }
}

impl CapacityModel {
    /// Samples one device profile.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DeviceProfile {
        let flagship = rng.gen::<f64>() < self.flagship_fraction;
        let (mc, mm) = if flagship {
            self.flagship_mean
        } else {
            self.mainstream_mean
        };
        // A shared log-normal factor correlates the two axes: high-end
        // phones tend to be high-end on both.
        let shared = LogNormal::from_mean_cv(1.0, self.cv * self.axis_correlation).sample(rng);
        let own_cv = self.cv * (1.0 - self.axis_correlation);
        let cpu = (mc * shared * LogNormal::from_mean_cv(1.0, own_cv).sample(rng)).clamp(0.0, 1.0);
        let mem = (mm * shared * LogNormal::from_mean_cv(1.0, own_cv).sample(rng)).clamp(0.0, 1.0);
        let capacity = Capacity::new(cpu, mem);
        // Speed grows super-linearly with the capacity score plus
        // device-specific jitter (thermal limits, background load, OS
        // version...). The steep curve mirrors the paper's premise that
        // low-end devices are the stragglers tier matching removes.
        let jitter = Normal::new(0.0, 0.06).sample(rng);
        let speed = (0.15 + 2.2 * capacity.score().powf(1.6) + jitter).max(0.08);
        DeviceProfile { capacity, speed }
    }

    /// Samples `n` device profiles.
    pub fn sample_population<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<DeviceProfile> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Samples one device's profile from its own split RNG stream (see
    /// `stream.rs`): a pure function of `(seed, device)`, so the
    /// profile is identical whether the device is materialized first,
    /// last, or never-until-hour-40 — touch order cannot affect draws.
    pub fn sample_device(&self, seed: u64, device: usize) -> DeviceProfile {
        self.sample(&mut crate::stream::profile_rng(seed, device))
    }

    /// Fraction of a sampled population in each of the paper's four regions
    /// (General-only, Compute-Rich-only, Memory-Rich-only, High-Perf),
    /// in [`SpecCategory::ALL`] order of the *finest* region.
    pub fn region_fractions(
        population: &[DeviceProfile],
        thresholds: CategoryThresholds,
    ) -> [f64; 4] {
        let mut counts = [0usize; 4];
        for d in population {
            let cat = SpecCategory::of_device(&d.capacity, thresholds);
            let idx = SpecCategory::ALL
                .iter()
                .position(|c| *c == cat)
                .expect("category in ALL");
            counts[idx] += 1;
        }
        let n = population.len().max(1) as f64;
        [
            counts[0] as f64 / n,
            counts[1] as f64 / n,
            counts[2] as f64 / n,
            counts[3] as f64 / n,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn population(n: usize, seed: u64) -> Vec<DeviceProfile> {
        let mut rng = StdRng::seed_from_u64(seed);
        CapacityModel::default().sample_population(n, &mut rng)
    }

    #[test]
    fn capacities_are_in_unit_square() {
        for d in population(2_000, 1) {
            assert!((0.0..=1.0).contains(&d.capacity.cpu()));
            assert!((0.0..=1.0).contains(&d.capacity.mem()));
            assert!(d.speed > 0.0);
        }
    }

    #[test]
    fn all_four_regions_are_populated() {
        let pop = population(5_000, 2);
        let f = CapacityModel::region_fractions(&pop, CategoryThresholds::default());
        for (i, frac) in f.iter().enumerate() {
            assert!(*frac > 0.02, "region {i} underpopulated: {frac}");
        }
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn high_perf_is_scarcest_general_most_common() {
        let pop = population(10_000, 3);
        let f = CapacityModel::region_fractions(&pop, CategoryThresholds::default());
        // f = [general-only, compute-only, memory-only, high-perf]
        assert!(f[0] > f[3], "general-only should outnumber high-perf");
        assert!(f[0] > 0.3, "most devices are low/mid range: {f:?}");
    }

    #[test]
    fn speed_correlates_with_capacity() {
        let pop = population(5_000, 4);
        let mut high: Vec<f64> = Vec::new();
        let mut low: Vec<f64> = Vec::new();
        for d in pop {
            if d.capacity.score() > 0.6 {
                high.push(d.speed);
            } else if d.capacity.score() < 0.3 {
                low.push(d.speed);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&high) > 2.0 * mean(&low));
    }

    #[test]
    fn axes_are_positively_correlated() {
        let pop = population(5_000, 5);
        let mx = pop.iter().map(|d| d.capacity.cpu()).sum::<f64>() / pop.len() as f64;
        let my = pop.iter().map(|d| d.capacity.mem()).sum::<f64>() / pop.len() as f64;
        let cov: f64 = pop
            .iter()
            .map(|d| (d.capacity.cpu() - mx) * (d.capacity.mem() - my))
            .sum::<f64>()
            / pop.len() as f64;
        assert!(cov > 0.0, "covariance should be positive: {cov}");
    }

    #[test]
    fn sampling_is_deterministic() {
        assert_eq!(population(10, 42), population(10, 42));
    }
}
