//! Distribution samplers built on uniform draws.
//!
//! Implemented from scratch (Box–Muller, inversion) so the workspace
//! only depends on `rand`'s uniform source. Each distribution is a small
//! value type with a `sample` method, mirroring `rand_distr`'s API shape.

use rand::Rng;

/// Normal distribution via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use venn_traces::dist::Normal;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let n = Normal::new(10.0, 2.0);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters"
        );
        Normal { mean, std_dev }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller; u1 is kept away from 0 so ln is finite.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.std_dev * z
    }
}

/// Log-normal distribution parameterized by the underlying normal.
///
/// Device response times follow a log-normal (paper §4.3, citing FLINT), as
/// do the job demand marginals we fit to Fig. 8b.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    inner: Normal,
}

impl LogNormal {
    /// Creates from the *log-space* mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Normal::new`].
    pub(crate) fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            inner: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal with the given *linear-space* mean and
    /// coefficient of variation (`cv = std/mean`).
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `cv < 0`.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0, "invalid log-normal parameters");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal::new(mu, sigma2.sqrt())
    }

    /// Draws one sample (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng).exp()
    }
}

/// Exponential distribution (inter-arrival times of Poisson processes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates from the mean inter-arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub(crate) fn from_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { rate: 1.0 / mean }
    }

    /// Draws one sample (inversion method).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn normal_matches_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Normal::new(5.0, 2.0);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let (m, v) = mean_var(&samples);
        assert!((m - 5.0).abs() < 0.1, "mean {m}");
        assert!((v - 4.0).abs() < 0.3, "var {v}");
    }

    #[test]
    fn lognormal_is_positive_and_matches_mean() {
        let mut rng = StdRng::seed_from_u64(8);
        let d = LogNormal::from_mean_cv(10.0, 0.5);
        let samples: Vec<f64> = (0..40_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x > 0.0));
        let (m, _) = mean_var(&samples);
        assert!((m - 10.0).abs() < 0.3, "mean {m}");
    }

    #[test]
    fn lognormal_cv_controls_spread() {
        let mut rng = StdRng::seed_from_u64(9);
        let narrow = LogNormal::from_mean_cv(10.0, 0.1);
        let wide = LogNormal::from_mean_cv(10.0, 2.0);
        let ns: Vec<f64> = (0..10_000).map(|_| narrow.sample(&mut rng)).collect();
        let ws: Vec<f64> = (0..10_000).map(|_| wide.sample(&mut rng)).collect();
        assert!(mean_var(&ns).1 < mean_var(&ws).1);
    }

    #[test]
    fn exponential_matches_mean() {
        let mut rng = StdRng::seed_from_u64(10);
        let d = Exponential::from_mean(30.0);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut rng)).collect();
        let (m, _) = mean_var(&samples);
        assert!((m - 30.0).abs() < 1.0, "mean {m}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Normal::new(0.0, 1.0);
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn zero_rate_panics() {
        Exponential::from_mean(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "invalid normal parameters")]
    fn negative_std_panics() {
        Normal::new(0.0, -1.0);
    }
}
