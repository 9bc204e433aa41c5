//! Synthetic non-IID federated dataset (FEMNIST stand-in).
//!
//! Classes are Gaussian clusters in feature space; each client draws its
//! label distribution from a Dirichlet, so clients are non-IID — the
//! property that makes participant diversity matter, which is what the
//! paper's Fig. 4 (contention hurts accuracy) exercises.

use rand::Rng;

use venn_traces::dist::Normal;

/// Configuration of a synthetic federated dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlDataConfig {
    /// Number of classes.
    pub classes: usize,
    /// Feature dimensionality.
    pub features: usize,
    /// Number of clients.
    pub clients: usize,
    /// Samples per client.
    pub samples_per_client: usize,
    /// Dirichlet concentration: small → highly non-IID clients.
    pub alpha: f64,
    /// Within-class noise (relative to unit cluster separation).
    pub noise: f64,
    /// Held-out test samples.
    pub test_samples: usize,
}

impl Default for FlDataConfig {
    fn default() -> Self {
        FlDataConfig {
            classes: 10,
            features: 32,
            clients: 200,
            samples_per_client: 40,
            alpha: 0.3,
            noise: 0.9,
            test_samples: 1_000,
        }
    }
}

/// One labelled example.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Example {
    /// Feature vector.
    pub(crate) x: Vec<f64>,
    /// Class label.
    pub(crate) y: usize,
}

/// A synthetic federated dataset: per-client shards plus a test set.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    config: FlDataConfig,
    shards: Vec<Vec<Example>>,
    test: Vec<Example>,
}

impl FederatedDataset {
    /// Generates a dataset.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configs (zero classes/features/clients).
    pub fn generate<R: Rng + ?Sized>(config: FlDataConfig, rng: &mut R) -> Self {
        assert!(config.classes > 1, "need at least two classes");
        assert!(config.features > 0, "need at least one feature");
        assert!(config.clients > 0, "need at least one client");
        let std_normal = Normal::new(0.0, 1.0);
        // Unit-norm class means scattered on the sphere.
        let class_means: Vec<Vec<f64>> = (0..config.classes)
            .map(|_| {
                let v: Vec<f64> = (0..config.features)
                    .map(|_| std_normal.sample(rng))
                    .collect();
                let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt().max(1e-9);
                v.into_iter().map(|a| a / norm * 2.0).collect()
            })
            .collect();

        let noise = Normal::new(0.0, config.noise);
        let sample_example = |class: usize, rng: &mut R| -> Example {
            let x = class_means[class]
                .iter()
                .map(|m| m + noise.sample(rng))
                .collect();
            Example { x, y: class }
        };

        let shards: Vec<Vec<Example>> = (0..config.clients)
            .map(|_| {
                let probs = dirichlet(config.alpha, config.classes, rng);
                (0..config.samples_per_client)
                    .map(|_| {
                        let class = sample_categorical(&probs, rng);
                        sample_example(class, rng)
                    })
                    .collect()
            })
            .collect();

        // Test set is class-balanced.
        let test: Vec<Example> = (0..config.test_samples)
            .map(|i| sample_example(i % config.classes, rng))
            .collect();

        FederatedDataset {
            config,
            shards,
            test,
        }
    }

    /// The generation config.
    pub(crate) fn config(&self) -> &FlDataConfig {
        &self.config
    }

    /// Number of clients.
    pub(crate) fn clients(&self) -> usize {
        self.shards.len()
    }

    /// Training shard of one client.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub(crate) fn shard(&self, client: usize) -> &[Example] {
        &self.shards[client]
    }

    /// The held-out test set.
    pub(crate) fn test_set(&self) -> &[Example] {
        &self.test
    }
}

/// Samples from a symmetric Dirichlet via normalized Gamma(alpha, 1) draws
/// (Marsaglia–Tsang for alpha < 1 via boost, otherwise squeeze method).
fn dirichlet<R: Rng + ?Sized>(alpha: f64, k: usize, rng: &mut R) -> Vec<f64> {
    let mut draws: Vec<f64> = (0..k).map(|_| gamma(alpha, rng)).collect();
    let sum: f64 = draws.iter().sum::<f64>().max(1e-12);
    draws.iter_mut().for_each(|v| *v /= sum);
    draws
}

/// Gamma(shape, 1) sampler (Marsaglia & Tsang 2000, with the alpha < 1
/// boosting trick).
fn gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    let normal = Normal::new(0.0, 1.0);
    loop {
        let x = normal.sample(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

fn sample_categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let mut u: f64 = rng.gen();
    for (i, p) in probs.iter().enumerate() {
        if u < *p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Empirical label distribution of one client.
    fn label_histogram(d: &FederatedDataset, client: usize) -> Vec<f64> {
        let mut h = vec![0.0; d.config.classes];
        for ex in &d.shards[client] {
            h[ex.y] += 1.0;
        }
        let total: f64 = h.iter().sum::<f64>().max(1.0);
        h.iter_mut().for_each(|v| *v /= total);
        h
    }

    fn dataset(seed: u64) -> FederatedDataset {
        let mut rng = StdRng::seed_from_u64(seed);
        FederatedDataset::generate(FlDataConfig::default(), &mut rng)
    }

    #[test]
    fn shapes_match_config() {
        let d = dataset(1);
        assert_eq!(d.clients(), 200);
        assert_eq!(d.shard(0).len(), 40);
        assert_eq!(d.shard(0)[0].x.len(), 32);
        assert_eq!(d.test_set().len(), 1_000);
    }

    #[test]
    fn labels_are_in_range() {
        let d = dataset(2);
        for c in 0..d.clients() {
            for ex in d.shard(c) {
                assert!(ex.y < 10);
            }
        }
    }

    #[test]
    fn clients_are_non_iid() {
        let d = dataset(3);
        // With alpha = 0.3, most clients concentrate on few classes: the
        // max label share should often exceed 0.5.
        let concentrated = (0..d.clients())
            .filter(|&c| label_histogram(&d, c).iter().cloned().fold(0.0, f64::max) > 0.5)
            .count();
        assert!(
            concentrated > d.clients() / 3,
            "only {concentrated} concentrated clients"
        );
    }

    #[test]
    fn test_set_is_balanced() {
        let d = dataset(4);
        let mut counts = vec![0usize; 10];
        for ex in d.test_set() {
            counts[ex.y] += 1;
        }
        assert!(counts.iter().all(|&c| c == 100), "{counts:?}");
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(5);
        for alpha in [0.1, 0.5, 1.0, 5.0] {
            let p = dirichlet(alpha, 8, &mut rng);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let mean: f64 = (0..20_000).map(|_| gamma(2.5, &mut rng)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset(7);
        let b = dataset(7);
        assert_eq!(a.shard(3), b.shard(3));
    }
}
