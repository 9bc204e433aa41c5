//! FedAvg orchestration over the synthetic federated dataset.

use crate::dataset::FederatedDataset;
use crate::model::SoftmaxModel;

/// FedAvg hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedAvgConfig {
    /// Local SGD epochs per participant per round.
    pub(crate) local_epochs: usize,
    /// Local learning rate.
    pub(crate) lr: f64,
    /// L2 regularization.
    pub(crate) l2: f64,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig {
            local_epochs: 2,
            lr: 0.05,
            l2: 1e-4,
        }
    }
}

/// A FedAvg training run bound to one dataset.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use venn_fl::{FedAvg, FedAvgConfig, FederatedDataset, FlDataConfig};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let data = FederatedDataset::generate(FlDataConfig::default(), &mut rng);
/// let mut fed = FedAvg::new(data, FedAvgConfig::default());
/// let before = fed.test_accuracy();
/// for round in 0..5 {
///     let participants: Vec<usize> = (0..20).map(|i| (round * 20 + i) % 200).collect();
///     fed.run_round(&participants);
/// }
/// assert!(fed.test_accuracy() > before);
/// ```
#[derive(Debug, Clone)]
pub struct FedAvg {
    dataset: FederatedDataset,
    model: SoftmaxModel,
    config: FedAvgConfig,
    rounds_run: usize,
}

impl FedAvg {
    /// Creates a run with a zero-initialized model.
    pub fn new(dataset: FederatedDataset, config: FedAvgConfig) -> Self {
        let model = SoftmaxModel::new(dataset.config().classes, dataset.config().features);
        FedAvg {
            dataset,
            model,
            config,
            rounds_run: 0,
        }
    }

    /// Runs one FedAvg round with the given participant client indices.
    ///
    /// Each participant trains the current global model locally for
    /// `local_epochs`; the new global model is the sample-size-weighted
    /// average of the locals. Returns the mean local loss of the round.
    ///
    /// Participants out of range are ignored (devices in the scheduler's
    /// population need not all hold data); an effectively empty round
    /// leaves the model unchanged.
    pub fn run_round(&mut self, participants: &[usize]) -> f64 {
        let valid: Vec<usize> = participants
            .iter()
            .copied()
            .filter(|&c| c < self.dataset.clients())
            .collect();
        self.rounds_run += 1;
        if valid.is_empty() {
            return 0.0;
        }
        let mut aggregate = vec![0.0; self.model.params().len()];
        let mut total_weight = 0.0;
        let mut total_loss = 0.0;
        for &client in &valid {
            let mut local = self.model.clone();
            let shard = self.dataset.shard(client);
            let mut loss = 0.0;
            for _ in 0..self.config.local_epochs {
                loss = local.sgd_epoch(shard, self.config.lr, self.config.l2);
            }
            total_loss += loss;
            let weight = shard.len() as f64;
            for (agg, p) in aggregate.iter_mut().zip(local.params()) {
                *agg += weight * p;
            }
            total_weight += weight;
        }
        for (dst, agg) in self.model.params_mut().iter_mut().zip(&aggregate) {
            *dst = agg / total_weight;
        }
        total_loss / valid.len() as f64
    }

    /// Accuracy of the current global model on the held-out test set.
    pub fn test_accuracy(&self) -> f64 {
        self.model.accuracy(self.dataset.test_set())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FlDataConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fed(seed: u64) -> FedAvg {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = FederatedDataset::generate(
            FlDataConfig {
                clients: 60,
                samples_per_client: 30,
                test_samples: 500,
                ..FlDataConfig::default()
            },
            &mut rng,
        );
        FedAvg::new(data, FedAvgConfig::default())
    }

    #[test]
    fn accuracy_rises_over_rounds() {
        let mut fed = small_fed(1);
        let start = fed.test_accuracy();
        assert!(start < 0.2, "zero model ~ random: {start}");
        for round in 0..15 {
            let participants: Vec<usize> = (0..15).map(|i| (round * 7 + i * 3) % 60).collect();
            fed.run_round(&participants);
        }
        let end = fed.test_accuracy();
        assert!(end > 0.55, "converged accuracy {end}");
        assert_eq!(fed.rounds_run, 15);
    }

    #[test]
    fn more_participants_converge_faster() {
        let mut few = small_fed(2);
        let mut many = small_fed(2);
        for round in 0..8 {
            let f: Vec<usize> = (0..3).map(|i| (round * 11 + i * 5) % 60).collect();
            let m: Vec<usize> = (0..30).map(|i| (round * 11 + i) % 60).collect();
            few.run_round(&f);
            many.run_round(&m);
        }
        assert!(
            many.test_accuracy() >= few.test_accuracy(),
            "many {} vs few {}",
            many.test_accuracy(),
            few.test_accuracy()
        );
    }

    #[test]
    fn empty_round_is_a_noop_on_the_model() {
        let mut fed = small_fed(3);
        let before = fed.model.params().to_vec();
        let loss = fed.run_round(&[]);
        assert_eq!(loss, 0.0);
        assert_eq!(fed.model.params(), &before[..]);
        assert_eq!(fed.rounds_run, 1);
    }

    #[test]
    fn out_of_range_participants_are_ignored() {
        let mut fed = small_fed(4);
        let loss = fed.run_round(&[0, 1, 10_000]);
        assert!(loss > 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let mut a = small_fed(5);
        let mut b = small_fed(5);
        for round in 0..3 {
            let p: Vec<usize> = (0..10).map(|i| (round + i * 2) % 60).collect();
            a.run_round(&p);
            b.run_round(&p);
        }
        assert_eq!(a.model.params(), b.model.params());
    }
}
