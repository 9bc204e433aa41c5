//! Multinomial logistic regression with softmax cross-entropy SGD.

use crate::dataset::Example;

/// A linear softmax classifier: weights `[classes × features]` plus bias.
///
/// Small enough to train thousands of federated rounds in seconds, rich
/// enough that accuracy improves with more and more-diverse participants —
/// the property Figs. 4 and 9 measure.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SoftmaxModel {
    classes: usize,
    features: usize,
    /// Row-major `[classes][features]` weights followed by `classes` biases.
    params: Vec<f64>,
}

impl SoftmaxModel {
    /// Creates a zero-initialized model.
    ///
    /// # Panics
    ///
    /// Panics if `classes < 2` or `features == 0`.
    pub(crate) fn new(classes: usize, features: usize) -> Self {
        assert!(classes >= 2, "need at least two classes");
        assert!(features > 0, "need at least one feature");
        SoftmaxModel {
            classes,
            features,
            params: vec![0.0; classes * features + classes],
        }
    }

    /// Flat parameter vector (weights then biases).
    pub(crate) fn params(&self) -> &[f64] {
        &self.params
    }

    /// Mutable flat parameter vector.
    pub(crate) fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn logits(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.classes);
        for c in 0..self.classes {
            let w = &self.params[c * self.features..(c + 1) * self.features];
            let b = self.params[self.classes * self.features + c];
            out.push(b + w.iter().zip(x).map(|(wi, xi)| wi * xi).sum::<f64>());
        }
        out
    }

    /// Class probabilities for one input.
    pub(crate) fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let logits = self.logits(x);
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Most likely class for one input.
    pub(crate) fn predict(&self, x: &[f64]) -> usize {
        let probs = self.predict_proba(x);
        probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    /// One epoch of plain SGD over `examples` with learning rate `lr` and
    /// L2 regularization `l2`. Returns the mean cross-entropy loss.
    pub(crate) fn sgd_epoch(&mut self, examples: &[Example], lr: f64, l2: f64) -> f64 {
        let mut total_loss = 0.0;
        for ex in examples {
            let probs = self.predict_proba(&ex.x);
            total_loss += -(probs[ex.y].max(1e-12)).ln();
            for (c, &prob) in probs.iter().enumerate().take(self.classes) {
                let err = prob - if c == ex.y { 1.0 } else { 0.0 };
                let base = c * self.features;
                for (f, xf) in ex.x.iter().enumerate() {
                    let w = &mut self.params[base + f];
                    *w -= lr * (err * xf + l2 * *w);
                }
                self.params[self.classes * self.features + c] -= lr * err;
            }
        }
        if examples.is_empty() {
            0.0
        } else {
            total_loss / examples.len() as f64
        }
    }

    /// Top-1 accuracy on a labelled set; `0.0` for an empty set.
    pub(crate) fn accuracy(&self, examples: &[Example]) -> f64 {
        if examples.is_empty() {
            return 0.0;
        }
        let correct = examples
            .iter()
            .filter(|ex| self.predict(&ex.x) == ex.y)
            .count();
        correct as f64 / examples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{FederatedDataset, FlDataConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_examples() -> Vec<Example> {
        // Two linearly separable blobs on one feature.
        (0..40)
            .map(|i| Example {
                x: vec![if i % 2 == 0 { 1.0 } else { -1.0 }],
                y: i % 2,
            })
            .collect()
    }

    #[test]
    fn zero_model_predicts_uniform() {
        let m = SoftmaxModel::new(4, 3);
        let p = m.predict_proba(&[1.0, 2.0, 3.0]);
        for v in p {
            assert!((v - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn sgd_fits_separable_data() {
        let mut m = SoftmaxModel::new(2, 1);
        let data = toy_examples();
        let first_loss = m.sgd_epoch(&data, 0.5, 0.0);
        let mut last_loss = first_loss;
        for _ in 0..20 {
            last_loss = m.sgd_epoch(&data, 0.5, 0.0);
        }
        assert!(last_loss < first_loss / 2.0, "{first_loss} -> {last_loss}");
        assert_eq!(m.accuracy(&data), 1.0);
    }

    #[test]
    fn accuracy_improves_on_synthetic_federated_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = FederatedDataset::generate(
            FlDataConfig {
                clients: 20,
                ..FlDataConfig::default()
            },
            &mut rng,
        );
        let mut m = SoftmaxModel::new(10, 32);
        let before = m.accuracy(data.test_set());
        let all: Vec<Example> = (0..20).flat_map(|c| data.shard(c).to_vec()).collect();
        for _ in 0..5 {
            m.sgd_epoch(&all, 0.05, 1e-4);
        }
        let after = m.accuracy(data.test_set());
        assert!(after > before + 0.3, "{before} -> {after}");
    }

    #[test]
    fn softmax_is_numerically_stable() {
        let mut m = SoftmaxModel::new(2, 1);
        m.params_mut()[0] = 1e3; // huge logit
        let p = m.predict_proba(&[1.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_epoch_is_zero_loss() {
        let mut m = SoftmaxModel::new(2, 1);
        assert_eq!(m.sgd_epoch(&[], 0.1, 0.0), 0.0);
        assert_eq!(m.accuracy(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn one_class_panics() {
        SoftmaxModel::new(1, 4);
    }
}
