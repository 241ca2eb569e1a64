//! Logistic regression (single sigmoid unit) with SGD training.
//!
//! Used directly by the Ditto-style matcher head and by the confidence
//! indication metric (§5.3), which trains a logistic model from saliency
//! statistics to the matcher's score.

use crate::activation::sigmoid;
use crate::kernels::dot;
use crate::optim::sgd_step;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Weights + bias of a logistic model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    w: Vec<f64>,
    b: f64,
}

/// Training hyper-parameters for [`LogisticRegression::fit`].
#[derive(Debug, Clone, Copy)]
pub struct LogisticConfig {
    /// Number of epochs over the data.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// L2 regularization strength.
    pub l2: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for LogisticConfig {
    fn default() -> Self {
        LogisticConfig {
            epochs: 100,
            lr: 0.1,
            l2: 1e-4,
            seed: 7,
        }
    }
}

impl LogisticRegression {
    /// Zero-initialized model over `dim` features.
    pub fn new(dim: usize) -> Self {
        LogisticRegression {
            w: vec![0.0; dim],
            b: 0.0,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Learned weights (after fitting).
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Learned bias.
    pub fn bias(&self) -> f64 {
        self.b
    }

    /// P(y = 1 | x).
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.w.len(), "feature dimension mismatch");
        sigmoid(dot(&self.w, x) + self.b)
    }

    /// Fit with plain SGD on BCE loss. `ys` may be soft targets in `[0, 1]`
    /// (the confidence-indication metric regresses onto raw scores).
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64], cfg: &LogisticConfig) {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty(), "cannot fit on empty data");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut grad = vec![0.0; self.w.len()];
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let p = self.predict_proba(&xs[i]);
                let err = p - ys[i];
                for (g, xi) in grad.iter_mut().zip(xs[i].iter()) {
                    *g = err * xi;
                }
                sgd_step(&mut self.w, &grad, cfg.lr, cfg.l2);
                self.b -= cfg.lr * err;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_linear_data() {
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 / 40.0, 1.0 - i as f64 / 40.0])
            .collect();
        let ys: Vec<f64> = (0..40).map(|i| if i >= 20 { 1.0 } else { 0.0 }).collect();
        let mut m = LogisticRegression::new(2);
        m.fit(&xs, &ys, &LogisticConfig::default());
        assert!(m.predict_proba(&[0.9, 0.1]) > 0.7);
        assert!(m.predict_proba(&[0.1, 0.9]) < 0.3);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn soft_targets_regress_to_mean() {
        // Constant feature, targets 0.3 — model should output ~0.3.
        let xs: Vec<Vec<f64>> = (0..50).map(|_| vec![1.0]).collect();
        let ys = vec![0.3; 50];
        let mut m = LogisticRegression::new(1);
        m.fit(
            &xs,
            &ys,
            &LogisticConfig {
                epochs: 300,
                lr: 0.05,
                l2: 0.0,
                seed: 1,
            },
        );
        assert!((m.predict_proba(&[1.0]) - 0.3).abs() < 0.02);
    }

    #[test]
    fn untrained_model_outputs_half() {
        let m = LogisticRegression::new(3);
        assert_eq!(m.predict_proba(&[1.0, 2.0, 3.0]), 0.5);
        assert_eq!(m.bias(), 0.0);
        assert!(m.weights().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn deterministic_fit() {
        let xs = vec![vec![0.1], vec![0.9], vec![0.2], vec![0.8]];
        let ys = vec![0.0, 1.0, 0.0, 1.0];
        let cfg = LogisticConfig::default();
        let mut a = LogisticRegression::new(1);
        let mut b = LogisticRegression::new(1);
        a.fit(&xs, &ys, &cfg);
        b.fit(&xs, &ys, &cfg);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.bias(), b.bias());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_fit_panics() {
        let mut m = LogisticRegression::new(1);
        m.fit(&[], &[], &LogisticConfig::default());
    }
}
