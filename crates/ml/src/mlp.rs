//! A small multi-layer perceptron for binary classification, trained with
//! mini-batch backprop + Adam on the binary cross-entropy loss.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::optim::{Adam, AdamConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One dense layer: `a = act(W x + b)`.
#[derive(Debug, Clone)]
struct Dense {
    w: Matrix,
    b: Vec<f64>,
    act: Activation,
}

impl Dense {
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut z = self.w.matvec(x);
        for (zi, bi) in z.iter_mut().zip(self.b.iter()) {
            *zi = self.act.apply(*zi + bi);
        }
        z
    }
}

/// Training hyper-parameters for [`Mlp::fit`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths (empty = logistic regression shape).
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam settings.
    pub adam: AdamConfig,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![16],
            activation: Activation::Tanh,
            epochs: 30,
            batch_size: 16,
            adam: AdamConfig {
                lr: 5e-3,
                weight_decay: 1e-4,
                ..Default::default()
            },
            seed: 17,
        }
    }
}

/// A feed-forward binary classifier ending in one sigmoid unit.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    input_dim: usize,
}

/// The full parameters of one dense layer, as exported by [`Mlp::snapshot`].
///
/// Row-major weights (`rows × cols`), one bias per row, plus the layer's
/// activation. The persistence layer (`certa-store`) round-trips networks
/// through this representation; [`Mlp::from_snapshot`] validates that the
/// layer chain is dimensionally consistent before rebuilding.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSnapshot {
    /// Output width of the layer.
    pub rows: usize,
    /// Input width of the layer.
    pub cols: usize,
    /// Row-major weight buffer (`rows * cols` entries).
    pub weights: Vec<f64>,
    /// Bias vector (`rows` entries).
    pub bias: Vec<f64>,
    /// The layer's activation.
    pub activation: Activation,
}

/// A complete, self-describing export of a trained [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpSnapshot {
    /// Expected feature count of the first layer.
    pub input_dim: usize,
    /// All layers, input side first.
    pub layers: Vec<DenseSnapshot>,
}

impl Mlp {
    /// Build an untrained network for `input_dim` features according to the
    /// config's layer plan. The output layer is always a single sigmoid unit.
    pub fn new(input_dim: usize, cfg: &MlpConfig) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&cfg.hidden);
        dims.push(1);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i == dims.len() - 2 {
                Activation::Sigmoid
            } else {
                cfg.activation
            };
            layers.push(Dense {
                w: Matrix::xavier(dims[i + 1], dims[i], cfg.seed.wrapping_add(i as u64 * 7919)),
                b: vec![0.0; dims[i + 1]],
                act,
            });
        }
        Mlp { layers, input_dim }
    }

    /// Expected feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Export every parameter of the network (weights, biases, activations)
    /// as a [`MlpSnapshot`]. `from_snapshot(snapshot())` rebuilds a network
    /// whose forward pass is **bit-identical** to this one.
    pub fn snapshot(&self) -> MlpSnapshot {
        MlpSnapshot {
            input_dim: self.input_dim,
            layers: self
                .layers
                .iter()
                .map(|l| DenseSnapshot {
                    rows: l.w.rows(),
                    cols: l.w.cols(),
                    weights: l.w.as_slice().to_vec(),
                    bias: l.b.clone(),
                    activation: l.act,
                })
                .collect(),
        }
    }

    /// Rebuild a network from exported parameters, validating the layer
    /// chain: the first layer's `cols` must equal `input_dim`, each layer's
    /// input width must equal the previous layer's output width, the final
    /// layer must have exactly one output unit, and every buffer must have
    /// the declared length. Returns a description of the first violation.
    pub fn from_snapshot(snapshot: MlpSnapshot) -> Result<Mlp, String> {
        if snapshot.input_dim == 0 {
            return Err("input dimension must be positive".to_string());
        }
        if snapshot.layers.is_empty() {
            return Err("network must have at least one layer".to_string());
        }
        let mut expected_in = snapshot.input_dim;
        let last = snapshot.layers.len() - 1;
        let mut layers = Vec::with_capacity(snapshot.layers.len());
        for (i, l) in snapshot.layers.into_iter().enumerate() {
            if l.cols != expected_in {
                return Err(format!(
                    "layer {i}: input width {} does not chain with previous width {expected_in}",
                    l.cols
                ));
            }
            if l.rows == 0 {
                return Err(format!("layer {i}: zero output width"));
            }
            if i == last && l.rows != 1 {
                return Err(format!(
                    "output layer must have exactly one unit, got {}",
                    l.rows
                ));
            }
            if l.weights.len() != l.rows * l.cols {
                return Err(format!(
                    "layer {i}: weight buffer holds {} values, expected {}",
                    l.weights.len(),
                    l.rows * l.cols
                ));
            }
            if l.bias.len() != l.rows {
                return Err(format!(
                    "layer {i}: bias holds {} values, expected {}",
                    l.bias.len(),
                    l.rows
                ));
            }
            expected_in = l.rows;
            layers.push(Dense {
                w: Matrix::from_vec(l.rows, l.cols, l.weights),
                b: l.bias,
                act: l.activation,
            });
        }
        Ok(Mlp {
            layers,
            input_dim: snapshot.input_dim,
        })
    }

    /// Probability that the input belongs to the positive class.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.input_dim, "feature dimension mismatch");
        let mut a = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            a = layer.forward(&a);
        }
        a[0]
    }

    /// Forward pass caching all activations (input first, output last).
    fn forward_cached(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for layer in &self.layers {
            let next = layer.forward(acts.last().expect("non-empty"));
            acts.push(next);
        }
        acts
    }

    /// Accumulate the BCE gradient of one example into `grads`; returns loss.
    ///
    /// The sigmoid output + BCE pairing gives `dL/dz_out = p − y`.
    fn accumulate_grads(&self, x: &[f64], y: f64, grads: &mut [(Matrix, Vec<f64>)]) -> f64 {
        let acts = self.forward_cached(x);
        let p = acts.last().expect("output")[0];
        let loss = bce_loss(p, y);
        // delta for the output layer (sigmoid+BCE shortcut).
        let mut delta = vec![p - y];
        for l in (0..self.layers.len()).rev() {
            let input = &acts[l];
            let (gw, gb) = &mut grads[l];
            gw.add_outer(1.0, &delta, input);
            for (gbi, di) in gb.iter_mut().zip(delta.iter()) {
                *gbi += di;
            }
            if l > 0 {
                // Propagate: delta_prev = Wᵀ delta ⊙ act'(a_prev)
                let mut prev = self.layers[l].w.matvec_t(&delta);
                let act = self.layers[l - 1].act;
                for (pd, a) in prev.iter_mut().zip(acts[l].iter()) {
                    *pd *= act.derivative_from_output(*a);
                }
                delta = prev;
            }
        }
        loss
    }

    /// Train on `(x, y)` rows (`y ∈ {0, 1}`); returns per-epoch mean losses.
    ///
    /// Deterministic for fixed config seed.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64], cfg: &MlpConfig) -> Vec<f64> {
        assert_eq!(xs.len(), ys.len(), "feature/label length mismatch");
        assert!(!xs.is_empty(), "cannot fit on an empty training set");
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9e37_79b9));
        let mut order: Vec<usize> = (0..xs.len()).collect();

        let mut opts: Vec<(Adam, Adam)> = self
            .layers
            .iter()
            .map(|l| {
                (
                    Adam::new(l.w.as_slice().len(), cfg.adam),
                    Adam::new(l.b.len(), cfg.adam),
                )
            })
            .collect();
        let mut grads: Vec<(Matrix, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| (Matrix::zeros(l.w.rows(), l.w.cols()), vec![0.0; l.b.len()]))
            .collect();

        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut total_loss = 0.0;
            for batch in order.chunks(cfg.batch_size.max(1)) {
                for (gw, gb) in grads.iter_mut() {
                    gw.fill_zero();
                    gb.iter_mut().for_each(|v| *v = 0.0);
                }
                for &i in batch {
                    total_loss += self.accumulate_grads(&xs[i], ys[i], &mut grads);
                }
                let scale = 1.0 / batch.len() as f64;
                for (l, layer) in self.layers.iter_mut().enumerate() {
                    let (gw, gb) = &mut grads[l];
                    gw.as_mut_slice().iter_mut().for_each(|g| *g *= scale);
                    gb.iter_mut().for_each(|g| *g *= scale);
                    opts[l].0.step(layer.w.as_mut_slice(), gw.as_slice());
                    opts[l].1.step(&mut layer.b, gb);
                }
            }
            epoch_losses.push(total_loss / xs.len() as f64);
        }
        epoch_losses
    }

    #[cfg(test)]
    fn numeric_gradient_check(&self, x: &[f64], y: f64) -> f64 {
        // Compare analytic vs numeric gradient for every parameter.
        let mut grads: Vec<(Matrix, Vec<f64>)> = self
            .layers
            .iter()
            .map(|l| (Matrix::zeros(l.w.rows(), l.w.cols()), vec![0.0; l.b.len()]))
            .collect();
        self.accumulate_grads(x, y, &mut grads);
        let eps = 1e-6;
        let mut max_err: f64 = 0.0;
        for l in 0..self.layers.len() {
            for idx in 0..self.layers[l].w.as_slice().len() {
                let mut plus = self.clone();
                plus.layers[l].w.as_mut_slice()[idx] += eps;
                let mut minus = self.clone();
                minus.layers[l].w.as_mut_slice()[idx] -= eps;
                let numeric = (bce_loss(plus.predict_proba(x), y)
                    - bce_loss(minus.predict_proba(x), y))
                    / (2.0 * eps);
                max_err = max_err.max((numeric - grads[l].0.as_slice()[idx]).abs());
            }
            for idx in 0..self.layers[l].b.len() {
                let mut plus = self.clone();
                plus.layers[l].b[idx] += eps;
                let mut minus = self.clone();
                minus.layers[l].b[idx] -= eps;
                let numeric = (bce_loss(plus.predict_proba(x), y)
                    - bce_loss(minus.predict_proba(x), y))
                    / (2.0 * eps);
                max_err = max_err.max((numeric - grads[l].1[idx]).abs());
            }
        }
        max_err
    }
}

/// Binary cross-entropy of predicted probability `p` against label `y`.
pub fn bce_loss(p: f64, y: f64) -> f64 {
    let p = p.clamp(1e-12, 1.0 - 1e-12);
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![0.0, 1.0, 1.0, 0.0];
        (xs, ys)
    }

    #[test]
    fn learns_xor() {
        let cfg = MlpConfig {
            hidden: vec![8],
            epochs: 800,
            batch_size: 4,
            adam: AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
            seed: 3,
            ..Default::default()
        };
        let (xs, ys) = xor_data();
        let mut net = Mlp::new(2, &cfg);
        let losses = net.fit(&xs, &ys, &cfg);
        assert!(
            losses.last().unwrap() < &0.1,
            "final loss {:?}",
            losses.last()
        );
        for (x, y) in xs.iter().zip(ys.iter()) {
            let p = net.predict_proba(x);
            assert_eq!(p > 0.5, *y > 0.5, "xor({x:?}) predicted {p}");
        }
    }

    #[test]
    fn gradient_check_small_net() {
        let cfg = MlpConfig {
            hidden: vec![3],
            seed: 11,
            ..Default::default()
        };
        let net = Mlp::new(4, &cfg);
        let x = vec![0.3, -0.8, 0.5, 0.1];
        for y in [0.0, 1.0] {
            let err = net.numeric_gradient_check(&x, y);
            assert!(err < 1e-5, "max gradient error {err}");
        }
    }

    #[test]
    fn gradient_check_deeper_net() {
        let cfg = MlpConfig {
            hidden: vec![4, 3],
            activation: Activation::Tanh,
            seed: 5,
            ..Default::default()
        };
        let net = Mlp::new(3, &cfg);
        let err = net.numeric_gradient_check(&[0.1, 0.9, -0.4], 1.0);
        assert!(err < 1e-5, "max gradient error {err}");
    }

    #[test]
    fn deterministic_training() {
        let cfg = MlpConfig {
            epochs: 5,
            seed: 42,
            ..Default::default()
        };
        let (xs, ys) = xor_data();
        let mut a = Mlp::new(2, &cfg);
        let mut b = Mlp::new(2, &cfg);
        a.fit(&xs, &ys, &cfg);
        b.fit(&xs, &ys, &cfg);
        for x in &xs {
            assert_eq!(a.predict_proba(x), b.predict_proba(x));
        }
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let cfg = MlpConfig::default();
        let net = Mlp::new(5, &cfg);
        for i in 0..20 {
            let x: Vec<f64> = (0..5).map(|j| ((i * 5 + j) as f64).sin() * 3.0).collect();
            let p = net.predict_proba(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn bce_loss_behaviour() {
        assert!(bce_loss(0.99, 1.0) < bce_loss(0.5, 1.0));
        assert!(bce_loss(0.01, 0.0) < bce_loss(0.5, 0.0));
        assert!(bce_loss(0.0, 1.0).is_finite(), "clamped at the boundary");
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn wrong_input_dim_panics() {
        let net = Mlp::new(3, &MlpConfig::default());
        let _ = net.predict_proba(&[1.0]);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let cfg = MlpConfig {
            hidden: vec![5, 3],
            seed: 23,
            ..Default::default()
        };
        let net = Mlp::new(4, &cfg);
        let rebuilt = Mlp::from_snapshot(net.snapshot()).unwrap();
        assert_eq!(rebuilt.input_dim(), 4);
        for i in 0..30 {
            let x: Vec<f64> = (0..4).map(|j| ((i * 4 + j) as f64).sin() * 2.0).collect();
            assert_eq!(
                net.predict_proba(&x).to_bits(),
                rebuilt.predict_proba(&x).to_bits(),
                "forward pass diverged on {x:?}"
            );
        }
        assert_eq!(net.snapshot(), rebuilt.snapshot());
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_chains() {
        let net = Mlp::new(3, &MlpConfig::default());
        let good = net.snapshot();

        let mut bad = good.clone();
        bad.input_dim = 5;
        assert!(Mlp::from_snapshot(bad).unwrap_err().contains("chain"));

        let mut bad = good.clone();
        bad.layers[0].weights.pop();
        assert!(Mlp::from_snapshot(bad).unwrap_err().contains("weight"));

        let mut bad = good.clone();
        bad.layers[1].bias.push(0.0);
        assert!(Mlp::from_snapshot(bad).unwrap_err().contains("bias"));

        let mut bad = good.clone();
        bad.layers.pop();
        assert!(Mlp::from_snapshot(bad)
            .unwrap_err()
            .contains("output layer"));

        let mut bad = good;
        bad.layers.clear();
        assert!(Mlp::from_snapshot(bad).unwrap_err().contains("layer"));
    }

    #[test]
    fn no_hidden_layers_is_logistic_regression() {
        let cfg = MlpConfig {
            hidden: vec![],
            epochs: 300,
            batch_size: 4,
            adam: AdamConfig {
                lr: 0.1,
                ..Default::default()
            },
            seed: 1,
            ..Default::default()
        };
        // Linearly separable data.
        let xs = vec![vec![0.0], vec![0.2], vec![0.8], vec![1.0]];
        let ys = vec![0.0, 0.0, 1.0, 1.0];
        let mut net = Mlp::new(1, &cfg);
        net.fit(&xs, &ys, &cfg);
        assert!(net.predict_proba(&[0.0]) < 0.5);
        assert!(net.predict_proba(&[1.0]) > 0.5);
    }
}
