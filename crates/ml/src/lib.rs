//! # certa-ml
//!
//! The minimal machine-learning stack backing the ER matcher zoo and the
//! perturbation-based explainers.
//!
//! The paper's matchers are deep networks (LSTM, hybrid attention,
//! DistilBERT); this workspace re-creates their *decision-surface role* with
//! small feed-forward networks trained by the backprop/Adam implementation
//! here: the explainers only query scores, so the decision surface is what
//! has to carry over, not the architecture. The baseline
//! explainers additionally need weighted linear solvers: LIME fits a locally
//! weighted ridge regression and KernelSHAP solves a weighted least-squares
//! system — both provided by [`ridge`].
//!
//! Everything is deterministic given a seed; pure `f64`-on-`Vec` math with no
//! BLAS or SIMD intrinsics — the forward pass runs on the blocked,
//! autovectorization-friendly kernels in [`kernels`], pinned bit-identical
//! to the scalar loops they replaced (dataset scales keep dense layers tiny:
//! tens of inputs, tens of hidden units).

// Dense linear-algebra kernels index rows/columns explicitly; the iterator
// rewrites clippy suggests obscure the row-major indexing they implement.
#![allow(clippy::needless_range_loop)]

pub mod activation;
pub mod dataset;
pub mod hashing_features;
pub mod kernels;
pub mod logistic;
pub mod matrix;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod ridge;

pub use activation::Activation;
pub use dataset::TrainSet;
pub use hashing_features::FeatureHasher;
pub use logistic::LogisticRegression;
pub use matrix::Matrix;
pub use metrics::{accuracy, auc_trapezoid, confusion, f1_score, mae, ConfusionCounts};
pub use mlp::{DenseSnapshot, Mlp, MlpConfig, MlpSnapshot};
pub use optim::{Adam, AdamConfig};
pub use ridge::{ridge_regression, solve_linear_system, weighted_ridge};
