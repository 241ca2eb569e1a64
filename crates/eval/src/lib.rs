//! # certa-eval
//!
//! Evaluation metrics and experiment runners for every table and figure of
//! the paper's Section 5:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`faithfulness`] | Table 2 (masking AUC, lower = better) |
//! | [`confidence`] | Table 3 (confidence-indication MAE, lower = better) |
//! | [`cf_metrics`] | Tables 4–6 + Figure 10 (proximity / sparsity / diversity / counts) |
//! | [`triangle_sweep`] | Figure 11 (metrics vs τ) |
//! | [`monotonicity`] | Table 7 (saved predictions vs error rate) |
//! | [`augmentation`] | Tables 8–10 (triangle supply + forced-augmentation deltas) |
//! | [`casestudy`] | Figure 12 (actual vs explained saliency, Aggr@k) |
//! | [`grid`] | the (dataset × model × method) experiment driver |
//! | [`report`] | plain-text table rendering |
//!
//! Every metric takes explanations computed beforehand, one per explained
//! pair, and never explains anything itself: [`faithfulness_auc`] and
//! [`confidence_indication`] re-score pairs through the matcher, and
//! [`cf_metrics_for`] reads the examples alone. So a runner explains its
//! pairs once and every metric reads the same explanations. The grid runs
//! one [`certa_core::run_indexed`] pool over its (dataset, model, method)
//! cells; every matcher is wrapped in a content-addressed score cache, so
//! repeated perturbations (which dominate explainer workloads) hit the
//! model once.

pub mod augmentation;
pub mod casestudy;
pub mod cf_metrics;
pub mod confidence;
pub mod faithfulness;
pub mod grid;
pub mod masking;
pub mod monotonicity;
pub mod report;
pub mod triangle_sweep;

pub use cf_metrics::{cf_metrics_for, CfAggregate};
pub use confidence::confidence_indication;
pub use faithfulness::{faithfulness_auc, FAITHFULNESS_THRESHOLDS};
pub use grid::{prepare, GridConfig, PreparedDataset};
pub use report::TableBuilder;
