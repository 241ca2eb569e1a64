//! # certa-explain
//!
//! The paper's contribution: **CERTA**, a saliency + counterfactual
//! explainer for black-box entity-resolution classifiers (§3–4).
//!
//! The pipeline for one prediction `M(⟨u, v⟩) = y`:
//!
//! 1. [`triangles`] — find *open triangles*: support records `w` on one side
//!    that the model classifies **opposite** to `y` against the fixed pivot
//!    (`M(⟨w, v⟩) = ȳ` for left triangles). When the tables cannot supply
//!    enough, [`augment`] synthesizes extra candidates by dropping leading /
//!    trailing tokens (§3.3).
//! 2. [`perturb`] — the ψ function: copy the support's values for an
//!    attribute subset `A` into the free record.
//! 3. [`lattice`] — explore the powerset of one side's attributes bottom-up,
//!    tagging each subset with whether its perturbation flips the
//!    prediction; under the monotone-classifier assumption a flip at `A`
//!    is propagated to every superset without testing (§4), and the tested
//!    flips form the *minimal flipping antichain*.
//! 4. [`saliency`] / [`counterfactual`] — frequency estimates of the
//!    probability of **necessity** (per attribute → saliency scores Φ) and
//!    of **sufficiency** (per subset → the golden set `A★` and the
//!    counterfactual examples `E`), per Equations 1–3.
//!
//! [`Certa`] assembles these into Algorithm 1. Everything is deterministic
//! given the [`CertaConfig`] seed, and the model is only ever accessed via
//! [`certa_core::Matcher::score`] /
//! [`score_batch`](certa_core::Matcher::score_batch).
//!
//! ## The batch engine ([`batch`])
//!
//! [`Certa::explain_batch`] explains many predictions at once on
//! [`certa_core::run_indexed`], the workspace's one work-stealing pool
//! (`CertaConfig::workers`; `0` = one per core). That pair pool is the
//! crate's only fan-out: a single [`Certa::explain`] call is sequential.
//! **Determinism guarantee:** batch output is byte-identical to a
//! sequential loop of `explain` calls in input order — per-pair work is
//! deterministic in the config and workers share no mutable state.
//! Scheduling can only change wall-clock time.
//! Pair this engine with `certa_models::CachingMatcher` (sharded,
//! at-most-once per distinct pair) so concurrent workers never serialize on
//! one cache lock nor double-score the model.
//!
//! [`certa_core::Matcher::score_batch`] is the per-pair `score` loop for
//! every model in the workspace; an override must stay value-identical to
//! `score` pair-by-pair — the explainers treat the two as interchangeable.

pub mod augment;
pub mod batch;
pub mod certa;
pub mod config;
pub mod counterfactual;
pub mod explanation;
pub mod lattice;
#[cfg(test)]
mod oracle;
pub mod perturb;
pub mod saliency;
pub mod triangles;

pub use certa::{mean_necessity_of, Certa, CertaExplanation};
pub use config::CertaConfig;
pub use explanation::{
    AttrRef, CounterfactualExample, CounterfactualExplainer, CounterfactualExplanation,
    SaliencyExplainer, SaliencyExplanation,
};
pub use lattice::{AttrMask, Exploration, LatticeStats};
pub use triangles::{find_triangles, OpenTriangle, TriangleStats};
