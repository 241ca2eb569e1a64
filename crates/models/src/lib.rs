//! # certa-models
//!
//! The ER matcher zoo: from-scratch Rust stand-ins for the three
//! deep-learning systems the paper explains (§5.1):
//!
//! * [`ModelKind::DeepEr`] — record-level distributed representations
//!   (hashed word embeddings, mean-pooled per record) combined as
//!   `[|e_u − e_v| ; e_u ⊙ e_v]` and classified by an MLP. Mirrors DeepER's
//!   "embed the whole record, then classify" design; the LSTM is replaced by
//!   mean pooling.
//! * [`ModelKind::DeepMatcher`] — *attribute-level* similarity summaries
//!   (several string measures per aligned attribute, plus missing-value
//!   indicators) fed to an MLP. Mirrors the attribute-summarization Hybrid
//!   model, and is the most attribute-aware of the three — the property the
//!   paper's attribute-level explanations probe.
//! * [`ModelKind::Ditto`] — the pair serialized to one
//!   `COL a VAL v …` token sequence; signed hashed token/bigram *cross*
//!   features over the joint sequence plus global similarity scalars, with
//!   Ditto-style training-time data augmentation (random token drop/swap) and
//!   number normalization.
//!
//! All models implement the black-box [`certa_core::Matcher`] trait; the
//! explainers never see anything but scores. [`cache::CachingMatcher`] and
//! [`cache::CountingMatcher`] decorate any matcher with content-addressed
//! memoization and prediction counting (used by the Table 7 monotonicity
//! audit).

pub mod cache;
pub mod embedding;
pub mod features;
pub mod memo;
pub mod rule;
pub mod trainer;
pub mod zoo;

pub use cache::{CacheStats, CachingMatcher, CountingMatcher};
pub use embedding::HashedEmbedder;
pub use features::{Featurizer, FeaturizerKind};
pub use memo::{DittoSegment, EmbedArtifact, FeatureMemo};
pub use rule::RuleMatcher;
pub use trainer::{fine_tune_model, train_model, ErModel, TrainConfig, TrainReport};
pub use zoo::{train_zoo, ModelKind, TrainedZoo};
