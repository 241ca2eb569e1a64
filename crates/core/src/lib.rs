//! # certa-core
//!
//! The entity-resolution (ER) data model underlying the `certa-rs` workspace,
//! a reproduction of *Effective Explanations for Entity Resolution Models*
//! (ICDE 2022).
//!
//! ER matches records from two sets `U` and `V` (possibly with different
//! schemas) that refer to the same real-world entity. This crate provides:
//!
//! * [`Schema`] / [`AttrId`] — named attribute lists for one side;
//! * [`AttrValue`] / [`ValueId`] — interned, copy-on-write attribute values
//!   with cached normalized forms, token spans and content hashes;
//! * [`Record`] / [`RecordId`] — a tuple of interned attribute values;
//! * [`Table`] — a set of records sharing one schema, with id lookup;
//! * [`RecordPair`] and [`LabeledPair`] — candidate pairs, optionally labeled;
//! * [`Matcher`] — the *black-box* classifier interface every explainer in the
//!   workspace is written against (`score(u, v) -> [0, 1]`);
//! * [`Dataset`] — two tables plus ground truth and train/test splits;
//! * [`tokens`] — whitespace tokenization shared by matchers and perturbers;
//! * [`blocking`] — a token inverted index for candidate generation;
//! * [`hash`] — a fast non-cryptographic hasher (FxHash) used for caches,
//!   and the SplitMix64 finalizer MinHash families derive their functions
//!   with;
//! * [`par`] — [`run_indexed`], the workspace's one data-parallel fan-out,
//!   and [`worker_count`], its rule that `0` workers means one per core.
//!
//! The paper treats the deep-learning matcher strictly as a black box; the
//! [`Matcher`] trait enforces the same boundary here, so the CERTA explainer
//! and all baselines cannot observe model internals.

pub mod blocking;
pub mod dataset;
pub mod error;
pub mod hash;
pub mod lockcheck;
pub mod matcher;
pub mod pair;
pub mod par;
pub mod record;
pub mod schema;
pub mod table;
pub mod tokens;
pub mod value;

pub use dataset::{Dataset, SideStats, Split};
pub use error::{CoreError, Result};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use matcher::{BoxedMatcher, FnMatcher, Matcher, Prediction};
pub use pair::{LabeledPair, MatchLabel, RecordPair, Side};
pub use par::{run_indexed, worker_count};
pub use record::{Record, RecordId};
pub use schema::{AttrId, Schema};
pub use table::Table;
pub use value::{AttrValue, ValueId};
