//! # certa-block — dataset-scale candidate generation
//!
//! The explanation stack (CERTA, the matcher zoo, the serving layer) prices
//! its work *per pair*; what it cannot afford is the quadratic pair space of
//! two large tables. This crate supplies the missing front end: **blocking**
//! — cheap, high-recall candidate generation that turns `|U| × |V|` into a
//! candidate list a few orders of magnitude smaller, which the matcher
//! (behind the sharded [`certa_models::CachingMatcher`]) then scores and
//! [`certa_explain::Certa::explain_batch`] explains.
//!
//! Four blockers live behind the common [`Blocker`] trait:
//!
//! * [`LshBlocker`] — MinHash signatures + LSH banding over the clean-token
//!   spans `AttrValue` caches at intern time. Tunable `num_hashes` /
//!   `num_bands` / `target_threshold`; bands nest, so candidate sets grow
//!   monotonically with `num_bands`.
//! * [`TokenOverlap`] — containment blocking on the core inverted
//!   [`certa_core::blocking::TokenIndex`]: admits a pair when the shared
//!   tokens cover most of the *smaller* record. Catches the matches LSH
//!   structurally cannot (missing attributes dilute Jaccard, not
//!   containment); [`MultiPass::standard`] unions the two.
//! * [`SortedNeighborhood`] — the classic sorted-neighborhood method: both
//!   tables merged under a lexicographic key, a sliding window emits
//!   cross-side pairs.
//! * [`TokenPrefix`] — prefix blocking on each record's rarest tokens
//!   (document-frequency order), with a stop-word cap mirroring
//!   `TokenIndex`'s `max_posting`.
//!
//! [`BlockerSpec`] is the one name → blocker table: `certa-serve`'s
//! `/v1/block` and `/v1/cluster` and the `certa-block` binary all build
//! their blocker through it. [`TruthRecall`] measures a candidate list
//! against a generated dataset's labeled matches.
//!
//! # Determinism contract
//!
//! Every blocker is a pure function of `(tables, config, seed)`. Hash
//! families are seeded (SplitMix64-derived, no process salt), bucket maps
//! are iterated in sorted-key order, and every candidate list is sorted by
//! `(left id, right id)` and deduplicated before it is returned — byte-equal
//! output across runs, thread counts, and machines. `certa-lint` enforces
//! `no-unordered-iteration` and `no-nondeterminism` on this crate.

pub mod baselines;
pub mod lsh;
pub mod minhash;
pub mod pipeline;

pub use baselines::{SortedNeighborhood, TokenOverlap, TokenPrefix};
pub use lsh::{LshBlocker, LshConfig};
pub use minhash::{MinHasher, Shingle};
pub use pipeline::{run_pipeline_on, PipelineConfig, PipelineReport, ScoredPair};

use certa_core::{Dataset, RecordId, RecordPair, Split, Table};
use std::fmt;

/// A candidate-pair generator over two tables.
///
/// Implementations promise the **canonical output contract**: the returned
/// pairs are sorted by `(left id, right id)`, contain no duplicates, and are
/// a pure function of the inputs and the blocker's configuration (identical
/// across runs and thread counts).
pub trait Blocker: Send + Sync {
    /// Human-readable name for reports and wire payloads.
    fn name(&self) -> String;

    /// Generate candidate pairs from `left × right`.
    fn candidates(&self, left: &Table, right: &Table) -> Vec<RecordPair>;
}

/// Multi-pass blocking: the union of several blockers' candidate sets.
///
/// Classic ER practice — each pass covers the others' blind spots. The
/// [`MultiPass::standard`] combination (MinHash/LSH ∪ token-overlap) is
/// the default pipeline blocker: LSH catches pairs with high overall
/// shingle similarity, the inverted index catches pairs that share a few
/// discriminative tokens even when corruption dilutes their global
/// similarity. Union of sorted sets preserves the output contract.
pub struct MultiPass {
    passes: Vec<Box<dyn Blocker>>,
}

impl MultiPass {
    /// Union the given passes (at least one).
    pub fn new(passes: Vec<Box<dyn Blocker>>) -> MultiPass {
        assert!(!passes.is_empty(), "multi-pass needs at least one blocker");
        MultiPass { passes }
    }

    /// The default production combination: [`LshBlocker`] with default
    /// config ∪ [`TokenOverlap`] with default config. This is the blocker
    /// whose recall `bench_block` gates at ≥ 0.95.
    pub fn standard() -> MultiPass {
        let lsh = LshBlocker::new(LshConfig::default())
            .expect("default LSH configuration is always valid");
        MultiPass::new(vec![Box::new(lsh), Box::new(TokenOverlap::default())])
    }
}

impl Blocker for MultiPass {
    fn name(&self) -> String {
        let names: Vec<String> = self.passes.iter().map(|p| p.name()).collect();
        format!("multi[{}]", names.join(" ∪ "))
    }

    fn candidates(&self, left: &Table, right: &Table) -> Vec<RecordPair> {
        let mut raw: Vec<(u32, u32)> = Vec::new();
        for pass in &self.passes {
            raw.extend(
                pass.candidates(left, right)
                    .into_iter()
                    .map(|p| (p.left.0, p.right.0)),
            );
        }
        finish_pairs(raw)
    }
}

/// Every tunable the five blockers take, and the name that picks one of
/// them. [`BlockerSpec::build`] holds the one table from names to
/// blockers; the tunables of the blockers the name does not pick are
/// ignored, and `multi` is always [`MultiPass::standard`].
#[derive(Debug, Clone)]
pub struct BlockerSpec {
    /// `multi`, `lsh`, `token-overlap` (alias `overlap`),
    /// `sorted-neighborhood` (alias `sn`) or `token-prefix` (alias
    /// `prefix`).
    pub name: String,
    /// Tunables of `lsh`.
    pub lsh: LshConfig,
    /// Tunables of `token-overlap`.
    pub overlap: TokenOverlap,
    /// Tunables of `sorted-neighborhood`.
    pub neighborhood: SortedNeighborhood,
    /// Tunables of `token-prefix`.
    pub prefix: TokenPrefix,
}

/// Why a [`BlockerSpec`] built no blocker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The name is not in the table.
    UnknownName(String),
    /// The named blocker rejected its tunables.
    BadConfig(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownName(msg) | SpecError::BadConfig(msg) => f.write_str(msg),
        }
    }
}

impl BlockerSpec {
    /// The blocker called `name`, with every tunable at its default.
    pub fn named(name: impl Into<String>) -> BlockerSpec {
        BlockerSpec {
            name: name.into(),
            lsh: LshConfig::default(),
            overlap: TokenOverlap::default(),
            neighborhood: SortedNeighborhood::default(),
            prefix: TokenPrefix::default(),
        }
    }

    /// Build the named blocker from its tunables.
    pub fn build(&self) -> Result<Box<dyn Blocker>, SpecError> {
        Ok(match self.name.as_str() {
            "multi" => Box::new(MultiPass::standard()),
            "lsh" => Box::new(LshBlocker::new(self.lsh).map_err(SpecError::BadConfig)?),
            "token-overlap" | "overlap" => Box::new(self.overlap),
            "sorted-neighborhood" | "sn" => Box::new(self.neighborhood),
            "token-prefix" | "prefix" => Box::new(self.prefix),
            other => {
                return Err(SpecError::UnknownName(format!(
                    "unknown blocker `{other}` (expected multi, lsh, token-overlap, \
                     sorted-neighborhood, or token-prefix)"
                )))
            }
        })
    }
}

/// How many of a dataset's labeled matches a candidate list keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthRecall {
    /// Distinct labeled matches among the candidates.
    pub kept: usize,
    /// Distinct labeled matches of the train and test splits.
    pub truth: usize,
}

impl TruthRecall {
    /// Measure `candidates`, in the blocker contract's order, against
    /// `dataset`'s matches.
    pub fn of(dataset: &Dataset, candidates: &[RecordPair]) -> TruthRecall {
        let key = |p: &RecordPair| (p.left.0, p.right.0);
        let mut truth: Vec<(u32, u32)> = [Split::Train, Split::Test]
            .into_iter()
            .flat_map(|s| dataset.split(s))
            .filter(|lp| lp.label.is_match())
            .map(|lp| key(&lp.pair))
            .collect();
        truth.sort_unstable();
        truth.dedup();
        let kept = truth
            .iter()
            .filter(|t| candidates.binary_search_by_key(*t, key).is_ok())
            .count();
        TruthRecall {
            kept,
            truth: truth.len(),
        }
    }

    /// `kept / truth`; 1 when the dataset has no matches.
    pub fn ratio(&self) -> f64 {
        if self.truth == 0 {
            1.0
        } else {
            self.kept as f64 / self.truth as f64
        }
    }
}

/// Canonicalize raw `(left id, right id)` emissions into the contract form:
/// sorted ascending, deduplicated, converted to [`RecordPair`].
pub(crate) fn finish_pairs(mut raw: Vec<(u32, u32)>) -> Vec<RecordPair> {
    raw.sort_unstable();
    raw.dedup();
    raw.into_iter()
        .map(|(l, r)| RecordPair::new(RecordId(l), RecordId(r)))
        .collect()
}

/// The size of the full cross product `|left| × |right|` — the denominator
/// of every reduction-ratio report.
pub fn cross_product(left: &Table, right: &Table) -> u64 {
    left.len() as u64 * right.len() as u64
}

/// Reduction ratio `cross / candidates` (`inf`-free: empty candidate lists
/// report the full cross product as the ratio).
pub fn reduction_ratio(cross: u64, candidates: usize) -> f64 {
    if candidates == 0 {
        cross as f64
    } else {
        cross as f64 / candidates as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finish_pairs_sorts_and_dedupes() {
        let out = finish_pairs(vec![(3, 1), (1, 2), (3, 1), (1, 1), (1, 2)]);
        assert_eq!(
            out,
            vec![
                RecordPair::new(RecordId(1), RecordId(1)),
                RecordPair::new(RecordId(1), RecordId(2)),
                RecordPair::new(RecordId(3), RecordId(1)),
            ]
        );
    }

    #[test]
    fn every_blocker_name_and_alias_builds() {
        let canonical = [
            ("multi", "multi"),
            ("lsh", "lsh"),
            ("token-overlap", "token-overlap"),
            ("overlap", "token-overlap"),
            ("sorted-neighborhood", "sorted-neighborhood"),
            ("sn", "sorted-neighborhood"),
            ("token-prefix", "token-prefix"),
            ("prefix", "token-prefix"),
        ];
        for (name, canon) in canonical {
            let built = BlockerSpec::named(name).build().expect(name).name();
            let expected = BlockerSpec::named(canon).build().expect(canon).name();
            assert_eq!(built, expected, "{name}");
        }
        assert!(matches!(
            BlockerSpec::named("nope").build(),
            Err(SpecError::UnknownName(_))
        ));
        let mut bad = BlockerSpec::named("lsh");
        bad.lsh.num_bands = 7;
        assert!(matches!(bad.build(), Err(SpecError::BadConfig(_))));
    }

    #[test]
    fn truth_recall_counts_kept_matches() {
        use certa_datagen::{generate, DatasetId, Scale};
        let ds = generate(DatasetId::DS, Scale::Smoke, 7);
        let mut all = Vec::new();
        for u in ds.left().records() {
            for v in ds.right().records() {
                all.push(RecordPair::new(u.id(), v.id()));
            }
        }
        all.sort_unstable_by_key(|p| (p.left.0, p.right.0));
        let full = TruthRecall::of(&ds, &all);
        assert!(full.truth > 0);
        assert_eq!((full.kept, full.ratio()), (full.truth, 1.0));
        let none = TruthRecall::of(&ds, &[]);
        assert_eq!((none.kept, none.truth, none.ratio()), (0, full.truth, 0.0));
    }

    #[test]
    fn reduction_ratio_handles_empty() {
        assert_eq!(reduction_ratio(100, 0), 100.0);
        assert_eq!(reduction_ratio(100, 4), 25.0);
    }
}
