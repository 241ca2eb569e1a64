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
pub use minhash::{jaccard_sorted, MinHasher, Shingle};
pub use pipeline::{
    run_pipeline, run_pipeline_cached, run_pipeline_on, PipelineConfig, PipelineReport, ScoredPair,
};

use certa_core::{RecordId, RecordPair, Table};

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
    fn reduction_ratio_handles_empty() {
        assert_eq!(reduction_ratio(100, 0), 100.0);
        assert_eq!(reduction_ratio(100, 4), 25.0);
    }
}
