//! # certa-cluster — entity resolution as a partition, not a pair list
//!
//! The explanation stack upstream of this crate prices everything *per
//! pair*: a blocker proposes candidates, a matcher scores them, CERTA
//! explains individual decisions. Real ER output is one level up — a
//! **partition of the records into entities**. This crate supplies that
//! stage and keeps it explainable:
//!
//! * [`graph`] — score blocked candidates through any [`certa_core::Matcher`]
//!   (wrap it in [`certa_models::CachingMatcher`] for the sharded memoized
//!   path) and threshold them into a match graph of [`ScoredEdge`]s.
//! * [`Clusterer`] — one trait, two resolvers:
//!   [`ConnectedComponents`] (union-find transitive closure over the
//!   thresholded graph) and [`MatchMerge`] (a Swoosh-style variant that
//!   re-scores *merged entity profiles* — built on the copy-on-write
//!   `AttrValue` merge views — before accepting a union), picked by name
//!   through [`clusterer_by_name`].
//! * [`Partition`] — the canonical result: clusters sorted, members sorted,
//!   representative = smallest member. Byte-stable across runs, worker
//!   counts, and machines ([`Partition::to_bytes`]).
//! * [`explain`] — *cluster-membership explanations*: which edge scores hold
//!   a record's cluster together, which bridge edges would split it if
//!   removed, per-edge attribute saliency via
//!   [`certa_explain::Certa::explain_batch`], and the ψ-mask counterfactual
//!   attribute edit that actually disconnects the record (verified by
//!   re-clustering).
//!
//! # Determinism contract
//!
//! Every function here is a pure function of `(dataset, candidates, config,
//! threshold)`. Nodes and edges are iterated in sorted order, the parallel
//! scoring path assembles results by input index, and both clusterers
//! process edges in a fixed documented order — identical [`Partition`] bytes
//! across runs and worker counts, enforced statically by `certa-lint`
//! (deny-level `no-unordered-iteration` / `no-nondeterminism`) and
//! dynamically by the `bench_cluster` byte-equality gates.

pub mod explain;
pub mod graph;
pub mod metrics;
pub mod partition;
pub mod pipeline;
pub mod swoosh;
pub mod unionfind;

pub use explain::{
    explain_membership, find_disconnect_edit, verify_disconnect, DisconnectEdit,
    MembershipExplanation,
};
pub use graph::{score_candidates, threshold_edges, ScoredEdge};
pub use metrics::{cluster_f1, pairwise_prf, truth_partition, PairwiseScores};
pub use partition::{ClusterNode, Partition};
pub use pipeline::{run_cluster_pipeline, ClusterConfig, ClusterReport};
pub use swoosh::MatchMerge;
pub use unionfind::{ConnectedComponents, UnionFind};

use certa_core::{Dataset, Matcher};

/// An entity resolver: thresholded match edges in, canonical [`Partition`]
/// out.
///
/// Implementations promise the **canonical output contract**: the returned
/// partition covers every record of both tables exactly once, is in
/// [`Partition`] canonical form, and is a pure function of
/// `(dataset, edges, threshold)` — identical across runs and thread counts.
/// `edges` must already be thresholded and sorted by `(left, right)` (the
/// form [`threshold_edges`] returns); `threshold` is passed so merge-time
/// re-scoring (Swoosh) applies the same decision boundary.
pub trait Clusterer: Send + Sync {
    /// Human-readable name for reports and wire payloads.
    fn name(&self) -> &str;

    /// Resolve the match graph into entities.
    fn cluster(
        &self,
        dataset: &Dataset,
        matcher: &dyn Matcher,
        edges: &[ScoredEdge],
        threshold: f64,
    ) -> Partition;
}

/// The one name → clusterer table: `components` (aliases
/// `connected-components`, `cc`) is [`ConnectedComponents`], and
/// `matchmerge` (aliases `match-merge`, `swoosh`) is [`MatchMerge`].
pub fn clusterer_by_name(name: &str) -> Result<Box<dyn Clusterer>, String> {
    match name {
        "components" | "connected-components" | "cc" => Ok(Box::new(ConnectedComponents)),
        "matchmerge" | "match-merge" | "swoosh" => Ok(Box::new(MatchMerge)),
        other => Err(format!(
            "unknown clusterer `{other}` (expected components or matchmerge)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_clusterer_name_and_alias_builds() {
        let canonical = [
            ("components", "components"),
            ("connected-components", "components"),
            ("cc", "components"),
            ("matchmerge", "matchmerge"),
            ("match-merge", "matchmerge"),
            ("swoosh", "matchmerge"),
        ];
        for (name, canon) in canonical {
            let built = clusterer_by_name(name).expect(name);
            let expected = clusterer_by_name(canon).expect(canon);
            assert_eq!(built.name(), expected.name(), "{name}");
        }
        assert!(clusterer_by_name("nope").is_err());
    }
}
