//! The end-to-end cluster pipeline: candidates → scores → match graph →
//! partition.
//!
//! [`run_cluster_pipeline`] consumes the canonical candidate list a
//! [`certa_block::Blocker`] produced, scores it through the matcher's batch
//! path (fanned out over `cfg.workers` threads by
//! [`certa_core::run_indexed`]; output is identical for every worker
//! count), thresholds the scores into match edges, and hands them to a
//! [`Clusterer`]. [`run_cluster_pipeline_cached`] is the same but reads the
//! [`CachingMatcher`]'s hit/miss delta into the report, so repeated runs
//! (re-clustering at a new threshold, serving the same model twice) show
//! their score-cache reuse.

use crate::graph::{score_candidates, threshold_edges, ScoredEdge};
use crate::partition::Partition;
use crate::Clusterer;
use certa_core::{Dataset, Matcher, RecordPair};
use certa_models::{CacheStats, CachingMatcher};

/// Tuning knobs for the cluster pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Match threshold: edges with `score >= threshold` enter the graph.
    pub threshold: f64,
    /// Candidates scored per `score_batch` call.
    pub batch_size: usize,
    /// Scoring worker threads (`0` = one per available core, `1` = inline).
    pub workers: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            threshold: 0.5,
            batch_size: 4096,
            workers: 1,
        }
    }
}

/// What the cluster pipeline did, end to end.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Name of the blocker that generated the candidates.
    pub blocker: String,
    /// Name of the clusterer that resolved the entities.
    pub clusterer: String,
    /// The match threshold applied.
    pub threshold: f64,
    /// Candidate pairs scored.
    pub candidates: usize,
    /// Every candidate with its score, in candidate order (pre-threshold) —
    /// the membership explainer's counterfactual search needs these.
    pub scored: Vec<ScoredEdge>,
    /// The thresholded match graph, in candidate order.
    pub match_edges: Vec<ScoredEdge>,
    /// The resolved entities.
    pub partition: Partition,
    /// Score-cache traffic attributable to this run (present on the
    /// [`run_cluster_pipeline_cached`] path).
    pub cache: Option<CacheStats>,
}

impl ClusterReport {
    /// Number of clusters, singletons included.
    pub fn clusters(&self) -> usize {
        self.partition.len()
    }

    /// Number of clusters with at least two members.
    pub fn non_singletons(&self) -> usize {
        self.partition.non_singleton_count()
    }

    /// Size of the largest cluster.
    pub fn largest(&self) -> usize {
        self.partition.largest_cluster()
    }
}

/// Score `candidates`, threshold, and cluster. Pure function of its inputs —
/// byte-identical [`Partition`] across runs and `cfg.workers` values.
pub fn run_cluster_pipeline(
    dataset: &Dataset,
    matcher: &dyn Matcher,
    candidates: &[RecordPair],
    blocker_name: String,
    clusterer: &dyn Clusterer,
    cfg: &ClusterConfig,
) -> ClusterReport {
    let scored = score_candidates(dataset, matcher, candidates, cfg.batch_size, cfg.workers);
    let match_edges = threshold_edges(&scored, cfg.threshold);
    let partition = clusterer.cluster(dataset, matcher, &match_edges, cfg.threshold);
    ClusterReport {
        blocker: blocker_name,
        clusterer: clusterer.name().to_string(),
        threshold: cfg.threshold,
        candidates: candidates.len(),
        scored,
        match_edges,
        partition,
        cache: None,
    }
}

/// [`run_cluster_pipeline`] through a [`CachingMatcher`], with the cache
/// hit/miss delta of exactly this run surfaced in the report.
pub fn run_cluster_pipeline_cached(
    dataset: &Dataset,
    cache: &CachingMatcher,
    candidates: &[RecordPair],
    blocker_name: String,
    clusterer: &dyn Clusterer,
    cfg: &ClusterConfig,
) -> ClusterReport {
    let before = cache.stats();
    let mut report =
        run_cluster_pipeline(dataset, &cache, candidates, blocker_name, clusterer, cfg);
    let after = cache.stats();
    report.cache = Some(CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::ClusterNode;
    use crate::{ConnectedComponents, MatchMerge};
    use certa_core::{BoxedMatcher, FnMatcher, Record, RecordId, Schema, Table};
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let schema = Schema::shared("T", ["key", "noise"]);
        let mk =
            |i: u32, key: &str| Record::new(RecordId(i), vec![key.to_string(), format!("n{i}")]);
        let left = vec![mk(0, "alpha"), mk(1, "beta"), mk(2, "gamma")];
        let right = vec![mk(0, "alpha"), mk(1, "alpha"), mk(2, "beta")];
        Dataset::new(
            "toy",
            Table::from_records(schema.clone(), left).unwrap(),
            Table::from_records(schema, right).unwrap(),
            vec![],
            vec![],
        )
        .unwrap()
    }

    fn matcher() -> BoxedMatcher {
        Arc::new(FnMatcher::new("key-eq", |u: &Record, v: &Record| {
            if u.values()[0] == v.values()[0] {
                0.9
            } else {
                0.1
            }
        }))
    }

    fn all_pairs() -> Vec<RecordPair> {
        let mut out = Vec::new();
        for l in 0..3u32 {
            for r in 0..3u32 {
                out.push(RecordPair::new(RecordId(l), RecordId(r)));
            }
        }
        out
    }

    #[test]
    fn pipeline_resolves_entities() {
        let d = dataset();
        let m = matcher();
        let report = run_cluster_pipeline(
            &d,
            &m,
            &all_pairs(),
            "all-pairs".to_string(),
            &ConnectedComponents,
            &ClusterConfig::default(),
        );
        assert_eq!(report.candidates, 9);
        assert_eq!(report.scored.len(), 9);
        assert_eq!(report.match_edges.len(), 3, "alpha×2 + beta×1");
        assert_eq!(report.clusterer, "components");
        // Entities: {L0,R0,R1}, {L1,R2}, {L2} → 3 clusters, 2 non-single.
        assert_eq!(report.clusters(), 3);
        assert_eq!(report.non_singletons(), 2);
        assert_eq!(report.largest(), 3);
        assert!(report.cache.is_none());
        let c = report.partition.cluster_of(ClusterNode::left(0)).unwrap();
        assert_eq!(
            report.partition.members(c),
            &[
                ClusterNode::left(0),
                ClusterNode::right(0),
                ClusterNode::right(1),
            ]
        );
    }

    #[test]
    fn cached_path_reports_reuse() {
        let d = dataset();
        let cache = CachingMatcher::new(matcher());
        let cfg = ClusterConfig::default();
        let first = run_cluster_pipeline_cached(
            &d,
            &cache,
            &all_pairs(),
            "all-pairs".to_string(),
            &ConnectedComponents,
            &cfg,
        );
        let stats = first.cache.expect("cached path reports stats");
        assert_eq!(stats.misses, 9, "cold cache scores every pair");
        assert_eq!(stats.hits, 0);
        // Second run at a different threshold: pure cache reuse.
        let second = run_cluster_pipeline_cached(
            &d,
            &cache,
            &all_pairs(),
            "all-pairs".to_string(),
            &ConnectedComponents,
            &ClusterConfig {
                threshold: 0.95,
                ..cfg
            },
        );
        let stats = second.cache.expect("cached path reports stats");
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 9, "warm cache serves the re-run");
        assert_eq!(second.match_edges.len(), 0, "0.95 keeps nothing");
        assert_eq!(second.clusters(), 6, "all singletons");
    }

    #[test]
    fn clusterers_and_workers_are_deterministic() {
        let d = dataset();
        let m = matcher();
        let cfg = ClusterConfig::default();
        let base = run_cluster_pipeline(
            &d,
            &m,
            &all_pairs(),
            "b".to_string(),
            &ConnectedComponents,
            &cfg,
        );
        for workers in [2, 8] {
            let run = run_cluster_pipeline(
                &d,
                &m,
                &all_pairs(),
                "b".to_string(),
                &ConnectedComponents,
                &ClusterConfig {
                    workers,
                    batch_size: 2,
                    ..cfg
                },
            );
            assert_eq!(base.partition.to_bytes(), run.partition.to_bytes());
        }
        // On key-equality data the match-merge profiles stay consistent, so
        // both clusterers agree.
        let swoosh = run_cluster_pipeline(&d, &m, &all_pairs(), "b".to_string(), &MatchMerge, &cfg);
        assert_eq!(swoosh.clusterer, "matchmerge");
        assert_eq!(base.partition, swoosh.partition);
    }
}
