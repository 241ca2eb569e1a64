//! The streaming block → score → explain pipeline.
//!
//! [`run_pipeline_on`] is the end-to-end path a million-record deployment
//! runs after a [`crate::Blocker`] has shrunk `|U| × |V|` to a candidate
//! list: the candidates stream through
//! [`certa_core::Matcher::score_batch`] in chunks of 4,096 pairs, each
//! pair scored by `score` (wrap the model in
//! [`certa_models::CachingMatcher`] to memoize repeats), a bounded top-`k`
//! heap survives, and the best few pairs optionally go through
//! [`certa_explain::Certa::explain_batch`].
//!
//! Memory stays `O(candidates + top_k)` — scores are folded into counters
//! and the pruned top list as each chunk completes, never accumulated
//! wholesale.

use crate::{cross_product, reduction_ratio};
use certa_core::{Dataset, MatchLabel, Matcher, Record, RecordPair};
use certa_explain::{Certa, CertaExplanation};

/// Candidates scored per `score_batch` call; bounds the scores held at
/// once.
const CHUNK: usize = 4096;

/// Tuning knobs for [`run_pipeline_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// How many of the highest-scoring pairs to keep in the report.
    pub top_k: usize,
    /// How many of the top pairs to explain with CERTA (requires an
    /// explainer; `0` skips explanation entirely).
    pub explain_top: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            top_k: 100,
            explain_top: 0,
        }
    }
}

/// A candidate pair with its matcher score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredPair {
    /// The candidate pair.
    pub pair: RecordPair,
    /// The matcher's score for it.
    pub score: f64,
}

/// What the pipeline did, end to end.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Name of the blocker that generated the candidates.
    pub blocker: String,
    /// `|U| × |V|`.
    pub cross_product: u64,
    /// Candidate pairs emitted by the blocker.
    pub candidates: usize,
    /// `cross_product / candidates`.
    pub reduction: f64,
    /// Pairs actually scored (== `candidates`).
    pub scored: usize,
    /// Pairs the matcher called Match (`score > 0.5`).
    pub predicted_matches: usize,
    /// The `top_k` highest-scoring pairs, score-descending (ties broken by
    /// `(left, right)` id order — the report is deterministic).
    pub top: Vec<ScoredPair>,
    /// CERTA explanations for the first `explain_top` entries of `top`,
    /// in the same order.
    pub explanations: Vec<(RecordPair, CertaExplanation)>,
}

/// Deterministic top-`k` order: score descending, then pair ids ascending.
fn top_order(a: &ScoredPair, b: &ScoredPair) -> std::cmp::Ordering {
    b.score
        .total_cmp(&a.score)
        .then_with(|| (a.pair.left, a.pair.right).cmp(&(b.pair.left, b.pair.right)))
}

/// Run score → explain over the candidate list the blocker called
/// `blocker_name` generated from `dataset`'s two tables.
pub fn run_pipeline_on(
    candidates: Vec<RecordPair>,
    blocker_name: String,
    dataset: &Dataset,
    matcher: &dyn Matcher,
    certa: Option<&Certa>,
    cfg: &PipelineConfig,
) -> PipelineReport {
    let cross = cross_product(dataset.left(), dataset.right());
    let mut predicted_matches = 0usize;
    let mut top: Vec<ScoredPair> = Vec::new();
    // Prune threshold: keeping a few batches' worth bounds sort cost while
    // guaranteeing the true top_k always survives a prune.
    let keep = cfg.top_k.max(1);
    for chunk in candidates.chunks(CHUNK) {
        let refs: Vec<(&Record, &Record)> = chunk
            .iter()
            .map(|p| {
                (
                    dataset.left().expect(p.left),
                    dataset.right().expect(p.right),
                )
            })
            .collect();
        let scores = matcher.score_batch(&refs);
        for (pair, score) in chunk.iter().zip(scores) {
            if MatchLabel::from_score(score).is_match() {
                predicted_matches += 1;
            }
            top.push(ScoredPair { pair: *pair, score });
        }
        if top.len() > keep * 4 {
            top.sort_unstable_by(top_order);
            top.truncate(keep);
        }
    }
    top.sort_unstable_by(top_order);
    top.truncate(cfg.top_k);

    let explanations = match certa {
        Some(certa) if cfg.explain_top > 0 && !top.is_empty() => {
            let chosen: Vec<RecordPair> =
                top.iter().take(cfg.explain_top).map(|sp| sp.pair).collect();
            let refs: Vec<(&Record, &Record)> = chosen
                .iter()
                .map(|p| {
                    (
                        dataset.left().expect(p.left),
                        dataset.right().expect(p.right),
                    )
                })
                .collect();
            chosen
                .iter()
                .copied()
                .zip(certa.explain_batch(matcher, dataset, &refs))
                .collect()
        }
        _ => Vec::new(),
    };

    PipelineReport {
        blocker: blocker_name,
        cross_product: cross,
        candidates: candidates.len(),
        reduction: reduction_ratio(cross, candidates.len()),
        scored: candidates.len(),
        predicted_matches,
        top,
        explanations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Blocker;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Table};
    use certa_models::CachingMatcher;

    fn dataset() -> Dataset {
        let schema = Schema::shared("T", ["text"]);
        let mut left = Table::new(schema.clone());
        let mut right = Table::new(schema);
        let rows = [
            "apple iphone 12 pro max 256gb",
            "weber genesis gas grill",
            "lego millennium falcon 75257",
            "dyson v11 cordless vacuum",
        ];
        for (i, row) in rows.iter().enumerate() {
            left.insert(Record::new(RecordId(i as u32), vec![row.to_string()]))
                .expect("arity");
            // Right side: light corruption of the same rows.
            right
                .insert(Record::new(
                    RecordId(i as u32),
                    vec![row.replace("12", "twelve").replace("gas", "propane")],
                ))
                .expect("arity");
        }
        Dataset::new("toy", left, right, vec![], vec![]).expect("valid dataset")
    }

    /// Matcher: Jaccard of whole clean tokens — deterministic and cheap.
    fn matcher() -> FnMatcher<impl Fn(&Record, &Record) -> f64 + Send + Sync> {
        FnMatcher::new("token-jaccard", |u: &Record, v: &Record| {
            let a = crate::Shingle::Tokens.hash_set(u);
            let b = crate::Shingle::Tokens.hash_set(v);
            crate::minhash::jaccard_sorted(&a, &b)
        })
    }

    #[test]
    fn pipeline_scores_candidates_and_ranks_them() {
        let ds = dataset();
        let blocker = crate::MultiPass::standard();
        let report = run_pipeline_on(
            blocker.candidates(ds.left(), ds.right()),
            blocker.name(),
            &ds,
            &matcher(),
            None,
            &PipelineConfig {
                top_k: 3,
                explain_top: 0,
            },
        );
        assert_eq!(report.cross_product, 16);
        assert!(report.candidates >= 4, "all four duplicates must survive");
        assert_eq!(report.scored, report.candidates);
        assert!(report.top.len() <= 3);
        // Descending scores.
        for w in report.top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // The exact duplicate pair (lego, unchanged by corruption) tops.
        assert_eq!(
            report.top[0].pair,
            RecordPair::new(RecordId(2), RecordId(2))
        );
        assert!((report.top[0].score - 1.0).abs() < 1e-12);
        assert!(report.explanations.is_empty());
    }

    #[test]
    fn cached_pipeline_reports_reuse() {
        let ds = dataset();
        let blocker = crate::MultiPass::standard();
        let candidates = blocker.candidates(ds.left(), ds.right());
        let cache = CachingMatcher::new(std::sync::Arc::new(matcher()));
        let cfg = PipelineConfig::default();
        let run = |candidates| {
            cache
                .stats_over(|| run_pipeline_on(candidates, blocker.name(), &ds, &cache, None, &cfg))
        };
        let (first, stats) = run(candidates.clone());
        assert_eq!(
            stats.misses, first.scored as u64,
            "cold cache scores every pair"
        );
        assert_eq!(stats.hits, 0);
        let (second, stats) = run(candidates);
        assert_eq!(stats.misses, 0);
        assert_eq!(
            stats.hits, second.scored as u64,
            "warm cache serves the re-run"
        );
        assert_eq!(first.top, second.top);
    }

    #[test]
    fn empty_candidates_produce_empty_report() {
        let ds = dataset();
        let report = run_pipeline_on(
            Vec::new(),
            "none".to_string(),
            &ds,
            &matcher(),
            None,
            &PipelineConfig::default(),
        );
        assert_eq!(report.candidates, 0);
        assert_eq!(report.reduction, 16.0, "empty list reports full cross");
        assert!(report.top.is_empty());
        assert_eq!(report.predicted_matches, 0);
    }
}
