//! Scoring blocked candidates into a thresholded match graph.
//!
//! The input is the canonical candidate list a [`certa_block::Blocker`]
//! emits — sorted by `(left, right)`, deduplicated. [`score_candidates`]
//! runs it through `Matcher::score_batch` in bounded chunks, fanned out on
//! the workspace's work-stealing pool, [`certa_core::run_indexed`];
//! [`threshold_edges`] keeps the edges at or above the match threshold.
//! Both preserve input order, so the edge list inherits the candidate
//! list's canonical order and the whole stage is byte-deterministic across
//! worker counts.

use certa_core::{run_indexed, Dataset, Matcher, Record, RecordPair};

/// One match-graph edge: a candidate pair and its matcher score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredEdge {
    /// The cross-side record pair.
    pub pair: RecordPair,
    /// The matcher's score for it, in `[0, 1]`.
    pub score: f64,
}

/// Score every candidate through [`Matcher::score_batch`] in chunks of
/// `batch_size`, using up to `workers` threads (`0` = one per available
/// core, `1` runs inline).
///
/// Chunks are claimed work-stealing style through [`run_indexed`], which
/// returns results in chunk order, so the returned edges are in candidate
/// order regardless of scheduling — with a deterministic matcher the output
/// is byte-identical across worker counts.
pub fn score_candidates(
    dataset: &Dataset,
    matcher: &dyn Matcher,
    candidates: &[RecordPair],
    batch_size: usize,
    workers: usize,
) -> Vec<ScoredEdge> {
    let chunks: Vec<&[RecordPair]> = candidates.chunks(batch_size.max(1)).collect();
    let scored = run_indexed(chunks.len(), workers, |i| {
        let refs: Vec<(&Record, &Record)> = chunks[i]
            .iter()
            .map(|p| {
                (
                    dataset.left().expect(p.left),
                    dataset.right().expect(p.right),
                )
            })
            .collect();
        matcher.score_batch(&refs)
    });
    candidates
        .iter()
        .zip(scored.into_iter().flatten())
        .map(|(&pair, score)| ScoredEdge { pair, score })
        .collect()
}

/// Keep the edges whose score clears the match threshold (`score >= tau`),
/// preserving order. NaN scores (a matcher bug) never clear it.
pub fn threshold_edges(edges: &[ScoredEdge], tau: f64) -> Vec<ScoredEdge> {
    edges.iter().copied().filter(|e| e.score >= tau).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Table};

    fn dataset(n: u32) -> Dataset {
        let schema = Schema::shared("T", ["text"]);
        let mk = |i: u32| Record::new(RecordId(i), vec![format!("item {i}")]);
        let left = Table::from_records(schema.clone(), (0..n).map(mk).collect()).unwrap();
        let right = Table::from_records(schema, (0..n).map(mk).collect()).unwrap();
        Dataset::new("toy", left, right, vec![], vec![]).unwrap()
    }

    fn id_matcher() -> impl Matcher {
        FnMatcher::new("id-eq", |u: &Record, v: &Record| {
            if u.values()[0] == v.values()[0] {
                0.9
            } else {
                0.2
            }
        })
    }

    fn all_pairs(n: u32) -> Vec<RecordPair> {
        let mut out = Vec::new();
        for l in 0..n {
            for r in 0..n {
                out.push(RecordPair::new(RecordId(l), RecordId(r)));
            }
        }
        out
    }

    #[test]
    fn scores_preserve_candidate_order() {
        let d = dataset(4);
        let cands = all_pairs(4);
        let edges = score_candidates(&d, &id_matcher(), &cands, 3, 1);
        assert_eq!(edges.len(), cands.len());
        for (e, p) in edges.iter().zip(&cands) {
            assert_eq!(e.pair, *p);
            let expected = if p.left == p.right { 0.9 } else { 0.2 };
            assert_eq!(e.score, expected);
        }
    }

    #[test]
    fn worker_counts_never_change_output() {
        let d = dataset(9);
        let cands = all_pairs(9);
        let m = id_matcher();
        let one = score_candidates(&d, &m, &cands, 5, 1);
        for workers in [0, 2, 4, 8] {
            let w = score_candidates(&d, &m, &cands, 5, workers);
            assert_eq!(one, w, "workers={workers} diverged");
        }
        // Batch size never changes the output either.
        assert_eq!(one, score_candidates(&d, &m, &cands, 1, 3));
        assert_eq!(one, score_candidates(&d, &m, &cands, 10_000, 3));
    }

    #[test]
    fn threshold_keeps_matches_only() {
        let d = dataset(3);
        let edges = score_candidates(&d, &id_matcher(), &all_pairs(3), 4, 1);
        let kept = threshold_edges(&edges, 0.5);
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|e| e.pair.left == e.pair.right));
        assert!(threshold_edges(&edges, 0.95).is_empty());
        assert_eq!(threshold_edges(&edges, 0.0).len(), edges.len());
        let nan = [ScoredEdge {
            pair: RecordPair::new(RecordId(0), RecordId(0)),
            score: f64::NAN,
        }];
        assert!(threshold_edges(&nan, 0.0).is_empty(), "NaN never matches");
    }

    #[test]
    fn empty_candidates_score_to_empty() {
        let d = dataset(2);
        assert!(score_candidates(&d, &id_matcher(), &[], 8, 4).is_empty());
    }
}
