//! Open-triangle discovery (§3.3).
//!
//! For a prediction `M(⟨u, v⟩) = y`, a **left open triangle** is
//! `⟨u, v, w⟩` with `w ∈ U \ {u}` and `M(⟨w, v⟩) = ȳ` — the support record
//! sits on the *other* side of the decision boundary, so progressively
//! copying its values into `u` drags the pair across (Figures 6–7). Right
//! triangles mirror this with supports from `V` scored against the fixed
//! `u`. When the tables run short, augmented variants of already-scanned
//! records are scored as extra candidates.

use crate::augment::augmented_candidates;
use crate::config::CertaConfig;
use certa_core::{Dataset, MatchLabel, Matcher, Record, Side};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Augmented candidates scored per side when §3.3 augmentation runs.
const AUGMENTATION_BUDGET: usize = 600;

/// One open triangle: the side it was built on and the support record.
///
/// The free record and pivot are implicit (the explained pair). Augmented
/// supports are synthetic records not present in the source table.
#[derive(Debug, Clone)]
pub struct OpenTriangle {
    /// `Side::Left` = support from `U` (perturbs `u`); `Side::Right` =
    /// support from `V` (perturbs `v`).
    pub side: Side,
    /// The support record `w` with `M` predicting the opposite label.
    pub support: Record,
    /// Whether this support came from §3.3 data augmentation.
    pub augmented: bool,
}

/// Supply statistics for the Table 8 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriangleStats {
    /// Natural triangles found by scanning the tables.
    pub natural: usize,
    /// Triangles produced by data augmentation.
    pub augmented: usize,
    /// Candidate records scored during discovery (classifier calls).
    pub candidates_scored: usize,
}

impl TriangleStats {
    /// Total triangles delivered.
    pub fn total(&self) -> usize {
        self.natural + self.augmented
    }
}

/// Find up to τ open triangles (τ/2 per side) for the prediction
/// `M(⟨u, v⟩) = y`.
///
/// Candidates are scanned in a seed-determined order (the paper scans the
/// whole table; a deterministic shuffle removes insertion-order bias while
/// keeping runs reproducible). Returns the triangles plus supply statistics.
pub fn find_triangles(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    u: &Record,
    v: &Record,
    y: MatchLabel,
    cfg: &CertaConfig,
) -> (Vec<OpenTriangle>, TriangleStats) {
    let mut triangles = Vec::with_capacity(cfg.num_triangles);
    let mut stats = TriangleStats::default();
    let want = y.flipped();

    for side in Side::both() {
        let quota = cfg.per_side();
        let (free, pivot) = match side {
            Side::Left => (u, v),
            Side::Right => (v, u),
        };
        let score_support = |w: &Record| -> MatchLabel {
            match side {
                Side::Left => matcher.predict(w, pivot),
                Side::Right => matcher.predict(pivot, w),
            }
        };

        let table = dataset.table(side);
        let mut order: Vec<usize> = (0..table.len()).collect();
        let mut rng = StdRng::seed_from_u64(
            cfg.seed ^ (free.content_hash().rotate_left(1)) ^ (side as u64 + 1),
        );
        order.shuffle(&mut rng);
        order.truncate(cfg.max_candidates);

        let mut found_side = 0usize;
        let mut scanned: Vec<&Record> = Vec::new();
        if !cfg.augmentation_only {
            // Score candidates one at a time until the side's quota is met;
            // `candidates_scored` counts every pair sent to the model.
            for w in order.iter().map(|&idx| &table.records()[idx]) {
                if found_side >= quota {
                    break;
                }
                if w.id() == free.id() {
                    continue;
                }
                scanned.push(w);
                stats.candidates_scored += 1;
                if score_support(w) == want {
                    triangles.push(OpenTriangle {
                        side,
                        support: w.clone(),
                        augmented: false,
                    });
                    stats.natural += 1;
                    found_side += 1;
                }
            }
        } else {
            // Still need base records to derive augmented variants from.
            scanned.extend(order.iter().map(|&i| &table.records()[i]));
        }

        // §3.3 augmentation when the natural supply is short (or forced).
        if (found_side < quota && cfg.use_augmentation) || cfg.augmentation_only {
            let mut budget = AUGMENTATION_BUDGET;
            // Derive variants from natural supports first (most likely to
            // stay on the far side of the boundary), then from other
            // scanned records.
            let support_bases: Vec<Record> = triangles
                .iter()
                .filter(|t| t.side == side && !t.augmented)
                .map(|t| t.support.clone())
                .collect();
            let bases: Vec<&Record> = support_bases
                .iter()
                .chain(scanned.iter().copied())
                .collect();
            'aug: for base in bases {
                if found_side >= quota || budget == 0 {
                    break;
                }
                let per_base = budget.min(12);
                for cand in augmented_candidates(base, per_base) {
                    if found_side >= quota {
                        break 'aug;
                    }
                    if budget == 0 {
                        break 'aug;
                    }
                    budget -= 1;
                    stats.candidates_scored += 1;
                    if score_support(&cand) == want {
                        triangles.push(OpenTriangle {
                            side,
                            support: cand,
                            augmented: true,
                        });
                        stats.augmented += 1;
                        found_side += 1;
                    }
                }
            }
        }
    }
    (triangles, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, LabeledPair, Record, RecordId, Schema, Table};
    use certa_text::jaccard;

    /// A dataset where left records 0..5 say "red ..." and 5..10 say
    /// "blue ..."; right records mirror this.
    fn dataset() -> Dataset {
        let ls = Schema::shared("U", ["color", "extra"]);
        let rs = Schema::shared("V", ["color", "extra"]);
        let mk = |i: u32, color: &str| {
            Record::new(
                RecordId(i),
                vec![
                    format!("{color} item{i} token{} word{}", i % 3, i % 2),
                    format!("filler{i} pad"),
                ],
            )
        };
        let left = Table::from_records(
            ls,
            (0..10)
                .map(|i| mk(i, if i < 5 { "red" } else { "blue" }))
                .collect(),
        )
        .unwrap();
        let right = Table::from_records(
            rs,
            (0..10)
                .map(|i| mk(i, if i < 5 { "red" } else { "blue" }))
                .collect(),
        )
        .unwrap();
        Dataset::new(
            "toy",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![LabeledPair::new(RecordId(1), RecordId(1), true)],
        )
        .unwrap()
    }

    /// Matcher: match iff the color tokens agree.
    fn color_matcher() -> impl Matcher {
        FnMatcher::new("color", |u: &Record, v: &Record| {
            let cu = u.values()[0].split_whitespace().next().unwrap_or("");
            let cv = v.values()[0].split_whitespace().next().unwrap_or("");
            if cu == cv {
                0.9
            } else {
                0.1
            }
        })
    }

    #[test]
    fn supports_predict_the_opposite_label() {
        let d = dataset();
        let m = color_matcher();
        let u = d.left().expect(RecordId(0)); // red
        let v = d.right().expect(RecordId(0)); // red → Match
        let cfg = CertaConfig {
            num_triangles: 8,
            use_augmentation: false,
            ..Default::default()
        };
        let (tris, stats) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        assert!(!tris.is_empty());
        assert_eq!(stats.augmented, 0);
        for t in &tris {
            // Left support w: M(w, v) must be NonMatch → w is blue.
            let support_color = t.support.values()[0].split_whitespace().next().unwrap();
            assert_eq!(support_color, "blue", "{:?}", t.side);
            assert!(!t.augmented);
        }
        // Both sides represented.
        assert!(tris.iter().any(|t| t.side == Side::Left));
        assert!(tris.iter().any(|t| t.side == Side::Right));
        assert_eq!(tris.iter().filter(|t| t.side == Side::Left).count(), 4);
    }

    #[test]
    fn nonmatch_prediction_wants_matching_supports() {
        let d = dataset();
        let m = color_matcher();
        let u = d.left().expect(RecordId(0)); // red
        let v = d.right().expect(RecordId(7)); // blue → NonMatch
        let cfg = CertaConfig {
            num_triangles: 6,
            use_augmentation: false,
            ..Default::default()
        };
        let (tris, _) = find_triangles(&m, &d, u, v, MatchLabel::NonMatch, &cfg);
        for t in &tris {
            let support_color = t.support.values()[0].split_whitespace().next().unwrap();
            match t.side {
                // M(w, v=blue) must be Match → w blue.
                Side::Left => assert_eq!(support_color, "blue"),
                // M(u=red, q) must be Match → q red.
                Side::Right => assert_eq!(support_color, "red"),
            }
        }
    }

    #[test]
    fn free_record_is_never_its_own_support() {
        let d = dataset();
        let m = color_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let cfg = CertaConfig {
            num_triangles: 20,
            use_augmentation: false,
            ..Default::default()
        };
        let (tris, _) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        for t in &tris {
            if !t.augmented {
                match t.side {
                    Side::Left => assert_ne!(t.support.id(), u.id()),
                    Side::Right => assert_ne!(t.support.id(), v.id()),
                }
            }
        }
    }

    #[test]
    fn augmentation_fills_shortfalls() {
        // Matcher that rejects every natural record but accepts records
        // whose first attribute lost its leading token.
        let d = dataset();
        let m = FnMatcher::new("picky", |u: &Record, v: &Record| {
            let shortened = u.values()[0].split_whitespace().count() < 4
                || v.values()[0].split_whitespace().count() < 4;
            if shortened {
                0.1
            } else {
                0.9
            }
        });
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0)); // natural pairs all score 0.9 → Match
        let cfg = CertaConfig {
            num_triangles: 6,
            ..Default::default()
        };
        let (tris, stats) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        assert!(
            stats.augmented > 0,
            "augmented triangles expected: {stats:?}"
        );
        assert_eq!(stats.natural, 0);
        assert!(tris.iter().all(|t| t.augmented));
    }

    #[test]
    fn augmentation_only_mode_skips_natural_supports() {
        let d = dataset();
        let m = color_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let cfg = CertaConfig {
            num_triangles: 4,
            augmentation_only: true,
            ..Default::default()
        };
        let (tris, stats) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        assert_eq!(stats.natural, 0);
        assert!(tris.iter().all(|t| t.augmented));
        // Augmented blue variants still classify as non-match vs red pivot.
        for t in &tris {
            assert!(jaccard(&t.support.values()[0], "blue") >= 0.0); // structural sanity
        }
    }

    #[test]
    fn deterministic_given_config() {
        let d = dataset();
        let m = color_matcher();
        let u = d.left().expect(RecordId(1));
        let v = d.right().expect(RecordId(1));
        let cfg = CertaConfig {
            num_triangles: 6,
            ..Default::default()
        };
        let (t1, s1) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        let (t2, s2) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        assert_eq!(s1, s2);
        assert_eq!(t1.len(), t2.len());
        for (a, b) in t1.iter().zip(t2.iter()) {
            assert_eq!(a.support.values(), b.support.values());
            assert_eq!(a.side, b.side);
        }
    }

    #[test]
    fn respects_max_candidates() {
        let d = dataset();
        let m = color_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let cfg = CertaConfig {
            num_triangles: 100,
            max_candidates: 3,
            use_augmentation: false,
            ..Default::default()
        };
        let (_, stats) = find_triangles(&m, &d, u, v, MatchLabel::Match, &cfg);
        assert!(stats.candidates_scored <= 6, "3 per side: {stats:?}");
    }
}
