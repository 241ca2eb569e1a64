//! Algorithm 1: the CERTA explainer end-to-end.

use crate::config::CertaConfig;
use crate::counterfactual::SufficiencyCounter;
use crate::explanation::{
    AttrRef, CounterfactualExample, CounterfactualExplainer, CounterfactualExplanation,
    SaliencyExplainer, SaliencyExplanation,
};
use crate::lattice::{explore, mask_attrs, AttrMask, Exploration, ExploreMode, LatticeStats};
use crate::perturb::{perturb, perturb_into};
use crate::saliency::NecessityCounter;
use crate::triangles::{find_triangles, OpenTriangle, TriangleStats};
use certa_core::{AttrId, Dataset, MatchLabel, Matcher, Prediction, Record, Side};

/// The CERTA explainer (§3–4, Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct Certa {
    config: CertaConfig,
}

/// Everything CERTA produces for one prediction.
///
/// `PartialEq` compares every field exactly (scores included) — the batch
/// engine's determinism tests rely on batch and sequential runs producing
/// *identical* values, not merely close ones.
#[derive(Debug, Clone, PartialEq)]
pub struct CertaExplanation {
    /// The original prediction being explained.
    pub prediction: Prediction,
    /// Saliency scores Φ (probabilities of necessity).
    pub saliency: SaliencyExplanation,
    /// Counterfactual explanation (golden set `A★`, χ★, examples `E`).
    pub counterfactual: CounterfactualExplanation,
    /// Triangle-supply statistics (natural vs augmented).
    pub triangle_stats: TriangleStats,
    /// One lattice accounting record per explored triangle (Table 7 inputs).
    pub lattice_stats: Vec<LatticeStats>,
    /// Mean probability of sufficiency across observed subsets (Fig. 11a).
    pub mean_sufficiency: f64,
    /// Mean probability of necessity across attributes (Fig. 11b).
    pub mean_necessity: f64,
}

impl Certa {
    /// CERTA with explicit configuration.
    pub fn new(config: CertaConfig) -> Self {
        Certa { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &CertaConfig {
        &self.config
    }

    /// Explain the prediction `M(⟨u, v⟩)` — Algorithm 1, sequentially: find
    /// the open triangles (line 8), then run lines 9–33 over them in
    /// triangle order. One explanation never spawns threads;
    /// [`Certa::explain_batch`] fans whole pairs out.
    pub fn explain(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        u: &Record,
        v: &Record,
    ) -> CertaExplanation {
        let prediction = matcher.prediction(u, v);
        // Line 8: open triangles, τ/2 per side (with §3.3 augmentation).
        let (triangles, triangle_stats) =
            find_triangles(matcher, dataset, u, v, prediction.label, &self.config);
        self.explain_with_triangles(matcher, u, v, prediction, &triangles, triangle_stats)
    }

    /// Lines 9–33 of Algorithm 1 over a given triangle set: explore each
    /// triangle's lattice in order, estimate Φ from the flips (Equation 1),
    /// pick `A★` (Equations 2–3) and materialize `E`. `prediction` is
    /// `M(⟨u, v⟩)`, the side arities are `u`'s and `v`'s, and
    /// `triangle_stats` is carried into the result as is.
    pub(crate) fn explain_with_triangles(
        &self,
        matcher: &dyn Matcher,
        u: &Record,
        v: &Record,
        prediction: Prediction,
        triangles: &[OpenTriangle],
        triangle_stats: TriangleStats,
    ) -> CertaExplanation {
        let y = prediction.label;
        let (left_arity, right_arity) = (u.arity(), v.arity());

        // Lines 9–17: explore one lattice per triangle and count its flips.
        let mut necessity = NecessityCounter::new(left_arity, right_arity);
        let mut sufficiency = SufficiencyCounter::new();
        let mut lattice_stats = Vec::with_capacity(triangles.len());
        for t in triangles {
            let exploration = self.explore_triangle(matcher, u, v, t, y);
            sufficiency.record_triangle(t.side);
            lattice_stats.push(exploration.stats());
            for mask in exploration.flipped_masks() {
                necessity.record_flip(t.side, mask);
                sufficiency.record_flip(t.side, mask);
            }
        }

        // Lines 18–20: Φ = N[a] / f.
        let mean_sufficiency = sufficiency.mean_chi();
        let saliency = necessity.into_explanation();
        let mean_necessity = mean_necessity_of(&saliency);

        // Lines 21–33: golden set A★ and the counterfactual examples E.
        let counterfactual = match sufficiency.golden_set(left_arity, right_arity) {
            None => CounterfactualExplanation::default(),
            Some((side, mask, chi)) => {
                self.materialize_examples(matcher, u, v, triangles, y, side, mask, chi)
            }
        };

        CertaExplanation {
            prediction,
            saliency,
            counterfactual,
            triangle_stats,
            lattice_stats,
            mean_sufficiency,
            mean_necessity,
        }
    }

    /// Explore one triangle's lattice, scoring perturbed copies through the
    /// black-box matcher.
    fn explore_triangle(
        &self,
        matcher: &dyn Matcher,
        u: &Record,
        v: &Record,
        t: &OpenTriangle,
        y: MatchLabel,
    ) -> Exploration {
        let free = match t.side {
            Side::Left => u,
            Side::Right => v,
        };
        let arity = free.arity();
        let mode = if self.config.monotone {
            ExploreMode::Monotone
        } else {
            ExploreMode::Exhaustive
        };
        // Footnote 2: the full set is never tested, except on degenerate
        // single-attribute schemas, where it is the only node.
        let test_full = arity == 1;
        // One scratch ψ per triangle, rewritten in place at every node.
        let mut psi = free.clone();
        explore(arity, mode, test_full, |mask| {
            perturb_into(&mut psi, free, &t.support, mask);
            let score = match t.side {
                Side::Left => matcher.score(&psi, v),
                Side::Right => matcher.score(u, &psi),
            };
            MatchLabel::from_score(score) != y
        })
    }

    /// Build the example set `E`: ψ(free, w, A★) for every triangle on the
    /// golden side, keeping only pairs that actually flip (lines 30–33; the
    /// §4 example materializes A★ across all of W).
    #[allow(clippy::too_many_arguments)]
    fn materialize_examples(
        &self,
        matcher: &dyn Matcher,
        u: &Record,
        v: &Record,
        triangles: &[OpenTriangle],
        y: MatchLabel,
        side: Side,
        mask: AttrMask,
        chi: f64,
    ) -> CounterfactualExplanation {
        let golden_set: Vec<AttrRef> = mask_attrs(mask)
            .map(|i| AttrRef {
                side,
                attr: AttrId(i as u16),
            })
            .collect();
        let mut examples = Vec::new();
        for t in triangles.iter().filter(|t| t.side == side) {
            let (left, right, score) = match side {
                Side::Left => {
                    let perturbed = perturb(u, &t.support, mask);
                    let s = matcher.score(&perturbed, v);
                    (perturbed, v.clone(), s)
                }
                Side::Right => {
                    let perturbed = perturb(v, &t.support, mask);
                    let s = matcher.score(u, &perturbed);
                    (u.clone(), perturbed, s)
                }
            };
            if MatchLabel::from_score(score) != y {
                examples.push(CounterfactualExample {
                    left,
                    right,
                    changed: golden_set.clone(),
                    score,
                });
            }
        }
        // Keep the closest examples (token-overlap proximity to the original
        // pair), mirroring the reference implementation's ranked, capped
        // counterfactual list.
        if examples.len() > self.config.max_examples {
            let mut ranked: Vec<(f64, CounterfactualExample)> = examples
                .into_iter()
                .map(|ex| {
                    let p = pair_token_overlap(u, &ex.left) + pair_token_overlap(v, &ex.right);
                    (p, ex)
                })
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
            ranked.truncate(self.config.max_examples);
            examples = ranked.into_iter().map(|(_, ex)| ex).collect();
        }
        CounterfactualExplanation {
            examples,
            golden_set,
            sufficiency: chi,
        }
    }
}

/// Mean probability of necessity — the Figure 11(b) statistic.
///
/// The paper's mean is taken over the attributes that **participate in at
/// least one flip** (the attributes Φ actually scores); attributes the
/// lattice walk never implicated carry no necessity evidence and are *not*
/// part of the denominator. Averaging over the whole union schema instead
/// (an earlier bug here) deflated the curve on wide schemas — e.g. a
/// one-key world where Φ = 1/2 on each side's key reports ½, not ⅙.
pub fn mean_necessity_of(saliency: &SaliencyExplanation) -> f64 {
    let mut sum = 0.0;
    let mut flipped_attrs = 0usize;
    for (_, s) in saliency.iter() {
        if s > 0.0 {
            sum += s;
            flipped_attrs += 1;
        }
    }
    if flipped_attrs == 0 {
        0.0
    } else {
        sum / flipped_attrs as f64
    }
}

/// Mean per-attribute whitespace-token Jaccard between two same-schema
/// records — a proximity used only for ranking the example list. Counts
/// each value's cached raw tokens.
pub(crate) fn pair_token_overlap(original: &Record, modified: &Record) -> f64 {
    let arity = original.arity().min(modified.arity());
    if arity == 0 {
        return 1.0;
    }
    let mut total = 0.0;
    for (a, b) in original.values().iter().zip(modified.values()) {
        total += certa_text::jaccard_tokens(a.tokens(), b.tokens());
    }
    total / arity as f64
}

impl SaliencyExplainer for Certa {
    fn name(&self) -> &str {
        "certa"
    }

    fn explain_saliency(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        u: &Record,
        v: &Record,
    ) -> SaliencyExplanation {
        self.explain(matcher, dataset, u, v).saliency
    }
}

impl CounterfactualExplainer for Certa {
    fn name(&self) -> &str {
        "certa"
    }

    fn explain_counterfactual(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        u: &Record,
        v: &Record,
    ) -> CounterfactualExplanation {
        self.explain(matcher, dataset, u, v).counterfactual
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, LabeledPair, RecordId, Schema, Table};

    /// Toy world: records have attributes [key, noise, price]; the matcher
    /// matches iff the `key` attribute values are equal. `key` is therefore
    /// the (only) necessary and sufficient attribute.
    fn dataset() -> Dataset {
        let ls = Schema::shared("U", ["key", "noise", "price"]);
        let rs = Schema::shared("V", ["key", "noise", "price"]);
        let mk = |i: u32, key: &str| {
            Record::new(
                RecordId(i),
                vec![
                    key.to_string(),
                    format!("noise{i} extra pad"),
                    format!("{}", 10 + i),
                ],
            )
        };
        let left = Table::from_records(
            ls,
            (0..12)
                .map(|i| mk(i, if i < 6 { "alpha" } else { "beta" }))
                .collect(),
        )
        .unwrap();
        let right = Table::from_records(
            rs,
            (0..12)
                .map(|i| mk(i, if i < 6 { "alpha" } else { "beta" }))
                .collect(),
        )
        .unwrap();
        Dataset::new(
            "toy",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![LabeledPair::new(RecordId(0), RecordId(6), false)],
        )
        .unwrap()
    }

    fn key_matcher() -> impl Matcher {
        FnMatcher::new("key-eq", |u: &Record, v: &Record| {
            if u.values()[0] == v.values()[0] {
                0.92
            } else {
                0.08
            }
        })
    }

    fn certa_small() -> Certa {
        Certa::new(CertaConfig {
            num_triangles: 12,
            use_augmentation: false,
            ..Default::default()
        })
    }

    #[test]
    fn key_attribute_dominates_saliency() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0)); // alpha-alpha → Match
        let exp = certa_small().explain(&m, &d, u, v);
        assert!(exp.prediction.is_match());
        let phi = &exp.saliency;
        let key_l = phi.score(AttrRef::new(Side::Left, 0));
        let noise_l = phi.score(AttrRef::new(Side::Left, 1));
        let price_l = phi.score(AttrRef::new(Side::Left, 2));
        assert!(key_l > noise_l, "key {key_l} vs noise {noise_l}");
        assert!(key_l > price_l);
        // Algorithm 1 shares the flip denominator `f` across both sides'
        // triangles; in this symmetric toy world every left flip contains
        // the left key and every right flip the right key, so each side's
        // key lands at exactly 1/2.
        assert_eq!(key_l, 0.5, "every left flip changes the left key");
        assert_eq!(phi.score(AttrRef::new(Side::Right, 0)), 0.5);
        // Ranked top attribute must be a key attribute (either side).
        let top = phi.ranked()[0].0;
        assert_eq!(top.attr, AttrId(0));
    }

    #[test]
    fn golden_set_is_the_key_singleton() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let exp = certa_small().explain(&m, &d, u, v);
        let cf = &exp.counterfactual;
        assert!(cf.found());
        assert_eq!(cf.golden_set.len(), 1);
        assert_eq!(cf.golden_set[0].attr, AttrId(0));
        assert_eq!(cf.sufficiency, 1.0, "copying the key always flips");
        // Every example truly flips the Match prediction to NonMatch.
        for ex in &cf.examples {
            assert!(ex.score <= 0.5, "example score {}", ex.score);
            assert_eq!(ex.changed, cf.golden_set);
            // The changed side's key became "beta".
            let changed_key = match cf.golden_set[0].side {
                Side::Left => &ex.left.values()[0],
                Side::Right => &ex.right.values()[0],
            };
            assert_eq!(changed_key, "beta");
        }
    }

    #[test]
    fn nonmatch_explanation_flips_to_match() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0)); // alpha
        let v = d.right().expect(RecordId(6)); // beta → NonMatch
        let exp = certa_small().explain(&m, &d, u, v);
        assert!(!exp.prediction.is_match());
        let cf = &exp.counterfactual;
        assert!(cf.found());
        for ex in &cf.examples {
            assert!(ex.score > 0.5, "counterfactual of a non-match must match");
        }
        assert_eq!(cf.golden_set[0].attr, AttrId(0));
    }

    #[test]
    fn lattice_stats_reflect_monotone_savings() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let exp = certa_small().explain(&m, &d, u, v);
        assert!(!exp.lattice_stats.is_empty());
        for ls in &exp.lattice_stats {
            assert_eq!(ls.expected, 6); // 2^3 − 2
                                        // key flips at level 1 → savings kick in.
            assert!(ls.performed < ls.expected, "{ls:?}");
        }
        assert!(exp.triangle_stats.total() == exp.lattice_stats.len());
    }

    #[test]
    fn exhaustive_mode_tests_everything() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let certa = Certa::new(CertaConfig {
            num_triangles: 4,
            use_augmentation: false,
            monotone: false,
            ..Default::default()
        });
        let exp = certa.explain(&m, &d, u, v);
        for ls in &exp.lattice_stats {
            assert_eq!(ls.performed, 6);
            assert_eq!(ls.saved(), 0);
        }
    }

    #[test]
    fn deterministic_explanations() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let e1 = certa_small().explain(&m, &d, u, v);
        let e2 = certa_small().explain(&m, &d, u, v);
        assert_eq!(e1.saliency, e2.saliency);
        assert_eq!(e1.counterfactual.golden_set, e2.counterfactual.golden_set);
        assert_eq!(
            e1.counterfactual.examples.len(),
            e2.counterfactual.examples.len()
        );
    }

    #[test]
    fn trait_objects_work() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let certa = certa_small();
        let s: &dyn SaliencyExplainer = &certa;
        let c: &dyn CounterfactualExplainer = &certa;
        assert_eq!(s.name(), "certa");
        assert_eq!(c.name(), "certa");
        let phi = s.explain_saliency(&m, &d, u, v);
        assert!(phi.max_abs() > 0.0);
        let cf = c.explain_counterfactual(&m, &d, u, v);
        assert!(cf.found());
    }

    #[test]
    fn example_cap_keeps_closest_flips() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let capped = Certa::new(CertaConfig {
            num_triangles: 12,
            use_augmentation: false,
            max_examples: 2,
            ..Default::default()
        });
        let exp = capped.explain(&m, &d, u, v);
        assert!(exp.counterfactual.examples.len() <= 2);
        for ex in &exp.counterfactual.examples {
            assert!(ex.score <= 0.5, "capped examples still flip");
        }
        // The uncapped run returns strictly more examples here.
        let uncapped = Certa::new(CertaConfig {
            num_triangles: 12,
            use_augmentation: false,
            max_examples: usize::MAX,
            ..Default::default()
        });
        assert!(uncapped.explain(&m, &d, u, v).counterfactual.examples.len() > 2);
    }

    #[test]
    fn pair_token_overlap_averages_attribute_jaccard() {
        let rec =
            |vals: &[&str]| Record::new(RecordId(0), vals.iter().map(|s| s.to_string()).collect());
        let overlap = |a: &[&str], b: &[&str]| pair_token_overlap(&rec(a), &rec(b));
        assert_eq!(overlap(&[""], &[" "]), 1.0, "empty/empty");
        assert_eq!(overlap(&["alpha beta"], &["gamma"]), 0.0, "disjoint");
        assert_eq!(overlap(&["alpha"], &[""]), 0.0, "one side empty");
        assert_eq!(
            overlap(&["a b c"], &["b c d"]),
            0.5,
            "{{b, c}} of {{a, b, c, d}}"
        );
        assert_eq!(overlap(&["a a b"], &["b a"]), 1.0, "token sets, not bags");
        assert_eq!(
            overlap(&["\ta  b\t"], &["  b c a "]),
            2.0 / 3.0,
            "tabs and doubled, leading and trailing spaces split as whitespace"
        );
        // The mean over attributes: (1 + 0 + 1/2) / 3.
        let original = ["", "alpha beta", "a b c"];
        let modified = ["", "gamma", "b c d"];
        assert_eq!(overlap(&original, &modified), 0.5);
        assert_eq!(overlap(&modified, &original), 0.5);
    }

    #[test]
    fn mean_probabilities_are_populated() {
        let d = dataset();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let exp = certa_small().explain(&m, &d, u, v);
        assert!(exp.mean_sufficiency > 0.0 && exp.mean_sufficiency <= 1.0);
        assert!(exp.mean_necessity > 0.0 && exp.mean_necessity <= 1.0);
    }

    /// Regression: Figure 11(b)'s denominator. The §4 worked example yields
    /// Φ = {15/19, 12/19, 11/19} over the three left attributes and zero on
    /// the untouched right side; the mean probability of necessity averages
    /// the three scored attributes — 38/57 ≈ 0.667 — not the whole
    /// six-attribute union schema (which would halve it to 1/3).
    #[test]
    fn mean_necessity_excludes_never_flipped_attributes() {
        let phi = SaliencyExplanation::new(
            vec![15.0 / 19.0, 12.0 / 19.0, 11.0 / 19.0],
            vec![0.0, 0.0, 0.0],
        );
        let m = mean_necessity_of(&phi);
        assert!((m - 38.0 / 57.0).abs() < 1e-12, "got {m}, want 38/57");
        // All-zero saliency (no flips anywhere) stays well-defined.
        assert_eq!(mean_necessity_of(&SaliencyExplanation::zeros(3, 3)), 0.0);
        assert_eq!(
            mean_necessity_of(&SaliencyExplanation::new(vec![], vec![])),
            0.0
        );
    }

    #[test]
    fn explanation_mean_necessity_uses_flipped_attr_denominator() {
        // Asymmetric world: every right record keys "alpha", so the Match
        // prediction ⟨0, 0⟩ has no right-side supports — right attributes
        // can never flip and must stay out of the Fig. 11(b) denominator.
        let ls = Schema::shared("U", ["key", "noise", "price"]);
        let rs = Schema::shared("V", ["key", "noise", "price"]);
        let mk = |i: u32, key: &str| {
            Record::new(
                RecordId(i),
                vec![
                    key.to_string(),
                    format!("noise{i} extra pad"),
                    format!("{}", 10 + i),
                ],
            )
        };
        let left = Table::from_records(
            ls,
            (0..12)
                .map(|i| mk(i, if i < 6 { "alpha" } else { "beta" }))
                .collect(),
        )
        .unwrap();
        let right = Table::from_records(rs, (0..12).map(|i| mk(i, "alpha")).collect()).unwrap();
        let d = Dataset::new(
            "asym",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
        )
        .unwrap();
        let m = key_matcher();
        let u = d.left().expect(RecordId(0));
        let v = d.right().expect(RecordId(0));
        let exp = certa_small().explain(&m, &d, u, v);
        let nonzero: Vec<f64> = exp
            .saliency
            .iter()
            .map(|(_, s)| s)
            .filter(|&s| s > 0.0)
            .collect();
        assert!(
            !nonzero.is_empty() && nonzero.len() < exp.saliency.len(),
            "world must mix flipped and never-flipped attributes"
        );
        let expected = nonzero.iter().sum::<f64>() / nonzero.len() as f64;
        assert_eq!(exp.mean_necessity, expected);
        // The all-attributes average is strictly smaller — the old buggy
        // denominator deflated the statistic on never-flipped attributes.
        let deflated = exp.saliency.iter().map(|(_, s)| s).sum::<f64>() / exp.saliency.len() as f64;
        assert!(
            exp.mean_necessity > deflated,
            "never-flipped attributes must not deflate the mean"
        );
    }
}
