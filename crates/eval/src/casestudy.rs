//! The Figure 12 case study: per-attribute *actual* saliency (masking in
//! isolation) vs each method's explained saliency, plus the Aggr@k effect of
//! masking the top-k attributes in combination.
//!
//! §5.8 defines the "ground truth" saliency of an attribute as the change in
//! the prediction score when that attribute alone is masked, and Aggr@k as
//! the score change when the k most salient attributes *according to a
//! method* are masked together.

use crate::masking::mask_pair;
use certa_baselines::SaliencyMethod;
use certa_core::{Dataset, LabeledPair, MatchLabel, Matcher, Side};
use certa_explain::{AttrRef, CertaConfig};

/// One attribute row of a Figure 12 panel.
#[derive(Debug, Clone)]
pub struct CaseStudyRow {
    /// The attribute (L_/R_-prefixed in the rendered output).
    pub attr: AttrRef,
    /// Actual saliency: `|score(u,v) − score(u,v with attr masked)|`.
    pub actual: f64,
    /// Each method's saliency score for this attribute.
    pub by_method: Vec<(SaliencyMethod, f64)>,
}

/// One Figure 12 panel: a single explained prediction.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The pair under study.
    pub pair: LabeledPair,
    /// Panel kind: "TP" / "TN" / "FP" / "FN".
    pub kind: &'static str,
    /// The model's original score.
    pub score: f64,
    /// Per-attribute rows.
    pub rows: Vec<CaseStudyRow>,
    /// Aggr@k per method: score change when that method's top-k attributes
    /// are masked, for k = 1..=total attributes.
    pub aggr: Vec<(SaliencyMethod, Vec<f64>)>,
}

/// Build the case study for one pair.
pub fn case_study(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    lp: LabeledPair,
    kind: &'static str,
    methods: &[SaliencyMethod],
    certa_cfg: CertaConfig,
    seed: u64,
) -> CaseStudy {
    let (u, v) = dataset.expect_pair(lp.pair);
    let score = matcher.score(u, v);

    let all_attrs: Vec<AttrRef> = dataset
        .left()
        .schema()
        .attr_ids()
        .map(|a| AttrRef {
            side: Side::Left,
            attr: a,
        })
        .chain(dataset.right().schema().attr_ids().map(|a| AttrRef {
            side: Side::Right,
            attr: a,
        }))
        .collect();

    // Explanations, one per method.
    let explanations: Vec<(SaliencyMethod, certa_explain::SaliencyExplanation)> = methods
        .iter()
        .map(|&m| {
            (
                m,
                m.build(certa_cfg, seed)
                    .explain_saliency(matcher, dataset, u, v),
            )
        })
        .collect();

    // Per-attribute actual saliency + method scores. All masked probes go
    // through one `score_batch` call.
    let masked: Vec<(certa_core::Record, certa_core::Record)> = all_attrs
        .iter()
        .map(|&attr| mask_pair(u, v, &[attr]))
        .collect();
    let probes: Vec<(&certa_core::Record, &certa_core::Record)> =
        masked.iter().map(|(mu, mv)| (mu, mv)).collect();
    let actuals = matcher.score_batch(&probes);
    let rows: Vec<CaseStudyRow> = all_attrs
        .iter()
        .zip(&actuals)
        .map(|(&attr, &masked_score)| {
            let actual = (score - masked_score).abs();
            let by_method = explanations
                .iter()
                .map(|(m, e)| (*m, e.score(attr)))
                .collect();
            CaseStudyRow {
                attr,
                actual,
                by_method,
            }
        })
        .collect();

    // Aggr@k per method — the k top-k masking probes batched per method.
    let aggr: Vec<(SaliencyMethod, Vec<f64>)> = explanations
        .iter()
        .map(|(m, e)| {
            let masked: Vec<(certa_core::Record, certa_core::Record)> = (1..=all_attrs.len())
                .map(|k| mask_pair(u, v, &e.top_k(k)))
                .collect();
            let probes: Vec<(&certa_core::Record, &certa_core::Record)> =
                masked.iter().map(|(mu, mv)| (mu, mv)).collect();
            let series: Vec<f64> = matcher
                .score_batch(&probes)
                .into_iter()
                .map(|s| (score - s).abs())
                .collect();
            (*m, series)
        })
        .collect();

    CaseStudy {
        pair: lp,
        kind,
        score,
        rows,
        aggr,
    }
}

/// Pick one TP, TN, FP and FN test pair for a matcher (the four panels of
/// Figure 12). Panels whose outcome class does not occur are omitted.
pub fn pick_cases(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    pairs: &[LabeledPair],
) -> Vec<(LabeledPair, &'static str)> {
    let mut found: Vec<(LabeledPair, &'static str)> = Vec::new();
    for (want_label, want_pred, kind) in [
        (true, MatchLabel::Match, "TP"),
        (false, MatchLabel::NonMatch, "TN"),
        (false, MatchLabel::Match, "FP"),
        (true, MatchLabel::NonMatch, "FN"),
    ] {
        let hit = pairs.iter().find(|lp| {
            lp.label.is_match() == want_label && {
                let (u, v) = dataset.expect_pair(lp.pair);
                matcher.predict(u, v) == want_pred
            }
        });
        if let Some(&lp) = hit {
            found.push((lp, kind));
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Split, Table};
    use certa_datagen::{generate, DatasetId, Scale};
    use certa_models::RuleMatcher;

    #[test]
    fn actual_saliency_identifies_the_load_bearing_attribute() {
        let ls = Schema::shared("U", ["key", "noise"]);
        let rs = Schema::shared("V", ["key", "noise"]);
        let mk = |i: u32, k: &str| Record::new(RecordId(i), vec![k.into(), format!("n{i}")]);
        let left = Table::from_records(ls, vec![mk(0, "alpha"), mk(1, "beta")]).unwrap();
        let right = Table::from_records(rs, vec![mk(0, "alpha"), mk(1, "beta")]).unwrap();
        let d = Dataset::new(
            "toy",
            left,
            right,
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
            vec![LabeledPair::new(RecordId(0), RecordId(0), true)],
        )
        .unwrap();
        let m = FnMatcher::new("key-eq", |u: &Record, v: &Record| {
            if !u.values()[0].is_empty() && u.values()[0] == v.values()[0] {
                0.9
            } else {
                0.1
            }
        });
        let cs = case_study(
            &m,
            &d,
            d.split(Split::Test)[0],
            "TP",
            &[SaliencyMethod::Shap],
            CertaConfig::default().with_triangles(4),
            3,
        );
        assert_eq!(cs.rows.len(), 4);
        // Key attributes have actual saliency 0.8; noise attributes 0.
        let key_rows: Vec<&CaseStudyRow> = cs
            .rows
            .iter()
            .filter(|r| r.attr.attr.index() == 0)
            .collect();
        let noise_rows: Vec<&CaseStudyRow> = cs
            .rows
            .iter()
            .filter(|r| r.attr.attr.index() == 1)
            .collect();
        for r in key_rows {
            assert!((r.actual - 0.8).abs() < 1e-9, "{r:?}");
        }
        for r in noise_rows {
            assert_eq!(r.actual, 0.0);
        }
        // Aggr series exists for the method, one value per k.
        assert_eq!(cs.aggr.len(), 1);
        assert_eq!(cs.aggr[0].1.len(), 4);
        // Masking everything includes the key → final Aggr = 0.8.
        assert!((cs.aggr[0].1[3] - 0.8).abs() < 1e-9);
    }

    #[test]
    fn pick_cases_covers_available_outcomes() {
        let d = generate(DatasetId::BA, Scale::Smoke, 8);
        let m = RuleMatcher::uniform(4).with_threshold(0.55);
        let pairs = d.split(Split::Test).to_vec();
        let cases = pick_cases(&m, &d, &pairs);
        assert!(!cases.is_empty());
        // TP and TN virtually always exist on a smoke dataset.
        let kinds: Vec<&str> = cases.iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&"TP") || kinds.contains(&"TN"), "{kinds:?}");
        // No duplicate kinds.
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len());
    }
}
