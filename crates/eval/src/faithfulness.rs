//! Faithfulness (Table 2): AUC of the masking-threshold / F1 curve.
//!
//! For each explained test pair, the saliency explanation ranks all
//! attributes; at masking threshold `t` the top `⌈t · |A|⌉` attributes are
//! blanked and the model re-predicts the whole explained set. Faithful
//! explanations hit the attributes the model actually relies on, so F1
//! collapses *early* — low AUC = high faithfulness (§5.3).

use crate::masking::mask_pair;
use certa_core::{Dataset, LabeledPair, Matcher};
use certa_explain::SaliencyExplanation;
use certa_ml::metrics::{auc_trapezoid, confusion};

/// The paper's masking thresholds.
pub const FAITHFULNESS_THRESHOLDS: [f64; 6] = [0.1, 0.2, 0.33, 0.5, 0.7, 0.9];

/// The faithfulness AUC of `explanations`, one saliency explanation per
/// pair of `pairs` in the same order. Each explanation is reused across
/// every threshold, and only the masked pairs are re-scored.
pub fn faithfulness_auc(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    explanations: &[SaliencyExplanation],
    pairs: &[LabeledPair],
) -> f64 {
    assert!(!pairs.is_empty(), "need at least one pair to evaluate");
    assert_eq!(explanations.len(), pairs.len());
    let total_attrs = dataset.left().schema().arity() + dataset.right().schema().arity();
    let actual: Vec<bool> = pairs.iter().map(|lp| lp.label.is_match()).collect();

    let mut points = Vec::with_capacity(FAITHFULNESS_THRESHOLDS.len());
    for &t in &FAITHFULNESS_THRESHOLDS {
        let k = ((t * total_attrs as f64).ceil() as usize).clamp(1, total_attrs);
        // One `score_batch` call re-predicts the whole masked set at this
        // threshold.
        let masked: Vec<(certa_core::Record, certa_core::Record)> = pairs
            .iter()
            .zip(explanations.iter())
            .map(|(lp, expl)| {
                let (u, v) = dataset.expect_pair(lp.pair);
                mask_pair(u, v, &expl.top_k(k))
            })
            .collect();
        let probes: Vec<(&certa_core::Record, &certa_core::Record)> =
            masked.iter().map(|(mu, mv)| (mu, mv)).collect();
        let predicted: Vec<bool> = matcher
            .score_batch(&probes)
            .into_iter()
            .map(|s| certa_core::Prediction::from_score(s).is_match())
            .collect();
        points.push((t, confusion(&predicted, &actual).f1()));
    }
    auc_trapezoid(&points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Table};
    use certa_explain::AttrRef;

    /// World: match iff key attribute (index 0) equal and present.
    fn dataset() -> Dataset {
        let ls = Schema::shared("U", ["key", "noise"]);
        let rs = Schema::shared("V", ["key", "noise"]);
        let mk = |i: u32, k: &str| Record::new(RecordId(i), vec![k.into(), format!("n{i}")]);
        let left = Table::from_records(ls, (0..6).map(|i| mk(i, &format!("k{}", i % 3))).collect())
            .unwrap();
        let right =
            Table::from_records(rs, (0..6).map(|i| mk(i, &format!("k{}", i % 3))).collect())
                .unwrap();
        let train = vec![LabeledPair::new(RecordId(0), RecordId(0), true)];
        let test = vec![
            LabeledPair::new(RecordId(0), RecordId(0), true),
            LabeledPair::new(RecordId(1), RecordId(1), true),
            LabeledPair::new(RecordId(2), RecordId(2), true),
            LabeledPair::new(RecordId(0), RecordId(1), false),
            LabeledPair::new(RecordId(1), RecordId(2), false),
        ];
        Dataset::new("toy", left, right, train, test).unwrap()
    }

    fn key_matcher() -> impl Matcher {
        FnMatcher::new("key-eq", |u: &Record, v: &Record| {
            if !u.values()[0].is_empty() && u.values()[0] == v.values()[0] {
                0.9
            } else {
                0.1
            }
        })
    }

    /// The same fixed saliency for every test pair.
    fn fixed(pairs: &[LabeledPair], left: [f64; 2], right: [f64; 2]) -> Vec<SaliencyExplanation> {
        vec![SaliencyExplanation::new(left.to_vec(), right.to_vec()); pairs.len()]
    }

    #[test]
    fn oracle_explanation_beats_inverted_explanation() {
        let d = dataset();
        let m = key_matcher();
        let pairs = d.split(certa_core::Split::Test).to_vec();
        // Oracle: keys most salient. Inverted: noise most salient.
        let oracle = fixed(&pairs, [1.0, 0.0], [1.0, 0.0]);
        let inverted = fixed(&pairs, [0.0, 1.0], [0.0, 1.0]);
        let auc_oracle = faithfulness_auc(&m, &d, &oracle, &pairs);
        let auc_inverted = faithfulness_auc(&m, &d, &inverted, &pairs);
        assert!(
            auc_oracle < auc_inverted,
            "oracle {auc_oracle:.3} must beat inverted {auc_inverted:.3}"
        );
    }

    #[test]
    fn auc_bounded_by_unit_interval() {
        let d = dataset();
        let m = key_matcher();
        let pairs = d.split(certa_core::Split::Test).to_vec();
        let auc = faithfulness_auc(&m, &d, &fixed(&pairs, [0.5, 0.5], [0.5, 0.5]), &pairs);
        assert!((0.0..=1.0).contains(&auc));
    }

    #[test]
    fn masking_all_attrs_kills_f1() {
        // With t = 0.9 on 4 attributes, k = 4: everything masked → no
        // matches predicted → F1 = 0 at the top threshold for any ranking.
        let d = dataset();
        let m = key_matcher();
        let pairs = d.split(certa_core::Split::Test).to_vec();
        let explanations = fixed(&pairs, [0.9, 0.1], [0.8, 0.2]);
        // Direct check of the protocol's masking at k = 4.
        let (u, v) = d.expect_pair(pairs[0].pair);
        let all: Vec<AttrRef> = explanations[0]
            .ranked()
            .into_iter()
            .map(|(a, _)| a)
            .collect();
        let (mu, mv) = mask_pair(u, v, &all);
        assert!(!m.prediction(&mu, &mv).is_match());
        assert_eq!(mu.values()[0], "");
        assert_eq!(mv.values()[0], "");
    }
}
