//! Confidence indication (Table 3): can the model's score be read off the
//! explanation alone?
//!
//! Following Atanasova et al. (EMNLP 2020), a logistic regressor is trained
//! from per-explanation saliency statistics to the model's raw score; its
//! mean absolute error is reported. Low MAE means the saliency distribution
//! is a good proxy of the model's confidence (§5.3).

use certa_core::{Dataset, LabeledPair, Matcher};
use certa_explain::SaliencyExplanation;
use certa_ml::logistic::{LogisticConfig, LogisticRegression};
use certa_ml::metrics::mae;

/// Features extracted from one saliency explanation: max, mean, standard
/// deviation, top-gap, plus the predicted label.
fn saliency_features(expl: &SaliencyExplanation, predicted_match: bool) -> Vec<f64> {
    let scores: Vec<f64> = expl.iter().map(|(_, s)| s).collect();
    let n = scores.len().max(1) as f64;
    let max = scores.iter().cloned().fold(0.0, f64::max);
    let mean = scores.iter().sum::<f64>() / n;
    let var = scores.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    let mut sorted = scores.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    let gap = if sorted.len() >= 2 {
        sorted[0] - sorted[1]
    } else {
        sorted.first().copied().unwrap_or(0.0)
    };
    vec![
        max,
        mean,
        var.sqrt(),
        gap,
        if predicted_match { 1.0 } else { 0.0 },
    ]
}

/// The confidence-indication MAE of `explanations`, one saliency
/// explanation per pair of `pairs` in the same order.
pub fn confidence_indication(
    matcher: &dyn Matcher,
    dataset: &Dataset,
    explanations: &[SaliencyExplanation],
    pairs: &[LabeledPair],
) -> f64 {
    assert_eq!(explanations.len(), pairs.len());
    assert!(!pairs.is_empty(), "need at least one pair");
    let mut xs = Vec::with_capacity(pairs.len());
    let mut ys = Vec::with_capacity(pairs.len());
    for (lp, expl) in pairs.iter().zip(explanations.iter()) {
        let (u, v) = dataset.expect_pair(lp.pair);
        let pred = matcher.prediction(u, v);
        xs.push(saliency_features(expl, pred.is_match()));
        ys.push(pred.score);
    }
    let mut reg = LogisticRegression::new(xs[0].len());
    reg.fit(
        &xs,
        &ys,
        &LogisticConfig {
            epochs: 200,
            lr: 0.1,
            l2: 1e-4,
            seed: 13,
        },
    );
    let predicted: Vec<f64> = xs.iter().map(|x| reg.predict_proba(x)).collect();
    mae(&predicted, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, Record, RecordId, Schema, Table};

    fn dataset() -> Dataset {
        let ls = Schema::shared("U", ["key", "noise"]);
        let rs = Schema::shared("V", ["key", "noise"]);
        let mk = |i: u32, k: &str| Record::new(RecordId(i), vec![k.into(), format!("n{i}")]);
        let left = Table::from_records(ls, (0..8).map(|i| mk(i, &format!("k{}", i % 4))).collect())
            .unwrap();
        let right =
            Table::from_records(rs, (0..8).map(|i| mk(i, &format!("k{}", i % 4))).collect())
                .unwrap();
        let train = vec![LabeledPair::new(RecordId(0), RecordId(0), true)];
        let test: Vec<LabeledPair> = (0..8)
            .map(|i| LabeledPair::new(RecordId(i), RecordId((i + i % 2) % 8), i % 2 == 0))
            .collect();
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

    /// Saliency that perfectly reflects confidence: max score = model score.
    fn confidence_oracle(
        m: &dyn Matcher,
        d: &Dataset,
        pairs: &[LabeledPair],
    ) -> Vec<SaliencyExplanation> {
        pairs
            .iter()
            .map(|lp| {
                let (u, v) = d.expect_pair(lp.pair);
                let s = m.score(u, v);
                SaliencyExplanation::new(vec![s, 0.0], vec![s, 0.0])
            })
            .collect()
    }

    /// Saliency that carries no information at all.
    fn uninformative(pairs: &[LabeledPair]) -> Vec<SaliencyExplanation> {
        vec![SaliencyExplanation::new(vec![0.5, 0.5], vec![0.5, 0.5]); pairs.len()]
    }

    #[test]
    fn informative_saliency_yields_lower_mae() {
        let d = dataset();
        let m = key_matcher();
        let pairs = d.split(certa_core::Split::Test).to_vec();
        let good = confidence_indication(&m, &d, &confidence_oracle(&m, &d, &pairs), &pairs);
        let flat = confidence_indication(&m, &d, &uninformative(&pairs), &pairs);
        assert!(
            good < flat,
            "oracle MAE {good:.4} must beat flat MAE {flat:.4}"
        );
        assert!(good < 0.15, "oracle should track scores closely: {good:.4}");
    }

    #[test]
    fn mae_is_bounded() {
        let d = dataset();
        let m = key_matcher();
        let pairs = d.split(certa_core::Split::Test).to_vec();
        let v = confidence_indication(&m, &d, &uninformative(&pairs), &pairs);
        assert!((0.0..=1.0).contains(&v));
    }

    #[test]
    fn feature_extraction_shape() {
        let expl = SaliencyExplanation::new(vec![0.9, 0.1], vec![0.5, 0.5]);
        let f = saliency_features(&expl, true);
        assert_eq!(f.len(), 5);
        assert_eq!(f[0], 0.9); // max
        assert!((f[1] - 0.5).abs() < 1e-12); // mean
        assert!(f[2] > 0.0); // std
        assert!((f[3] - 0.4).abs() < 1e-12); // gap
        assert_eq!(f[4], 1.0); // predicted match
    }
}
