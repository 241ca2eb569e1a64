//! A transparent rule-based matcher.
//!
//! Scores a pair as a weighted mean of per-attribute similarities. Because
//! each attribute contributes monotonically, copying an attribute value from
//! a support record *always* moves the score toward the support side — this
//! matcher satisfies the monotone-classifier assumption of §4 *exactly*,
//! which makes it the reference model for lattice unit tests (zero
//! monotonicity error expected) and a baseline for the Table 7 audit.

use certa_core::{Matcher, Record};
use certa_text::attribute_sim;

/// Weighted attribute-similarity matcher.
#[derive(Debug, Clone)]
pub struct RuleMatcher {
    name: String,
    weights: Vec<f64>,
    /// Similarity above which the sigmoid-free score crosses 0.5.
    threshold: f64,
    /// Steepness of the score around the threshold.
    sharpness: f64,
}

impl RuleMatcher {
    /// Equal-weight matcher over `arity` aligned attributes.
    pub fn uniform(arity: usize) -> Self {
        Self::with_weights(vec![1.0; arity])
    }

    /// Matcher with explicit attribute weights (non-negative, not all zero).
    pub fn with_weights(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one attribute weight");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "weights must not all be zero"
        );
        RuleMatcher {
            name: "rule".into(),
            weights,
            threshold: 0.5,
            sharpness: 8.0,
        }
    }

    /// Adjust the decision threshold (similarity value mapping to score 0.5).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Adjust the sigmoid steepness around the threshold.
    pub fn with_sharpness(mut self, sharpness: f64) -> Self {
        self.sharpness = sharpness;
        self
    }

    /// The per-attribute weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The decision threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The sigmoid steepness.
    pub fn sharpness(&self) -> f64 {
        self.sharpness
    }

    /// Weighted mean attribute similarity in `[0, 1]`.
    pub fn similarity(&self, u: &Record, v: &Record) -> f64 {
        let arity = self.weights.len().min(u.arity()).min(v.arity());
        let mut total = 0.0;
        let mut weight_sum = 0.0;
        for i in 0..arity {
            let w = self.weights[i];
            if w == 0.0 {
                continue;
            }
            total += w * attribute_sim(&u.values()[i], &v.values()[i]);
            weight_sum += w;
        }
        if weight_sum == 0.0 {
            return 0.0;
        }
        total / weight_sum
    }
}

impl Matcher for RuleMatcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, u: &Record, v: &Record) -> f64 {
        let sim = self.similarity(u, v);
        // Smooth, strictly-monotone squash of similarity around the threshold.
        1.0 / (1.0 + (-self.sharpness * (sim - self.threshold)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{MatchLabel, RecordId};

    fn rec(id: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(id), vals.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn identical_records_match() {
        let m = RuleMatcher::uniform(2);
        let u = rec(0, &["sony bravia", "100"]);
        let v = rec(1, &["sony bravia", "100"]);
        assert_eq!(m.predict(&u, &v), MatchLabel::Match);
        assert!(m.score(&u, &v) > 0.9);
    }

    #[test]
    fn disjoint_records_do_not_match() {
        let m = RuleMatcher::uniform(2);
        let u = rec(0, &["sony bravia", "100"]);
        let v = rec(1, &["canon pixma", "900"]);
        assert_eq!(m.predict(&u, &v), MatchLabel::NonMatch);
    }

    #[test]
    fn copying_attributes_is_monotone() {
        // The defining property: making u' agree with v on more attributes
        // never lowers the score.
        let m = RuleMatcher::uniform(3);
        let u = rec(0, &["aa bb", "cc dd", "ee ff"]);
        let v = rec(1, &["xx yy", "zz ww", "qq pp"]);
        let mut prev = m.score(&u, &v);
        let mut u_prime = u.clone();
        for i in 0..3 {
            u_prime.set_value(certa_core::AttrId(i as u16), v.values()[i].clone());
            let s = m.score(&u_prime, &v);
            assert!(s >= prev - 1e-12, "copying attr {i} lowered the score");
            prev = s;
        }
        assert!(prev > 0.9, "all attributes copied → near-certain match");
    }

    #[test]
    fn weights_control_attribute_influence() {
        let name_only = RuleMatcher::with_weights(vec![1.0, 0.0]);
        let u = rec(0, &["same name", "10"]);
        let v = rec(1, &["same name", "99999"]);
        assert!(
            name_only.score(&u, &v) > 0.9,
            "price ignored under zero weight"
        );
    }

    #[test]
    fn threshold_shifts_decision() {
        let strict = RuleMatcher::uniform(1).with_threshold(0.95);
        let lax = RuleMatcher::uniform(1).with_threshold(0.2);
        let u = rec(0, &["sony bravia theater"]);
        let v = rec(1, &["sony bravia cinema"]);
        assert_eq!(strict.predict(&u, &v), MatchLabel::NonMatch);
        assert_eq!(lax.predict(&u, &v), MatchLabel::Match);
    }

    #[test]
    fn accessors_roundtrip_through_builders() {
        let m = RuleMatcher::with_weights(vec![2.0, 0.5])
            .with_threshold(0.7)
            .with_sharpness(4.0);
        let rebuilt = RuleMatcher::with_weights(m.weights().to_vec())
            .with_threshold(m.threshold())
            .with_sharpness(m.sharpness());
        let u = rec(0, &["sony bravia", "100"]);
        let v = rec(1, &["sony cinema", "120"]);
        assert_eq!(rebuilt.score(&u, &v).to_bits(), m.score(&u, &v).to_bits());
        assert_eq!(m.weights(), &[2.0, 0.5]);
        assert_eq!((m.threshold(), m.sharpness()), (0.7, 4.0));
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn zero_weights_rejected() {
        let _ = RuleMatcher::with_weights(vec![0.0, 0.0]);
    }

    #[test]
    fn batch_scores_match_sequential() {
        let m = RuleMatcher::uniform(2);
        let records: Vec<Record> = [
            ["sony bravia", "100"],
            ["canon pixma", "900"],
            ["sony cinema", "120"],
        ]
        .iter()
        .enumerate()
        .map(|(i, vals)| rec(i as u32, vals))
        .collect();
        let pairs: Vec<(&Record, &Record)> = records
            .iter()
            .flat_map(|u| records.iter().map(move |v| (u, v)))
            .collect();
        let batch = m.score_batch(&pairs);
        for ((u, v), s) in pairs.iter().zip(&batch) {
            assert_eq!(*s, m.score(u, v));
        }
    }
}
