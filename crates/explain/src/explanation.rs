//! Explanation types shared by CERTA and every baseline explainer.

use certa_core::{AttrId, Dataset, Matcher, Record, Side};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An attribute in the union schema `A_U ∪ A_V`: side plus position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrRef {
    /// Which source the attribute belongs to.
    pub side: Side,
    /// Attribute position within that side's schema.
    pub attr: AttrId,
}

impl AttrRef {
    /// Shorthand constructor.
    pub fn new(side: Side, attr: u16) -> Self {
        AttrRef {
            side,
            attr: AttrId(attr),
        }
    }

    /// Paper-style qualified name, e.g. `name_Abt`.
    pub fn qualified(&self, dataset: &Dataset) -> String {
        dataset.table(self.side).schema().qualified(self.attr)
    }
}

impl fmt::Display for AttrRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.side, self.attr)
    }
}

/// A saliency explanation: one importance score per attribute of `A_U ∪ A_V`
/// (§3.1). Scores are non-negative; for CERTA they are probabilities of
/// necessity in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaliencyExplanation {
    left: Vec<f64>,
    right: Vec<f64>,
}

impl SaliencyExplanation {
    /// Build from per-side score vectors (indexed by attribute position).
    pub fn new(left: Vec<f64>, right: Vec<f64>) -> Self {
        SaliencyExplanation { left, right }
    }

    /// All-zero explanation with the given arities.
    pub fn zeros(left_arity: usize, right_arity: usize) -> Self {
        SaliencyExplanation {
            left: vec![0.0; left_arity],
            right: vec![0.0; right_arity],
        }
    }

    /// Score of one attribute.
    pub fn score(&self, attr: AttrRef) -> f64 {
        match attr.side {
            Side::Left => self.left[attr.attr.index()],
            Side::Right => self.right[attr.attr.index()],
        }
    }

    /// Set one attribute's score.
    pub fn set(&mut self, attr: AttrRef, value: f64) {
        match attr.side {
            Side::Left => self.left[attr.attr.index()] = value,
            Side::Right => self.right[attr.attr.index()] = value,
        }
    }

    /// Left-side scores in attribute order (the wire format serializes the
    /// two sides as separate arrays).
    pub fn left_scores(&self) -> &[f64] {
        &self.left
    }

    /// Right-side scores in attribute order.
    pub fn right_scores(&self) -> &[f64] {
        &self.right
    }

    /// Number of attributes covered (both sides).
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// True when the explanation covers no attributes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `(attribute, score)` pairs, left side first.
    pub fn iter(&self) -> impl Iterator<Item = (AttrRef, f64)> + '_ {
        let l = self
            .left
            .iter()
            .enumerate()
            .map(|(i, &s)| (AttrRef::new(Side::Left, i as u16), s));
        let r = self
            .right
            .iter()
            .enumerate()
            .map(|(i, &s)| (AttrRef::new(Side::Right, i as u16), s));
        l.chain(r)
    }

    /// Attributes ranked by descending score (ties broken by attribute order
    /// for determinism).
    pub fn ranked(&self) -> Vec<(AttrRef, f64)> {
        let mut v: Vec<(AttrRef, f64)> = self.iter().collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite saliency")
                .then(a.0.cmp(&b.0))
        });
        v
    }

    /// The `k` most salient attributes.
    pub fn top_k(&self, k: usize) -> Vec<AttrRef> {
        self.ranked().into_iter().take(k).map(|(a, _)| a).collect()
    }

    /// Largest absolute score (used for normalization by some baselines).
    pub fn max_abs(&self) -> f64 {
        self.iter().map(|(_, s)| s.abs()).fold(0.0, f64::max)
    }
}

/// One counterfactual example: a full record pair that flips the prediction,
/// plus which attributes were changed and the score the model gave it.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterfactualExample {
    /// The (possibly perturbed) left record.
    pub left: Record,
    /// The (possibly perturbed) right record.
    pub right: Record,
    /// The attributes whose values differ from the original input.
    pub changed: Vec<AttrRef>,
    /// Matching score of the counterfactual pair.
    pub score: f64,
}

/// A counterfactual explanation (§3.2): examples realizing the golden
/// attribute set `A★`, with its probability of sufficiency.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CounterfactualExplanation {
    /// The flip-realizing examples (empty when no flip was found).
    pub examples: Vec<CounterfactualExample>,
    /// The golden set `A★` of Equation 3.
    pub golden_set: Vec<AttrRef>,
    /// `χ_{A★}`: estimated probability that changing `A★` flips the
    /// prediction.
    pub sufficiency: f64,
}

impl CounterfactualExplanation {
    /// True when the method produced at least one counterfactual.
    pub fn found(&self) -> bool {
        !self.examples.is_empty()
    }
}

/// A saliency explanation method — CERTA or a baseline. Implementations may
/// use the dataset tables (to sample perturbation content) but the model only
/// through [`Matcher::score`].
pub trait SaliencyExplainer {
    /// Method name as used in the paper's tables (e.g. `"certa"`).
    fn name(&self) -> &str;

    /// Explain the prediction `M(⟨u, v⟩)`.
    fn explain_saliency(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        u: &Record,
        v: &Record,
    ) -> SaliencyExplanation;
}

/// A counterfactual explanation method.
pub trait CounterfactualExplainer {
    /// Method name as used in the paper's tables (e.g. `"dice"`).
    fn name(&self) -> &str;

    /// Produce counterfactual examples for the prediction `M(⟨u, v⟩)`.
    fn explain_counterfactual(
        &self,
        matcher: &dyn Matcher,
        dataset: &Dataset,
        u: &Record,
        v: &Record,
    ) -> CounterfactualExplanation;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_roundtrip_by_side() {
        let mut s = SaliencyExplanation::zeros(2, 3);
        s.set(AttrRef::new(Side::Left, 1), 0.7);
        s.set(AttrRef::new(Side::Right, 2), 0.9);
        assert_eq!(s.score(AttrRef::new(Side::Left, 1)), 0.7);
        assert_eq!(s.score(AttrRef::new(Side::Right, 2)), 0.9);
        assert_eq!(s.score(AttrRef::new(Side::Left, 0)), 0.0);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        assert_eq!(s.left_scores(), &[0.0, 0.7]);
        assert_eq!(s.right_scores(), &[0.0, 0.0, 0.9]);
    }

    #[test]
    fn ranking_is_descending_and_deterministic() {
        let s = SaliencyExplanation::new(vec![0.5, 0.9], vec![0.9, 0.1]);
        let ranked = s.ranked();
        // Two 0.9 scores: Left(1) precedes Right(0) by attribute order.
        assert_eq!(ranked[0].0, AttrRef::new(Side::Left, 1));
        assert_eq!(ranked[1].0, AttrRef::new(Side::Right, 0));
        assert_eq!(ranked[2].0, AttrRef::new(Side::Left, 0));
        assert_eq!(ranked[3].0, AttrRef::new(Side::Right, 1));
        assert_eq!(s.top_k(2).len(), 2);
        assert_eq!(s.max_abs(), 0.9);
    }

    #[test]
    fn empty_counterfactual_reports_not_found() {
        let cf = CounterfactualExplanation::default();
        assert!(!cf.found());
        assert_eq!(cf.sufficiency, 0.0);
    }

    #[test]
    fn attr_ref_display() {
        assert_eq!(AttrRef::new(Side::Left, 2).to_string(), "L:a2");
        assert_eq!(AttrRef::new(Side::Right, 0).to_string(), "R:a0");
    }
}
