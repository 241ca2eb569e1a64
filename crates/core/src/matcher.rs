//! The black-box matcher interface.
//!
//! Every explainer in the workspace — CERTA and all baselines — interacts
//! with an ER model exclusively through [`Matcher::score`]. This mirrors the
//! paper's post-hoc, model-agnostic setting: the explainers may *call* the
//! classifier on (possibly perturbed) record pairs but can never inspect its
//! parameters.

use crate::pair::MatchLabel;
use crate::record::Record;
use std::sync::Arc;

/// A binary ER classifier producing a matching score in `[0, 1]`.
pub trait Matcher: Send + Sync {
    /// Human-readable model name (e.g. `"deeper-sim"`).
    fn name(&self) -> &str;

    /// Matching score for the pair `⟨u, v⟩`; `score > 0.5` means Match.
    fn score(&self, u: &Record, v: &Record) -> f64;

    /// Matching scores for a batch of pairs, in input order.
    ///
    /// The default scores pair by pair through [`Matcher::score`], and no
    /// model or cache in the workspace overrides it. An override (a tracing
    /// wrapper, say) **must** return exactly `score(u, v)` per pair — batch
    /// explainers rely on the two paths being value-identical.
    fn score_batch(&self, pairs: &[(&Record, &Record)]) -> Vec<f64> {
        pairs.iter().map(|(u, v)| self.score(u, v)).collect()
    }

    /// Thresholded prediction — the paper's `M(⟨u, v⟩)`.
    fn predict(&self, u: &Record, v: &Record) -> MatchLabel {
        MatchLabel::from_score(self.score(u, v))
    }

    /// Full prediction (score + label) in one call.
    fn prediction(&self, u: &Record, v: &Record) -> Prediction {
        Prediction::from_score(self.score(u, v))
    }
}

/// Shared, type-erased matcher handle. Explainers and the experiment grid
/// store these; `Arc` keeps them cheaply cloneable across threads.
pub type BoxedMatcher = Arc<dyn Matcher>;

/// A matcher output: the raw score and its thresholded label.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Matching score in `[0, 1]`.
    pub score: f64,
    /// `score > 0.5` ⇒ Match.
    pub label: MatchLabel,
}

impl Prediction {
    /// Threshold a score into a prediction.
    pub fn from_score(score: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&score) || score.is_nan(),
            "matcher scores must lie in [0,1], got {score}"
        );
        Prediction {
            score,
            label: MatchLabel::from_score(score),
        }
    }

    /// True when the predicted label is Match.
    pub fn is_match(&self) -> bool {
        self.label.is_match()
    }
}

/// Blanket impl so `Arc<dyn Matcher>` and `&M` satisfy `Matcher` bounds.
/// `score_batch` is forwarded explicitly so a wrapper never drops the
/// wrapped matcher's override.
impl<M: Matcher + ?Sized> Matcher for &M {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn score(&self, u: &Record, v: &Record) -> f64 {
        (**self).score(u, v)
    }
    fn score_batch(&self, pairs: &[(&Record, &Record)]) -> Vec<f64> {
        (**self).score_batch(pairs)
    }
}

impl<M: Matcher + ?Sized> Matcher for Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn score(&self, u: &Record, v: &Record) -> f64 {
        (**self).score(u, v)
    }
    fn score_batch(&self, pairs: &[(&Record, &Record)]) -> Vec<f64> {
        (**self).score_batch(pairs)
    }
}

/// A trivially scriptable matcher for tests: scores come from a closure.
///
/// Exposed publicly because every downstream crate's test suite needs a
/// controllable black box (e.g. "flip when Name is copied").
pub struct FnMatcher<F> {
    name: String,
    f: F,
}

impl<F> FnMatcher<F>
where
    F: Fn(&Record, &Record) -> f64 + Send + Sync,
{
    /// Wrap a scoring closure as a [`Matcher`].
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnMatcher {
            name: name.into(),
            f,
        }
    }
}

impl<F> Matcher for FnMatcher<F>
where
    F: Fn(&Record, &Record) -> f64 + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn score(&self, u: &Record, v: &Record) -> f64 {
        (self.f)(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordId;

    fn rec(id: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(id), vals.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn fn_matcher_scores_and_predicts() {
        let m = FnMatcher::new("const", |_u: &Record, _v: &Record| 0.9);
        let u = rec(0, &["a"]);
        let v = rec(1, &["a"]);
        assert_eq!(m.name(), "const");
        assert_eq!(m.score(&u, &v), 0.9);
        assert_eq!(m.predict(&u, &v), MatchLabel::Match);
        assert!(m.prediction(&u, &v).is_match());
    }

    #[test]
    fn boxed_matcher_is_usable_through_arc() {
        let m: BoxedMatcher = Arc::new(FnMatcher::new("c", |_: &Record, _: &Record| 0.2));
        let u = rec(0, &["a"]);
        let v = rec(1, &["b"]);
        assert_eq!(m.predict(&u, &v), MatchLabel::NonMatch);
        // Arc<dyn Matcher> itself implements Matcher (blanket impl).
        fn takes_matcher(m: impl Matcher) -> f64 {
            let u = Record::new(RecordId(0), vec!["a".into()]);
            m.score(&u, &u)
        }
        assert_eq!(takes_matcher(m.clone()), 0.2);
    }

    #[test]
    fn prediction_threshold() {
        assert!(Prediction::from_score(0.51).is_match());
        assert!(!Prediction::from_score(0.5).is_match());
    }

    #[test]
    fn score_batch_default_matches_sequential_scores() {
        let m = FnMatcher::new("len", |u: &Record, _v: &Record| {
            (u.values()[0].len() as f64 / 10.0).min(1.0)
        });
        let records: Vec<Record> = (0..4u32)
            .map(|i| Record::new(RecordId(i), vec!["x".repeat(i as usize + 1)]))
            .collect();
        let pairs: Vec<(&Record, &Record)> = records.iter().zip(records.iter().rev()).collect();
        let batch = m.score_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for ((u, v), s) in pairs.iter().zip(&batch) {
            assert_eq!(*s, m.score(u, v));
        }
        assert!(m.score_batch(&[]).is_empty());
    }

    #[test]
    fn score_batch_forwards_through_wrappers() {
        /// A matcher whose batch path is deliberately distinguishable so the
        /// test can observe whether a wrapper preserved the override.
        struct MarkedBatch;
        impl Matcher for MarkedBatch {
            fn name(&self) -> &str {
                "marked"
            }
            fn score(&self, _u: &Record, _v: &Record) -> f64 {
                0.25
            }
            fn score_batch(&self, pairs: &[(&Record, &Record)]) -> Vec<f64> {
                vec![0.75; pairs.len()]
            }
        }
        let u = rec(0, &["a"]);
        let v = rec(1, &["b"]);
        let pairs = [(&u, &v)];
        let direct = MarkedBatch;
        assert_eq!(direct.score_batch(&pairs), vec![0.75]);
        let by_ref: &dyn Matcher = &MarkedBatch;
        assert_eq!(by_ref.score_batch(&pairs), vec![0.75]);
        let arced: BoxedMatcher = Arc::new(MarkedBatch);
        assert_eq!(arced.score_batch(&pairs), vec![0.75]);
        let arced_ref: &BoxedMatcher = &arced;
        assert_eq!(arced_ref.score_batch(&pairs), vec![0.75]);
    }
}
