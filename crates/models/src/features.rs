//! Pair featurization — one style per model family.
//!
//! Every family is decomposed into **pure per-value / per-value-pair
//! helpers** (cleaned forms and token views come pre-cached on the interned
//! [`AttrValue`]s) plus a thin assembly layer. [`Featurizer::features_with`]
//! optionally routes the helpers through a [`FeatureMemo`], which caches
//! their outputs by stable [`certa_core::ValueId`] — because the helpers are
//! deterministic, memoized and unmemoized featurization are bit-for-bit
//! identical (pinned by `tests/memo_props.rs`, gated by `bench_featurize`).

use crate::embedding::{cosine, HashedEmbedder};
use crate::memo::{EmbedArtifact, FeatureMemo};
use certa_core::hash::FxHashSet;
use certa_core::tokens::clean;
use certa_core::{AttrValue, Dataset, Record, Split};
use certa_ml::FeatureHasher;
use certa_text::{
    jaccard_tokens, jaro_winkler, levenshtein_sim, numeric_sim, parse_number, trigram_sim,
    CorpusStats,
};
use std::sync::Arc;

/// Number of per-attribute similarity features produced by
/// [`Featurizer::DeepMatcher`].
pub const ATTR_FEATURES: usize = 6;

/// Featurization strategy for a record pair, fitted on a dataset's training
/// records (IDF statistics) where needed.
#[derive(Debug, Clone)]
pub enum Featurizer {
    /// Record-level embeddings, DeepER style:
    /// `[|e_u − e_v| ; e_u ⊙ e_v ; cos(e_u, e_v)]`.
    DeepEr {
        /// Shared token embedder.
        embedder: HashedEmbedder,
    },
    /// Attribute-level similarity summaries, DeepMatcher style: for each
    /// aligned attribute `[jaccard, jaro_winkler, trigram, tfidf-cos or
    /// numeric, both-missing, one-missing]`.
    DeepMatcher {
        /// Corpus IDF fitted on training records.
        corpus: CorpusStats,
        /// Aligned attribute count.
        arity: usize,
    },
    /// Serialized-pair hashed cross features, Ditto style.
    Ditto {
        /// Hasher for the signed token-overlap buckets.
        hasher: FeatureHasher,
    },
}

impl Featurizer {
    /// Fit a featurizer of the requested family on a dataset.
    pub fn fit(kind: FeaturizerKind, dataset: &Dataset) -> Featurizer {
        match kind {
            FeaturizerKind::DeepEr => Featurizer::DeepEr {
                embedder: HashedEmbedder::new(24, 0xDEE9),
            },
            FeaturizerKind::DeepMatcher => {
                let mut corpus = CorpusStats::new();
                for lp in dataset.split(Split::Train) {
                    let (u, v) = dataset.expect_pair(lp.pair);
                    for val in u.values().iter().chain(v.values()) {
                        // Cleaned tokens are cached on the interned value.
                        corpus.add_document_tokens(val.clean_tokens());
                    }
                }
                Featurizer::DeepMatcher {
                    corpus,
                    arity: dataset.left().schema().arity(),
                }
            }
            FeaturizerKind::Ditto => Featurizer::Ditto {
                hasher: FeatureHasher::new(48, 0xD177),
            },
        }
    }

    /// Feature vector width.
    pub fn dim(&self) -> usize {
        match self {
            Featurizer::DeepEr { embedder } => 2 * embedder.dim() + 1,
            Featurizer::DeepMatcher { arity, .. } => arity * ATTR_FEATURES + 1,
            Featurizer::Ditto { hasher } => hasher.dim() + 4,
        }
    }

    /// Featurize one pair (unmemoized).
    pub fn features(&self, u: &Record, v: &Record) -> Vec<f64> {
        self.features_with(u, v, None)
    }

    /// Featurize one pair, optionally reusing cached per-value artifacts
    /// from `memo`. Bit-identical to [`Featurizer::features`].
    pub fn features_with(&self, u: &Record, v: &Record, memo: Option<&FeatureMemo>) -> Vec<f64> {
        match self {
            Featurizer::DeepEr { embedder } => deeper_features(embedder, u, v, memo),
            Featurizer::DeepMatcher { corpus, arity } => {
                deepmatcher_features(corpus, *arity, u, v, memo)
            }
            Featurizer::Ditto { hasher } => ditto_features(hasher, u, v, memo),
        }
    }
}

/// Featurizer family tag (mirrors the model zoo).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeaturizerKind {
    /// Record-level embeddings.
    DeepEr,
    /// Attribute-level similarity summaries.
    DeepMatcher,
    /// Serialized-pair cross features.
    Ditto,
}

// ------------------------------------------------------------------ DeepER

/// Record embedding as a fold of per-value artifacts: the partial sums are
/// combined in schema order, so the result does not depend on whether each
/// partial came from the memo or was just computed.
fn embed_record(embedder: &HashedEmbedder, r: &Record, memo: Option<&FeatureMemo>) -> Vec<f64> {
    let mut acc = vec![0.0; embedder.dim()];
    let mut total = 0usize;
    for value in r.values() {
        let fold = |acc: &mut [f64], artifact: &EmbedArtifact| {
            for (a, x) in acc.iter_mut().zip(artifact.sum.iter()) {
                *a += x;
            }
        };
        match memo {
            Some(m) => {
                let artifact: Arc<EmbedArtifact> =
                    m.embed_artifact(value.id(), || embedder.value_artifact(value));
                fold(&mut acc, &artifact);
                total += artifact.count;
            }
            None => {
                let artifact = embedder.value_artifact(value);
                fold(&mut acc, &artifact);
                total += artifact.count;
            }
        }
    }
    HashedEmbedder::finish_mean(acc, total)
}

fn deeper_features(
    embedder: &HashedEmbedder,
    u: &Record,
    v: &Record,
    memo: Option<&FeatureMemo>,
) -> Vec<f64> {
    let eu = embed_record(embedder, u, memo);
    let ev = embed_record(embedder, v, memo);
    let mut out = Vec::with_capacity(2 * embedder.dim() + 1);
    for (a, b) in eu.iter().zip(ev.iter()) {
        out.push((a - b).abs());
    }
    for (a, b) in eu.iter().zip(ev.iter()) {
        out.push(a * b);
    }
    out.push(cosine(&eu, &ev));
    out
}

// -------------------------------------------------------------- DeepMatcher

/// One aligned attribute's similarity column — a pure function of the two
/// interned values (cleaned forms and token views are cached on them) and
/// the fitted corpus.
fn deepmatcher_column(corpus: &CorpusStats, a: &AttrValue, b: &AttrValue) -> Vec<f64> {
    let ca = a.cleaned();
    let cb = b.cleaned();
    let a_missing = ca.is_empty();
    let b_missing = cb.is_empty();
    if a_missing && b_missing {
        return vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0];
    }
    if a_missing || b_missing {
        return vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0];
    }
    let fourth = match (parse_number(ca), parse_number(cb)) {
        (Some(x), Some(y)) => numeric_sim(x, y),
        _ => corpus.cosine_tfidf_tokens(a.clean_tokens(), b.clean_tokens()),
    };
    vec![
        jaccard_tokens(a.clean_tokens(), b.clean_tokens()),
        jaro_winkler(ca, cb),
        trigram_sim(ca, cb),
        fourth,
        0.0,
        0.0,
    ]
}

fn deepmatcher_features(
    corpus: &CorpusStats,
    arity: usize,
    u: &Record,
    v: &Record,
    memo: Option<&FeatureMemo>,
) -> Vec<f64> {
    debug_assert_eq!(u.arity(), arity);
    debug_assert_eq!(v.arity(), arity);
    let mut out = Vec::with_capacity(arity * ATTR_FEATURES + 1);
    for i in 0..arity {
        let (a, b) = (&u.values()[i], &v.values()[i]);
        match memo {
            Some(m) => {
                let col = m.column(i as u16, a.id(), b.id(), || {
                    deepmatcher_column(corpus, a, b)
                });
                out.extend_from_slice(&col);
            }
            None => out.extend(deepmatcher_column(corpus, a, b)),
        }
    }
    // One record-level aggregate so the model can catch dirty-migrated
    // values: Jaccard over the union of each record's cleaned token sets.
    out.push(jaccard_tokens(
        u.values().iter().flat_map(AttrValue::clean_tokens),
        v.values().iter().flat_map(AttrValue::clean_tokens),
    ));
    out
}

// -------------------------------------------------------------------- Ditto

/// Serialize one value's tokens Ditto-style (numbers rounded to integers —
/// Ditto's number normalization DK injection — other tokens cleaned), each
/// token followed by one space. Pure per-value function; the `col<i>` prefix
/// is attribute-positional and added by the record serializer.
fn ditto_segment(value: &AttrValue) -> String {
    let mut s = String::new();
    // Parse numbers on the *raw* tokens (cleaning would split "379.72"),
    // then clean the surviving text tokens.
    for tok in value.tokens() {
        match parse_number(tok) {
            Some(n) => s.push_str(&format!("{}", n.round() as i64)),
            None => s.push_str(&clean(tok)),
        }
        s.push(' ');
    }
    s
}

fn serialize_ditto_with(r: &Record, memo: Option<&FeatureMemo>) -> String {
    let mut s = String::new();
    for (i, val) in r.values().iter().enumerate() {
        s.push_str("col");
        s.push_str(&i.to_string());
        s.push(' ');
        match memo {
            Some(m) => s.push_str(&m.segment(val.id(), || ditto_segment(val))),
            None => s.push_str(&ditto_segment(val)),
        }
    }
    s.trim_end().to_string()
}

/// Serialize a record Ditto-style: `COL <attr-index> VAL <tokens…>`.
pub fn serialize_ditto(r: &Record) -> String {
    serialize_ditto_with(r, None)
}

fn ditto_features(
    hasher: &FeatureHasher,
    u: &Record,
    v: &Record,
    memo: Option<&FeatureMemo>,
) -> Vec<f64> {
    let su = serialize_ditto_with(u, memo);
    let sv = serialize_ditto_with(v, memo);
    let tu: Vec<&str> = su
        .split_whitespace()
        .filter(|t| !t.starts_with("col"))
        .collect();
    let tv: Vec<&str> = sv
        .split_whitespace()
        .filter(|t| !t.starts_with("col"))
        .collect();
    let set_u: FxHashSet<&str> = tu.iter().copied().collect();
    let set_v: FxHashSet<&str> = tv.iter().copied().collect();

    let mut hashed = vec![0.0; hasher.dim()];
    // Cross features: shared tokens (strong match evidence), one-sided
    // tokens (mismatch evidence), marked with direction prefixes.
    let mut scratch = String::new();
    for &t in set_u.intersection(&set_v) {
        scratch.clear();
        scratch.push_str("both:");
        scratch.push_str(t);
        hasher.add(&mut hashed, &scratch, 1.0);
    }
    for &t in set_u.difference(&set_v) {
        scratch.clear();
        scratch.push_str("only:");
        scratch.push_str(t);
        hasher.add(&mut hashed, &scratch, -0.5);
    }
    for &t in set_v.difference(&set_u) {
        scratch.clear();
        scratch.push_str("only:");
        scratch.push_str(t);
        hasher.add(&mut hashed, &scratch, -0.5);
    }
    let denom = (set_u.len() + set_v.len()).max(1) as f64;
    hashed.iter_mut().for_each(|x| *x /= denom.sqrt());

    let inter = set_u.intersection(&set_v).count() as f64;
    let union = (set_u.len() + set_v.len()) as f64 - inter;
    let mut out = hashed;
    out.push(if union > 0.0 { inter / union } else { 1.0 }); // token jaccard
    out.push(trigram_sim(&su, &sv));
    out.push(levenshtein_sim(
        tu.first().copied().unwrap_or(""),
        tv.first().copied().unwrap_or(""),
    ));
    out.push((tu.len() as f64 - tv.len() as f64).abs() / (tu.len() + tv.len()).max(1) as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::RecordId;
    use certa_datagen::{generate, DatasetId, Scale};

    fn rec(id: u32, vals: &[&str]) -> Record {
        Record::new(RecordId(id), vals.iter().map(|s| s.to_string()).collect())
    }

    fn fit_all() -> Vec<Featurizer> {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        vec![
            Featurizer::fit(FeaturizerKind::DeepEr, &d),
            Featurizer::fit(FeaturizerKind::DeepMatcher, &d),
            Featurizer::fit(FeaturizerKind::Ditto, &d),
        ]
    }

    #[test]
    fn dims_match_outputs() {
        let u = rec(0, &["sony bravia tv", "black theater system", "100"]);
        let v = rec(1, &["sony bravia tv", "home theater", ""]);
        for f in fit_all() {
            let feats = f.features(&u, &v);
            assert_eq!(feats.len(), f.dim(), "{f:?}");
            assert!(feats.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn identical_pairs_score_higher_than_disjoint() {
        let u = rec(
            0,
            &["sony bravia tv davis50b", "black theater system", "100"],
        );
        let same = rec(
            1,
            &["sony bravia tv davis50b", "black theater system", "100"],
        );
        let diff = rec(2, &["canon pixma printer mx700", "photo inkjet", "89"]);
        for f in fit_all() {
            let f_same = f.features(&u, &same);
            let f_diff = f.features(&u, &diff);
            // Pick an aggregate with a consistent orientation per family:
            // DeepER's last feature is the record cosine; for the others the
            // feature sum tracks similarity.
            let (s1, s2) = match &f {
                Featurizer::DeepEr { .. } => (*f_same.last().unwrap(), *f_diff.last().unwrap()),
                _ => (f_same.iter().sum::<f64>(), f_diff.iter().sum::<f64>()),
            };
            assert!(s1 > s2, "{f:?}: {s1} vs {s2}");
        }
    }

    #[test]
    fn deepmatcher_missing_indicators() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let f = Featurizer::fit(FeaturizerKind::DeepMatcher, &d);
        let u = rec(0, &["sony", "desc", ""]);
        let v = rec(1, &["sony", "desc", ""]);
        let feats = f.features(&u, &v);
        // Third attribute block: both missing → [0,0,0,0,1,0]
        let block = &feats[2 * ATTR_FEATURES..3 * ATTR_FEATURES];
        assert_eq!(block, &[0.0, 0.0, 0.0, 0.0, 1.0, 0.0]);
        let v2 = rec(2, &["sony", "desc", "99"]);
        let feats2 = f.features(&u, &v2);
        let block2 = &feats2[2 * ATTR_FEATURES..3 * ATTR_FEATURES];
        assert_eq!(block2, &[0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn deepmatcher_numeric_attribute_uses_numeric_sim() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let f = Featurizer::fit(FeaturizerKind::DeepMatcher, &d);
        let u = rec(0, &["a", "b", "100"]);
        let close = rec(1, &["a", "b", "105"]);
        let far = rec(2, &["a", "b", "900"]);
        let f_close = f.features(&u, &close);
        let f_far = f.features(&u, &far);
        let idx = 2 * ATTR_FEATURES + 3;
        assert!(f_close[idx] > f_far[idx]);
    }

    #[test]
    fn ditto_serialization_normalizes_numbers() {
        let r = rec(0, &["sony tv", "price 379.72"]);
        let s = serialize_ditto(&r);
        assert!(s.contains("col0 sony tv"));
        assert!(s.contains("380"), "rounded number in `{s}`");
        assert!(!s.contains("379.72"));
    }

    #[test]
    fn ditto_features_sensitive_to_single_attribute_change() {
        let d = generate(DatasetId::AB, Scale::Smoke, 1);
        let f = Featurizer::fit(FeaturizerKind::Ditto, &d);
        let u = rec(0, &["sony bravia davis50b", "theater system", "100"]);
        let v1 = rec(1, &["sony bravia davis50b", "theater system", "100"]);
        let v2 = rec(2, &["altec lansing im600", "theater system", "100"]);
        let a = f.features(&u, &v1);
        let b = f.features(&u, &v2);
        assert_ne!(a, b);
        // Jaccard scalar (dim-4) must drop.
        let j = f.dim() - 4;
        assert!(a[j] > b[j]);
    }

    #[test]
    fn featurization_is_deterministic() {
        let u = rec(0, &["sony bravia", "desc words", "100"]);
        let v = rec(1, &["sony tv", "other words", ""]);
        for f in fit_all() {
            assert_eq!(f.features(&u, &v), f.features(&u, &v));
        }
    }

    #[test]
    fn memoized_features_are_bit_identical() {
        let u = rec(0, &["sony bravia tv davis50b", "black theater", "379.72"]);
        let v = rec(1, &["sony bravia", "home theater system", ""]);
        for f in fit_all() {
            let memo = FeatureMemo::new();
            let cold = f.features_with(&u, &v, Some(&memo));
            let warm = f.features_with(&u, &v, Some(&memo));
            let plain = f.features(&u, &v);
            assert_eq!(cold, plain, "{f:?}: cold memo diverged");
            assert_eq!(warm, plain, "{f:?}: warm memo diverged");
            assert!(memo.stats().hits > 0, "{f:?}: second pass must hit");
        }
    }

    #[test]
    fn memoized_serialization_matches_unmemoized() {
        let r = rec(0, &["sony tv", "price 379.72", ""]);
        let memo = FeatureMemo::new();
        assert_eq!(serialize_ditto_with(&r, Some(&memo)), serialize_ditto(&r));
        assert_eq!(
            serialize_ditto_with(&r, Some(&memo)),
            serialize_ditto(&r),
            "warm pass identical too"
        );
    }
}
