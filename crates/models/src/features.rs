//! Pair featurization — one style per model family.
//!
//! Every family is a fold over **pure per-value / per-value-pair
//! artifacts** (cleaned forms and token views come pre-cached on the
//! interned [`AttrValue`]s) plus a thin assembly layer:
//!
//! * DeepER sums each value's token-embedding partials into a record
//!   embedding;
//! * DeepMatcher concatenates one similarity column per aligned value pair;
//! * Ditto counts token and trigram overlaps of the two records'
//!   serializations from each value's parts (its tokens with their hasher
//!   slots, and its trigram codes), without building the serializations.
//!   The Ditto section below says why that is exact.
//!
//! [`Featurizer::features_with`] optionally routes the artifacts through a
//! [`FeatureMemo`], which caches them by stable [`certa_core::ValueId`] —
//! because they are deterministic, memoized and unmemoized featurization
//! are bit-for-bit identical (pinned by `tests/memo_props.rs` and
//! `tests/ditto_oracle.rs`, gated by `bench_featurize`).

use crate::embedding::{cosine, HashedEmbedder};
use crate::memo::{DittoSegment, EmbedArtifact, FeatureMemo};
use certa_core::hash::fx_hash_one;
use certa_core::tokens::clean;
use certa_core::{AttrValue, Dataset, Record, Side, Split};
use certa_ml::FeatureHasher;
use certa_text::{
    jaccard_tokens, jaro_winkler, levenshtein_sim, numeric_sim, parse_number, trigram_sim,
    with_gram_overlap, CorpusStats, Overlap, OverlapKey, Trigrams,
};
use std::ops::Range;
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
//
// Ditto serializes a record as `col0 <seg0>col1 <seg1>…`, right-trimmed,
// where `seg<i>` is attribute `i`'s value as `ditto_segment` writes it: each
// token followed by one space. A pair's features are set measures over the
// two serializations, and both sets are unions of per-value parts:
//
// * Tokens: the serialization's whitespace tokens are the `col<i>` markers
//   and then each segment's tokens, in order; the markers are dropped.
// * Trigrams: every piece `col<i> <seg_i>` is at least four chars long and
//   starts with `co`, so a window ends at most two chars into the next
//   piece. The set is, over attributes `i`, the windows starting in the
//   marker `col<i> ` (they run into the segment's first two chars) plus the
//   windows starting in the segment: those of `seg_i + "co"`, or of the
//   right-trimmed segment for the last attribute.
//
// `DittoParts` holds one value's share, derived once from its segment, so a
// scored pair only folds its values' parts. `tests/ditto_oracle.rs` checks
// the fold bit for bit against serializing both records.

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

/// One token of a Ditto segment, with what a pair needs of it precomputed.
struct DittoToken {
    /// Byte range of the token in its segment.
    span: Range<usize>,
    /// FxHash of the token: its key hash in the token-set [`Overlap`].
    hash: u64,
    /// Hasher bucket and sign of `both:<token>`, fed when both records hold
    /// the token.
    both: (usize, f64),
    /// Hasher bucket and sign of `only:<token>`, fed when one record does.
    only: (usize, f64),
}

/// Fills the token table's vacant slots.
const NO_TOKEN: DittoToken = DittoToken {
    span: 0..0,
    hash: 0,
    both: (0, 0.0),
    only: (0, 0.0),
};

/// A token as the token-set [`Overlap`] counts it: equal when the text is.
#[derive(Clone, Copy)]
struct TokenKey<'a> {
    text: &'a str,
    token: &'a DittoToken,
}

impl PartialEq for TokenKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.token.hash == other.token.hash && self.text == other.text
    }
}

impl Eq for TokenKey<'_> {}

impl Default for TokenKey<'_> {
    fn default() -> Self {
        TokenKey {
            text: "",
            token: &NO_TOKEN,
        }
    }
}

impl OverlapKey for TokenKey<'_> {
    #[inline]
    fn overlap_hash(self) -> u64 {
        self.token.hash
    }
}

/// The part of a pair's Ditto features that one value decides, derived from
/// its segment (see the section comment above).
pub(crate) struct DittoParts {
    /// The segment's tokens in order, repeats kept, less those starting
    /// with `col`, which the marker filter also drops.
    tokens: Vec<DittoToken>,
    /// Codes of the trigram windows starting in the segment when another
    /// piece follows: those of `segment + "co"`.
    codes: Vec<u64>,
    /// How many of `codes` lie in the right-trimmed segment: the windows of
    /// a record's last value.
    last_codes: usize,
    /// The first two chars of `segment + "co"`, which the windows starting
    /// in the marker run into.
    lead: [char; 2],
    /// How many of `lead` lie in the right-trimmed segment.
    last_lead: usize,
}

impl DittoParts {
    pub(crate) fn derive(segment: &str, hasher: &FeatureHasher) -> DittoParts {
        let mut feature = String::new();
        let mut slot = |prefix: &str, token: &str| {
            feature.clear();
            feature.push_str(prefix);
            feature.push_str(token);
            hasher.slot(&feature)
        };
        let mut tokens = Vec::with_capacity(segment.split_whitespace().count());
        tokens.extend(
            segment
                .split_whitespace()
                .filter(|t| !t.starts_with("col"))
                .map(|t| {
                    let start = t.as_ptr() as usize - segment.as_ptr() as usize;
                    DittoToken {
                        span: start..start + t.len(),
                        hash: fx_hash_one(t),
                        both: slot("both:", t),
                        only: slot("only:", t),
                    }
                }),
        );
        let mut lead = ['c', 'o'];
        let mut window = Trigrams::default();
        // One window per char of the segment: its byte length bounds them.
        let mut codes = Vec::with_capacity(segment.len());
        for (k, c) in segment.chars().chain("co".chars()).enumerate() {
            if let Some(l) = lead.get_mut(k) {
                *l = c;
            }
            codes.extend(window.push(c));
        }
        let trimmed = segment.trim_end().chars().count();
        DittoParts {
            tokens,
            codes,
            last_codes: trimmed.saturating_sub(2),
            lead,
            last_lead: trimmed.min(2),
        }
    }
}

/// One value as a pair's fold reads it: its segment and derived parts.
type DittoValue<'a> = (&'a str, &'a DittoParts);

/// The chars of attribute `i`'s marker, `col<i>`.
fn marker(i: usize) -> impl Iterator<Item = char> {
    let width = i.checked_ilog10().unwrap_or(0) + 1;
    "col".chars().chain(
        (0..width)
            .rev()
            .map(move |k| char::from(b'0' + (i / 10usize.pow(k) % 10) as u8)),
    )
}

/// An upper bound on the trigram windows a marker adds (`col<i> ` and two
/// lead chars, for `i` below 10,000); the table grows past it if need be.
const MARKER_WINDOWS: usize = 8;

/// Insert the trigram codes of a record's serialization, given its values
/// in schema order.
fn insert_serialized_trigrams(grams: &mut Overlap<u64>, side: Side, values: &[DittoValue<'_>]) {
    for (i, (_, p)) in values.iter().enumerate() {
        let (codes, lead) = if i + 1 == values.len() {
            (&p.codes[..p.last_codes], &p.lead[..p.last_lead])
        } else {
            (&p.codes[..], &p.lead[..])
        };
        // The windows starting in the marker: a last value that trims to
        // nothing leaves the bare `col<i>`, without its space.
        let mut window = Trigrams::default();
        let space = (!lead.is_empty()).then_some(' ');
        for c in marker(i).chain(space).chain(lead.iter().copied()) {
            if let Some(code) = window.push(c) {
                grams.insert(side, code);
            }
        }
        for &code in codes {
            grams.insert(side, code);
        }
    }
}

/// A record's tokens, in order, as the token set counts them.
fn token_keys<'a>(values: &'a [DittoValue<'a>]) -> impl Iterator<Item = TokenKey<'a>> + 'a {
    values.iter().flat_map(|&(segment, parts)| {
        parts.tokens.iter().map(move |token| TokenKey {
            text: &segment[token.span.clone()],
            token,
        })
    })
}

fn ditto_features(
    hasher: &FeatureHasher,
    u: &Record,
    v: &Record,
    memo: Option<&FeatureMemo>,
) -> Vec<f64> {
    match memo {
        Some(m) => {
            let segments = |r: &Record| -> Vec<Arc<DittoSegment>> {
                r.values()
                    .iter()
                    .map(|value| m.segment(value.id(), || ditto_segment(value)))
                    .collect()
            };
            let (su, sv) = (segments(u), segments(v));
            let [vu, vv] = [&su, &sv].map(|segments| -> Vec<DittoValue<'_>> {
                segments
                    .iter()
                    .map(|s| (s.text(), s.parts(hasher)))
                    .collect()
            });
            fold_ditto(hasher, &vu, &vv)
        }
        None => {
            let derive = |r: &Record| -> Vec<(String, DittoParts)> {
                r.values()
                    .iter()
                    .map(|value| {
                        let segment = ditto_segment(value);
                        let parts = DittoParts::derive(&segment, hasher);
                        (segment, parts)
                    })
                    .collect()
            };
            let (du, dv) = (derive(u), derive(v));
            let [vu, vv] = [&du, &dv].map(|derived| -> Vec<DittoValue<'_>> {
                derived.iter().map(|(s, p)| (s.as_str(), p)).collect()
            });
            fold_ditto(hasher, &vu, &vv)
        }
    }
}

/// Ditto's pair features, folded from both records' values.
fn fold_ditto(hasher: &FeatureHasher, u: &[DittoValue<'_>], v: &[DittoValue<'_>]) -> Vec<f64> {
    let token_count =
        |values: &[DittoValue<'_>]| -> usize { values.iter().map(|(_, p)| p.tokens.len()).sum() };
    let (nu, nv) = (token_count(u), token_count(v));

    let mut tokens = Overlap::with_capacity(nu + nv);
    for key in token_keys(u) {
        tokens.insert(Side::Left, key);
    }
    for key in token_keys(v) {
        tokens.insert(Side::Right, key);
    }
    // The hashed buckets, then four scalars.
    let mut out = Vec::with_capacity(hasher.dim() + 4);
    out.resize(hasher.dim(), 0.0);
    // Cross features: shared tokens (strong match evidence), one-sided
    // tokens (mismatch evidence), marked with direction prefixes. A bucket
    // only sums ±1 and ±0.5, which is exact in any order, so the table's
    // order cannot move a bit.
    for (key, shared) in tokens.keys() {
        let ((idx, sign), weight) = if shared {
            (key.token.both, 1.0)
        } else {
            (key.token.only, -0.5)
        };
        out[idx] += sign * weight;
    }
    let (distinct_u, distinct_v, _) = tokens.counts();
    let denom = (distinct_u + distinct_v).max(1) as f64;
    out.iter_mut().for_each(|x| *x /= denom.sqrt());

    let gram_bound = |values: &[DittoValue<'_>]| -> usize {
        values
            .iter()
            .map(|(_, p)| p.codes.len() + MARKER_WINDOWS)
            .sum()
    };
    let gram_sim = with_gram_overlap(gram_bound(u) + gram_bound(v), |grams| {
        insert_serialized_trigrams(grams, Side::Left, u);
        insert_serialized_trigrams(grams, Side::Right, v);
        grams.jaccard()
    });

    let first = |values| token_keys(values).next().map_or("", |key| key.text);
    out.push(tokens.jaccard());
    out.push(gram_sim);
    out.push(levenshtein_sim(first(u), first(v)));
    out.push((nu as f64 - nv as f64).abs() / (nu + nv).max(1) as f64);
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
        let s = ditto_segment(&AttrValue::intern("Sony tv, price 379.72"));
        assert_eq!(s, "sony tv price 380 ");
        assert!(!s.contains("379.72"));
    }

    #[test]
    fn ditto_parts_split_the_segment() {
        let hasher = FeatureHasher::new(48, 0xD177);
        let parts = DittoParts::derive("b columbia  a ", &hasher);
        let tokens: Vec<&str> = parts
            .tokens
            .iter()
            .map(|t| &"b columbia  a "[t.span.clone()])
            .collect();
        assert_eq!(tokens, ["b", "a"], "`col`-prefixed tokens are dropped");
        // Windows of "b columbia  a co": one per char from the third on.
        assert_eq!(parts.codes.len(), 14);
        assert_eq!(parts.last_codes, 11, "windows of \"b columbia  a\"");
        assert_eq!((parts.lead, parts.last_lead), (['b', ' '], 2));
        let blank = DittoParts::derive(" ", &hasher);
        assert!(blank.tokens.is_empty());
        assert_eq!((blank.codes.len(), blank.last_codes), (1, 0));
        assert_eq!((blank.lead, blank.last_lead), ([' ', 'c'], 0));
        let empty = DittoParts::derive("", &hasher);
        assert_eq!((empty.lead, empty.last_lead), (['c', 'o'], 0));
        assert_eq!(DittoParts::derive("x ", &hasher).last_lead, 1);
    }

    #[test]
    fn markers_spell_the_attribute_index() {
        for i in [0, 7, 10, 11, 99, 100, 12345] {
            assert_eq!(marker(i).collect::<String>(), format!("col{i}"));
        }
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
        for pass in ["cold", "warm"] {
            for value in r.values() {
                let segment = memo.segment(value.id(), || ditto_segment(value));
                assert_eq!(segment.text(), ditto_segment(value), "{pass} pass");
            }
        }
    }
}
