//! Oracle for Ditto's pair features: the per-value fold the featurizer
//! computes must equal, bit for bit, featurizing the two records the way
//! Ditto describes it — serialize each record to one `col<i> <tokens>…`
//! string, then take token sets, hashed cross features, trigram Jaccard,
//! first-token Levenshtein and the length gap over the two strings.
//!
//! The reference below is that serialize-then-featurize path, kept apart
//! from the production code: its trigram sets are sets of `String`s, not
//! packed codes. Values are drawn from a token list that hits every
//! boundary the fold handles: arities 1–12 (two-digit `col1x` markers),
//! empty and whitespace-only values, tokens that clean to nothing,
//! `col`-prefixed tokens, numbers Ditto rounds, multi-byte UTF-8 and
//! one-char values.

use certa_core::hash::FxHashSet;
use certa_core::tokens::clean;
use certa_core::{AttrValue, Record, RecordId};
use certa_datagen::{generate, DatasetId, Scale};
use certa_ml::FeatureHasher;
use certa_models::{FeatureMemo, Featurizer, FeaturizerKind};
use certa_text::{levenshtein_sim, parse_number};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Tokens values are built from.
const TOKENS: [&str; 30] = [
    "sony", "Bravia", "theater", "a", "7", "é", "x", "—", "!!", "col", "col7", "COL12", "columbia",
    "379.72", "-3.49", "0.5", "-0.4", "1e300", "$1,000", "nan", "straße", "東京", "😀", "x-y/z.w",
    "3.5x", "co", "ol1", "l10", "sony", "tv",
];

/// Separators between a value's tokens: runs of ASCII and Unicode
/// whitespace, all of which the tokenizer splits on.
const SEPARATORS: [&str; 4] = [" ", "  ", "\t", " \u{3000}"];

/// The widest record drawn: markers run `col0`…`col11`.
const MAX_ARITY: usize = 12;

fn ditto() -> &'static Featurizer {
    static DITTO: OnceLock<Featurizer> = OnceLock::new();
    DITTO.get_or_init(|| {
        Featurizer::fit(
            FeaturizerKind::Ditto,
            &generate(DatasetId::AB, Scale::Smoke, 17),
        )
    })
}

fn hasher() -> &'static FeatureHasher {
    match ditto() {
        Featurizer::Ditto { hasher } => hasher,
        other => unreachable!("fit a Ditto featurizer, got {other:?}"),
    }
}

/// One record of `arity` values: value `i` joins the tokens `tokens[i]`
/// indexes, with separators `seps[i]` picks; a value whose first index is
/// odd also gets leading and trailing separators.
fn record(id: u32, arity: usize, tokens: &[Vec<usize>], seps: &[usize]) -> Record {
    let values = (0..arity)
        .map(|i| {
            let sep = SEPARATORS[seps[i] % SEPARATORS.len()];
            let words: Vec<&str> = tokens[i].iter().map(|&t| TOKENS[t]).collect();
            let body = words.join(sep);
            match tokens[i].first() {
                Some(t) if t % 2 == 1 => format!("{sep}{body}{sep}"),
                _ => body,
            }
        })
        .collect();
    Record::new(RecordId(id), values)
}

// ---------------------------------------------------------------- reference

fn reference_segment(value: &AttrValue) -> String {
    let mut s = String::new();
    for tok in value.tokens() {
        match parse_number(tok) {
            Some(n) => s.push_str(&format!("{}", n.round() as i64)),
            None => s.push_str(&clean(tok)),
        }
        s.push(' ');
    }
    s
}

fn reference_serialize(r: &Record) -> String {
    let mut s = String::new();
    for (i, value) in r.values().iter().enumerate() {
        s.push_str(&format!("col{i} "));
        s.push_str(&reference_segment(value));
    }
    s.trim_end().to_string()
}

/// Trigram Jaccard over sets of owned 3-char `String`s (a string of one or
/// two chars is one gram).
fn reference_trigram_sim(a: &str, b: &str) -> f64 {
    let grams = |s: &str| -> FxHashSet<String> {
        let chars: Vec<char> = s.chars().collect();
        match chars.len() {
            0 => FxHashSet::default(),
            1 | 2 => [chars.iter().collect()].into_iter().collect(),
            _ => chars.windows(3).map(|w| w.iter().collect()).collect(),
        }
    };
    let (ga, gb) = (grams(a), grams(b));
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let inter = ga.intersection(&gb).count();
    inter as f64 / (ga.len() + gb.len() - inter) as f64
}

fn reference_features(hasher: &FeatureHasher, u: &Record, v: &Record) -> Vec<f64> {
    let su = reference_serialize(u);
    let sv = reference_serialize(v);
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
    for &t in set_u.intersection(&set_v) {
        hasher.add(&mut hashed, &format!("both:{t}"), 1.0);
    }
    for &t in set_u.symmetric_difference(&set_v) {
        hasher.add(&mut hashed, &format!("only:{t}"), -0.5);
    }
    let denom = (set_u.len() + set_v.len()).max(1) as f64;
    hashed.iter_mut().for_each(|x| *x /= denom.sqrt());

    let inter = set_u.intersection(&set_v).count() as f64;
    let union = (set_u.len() + set_v.len()) as f64 - inter;
    let mut out = hashed;
    out.push(if union > 0.0 { inter / union } else { 1.0 });
    out.push(reference_trigram_sim(&su, &sv));
    out.push(levenshtein_sim(
        tu.first().copied().unwrap_or(""),
        tv.first().copied().unwrap_or(""),
    ));
    out.push((tu.len() as f64 - tv.len() as f64).abs() / (tu.len() + tv.len()).max(1) as f64);
    out
}

// -------------------------------------------------------------- the oracle

fn assert_bits_eq(want: &[f64], got: &[f64], mode: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(want.len(), got.len(), "{}: feature count", mode);
    for (i, (x, y)) in want.iter().zip(got).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: feature {} is {}, the reference {}",
            mode,
            i,
            y,
            x
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2000, ..ProptestConfig::default() })]

    /// The fold equals the reference with the memo off, cold, warm, and
    /// seeded with the segment text alone (as a store snapshot seeds it).
    #[test]
    fn ditto_features_match_the_serializing_reference(
        arity in 1usize..MAX_ARITY + 1,
        u_tokens in proptest::collection::vec(proptest::collection::vec(0usize..TOKENS.len(), 0..5), MAX_ARITY),
        v_tokens in proptest::collection::vec(proptest::collection::vec(0usize..TOKENS.len(), 0..5), MAX_ARITY),
        seps in proptest::collection::vec(0usize..SEPARATORS.len(), MAX_ARITY),
    ) {
        let u = record(0, arity, &u_tokens, &seps);
        let v = record(1, arity, &v_tokens, &seps);
        let want = reference_features(hasher(), &u, &v);
        let f = ditto();
        assert_bits_eq(&want, &f.features(&u, &v), "memo off")?;
        let memo = FeatureMemo::new();
        assert_bits_eq(&want, &f.features_with(&u, &v, Some(&memo)), "cold memo")?;
        assert_bits_eq(&want, &f.features_with(&u, &v, Some(&memo)), "warm memo")?;

        let seeded = FeatureMemo::new();
        for (value, segment) in memo.segment_entries() {
            seeded.seed_segment(value, &segment);
        }
        assert_bits_eq(&want, &f.features_with(&u, &v, Some(&seeded)), "seeded memo")?;
        prop_assert_eq!(seeded.stats().misses, 0, "seeded segments derive without a miss");
    }

    /// Masked views ψ(u, w, A) against one `v`, all through one memo, as the
    /// lattice walk scores them.
    #[test]
    fn masked_views_sharing_a_memo_match_the_reference(
        arity in 1usize..MAX_ARITY + 1,
        u_tokens in proptest::collection::vec(proptest::collection::vec(0usize..TOKENS.len(), 0..4), MAX_ARITY),
        w_tokens in proptest::collection::vec(proptest::collection::vec(0usize..TOKENS.len(), 0..4), MAX_ARITY),
        v_tokens in proptest::collection::vec(proptest::collection::vec(0usize..TOKENS.len(), 0..4), MAX_ARITY),
        seps in proptest::collection::vec(0usize..SEPARATORS.len(), MAX_ARITY),
        masks in proptest::collection::vec(0u32..1 << MAX_ARITY, 8),
    ) {
        let u = record(0, arity, &u_tokens, &seps);
        let w = record(1, arity, &w_tokens, &seps);
        let v = record(2, arity, &v_tokens, &seps);
        let memo = FeatureMemo::new();
        for mask in masks.into_iter().chain([0, u32::MAX]) {
            let view = u.with_values_merged(&w, |i| mask & (1 << i) != 0);
            let want = reference_features(hasher(), &view, &v);
            assert_bits_eq(&want, &ditto().features_with(&view, &v, Some(&memo)), "shared memo")?;
        }
    }
}
