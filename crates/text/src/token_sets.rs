//! Token-set similarities (Jaccard, Dice, overlap coefficient).
//!
//! Every measure has two entry points: the classic `&str` form (tokenizes
//! internally) and a `*_tokens` form over **pre-tokenized views** — callers
//! holding cached token lists (e.g. [`certa_core::AttrValue::clean_tokens`])
//! skip the re-tokenization entirely. Both forms build identical sets, so
//! they return bit-identical results.
//!
//! Set sizes and intersections are counted by a **sorted-slice merge**
//! rather than hash-set probes: dedup-sorted token slices walk forward in
//! one branch-predictable linear pass over contiguous memory, which is the
//! cache-friendly shape for the DeepMatcher featurizer's hot inner loop.
//! The counts are exact integers either way, so every ratio is
//! bit-identical to the old `FxHashSet` implementation.

use certa_core::tokens::tokens;
use std::cmp::Ordering;

fn sorted_unique<'a>(toks: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut v: Vec<&str> = toks.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// `|A ∩ B|` of two dedup-sorted slices by linear merge.
pub(crate) fn intersection_count<T: Ord>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while let (Some(x), Some(y)) = (a.get(i), b.get(j)) {
        match x.cmp(y) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard similarity over whitespace token sets: `|A∩B| / |A∪B|`.
///
/// Both-empty is 1.0.
pub fn jaccard(a: &str, b: &str) -> f64 {
    jaccard_tokens(tokens(a), tokens(b))
}

/// [`jaccard`] over pre-tokenized views (no re-tokenization).
pub fn jaccard_tokens<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    let sa = sorted_unique(a);
    let sb = sorted_unique(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = intersection_count(&sa, &sb);
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

/// Dice coefficient over token sets: `2|A∩B| / (|A| + |B|)`.
pub fn dice(a: &str, b: &str) -> f64 {
    dice_tokens(tokens(a), tokens(b))
}

/// [`dice`] over pre-tokenized views.
pub fn dice_tokens<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    let sa = sorted_unique(a);
    let sb = sorted_unique(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = intersection_count(&sa, &sb);
    2.0 * inter as f64 / (sa.len() + sb.len()) as f64
}

/// Overlap coefficient: `|A∩B| / min(|A|, |B|)` — 1.0 when one token set
/// contains the other, which flags the "description embeds the name"
/// structure common in product datasets like Abt-Buy.
pub fn overlap_coefficient(a: &str, b: &str) -> f64 {
    overlap_coefficient_tokens(tokens(a), tokens(b))
}

/// [`overlap_coefficient`] over pre-tokenized views.
pub fn overlap_coefficient_tokens<'a>(
    a: impl IntoIterator<Item = &'a str>,
    b: impl IntoIterator<Item = &'a str>,
) -> f64 {
    let sa = sorted_unique(a);
    let sb = sorted_unique(b);
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    if sa.is_empty() || sb.is_empty() {
        return 0.0;
    }
    let inter = intersection_count(&sa, &sb);
    inter as f64 / sa.len().min(sb.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn jaccard_known_values() {
        assert_eq!(jaccard("a b c", "a b c"), 1.0);
        assert_eq!(jaccard("a b", "c d"), 0.0);
        assert!((jaccard("a b c", "b c d") - 0.5).abs() < 1e-12); // 2 / 4
        assert_eq!(jaccard("", ""), 1.0);
        assert_eq!(jaccard("a", ""), 0.0);
    }

    #[test]
    fn duplicates_collapse() {
        assert_eq!(jaccard("a a a", "a"), 1.0);
        assert_eq!(dice("b b", "b"), 1.0);
    }

    #[test]
    fn dice_known_values() {
        assert!((dice("a b c", "b c d") - (2.0 * 2.0 / 6.0)).abs() < 1e-12);
        assert_eq!(dice("", ""), 1.0);
        assert_eq!(dice("x", "y"), 0.0);
    }

    #[test]
    fn overlap_detects_containment() {
        assert_eq!(
            overlap_coefficient("sony bravia", "sony bravia theater black micro"),
            1.0
        );
        assert_eq!(overlap_coefficient("a", ""), 0.0);
        assert_eq!(overlap_coefficient("", ""), 1.0);
        assert!((overlap_coefficient("a b", "b c d") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn token_views_match_string_entry_points() {
        for (a, b) in [
            ("a b c", "b c d"),
            ("", ""),
            ("a", ""),
            ("sony bravia theater", "sony cinema"),
        ] {
            let (ta, tb): (Vec<&str>, Vec<&str>) = (
                a.split_whitespace().collect(),
                b.split_whitespace().collect(),
            );
            assert_eq!(
                jaccard(a, b),
                jaccard_tokens(ta.iter().copied(), tb.iter().copied())
            );
            assert_eq!(
                dice(a, b),
                dice_tokens(ta.iter().copied(), tb.iter().copied())
            );
            assert_eq!(
                overlap_coefficient(a, b),
                overlap_coefficient_tokens(ta.iter().copied(), tb.iter().copied())
            );
        }
    }

    proptest! {
        #[test]
        fn all_bounded_symmetric(a in "[a-c ]{0,16}", b in "[a-c ]{0,16}") {
            for f in [jaccard, dice, overlap_coefficient] {
                let s = f(&a, &b);
                prop_assert!((0.0..=1.0).contains(&s));
                prop_assert!((s - f(&b, &a)).abs() < 1e-12);
            }
        }

        #[test]
        fn dice_at_least_jaccard(a in "[a-c ]{0,16}", b in "[a-c ]{0,16}") {
            prop_assert!(dice(&a, &b) + 1e-12 >= jaccard(&a, &b));
        }

        #[test]
        fn identity_is_one(a in "[a-z ]{1,16}") {
            prop_assume!(!a.trim().is_empty());
            prop_assert_eq!(jaccard(&a, &a), 1.0);
            prop_assert_eq!(dice(&a, &a), 1.0);
            prop_assert_eq!(overlap_coefficient(&a, &a), 1.0);
        }
    }
}
