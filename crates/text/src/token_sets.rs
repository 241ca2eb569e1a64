//! Token-set similarity: Jaccard over whitespace token sets.
//!
//! [`jaccard`] tokenizes its two strings; [`jaccard_tokens`] takes
//! **pre-tokenized views**, so callers holding cached token lists (e.g.
//! [`certa_core::AttrValue::clean_tokens`]) skip the re-tokenization. Both
//! count the two sets on [`Overlap`], the hash kernel trigram and Ditto
//! features count with, keyed by the token text.
//!
//! [`jaccard_ids`] counts interned token ids instead
//! ([`certa_core::AttrValue::clean_token_ids`]), in the table each thread
//! reuses ([`with_overlap`]), sized from the id lists' lengths: a warm call
//! hashes no token text and allocates nothing. This is the form the model
//! pairs count on. Ids are equal exactly when the texts are.
//!
//! Set sizes and the intersection are exact integers in every form, so
//! each ratio is the one two hash sets of the tokens give, bit for bit.

use crate::ngram::{with_overlap, Overlap};
use certa_core::tokens::tokens;
use certa_core::{Side, TokenId};

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
    let (a, b) = (a.into_iter(), b.into_iter());
    let mut overlap = Overlap::with_capacity(a.size_hint().0 + b.size_hint().0);
    for token in a {
        overlap.insert(Side::Left, token);
    }
    for token in b {
        overlap.insert(Side::Right, token);
    }
    overlap.jaccard()
}

/// [`jaccard_tokens`] over interned token ids. Each side is a list of id
/// lists, such as a record's values' [`certa_core::AttrValue::clean_token_ids`],
/// and its set is their union. Counts in this thread's table
/// ([`with_overlap`]), sized from the lists' lengths.
pub fn jaccard_ids<'a>(
    a: impl IntoIterator<Item = &'a [TokenId]> + Clone,
    b: impl IntoIterator<Item = &'a [TokenId]> + Clone,
) -> f64 {
    with_overlap(id_count(a.clone()) + id_count(b.clone()), |ids| {
        insert_ids(ids, Side::Left, a);
        insert_ids(ids, Side::Right, b);
        ids.jaccard()
    })
}

/// The ids a side inserts, repeats counted.
fn id_count<'a>(lists: impl IntoIterator<Item = &'a [TokenId]>) -> usize {
    lists.into_iter().map(<[TokenId]>::len).sum()
}

/// Insert every id of `lists` into `side`'s set.
fn insert_ids<'a>(
    ids: &mut Overlap<u64>,
    side: Side,
    lists: impl IntoIterator<Item = &'a [TokenId]>,
) {
    for &TokenId(id) in lists.into_iter().flatten() {
        ids.insert(side, u64::from(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::hash::FxHashSet;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Few tokens, so lists repeat them and share them; 2-, 3- and 4-byte
    /// UTF-8 among them.
    const TOKEN: &str = "[abé€😀]{1,2}";
    /// Text with runs of spaces and tabs, leading and trailing ones too.
    const TEXT: &str = "[abé€😀 \t]{0,24}";

    /// The reference: each side's distinct tokens in an `FxHashSet`.
    fn reference<'a>(a: impl Iterator<Item = &'a str>, b: impl Iterator<Item = &'a str>) -> f64 {
        let sa: FxHashSet<&str> = a.collect();
        let sb: FxHashSet<&str> = b.collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        let inter = sa.intersection(&sb).count();
        inter as f64 / (sa.len() + sb.len() - inter) as f64
    }

    fn ids<'a>(tokens: impl Iterator<Item = &'a str>) -> Vec<TokenId> {
        tokens.map(TokenId::intern).collect()
    }

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
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn overlap_counts_match_hash_sets(
            a in vec(TOKEN, 0..8),
            b in vec(TOKEN, 0..8),
            x in TEXT,
            y in TEXT,
        ) {
            let (ta, tb) = (a.iter().map(String::as_str), b.iter().map(String::as_str));
            let expected = reference(ta.clone(), tb.clone()).to_bits();
            prop_assert_eq!(jaccard_tokens(ta.clone(), tb.clone()).to_bits(), expected);
            // The same tokens as interned ids: one list a side, and the left
            // side split in two lists, as a record's values split it.
            let (ia, ib) = (ids(ta), ids(tb));
            prop_assert_eq!(jaccard_ids([&ia[..]], [&ib[..]]).to_bits(), expected);
            let (head, tail) = ia.split_at(ia.len() / 2);
            prop_assert_eq!(jaccard_ids([head, tail], [&ib[..]]).to_bits(), expected);
            let s = jaccard(&x, &y);
            prop_assert_eq!(s.to_bits(), jaccard_tokens(tokens(&x), tokens(&y)).to_bits());
            prop_assert_eq!(s.to_bits(), reference(tokens(&x), tokens(&y)).to_bits());
            let (ix, iy) = (ids(tokens(&x)), ids(tokens(&y)));
            prop_assert_eq!(s.to_bits(), jaccard_ids([&ix[..]], [&iy[..]]).to_bits());
        }
    }

    proptest! {
        #[test]
        fn jaccard_bounded_symmetric(a in "[a-c ]{0,16}", b in "[a-c ]{0,16}") {
            let s = jaccard(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - jaccard(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn identity_is_one(a in "[a-z ]{1,16}") {
            prop_assume!(!a.trim().is_empty());
            prop_assert_eq!(jaccard(&a, &a), 1.0);
        }
    }
}
