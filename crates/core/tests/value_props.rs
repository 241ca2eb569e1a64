//! Property tests pinning the value-interning refactor's compatibility
//! contract: records built from raw strings and records assembled from
//! interned handles are indistinguishable, and interning is a pure
//! content-keyed bijection.

use certa_core::hash::fx_hash_one;
use certa_core::tokens::{drop_first_k, drop_last_k};
use certa_core::{AttrId, AttrValue, Record, RecordId};
use proptest::prelude::*;

/// Attribute-value alphabet: letters, digits, punctuation the cleaner folds,
/// and spaces (so blanks / missing cells are generated too).
const VALUE: &str = "[a-zA-Z0-9 ,.!]{0,20}";

/// Short tokens between runs of spaces and tabs: many tokens per value, with
/// repeated, leading and trailing whitespace.
const SPACED: &str = "[ \ta-c]{0,24}";

proptest! {
    /// (a) `content_hash` is identical between the old string-built
    /// construction path and the new interned-handle path, for arbitrary
    /// values — so every cache keyed by it is oblivious to the refactor.
    #[test]
    fn content_hash_equal_across_construction_paths(
        values in proptest::collection::vec(VALUE, 1..6),
    ) {
        let from_strings = Record::new(RecordId(1), values.clone());
        let from_handles = Record::from_attr_values(
            RecordId(2),
            values.iter().map(|s| AttrValue::intern(s)).collect(),
        );
        prop_assert_eq!(from_strings.content_hash(), from_handles.content_hash());
        // And the records compare equal value-wise (ids differ by design).
        prop_assert_eq!(from_strings.values(), from_handles.values());
    }

    /// Interning is a content-keyed bijection: equal content ⇔ equal id ⇔
    /// shared allocation; the cached derived forms match the free functions.
    #[test]
    fn interning_is_content_keyed(a in VALUE, b in VALUE) {
        let va = AttrValue::intern(&a);
        let vb = AttrValue::intern(&b);
        prop_assert_eq!(va.as_str(), a.as_str());
        prop_assert_eq!(a == b, va.id() == vb.id());
        prop_assert_eq!(a == b, AttrValue::ptr_eq(&va, &vb));
        prop_assert_eq!(va.content_hash(), fx_hash_one(a.as_str()));
        let cleaned = certa_core::tokens::clean(&a);
        prop_assert_eq!(va.cleaned(), cleaned.as_str());
        prop_assert_eq!(va.token_count(), certa_core::tokens::token_count(&a));
        prop_assert_eq!(
            va.tokens().collect::<Vec<_>>(),
            a.split_whitespace().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            va.clean_tokens().collect::<Vec<_>>(),
            va.cleaned().split_whitespace().collect::<Vec<_>>()
        );
        prop_assert_eq!(va.is_missing(), a.trim().is_empty());
    }

    /// Records hash, compare, and display exactly like their string
    /// contents.
    #[test]
    fn record_behaves_like_its_strings(
        values in proptest::collection::vec(VALUE, 1..6),
    ) {
        let r = Record::new(RecordId(0), values.clone());
        prop_assert_eq!(r.arity(), values.len());
        for (i, expected) in values.iter().enumerate() {
            let a = AttrId(i as u16);
            prop_assert_eq!(r.value(a), expected.as_str());
            prop_assert_eq!(r.is_missing(a), expected.trim().is_empty());
        }
        let tokens: usize = values
            .iter()
            .map(|v| v.split_whitespace().count())
            .sum();
        prop_assert_eq!(r.total_tokens(), tokens);
        // Debug transparency: same rendering as the Vec<String> it replaced.
        prop_assert_eq!(format!("{:?}", r.values()), format!("{values:?}"));
    }

    /// COW hygiene: clones and merges share interned allocations — handles
    /// are copied, never re-interned. (Pointer identity is the strongest
    /// possible claim: no allocation can have happened.)
    #[test]
    fn clones_share_allocations(
        values in proptest::collection::vec(VALUE, 1..6),
    ) {
        let r = Record::new(RecordId(0), values);
        let copy = r.clone();
        let merged = r.with_values_merged(&copy, |i| i % 2 == 0);
        for i in 0..r.arity() {
            let a = AttrId(i as u16);
            prop_assert!(AttrValue::ptr_eq(r.attr_value(a), copy.attr_value(a)));
            prop_assert!(AttrValue::ptr_eq(r.attr_value(a), merged.attr_value(a)));
        }
    }

    /// Every cached §3.3 variant is the interned string drop, for every
    /// `k` from 0 past the token count (the `None` cases included), and a
    /// repeated request returns the cached handle.
    #[test]
    fn cached_variants_equal_the_string_drops(s in SPACED) {
        let v = AttrValue::intern(&s);
        for k in 0..v.token_count() + 2 {
            prop_assert_eq!(v.drop_first_k(k).cloned(), drop_first_k(&s, k).map(AttrValue::from));
            prop_assert_eq!(v.drop_last_k(k).cloned(), drop_last_k(&s, k).map(AttrValue::from));
            for (first, again) in [
                (v.drop_first_k(k), v.drop_first_k(k)),
                (v.drop_last_k(k), v.drop_last_k(k)),
            ] {
                if let (Some(first), Some(again)) = (first, again) {
                    prop_assert!(AttrValue::ptr_eq(first, again));
                }
            }
        }
    }
}
