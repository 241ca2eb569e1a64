//! Property tests pinning the token interner's contract: a token's id is a
//! content-keyed bijection, also when many threads intern at once, and a
//! value's cached id list pairs one to one with its cleaned tokens.

use certa_core::hash::FxHashMap;
use certa_core::{AttrValue, TokenId};
use proptest::prelude::*;

/// Attribute-value alphabet: letters, digits, punctuation the cleaner folds,
/// and spaces, so short tokens repeat within and across values.
const VALUE: &str = "[a-zA-Z0-9 ,.!]{0,20}";

/// Eight threads intern overlapping windows of one vocabulary, each in its
/// own order: every text gets one id, and no two texts share one.
#[test]
fn concurrent_interning_is_content_keyed() {
    const WORDS: usize = 400;
    const THREADS: usize = 8;
    let vocabulary: Vec<String> = (0..WORDS).map(|i| format!("token-props-{i}")).collect();
    let seen: Vec<Vec<(usize, TokenId)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let vocabulary = &vocabulary;
                scope.spawn(move || {
                    // Half the vocabulary, from a per-thread offset with a
                    // stride coprime to its size: neighbours share 3/4.
                    (0..WORDS / 2)
                        .map(|k| {
                            let w = (t * WORDS / THREADS + 7 * k) % WORDS;
                            (w, TokenId::intern(&vocabulary[w]))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interning thread"))
            .collect()
    });
    let mut by_word: FxHashMap<usize, TokenId> = FxHashMap::default();
    let mut by_id: FxHashMap<TokenId, usize> = FxHashMap::default();
    for (w, id) in seen.into_iter().flatten() {
        assert_eq!(*by_word.entry(w).or_insert(id), id, "one text, two ids");
        assert_eq!(*by_id.entry(id).or_insert(w), w, "one id, two texts");
    }
    assert_eq!(by_word.len(), WORDS, "every word was interned");
    for (w, word) in vocabulary.iter().enumerate() {
        assert_eq!(TokenId::intern(word), by_word[&w], "re-intern agrees");
    }
}

proptest! {
    /// A value's ids are its cleaned tokens' ids, in order, one each, and
    /// ids of two values' tokens are equal exactly when the texts are.
    #[test]
    fn clean_token_ids_pair_with_clean_tokens(a in VALUE, b in VALUE) {
        let (va, vb) = (AttrValue::intern(&a), AttrValue::intern(&b));
        for v in [&va, &vb] {
            prop_assert_eq!(v.clean_token_ids().len(), v.clean_token_count());
            prop_assert_eq!(
                v.clean_token_ids().to_vec(),
                v.clean_tokens().map(TokenId::intern).collect::<Vec<_>>()
            );
            prop_assert!(
                std::ptr::eq(v.clean_token_ids(), v.clean_token_ids()),
                "ids are cached on the value"
            );
        }
        for (ia, ta) in va.clean_token_ids().iter().zip(va.clean_tokens()) {
            for (ib, tb) in vb.clean_token_ids().iter().zip(vb.clean_tokens()) {
                prop_assert_eq!(ia == ib, ta == tb);
            }
        }
    }
}
