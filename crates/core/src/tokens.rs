//! Whitespace tokenization and token-sequence helpers.
//!
//! The paper's perturbing function ψ and its data-augmentation scheme (§3.3)
//! operate on "sequences of tokens (strings separated by white space)". All
//! matchers and explainers in the workspace share this single tokenizer so a
//! perturbed record round-trips exactly.

/// Iterate an attribute value's whitespace-separated tokens without
/// allocating.
///
/// This is the primitive behind [`token_count`], [`normalize_ws`] and the
/// `drop_*_k` helpers; hot callers (blocking, similarity measures,
/// augmentation) iterate it directly instead of collecting a `Vec<&str>`.
#[inline]
pub fn tokens(value: &str) -> std::str::SplitWhitespace<'_> {
    value.split_whitespace()
}

/// Number of whitespace-separated tokens in `value`.
pub fn token_count(value: &str) -> usize {
    tokens(value).count()
}

/// Join a token iterator with single spaces (the inverse of [`tokens`] up
/// to whitespace normalization), without an intermediate `Vec<&str>`.
pub fn join_iter<'a>(tokens: impl IntoIterator<Item = &'a str>) -> String {
    let mut out = String::new();
    for t in tokens {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(t);
    }
    out
}

/// Normalize a value to its canonical single-spaced form.
pub fn normalize_ws(value: &str) -> String {
    join_iter(tokens(value))
}

/// Drop the first `k` tokens of `value` (used by the paper's data
/// augmentation: "dropping the first-k or the last-k tokens").
///
/// Returns `None` when `k` is zero or would leave no tokens, since the
/// augmentation scheme requires `1 <= k <= n - 1`.
pub fn drop_first_k(value: &str, k: usize) -> Option<String> {
    let n = token_count(value);
    if k == 0 || k >= n {
        return None;
    }
    Some(join_iter(tokens(value).skip(k)))
}

/// Drop the last `k` tokens of `value`; same bounds as [`drop_first_k`].
pub fn drop_last_k(value: &str, k: usize) -> Option<String> {
    let n = token_count(value);
    if k == 0 || k >= n {
        return None;
    }
    Some(join_iter(tokens(value).take(n - k)))
}

/// Lowercase and strip non-alphanumeric characters (keeping digits, letters
/// and whitespace). Matchers use this as a light normalization pass.
pub fn clean(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        if c.is_alphanumeric() {
            for lc in c.to_lowercase() {
                out.push(lc);
            }
        } else if c.is_whitespace() || c == '-' || c == '/' || c == '.' {
            out.push(' ');
        }
    }
    normalize_ws(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn collected(value: &str) -> Vec<&str> {
        tokens(value).collect()
    }

    #[test]
    fn tokenize_basic() {
        assert_eq!(
            collected("sony bravia theater"),
            vec!["sony", "bravia", "theater"]
        );
        assert_eq!(collected("  spaced   out  "), vec!["spaced", "out"]);
        assert!(collected("").is_empty());
        assert!(collected("   ").is_empty());
    }

    #[test]
    fn token_count_matches_tokenize() {
        for s in ["", "a", "a b", " a  b   c "] {
            assert_eq!(token_count(s), collected(s).len());
        }
    }

    #[test]
    fn drop_first_and_last() {
        assert_eq!(drop_first_k("a b c", 1).as_deref(), Some("b c"));
        assert_eq!(drop_first_k("a b c", 2).as_deref(), Some("c"));
        assert_eq!(drop_first_k("a b c", 3), None);
        assert_eq!(drop_first_k("a b c", 0), None);
        assert_eq!(drop_last_k("a b c", 1).as_deref(), Some("a b"));
        assert_eq!(drop_last_k("a b c", 2).as_deref(), Some("a"));
        assert_eq!(drop_last_k("a", 1), None);
        assert_eq!(drop_last_k("", 1), None);
    }

    #[test]
    fn join_iter_matches_slice_join() {
        for s in ["", "   ", "a", " a  b   c ", "sony bravia theater"] {
            assert_eq!(join_iter(tokens(s)), collected(s).join(" "));
        }
    }

    #[test]
    fn clean_strips_punctuation_and_case() {
        assert_eq!(clean("Sony BRAVIA, DAV-IS50/B!"), "sony bravia dav is50 b");
        assert_eq!(clean("379.72"), "379 72");
        assert_eq!(clean(""), "");
    }

    proptest! {
        #[test]
        fn normalize_is_idempotent(s in "[ a-z0-9]{0,40}") {
            let once = normalize_ws(&s);
            prop_assert_eq!(normalize_ws(&once), once);
        }

        #[test]
        fn drop_first_reduces_count(s in "[a-z]{1,6}( [a-z]{1,6}){1,8}", k in 1usize..4) {
            let n = token_count(&s);
            prop_assume!(k < n);
            let dropped = drop_first_k(&s, k).unwrap();
            prop_assert_eq!(token_count(&dropped), n - k);
        }

        #[test]
        fn drop_last_keeps_prefix(s in "[a-z]{1,6}( [a-z]{1,6}){1,8}") {
            let toks = collected(&s);
            if let Some(d) = drop_last_k(&s, 1) {
                let dt = collected(&d);
                prop_assert_eq!(&toks[..toks.len() - 1], &dt[..]);
            }
        }

        #[test]
        fn join_tokenize_roundtrip(s in "[a-z]{1,6}( [a-z]{1,6}){0,8}") {
            prop_assert_eq!(collected(&s).join(" "), normalize_ws(&s));
        }
    }
}
