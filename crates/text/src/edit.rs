//! Character-level edit distance (Levenshtein).

use crate::with_scratch;
use std::cell::RefCell;

/// One thread's Levenshtein buffers: both strings' chars and the two rows.
#[derive(Default)]
struct Scratch {
    a: Vec<char>,
    b: Vec<char>,
    prev: Vec<usize>,
    cur: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Levenshtein distance (insert / delete / substitute, unit costs).
///
/// Two-row dynamic program, `O(|a|·|b|)` time, `O(min(|a|,|b|))` space,
/// in buffers the thread reuses: a warm call allocates nothing.
pub fn levenshtein(a: &str, b: &str) -> usize {
    with_scratch(&SCRATCH, |s| {
        let Scratch {
            a: chars_a,
            b: chars_b,
            prev,
            cur,
        } = s;
        chars_a.clear();
        chars_a.extend(a.chars());
        chars_b.clear();
        chars_b.extend(b.chars());
        // Keep the inner row the shorter one.
        let (long, short) = if chars_a.len() >= chars_b.len() {
            (&*chars_a, &*chars_b)
        } else {
            (&*chars_b, &*chars_a)
        };
        if short.is_empty() {
            return long.len();
        }
        prev.clear();
        prev.extend(0..=short.len());
        cur.clear();
        cur.resize(short.len() + 1, 0);
        for (i, &lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(lc != sc);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(prev, cur);
        }
        prev[short.len()]
    })
}

/// Normalized Levenshtein similarity: `1 − dist / max(|a|, |b|)`.
///
/// Empty-vs-empty is 1.0.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let denom = la.max(lb);
    if denom == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / denom as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("sony", "sony"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("ab", "ba"), 2);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("über", "uber"), 1);
    }

    #[test]
    fn sim_normalization() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("ab", "ab"), 1.0);
        assert_eq!(levenshtein_sim("ab", "cd"), 0.0);
        assert!((levenshtein_sim("kitten", "sitting") - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn levenshtein_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn levenshtein_identity(a in "[a-z]{0,12}") {
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn levenshtein_triangle(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
            prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        }

        #[test]
        fn single_edit_costs_one(a in "[a-z]{1,12}", idx in 0usize..12) {
            let chars: Vec<char> = a.chars().collect();
            let i = idx % chars.len();
            let mut edited = chars.clone();
            edited[i] = if edited[i] == 'z' { 'a' } else { 'z' };
            let edited: String = edited.into_iter().collect();
            if edited != a {
                prop_assert_eq!(levenshtein(&a, &edited), 1);
            }
        }
    }
}
