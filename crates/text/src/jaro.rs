//! Jaro and Jaro-Winkler similarities.

use crate::with_scratch;
use std::cell::RefCell;

/// One thread's Jaro buffers: both strings' chars and which of them match.
#[derive(Default)]
struct Scratch {
    a: Vec<char>,
    b: Vec<char>,
    a_matched: Vec<bool>,
    b_matched: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Jaro similarity in `[0, 1]`.
///
/// Matching window is `max(|a|,|b|)/2 − 1`; transpositions counted over the
/// matched subsequences. Works in buffers the thread reuses: a warm call
/// allocates nothing.
pub fn jaro(a: &str, b: &str) -> f64 {
    with_scratch(&SCRATCH, |s| {
        let Scratch {
            a: chars_a,
            b: chars_b,
            a_matched,
            b_matched,
        } = s;
        chars_a.clear();
        chars_a.extend(a.chars());
        chars_b.clear();
        chars_b.extend(b.chars());
        let (a, b) = (&*chars_a, &*chars_b);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        a_matched.clear();
        a_matched.resize(a.len(), false);
        b_matched.clear();
        b_matched.resize(b.len(), false);
        let mut m = 0usize;
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == ca {
                    b_matched[j] = true;
                    a_matched[i] = true;
                    m += 1;
                    break;
                }
            }
        }
        if m == 0 {
            return 0.0;
        }
        let transpositions = matched(a, a_matched)
            .zip(matched(b, b_matched))
            .filter(|(x, y)| x != y)
            .count()
            / 2;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    })
}

/// The chars whose `hits` flag is set, in order.
fn matched<'a>(chars: &'a [char], hits: &'a [bool]) -> impl Iterator<Item = char> + 'a {
    chars
        .iter()
        .zip(hits)
        .filter_map(|(&c, &hit)| hit.then_some(c))
}

/// Jaro-Winkler similarity: Jaro boosted by shared prefix (up to 4 chars,
/// scaling factor 0.1), the standard parameterization.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3
    }

    #[test]
    fn jaro_reference_values() {
        // Classic textbook examples.
        assert!(close(jaro("MARTHA", "MARHTA"), 0.9444));
        assert!(close(jaro("DIXON", "DICKSONX"), 0.7667));
        assert!(close(jaro("JELLYFISH", "SMELLYFISH"), 0.8963));
    }

    #[test]
    fn jaro_winkler_reference_values() {
        assert!(close(jaro_winkler("MARTHA", "MARHTA"), 0.9611));
        assert!(close(jaro_winkler("DIXON", "DICKSONX"), 0.8133));
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("", "a"), 0.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("same", "same"), 1.0);
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    proptest! {
        #[test]
        fn jaro_bounded_and_symmetric(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let s = jaro(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&s));
            prop_assert!((s - jaro(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn winkler_bounded_never_below_jaro(a in "[a-z]{0,12}", b in "[a-z]{0,12}") {
            let j = jaro(&a, &b);
            let w = jaro_winkler(&a, &b);
            prop_assert!(w + 1e-12 >= j);
            prop_assert!(w <= 1.0 + 1e-12);
        }

        #[test]
        fn identity_scores_one(a in "[a-z]{1,12}") {
            prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}
