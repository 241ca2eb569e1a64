//! # certa-text
//!
//! String-similarity substrate for the `certa-rs` workspace.
//!
//! The DeepMatcher-style matcher consumes per-attribute similarity summaries,
//! the counterfactual metrics (proximity / diversity, §5.3) need attribute-wise
//! distances, and the synthetic data generator validates its corruption
//! channels against these measures. All functions return similarities in
//! `[0, 1]` where 1 means identical, and are symmetric unless documented
//! otherwise.

pub mod cosine;
pub mod edit;
pub mod jaro;
pub mod ngram;
pub mod numeric;
pub mod token_sets;

pub use cosine::CorpusStats;
pub use edit::{levenshtein, levenshtein_sim};
pub use jaro::{jaro, jaro_winkler};
pub use ngram::{trigram_sim, with_overlap, Overlap, OverlapKey, Trigrams};
pub use numeric::{numeric_sim, parse_number};
pub use token_sets::{jaccard, jaccard_ids, jaccard_tokens};

use std::cell::RefCell;
use std::thread::LocalKey;

/// Run `f` on this thread's `scratch`, which keeps its allocations from
/// call to call, so a warm kernel allocates nothing. A nested call, which
/// finds the scratch in use, gets a fresh one.
pub(crate) fn with_scratch<T: Default, R>(
    scratch: &'static LocalKey<RefCell<T>>,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    scratch.with(|cell| match cell.try_borrow_mut() {
        Ok(mut s) => f(&mut s),
        Err(_) => f(&mut T::default()),
    })
}

/// A robust hybrid attribute-value similarity used by the evaluation metrics.
///
/// * both empty → 1.0 (two missing values are "the same");
/// * one empty → 0.0;
/// * numeric values → [`numeric::numeric_sim`];
/// * otherwise the mean of token Jaccard and Jaro-Winkler, which is tolerant
///   to both token reordering and character-level typos.
pub fn attribute_sim(a: &str, b: &str) -> f64 {
    let (a, b) = (a.trim(), b.trim());
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return 1.0,
        (true, false) | (false, true) => return 0.0,
        _ => {}
    }
    if let (Some(x), Some(y)) = (parse_number(a), parse_number(b)) {
        return numeric_sim(x, y);
    }
    0.5 * jaccard(a, b) + 0.5 * jaro_winkler(a, b)
}

/// Distance counterpart of [`attribute_sim`] (`1 − sim`).
pub fn attribute_dist(a: &str, b: &str) -> f64 {
    1.0 - attribute_sim(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn attribute_sim_handles_missing() {
        assert_eq!(attribute_sim("", ""), 1.0);
        assert_eq!(attribute_sim("  ", ""), 1.0);
        assert_eq!(attribute_sim("x", ""), 0.0);
        assert_eq!(attribute_sim("", "x"), 0.0);
    }

    #[test]
    fn attribute_sim_identical_strings() {
        assert!((attribute_sim("sony bravia", "sony bravia") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn attribute_sim_numeric_branch() {
        assert!(attribute_sim("100", "100") > 0.999);
        assert!(attribute_sim("100", "1000") < attribute_sim("100", "110"));
    }

    #[test]
    fn attribute_dist_complements() {
        let s = attribute_sim("sony tv", "sony television");
        assert!((attribute_dist("sony tv", "sony television") - (1.0 - s)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn attribute_sim_bounded_and_symmetric(
            a in "[a-z0-9 ]{0,24}", b in "[a-z0-9 ]{0,24}"
        ) {
            let s = attribute_sim(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - attribute_sim(&b, &a)).abs() < 1e-12);
        }
    }
}
