//! Character trigram-set similarity.
//!
//! Each distinct trigram is packed into one `u64` code: its three Unicode
//! scalar values at [`CHAR_BITS`] bits each. A side's trigram set is its
//! codes sorted and deduplicated, and the intersection is counted by the
//! same sorted-slice merge the token-set measures use, so no gram is ever
//! allocated. Set sizes and intersections are exact integers, the same as
//! over each gram's `String` (the test module's reference), so every ratio
//! is bit-identical to it.

use crate::token_sets::intersection_count;

/// Bits per packed char: every Unicode scalar value is below `2^21`.
const CHAR_BITS: u32 = 21;
/// The low `3 * CHAR_BITS` bits: one full trigram.
const TRIGRAM_MASK: u64 = (1 << (3 * CHAR_BITS)) - 1;
/// Set on the code of a whole string shorter than three chars. Trigram codes
/// never reach bit 63, so the two kinds of gram cannot collide.
const SHORT_TAG: u64 = 1 << 63;

/// The sorted, deduplicated trigram codes of `s`.
///
/// A non-empty string shorter than three chars yields the whole string as a
/// single gram, so short model codes ("b") still compare non-trivially; its
/// code carries the char count too, keeping "a" apart from "\0a".
fn trigram_codes(s: &str) -> Vec<u64> {
    let mut codes = Vec::with_capacity(s.len());
    let mut window = 0u64;
    let mut chars = 0u64;
    for c in s.chars() {
        window = ((window << CHAR_BITS) | u64::from(c)) & TRIGRAM_MASK;
        chars += 1;
        if chars >= 3 {
            codes.push(window);
        }
    }
    if (1..3).contains(&chars) {
        codes.push(SHORT_TAG | (chars << (2 * CHAR_BITS)) | window);
    }
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// Jaccard similarity of character trigram sets — a cheap typo-tolerant
/// similarity used by the Ditto-style serialized matcher.
///
/// Both-empty is 1.0.
pub fn trigram_sim(a: &str, b: &str) -> f64 {
    let ga = trigram_codes(a);
    let gb = trigram_codes(b);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let inter = intersection_count(&ga, &gb);
    let union = ga.len() + gb.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::hash::FxHashSet;
    use proptest::prelude::*;

    /// Every char class the packing must keep apart: ASCII letters, digits
    /// and spaces, U+0000 (all-zero bits), and 2-, 3- and 4-byte UTF-8 up to
    /// the last scalar value. Few letters, so grams repeat within a string
    /// and are shared across strings.
    const ALPHABET: &str = "[a-cX0-1 \u{0}é€😀\u{10FFFF}]{0,40}";

    /// The reference: one owned `String` per distinct trigram, in a hash set.
    fn reference_grams(s: &str) -> FxHashSet<String> {
        let chars: Vec<char> = s.chars().collect();
        let mut grams = FxHashSet::default();
        if chars.is_empty() {
            return grams;
        }
        if chars.len() < 3 {
            grams.insert(chars.iter().collect());
            return grams;
        }
        for w in chars.windows(3) {
            grams.insert(w.iter().collect());
        }
        grams
    }

    fn reference(a: &str, b: &str) -> f64 {
        let ga = reference_grams(a);
        let gb = reference_grams(b);
        if ga.is_empty() && gb.is_empty() {
            return 1.0;
        }
        if ga.is_empty() || gb.is_empty() {
            return 0.0;
        }
        let inter = ga.intersection(&gb).count();
        let union = ga.len() + gb.len() - inter;
        inter as f64 / union as f64
    }

    #[test]
    fn short_strings_become_single_gram() {
        assert_eq!(trigram_codes("ab").len(), 1);
        assert_eq!(trigram_codes("é").len(), 1);
        assert!(trigram_codes("").is_empty());
        assert_eq!(trigram_sim("ab", "ab"), 1.0);
        assert_eq!(trigram_sim("ab", "abc"), 0.0);
        // The char count keeps a leading U+0000 from aliasing.
        assert_eq!(trigram_sim("a", "\0a"), 0.0);
        assert_eq!(trigram_sim("\0\0a", "a"), 0.0);
    }

    #[test]
    fn trigram_sim_tolerates_typos() {
        let clean = trigram_sim("bravia theater", "bravia theater");
        let typo = trigram_sim("bravia theater", "bravia thaeter");
        let different = trigram_sim("bravia theater", "walkman player");
        assert_eq!(clean, 1.0);
        assert!(typo > 0.4 && typo < 1.0);
        assert!(different < typo);
    }

    #[test]
    fn trigram_degenerate() {
        assert_eq!(trigram_sim("", ""), 1.0);
        assert_eq!(trigram_sim("abc", "").to_bits(), 0.0f64.to_bits());
        assert_eq!(trigram_sim("", "ab").to_bits(), 0.0f64.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn packed_codes_match_string_grams(a in ALPHABET, b in ALPHABET) {
            prop_assert_eq!(trigram_sim(&a, &b).to_bits(), reference(&a, &b).to_bits());
            prop_assert_eq!(trigram_codes(&a).len(), reference_grams(&a).len());
        }
    }

    proptest! {
        #[test]
        fn trigram_bounded_symmetric(a in "[a-c]{0,12}", b in "[a-c]{0,12}") {
            let s = trigram_sim(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - trigram_sim(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn gram_count_bound(s in "[a-z]{0,20}") {
            let codes = trigram_codes(&s);
            let len = s.chars().count();
            prop_assert!(codes.len() <= len.saturating_sub(3) + 1 || codes.len() <= 1);
        }
    }
}
