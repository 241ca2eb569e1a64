//! Character trigram-set similarity, and the set-overlap kernel it counts
//! with.
//!
//! Each trigram is packed into one `u64` code: its three Unicode scalar
//! values at `CHAR_BITS` (21) bits each, streamed out of a string by
//! [`Trigrams`]. A side's trigram set is counted by [`Overlap`], an
//! open-addressing table that takes keys from two sets, repeats allowed,
//! and counts each set's distinct keys and the keys both hold. Nothing is
//! sorted and no gram is allocated: [`trigram_sim`] counts in a table each
//! thread reuses ([`with_gram_overlap`]). Set sizes and intersections are
//! exact integers, the same as over each gram's `String` (the test module's
//! reference), so every ratio is bit-identical to it.
//!
//! [`Overlap`] is generic over its key ([`OverlapKey`]), so callers that
//! assemble a set from cached parts (Ditto's serialized-pair features in
//! `certa-models` count both their token and their trigram overlaps with
//! it) share the one kernel.

use certa_core::Side;
use std::cell::RefCell;

/// Bits per packed char: every Unicode scalar value is below `2^21`.
const CHAR_BITS: u32 = 21;
/// The low `3 * CHAR_BITS` bits: one full trigram.
const TRIGRAM_MASK: u64 = (1 << (3 * CHAR_BITS)) - 1;
/// Set on the code of a whole string shorter than three chars. Trigram codes
/// never reach bit 63, so the two kinds of gram cannot collide.
const SHORT_TAG: u64 = 1 << 63;

/// Packs a stream of chars into trigram codes: from the third char on,
/// every pushed char completes the trigram that ends with it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Trigrams {
    window: u64,
    chars: u64,
}

impl Trigrams {
    /// Push one char; returns the code of the trigram it completes.
    #[inline]
    pub fn push(&mut self, c: char) -> Option<u64> {
        self.window = ((self.window << CHAR_BITS) | u64::from(c)) & TRIGRAM_MASK;
        self.chars += 1;
        (self.chars >= 3).then_some(self.window)
    }

    /// The code of the whole stream when it holds one or two chars, which
    /// [`trigram_sim`] counts as a single gram so short model codes ("b")
    /// still compare non-trivially. The code carries the char count too,
    /// keeping "a" apart from "\0a".
    fn short_gram(&self) -> Option<u64> {
        (1..3)
            .contains(&self.chars)
            .then_some(SHORT_TAG | (self.chars << (2 * CHAR_BITS)) | self.window)
    }
}

/// A key [`Overlap`] can count: cheap to copy and compare, with its own
/// 64-bit hash (which need not be uniform: the table mixes it). The default
/// value only fills vacant slots, so it may equal a real key.
pub trait OverlapKey: Copy + Eq + Default {
    /// The key's hash. Equal keys must hash equally.
    fn overlap_hash(self) -> u64;
}

/// A trigram code is its own hash.
impl OverlapKey for u64 {
    #[inline]
    fn overlap_hash(self) -> u64 {
        self
    }
}

/// Side bits of a vacant slot.
const VACANT: u8 = 0;
/// Side bits of a key both sets hold.
const BOTH: u8 = 0b11;

/// The bit a side sets in a slot's side bits.
fn side_bit(side: Side) -> u8 {
    match side {
        Side::Left => 0b01,
        Side::Right => 0b10,
    }
}

/// Fibonacci hashing constant (`2^64 / φ`): spreads any key hash over the
/// table index's high bits.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest table: 16 slots.
const MIN_BITS: u32 = 4;

/// The overlap of two sets whose keys arrive one at a time, repeats
/// allowed: each set's distinct-key count and the count of keys both hold.
/// The sets are named after the sides of a record pair: the left set's
/// keys are inserted with [`Side::Left`], the right set's with
/// [`Side::Right`].
///
/// A linear-probing table kept at most half full, so it never sorts and
/// allocates once when sized by [`Overlap::with_capacity`] (it grows, by
/// rehashing, if that bound is exceeded). Counts are exact: keys are
/// compared with `==`, the hash only picks the slot.
pub struct Overlap<K> {
    /// `(key, side bits)`; a vacant slot has side bits [`VACANT`].
    slots: Vec<(K, u8)>,
    /// `64 - log2(slots.len())`: the index is the mixed hash's top bits.
    shift: u32,
    left: usize,
    right: usize,
    both: usize,
}

impl<K: OverlapKey> Overlap<K> {
    /// An empty table sized for up to `keys` insertions (repeats counted).
    pub fn with_capacity(keys: usize) -> Self {
        let mut overlap = Overlap {
            slots: Vec::new(),
            shift: 0,
            left: 0,
            right: 0,
            both: 0,
        };
        overlap.reset(keys);
        overlap
    }

    /// Empty the table and size it for up to `keys` insertions, reusing its
    /// allocation when that is large enough.
    fn reset(&mut self, keys: usize) {
        let bits = (2 * keys)
            .next_power_of_two()
            .trailing_zeros()
            .max(MIN_BITS);
        self.slots.clear();
        self.slots.resize(1 << bits, (K::default(), VACANT));
        self.shift = 64 - bits;
        (self.left, self.right, self.both) = (0, 0, 0);
    }

    /// Record that `side`'s set holds `key`.
    #[inline]
    pub fn insert(&mut self, side: Side, key: K) {
        if 2 * (self.distinct() + 1) > self.slots.len() {
            self.grow();
        }
        let bit = side_bit(side);
        let mask = self.slots.len() - 1;
        let mut i = self.index(key);
        let newly_held = loop {
            let (k, sides) = &mut self.slots[i];
            if *sides == VACANT {
                (*k, *sides) = (key, bit);
                break true;
            }
            if *k == key {
                // Until now held by the other side only, or by this one.
                let newly_held = *sides & bit == 0;
                *sides |= bit;
                break newly_held;
            }
            i = (i + 1) & mask;
        };
        if newly_held {
            match side {
                Side::Left => self.left += 1,
                Side::Right => self.right += 1,
            }
            if self.slots[i].1 == BOTH {
                self.both += 1;
            }
        }
    }

    /// Distinct keys of each side and keys both sides hold:
    /// `(|L|, |R|, |L ∩ R|)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        (self.left, self.right, self.both)
    }

    /// `|L ∩ R| / |L ∪ R|`; 1.0 when both sets are empty.
    pub fn jaccard(&self) -> f64 {
        let union = self.distinct();
        if union == 0 {
            return 1.0;
        }
        self.both as f64 / union as f64
    }

    /// Every distinct key, with whether both sets hold it, in table order
    /// (which depends on the hashes: fold it only into order-free sums).
    pub fn keys(&self) -> impl Iterator<Item = (K, bool)> + '_ {
        self.slots
            .iter()
            .filter(|&&(_, sides)| sides != VACANT)
            .map(|&(key, sides)| (key, sides == BOTH))
    }

    fn distinct(&self) -> usize {
        self.left + self.right - self.both
    }

    #[inline]
    fn index(&self, key: K) -> usize {
        (key.overlap_hash().wrapping_mul(MIX) >> self.shift) as usize
    }

    /// Double the table and re-place every key.
    fn grow(&mut self) {
        self.shift -= 1;
        let vacant = vec![(K::default(), VACANT); 1 << (64 - self.shift)];
        let old = std::mem::replace(&mut self.slots, vacant);
        let mask = self.slots.len() - 1;
        for (key, sides) in old {
            if sides == VACANT {
                continue;
            }
            let mut i = self.index(key);
            while self.slots[i].1 != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, sides);
        }
    }
}

/// Insert every trigram code of `s` into `side`'s set, or the single short
/// gram of a string of one or two chars.
fn insert_trigrams(overlap: &mut Overlap<u64>, side: Side, s: &str) {
    let mut grams = Trigrams::default();
    for c in s.chars() {
        if let Some(code) = grams.push(c) {
            overlap.insert(side, code);
        }
    }
    if let Some(code) = grams.short_gram() {
        overlap.insert(side, code);
    }
}

thread_local! {
    /// This thread's trigram-code table, reused by [`with_gram_overlap`].
    static GRAMS: RefCell<Overlap<u64>> = RefCell::new(Overlap::with_capacity(0));
}

/// Run `f` on an empty trigram-code table sized for up to `keys`
/// insertions. The table is this thread's, reused from call to call, so
/// counting many small overlaps allocates nothing (a per-call allocation
/// cost more than the counting for short attribute values). A nested call
/// gets a fresh table.
pub fn with_gram_overlap<R>(keys: usize, f: impl FnOnce(&mut Overlap<u64>) -> R) -> R {
    GRAMS.with(|grams| match grams.try_borrow_mut() {
        Ok(mut grams) => {
            grams.reset(keys);
            f(&mut grams)
        }
        Err(_) => f(&mut Overlap::with_capacity(keys)),
    })
}

/// Jaccard similarity of character trigram sets — a cheap typo-tolerant
/// similarity used by the Ditto-style serialized matcher.
///
/// A non-empty string shorter than three chars is one gram, whose code
/// carries its char count so "a" and "\0a" differ. Both-empty is 1.0.
pub fn trigram_sim(a: &str, b: &str) -> f64 {
    // Byte lengths bound the char counts, and so the gram counts.
    with_gram_overlap(a.len() + b.len(), |grams| {
        insert_trigrams(grams, Side::Left, a);
        insert_trigrams(grams, Side::Right, b);
        grams.jaccard()
    })
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

    /// Distinct gram count of `s`, through the kernel.
    fn gram_count(s: &str) -> usize {
        let mut overlap = Overlap::with_capacity(s.len());
        insert_trigrams(&mut overlap, Side::Left, s);
        overlap.counts().0
    }

    #[test]
    fn short_strings_become_single_gram() {
        assert_eq!(gram_count("ab"), 1);
        assert_eq!(gram_count("é"), 1);
        assert_eq!(gram_count(""), 0);
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

    #[test]
    fn overlap_counts_distinct_keys_per_side() {
        let mut overlap = Overlap::with_capacity(8);
        for key in [1u64, 2, 2, 3] {
            overlap.insert(Side::Left, key);
        }
        for key in [3u64, 3, 4, 1] {
            overlap.insert(Side::Right, key);
        }
        assert_eq!(overlap.counts(), (3, 3, 2));
        assert_eq!(overlap.jaccard(), 0.5);
        let mut keys: Vec<(u64, bool)> = overlap.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, [(1, true), (2, false), (3, true), (4, false)]);
        assert_eq!(Overlap::<u64>::with_capacity(0).jaccard(), 1.0);
    }

    #[test]
    fn overlap_grows_past_its_capacity_hint() {
        // Keys that all land in one slot before growing, then many more.
        let mut overlap = Overlap::with_capacity(0);
        for key in 0..1000u64 {
            overlap.insert(Side::Left, key << 40);
            overlap.insert(Side::Right, (key + 500) << 40);
        }
        assert_eq!(overlap.counts(), (1000, 1000, 500));
        assert_eq!(overlap.keys().count(), 1500);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn packed_codes_match_string_grams(a in ALPHABET, b in ALPHABET) {
            prop_assert_eq!(trigram_sim(&a, &b).to_bits(), reference(&a, &b).to_bits());
            prop_assert_eq!(gram_count(&a), reference_grams(&a).len());
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
            let grams = gram_count(&s);
            let len = s.chars().count();
            prop_assert!(grams <= len.saturating_sub(3) + 1 || grams <= 1);
        }
    }
}
