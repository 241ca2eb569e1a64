//! Seeded MinHash signatures over the cached clean-token spans of
//! [`certa_core::AttrValue`].
//!
//! A record's *shingle set* is the set of distinct blocking features drawn
//! from its attribute values — whole clean tokens, character q-grams of the
//! cleaned text, or both (q-grams survive the typo/abbreviation noise
//! channels that break whole-token equality, at the cost of more shared
//! features between unrelated records). The MinHash signature is the
//! coordinate-wise minimum of `num_hashes` independent seeded hash
//! functions over that set; two records' signatures agree in any coordinate
//! with probability equal to the Jaccard similarity of their shingle sets.
//!
//! # Determinism contract
//!
//! Everything is a pure function of `(record content, config, seed)`:
//! the hash family is derived from the seed via SplitMix64 (no
//! `RandomState`, no per-process salt), shingle hashes fold the cached
//! [`certa_core::AttrValue::clean_tokens`] spans without allocating, and
//! signatures are independent of attribute iteration details because min is
//! commutative. `certa-lint`'s `no-nondeterminism` rule is enforced on this
//! crate.

use certa_core::hash::{fx_hash_one, splitmix64};
use certa_core::{run_indexed, Record};

/// How a record is reduced to its set of blocking shingles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shingle {
    /// Distinct whole clean tokens (cheap; brittle under typos).
    Tokens,
    /// Distinct character q-grams of each clean token, padded with `^`/`$`
    /// sentinels (robust to typos/abbreviations; more shared mass between
    /// unrelated records).
    CharGrams(usize),
    /// Union of whole tokens and character q-grams — whole tokens keep rare
    /// exact evidence sharp, q-grams keep corrupted evidence alive.
    TokensAndCharGrams(usize),
}

impl Shingle {
    /// Stable name for reports and wire payloads.
    pub fn label(self) -> String {
        match self {
            Shingle::Tokens => "tokens".to_string(),
            Shingle::CharGrams(q) => format!("{q}-grams"),
            Shingle::TokensAndCharGrams(q) => format!("tokens+{q}-grams"),
        }
    }

    /// Feed every shingle hash of `record` to `emit`, without allocating
    /// per shingle. Duplicate shingles may be emitted; MinHash's min-fold
    /// makes duplicates harmless, and set-based callers dedupe hashes.
    pub fn for_each_hash(self, record: &Record, mut emit: impl FnMut(u64)) {
        for value in record.values() {
            for tok in value.clean_tokens() {
                match self {
                    Shingle::Tokens => emit(fx_hash_one(tok)),
                    Shingle::CharGrams(q) => char_gram_hashes(tok, q, &mut emit),
                    Shingle::TokensAndCharGrams(q) => {
                        emit(fx_hash_one(tok));
                        char_gram_hashes(tok, q, &mut emit);
                    }
                }
            }
        }
    }

    /// The distinct shingle hashes of `record`, sorted — the exact-Jaccard
    /// reference the LSH curve is tuned against (tests, bench diagnostics).
    pub fn hash_set(self, record: &Record) -> Vec<u64> {
        let mut hashes = Vec::new();
        self.for_each_hash(record, |h| hashes.push(h));
        hashes.sort_unstable();
        hashes.dedup();
        hashes
    }
}

/// Hash the `^tok$`-padded character q-grams of one token. Gram hashes are
/// computed by folding bytes through FxHash-style mixing over a sliding
/// char window — no per-gram `String` is built.
fn char_gram_hashes(tok: &str, q: usize, emit: &mut impl FnMut(u64)) {
    let q = q.max(1);
    // Sentinel-padded char sequence: ^ t o k $
    let chars: Vec<char> = std::iter::once('^')
        .chain(tok.chars())
        .chain(std::iter::once('$'))
        .collect();
    if chars.len() <= q {
        emit(fx_hash_one(&chars));
        return;
    }
    for window in chars.windows(q) {
        emit(fx_hash_one(window));
    }
}

/// A seeded family of `num_hashes` MinHash functions.
#[derive(Debug, Clone)]
pub struct MinHasher {
    /// Per-function salts, derived from the seed.
    salts: Vec<u64>,
    shingle: Shingle,
}

/// The sentinel signature coordinate of an empty shingle set. Records with
/// no clean tokens get an *empty* signature instead (they carry no blocking
/// evidence), so this never reaches banding.
pub const EMPTY_COORD: u64 = u64::MAX;

impl MinHasher {
    /// A family of `num_hashes` functions derived from `seed`.
    pub fn new(num_hashes: usize, shingle: Shingle, seed: u64) -> MinHasher {
        MinHasher {
            salts: (0..num_hashes as u64)
                .map(|i| splitmix64(seed ^ splitmix64(i.wrapping_add(1))))
                .collect(),
            shingle,
        }
    }

    /// Number of hash functions (signature length).
    pub fn num_hashes(&self) -> usize {
        self.salts.len()
    }

    /// The shingling this family hashes.
    pub fn shingle(&self) -> Shingle {
        self.shingle
    }

    /// The MinHash signature of one record: coordinate `i` is
    /// `min over shingles s of splitmix64(hash(s) ^ salt_i)`. Returns an empty
    /// vector for records with no clean tokens — such records carry no
    /// token evidence and must never collide with anything.
    pub fn signature(&self, record: &Record) -> Vec<u64> {
        let mut sig = vec![EMPTY_COORD; self.salts.len()];
        let mut saw_any = false;
        self.shingle.for_each_hash(record, |h| {
            saw_any = true;
            for (coord, salt) in sig.iter_mut().zip(&self.salts) {
                let v = splitmix64(h ^ salt);
                if v < *coord {
                    *coord = v;
                }
            }
        });
        if saw_any {
            sig
        } else {
            Vec::new()
        }
    }

    /// Signatures for every record of a slice in input order, one
    /// [`run_indexed`] task per record over `workers` threads (`0` = one
    /// per available core). Each signature is a pure per-record function,
    /// so the worker count never changes a byte of the output.
    pub fn signatures(&self, records: &[Record], workers: usize) -> Vec<Vec<u64>> {
        run_indexed(records.len(), workers, |i| self.signature(&records[i]))
    }
}

/// Exact Jaccard similarity of two *sorted, deduped* shingle-hash sets
/// (as produced by [`Shingle::hash_set`]).
pub fn jaccard_sorted(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::RecordId;

    fn rec(id: u32, text: &str) -> Record {
        Record::new(RecordId(id), vec![text.to_string()])
    }

    #[test]
    fn signatures_are_deterministic_and_seeded() {
        let r = rec(0, "sony bravia kdl-40 tv");
        let a = MinHasher::new(64, Shingle::Tokens, 7).signature(&r);
        let b = MinHasher::new(64, Shingle::Tokens, 7).signature(&r);
        assert_eq!(a, b);
        let c = MinHasher::new(64, Shingle::Tokens, 8).signature(&r);
        assert_ne!(a, c, "different seeds give different families");
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn identical_token_sets_share_signatures() {
        let h = MinHasher::new(32, Shingle::Tokens, 1);
        // Same token set, different order/multiplicity/attribute layout.
        let a = h.signature(&rec(0, "alpha beta gamma"));
        let b = h.signature(&Record::new(
            RecordId(1),
            vec!["gamma beta".to_string(), "alpha alpha".to_string()],
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn empty_records_get_empty_signatures() {
        let h = MinHasher::new(16, Shingle::Tokens, 1);
        assert!(h.signature(&rec(0, "")).is_empty());
        assert!(h.signature(&rec(1, "   ")).is_empty());
        assert!(!h.signature(&rec(2, "x")).is_empty());
    }

    #[test]
    fn agreement_rate_tracks_jaccard() {
        // Two records sharing half their tokens: expect ≈ 1/3 Jaccard and
        // a similar fraction of agreeing signature coordinates.
        let h = MinHasher::new(2048, Shingle::Tokens, 42);
        let a = rec(0, "a b c d e f g h");
        let b = rec(1, "e f g h i j k l");
        let (sa, sb) = (h.signature(&a), h.signature(&b));
        let agree = sa.iter().zip(&sb).filter(|(x, y)| x == y).count();
        let rate = agree as f64 / sa.len() as f64;
        let true_j = jaccard_sorted(&Shingle::Tokens.hash_set(&a), &Shingle::Tokens.hash_set(&b));
        assert!((true_j - 1.0 / 3.0).abs() < 1e-9);
        assert!(
            (rate - true_j).abs() < 0.05,
            "minhash agreement {rate:.3} should approximate jaccard {true_j:.3}"
        );
    }

    #[test]
    fn char_grams_survive_typos() {
        let g = Shingle::CharGrams(3);
        let clean = g.hash_set(&rec(0, "panasonic viera plasma"));
        let typo = g.hash_set(&rec(1, "panasonik viera plasma"));
        let tok_clean = Shingle::Tokens.hash_set(&rec(0, "panasonic viera plasma"));
        let tok_typo = Shingle::Tokens.hash_set(&rec(1, "panasonik viera plasma"));
        assert!(
            jaccard_sorted(&clean, &typo) > jaccard_sorted(&tok_clean, &tok_typo) + 0.3,
            "q-gram similarity must dominate whole-token similarity under typos"
        );
    }

    #[test]
    fn short_tokens_still_produce_grams() {
        let g = Shingle::CharGrams(4);
        assert!(!g.hash_set(&rec(0, "ab")).is_empty());
        assert!(!g.hash_set(&rec(0, "a")).is_empty());
    }

    #[test]
    fn parallel_signatures_equal_sequential() {
        let h = MinHasher::new(48, Shingle::TokensAndCharGrams(3), 9);
        let records: Vec<Record> = (0..300)
            .map(|i| rec(i, &format!("brand{} item number {} deluxe", i % 11, i)))
            .collect();
        let seq = h.signatures(&records, 1);
        for workers in [2, 3, 8] {
            assert_eq!(seq, h.signatures(&records, workers), "workers={workers}");
        }
        assert_eq!(seq, h.signatures(&records, 0), "auto workers");
    }

    #[test]
    fn jaccard_sorted_basics() {
        assert_eq!(jaccard_sorted(&[], &[]), 0.0);
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }
}
