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
//! [`certa_core::AttrValue::clean_tokens`] spans without allocating a
//! string per shingle, and a signature coordinate is the minimum of the
//! same `splitmix64(shingle ^ salt)` values however they are grouped:
//! [`MinHasher::signatures`] hashes each distinct shingle of a slice once,
//! and min is commutative and idempotent, so signatures are independent of
//! attribute iteration details, of repeated shingles, of the other records
//! in the slice and of the worker count. `certa-lint`'s `no-nondeterminism`
//! rule is enforced on this crate.

use certa_core::hash::{fx_hash_one, splitmix64, FxHashMap};
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
        // One char buffer for every token of the record.
        let mut chars = Vec::new();
        for value in record.values() {
            for tok in value.clean_tokens() {
                match self {
                    Shingle::Tokens => emit(fx_hash_one(tok)),
                    Shingle::CharGrams(q) => char_gram_hashes(tok, q, &mut chars, &mut emit),
                    Shingle::TokensAndCharGrams(q) => {
                        emit(fx_hash_one(tok));
                        char_gram_hashes(tok, q, &mut chars, &mut emit);
                    }
                }
            }
        }
    }

    /// The distinct shingle hashes of `record`, sorted — the set
    /// [`MinHasher::signatures`] folds, and the exact-Jaccard reference the
    /// LSH curve is tuned against (tests, bench diagnostics).
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
/// char window of `chars`, the caller's scratch buffer — no per-gram
/// `String` and no per-token buffer is built.
fn char_gram_hashes(tok: &str, q: usize, chars: &mut Vec<char>, emit: &mut impl FnMut(u64)) {
    let q = q.max(1);
    // Sentinel-padded char sequence: ^ t o k $
    chars.clear();
    chars.push('^');
    chars.extend(tok.chars());
    chars.push('$');
    if chars.len() <= q {
        emit(fx_hash_one(chars.as_slice()));
        return;
    }
    for window in chars.windows(q) {
        emit(fx_hash_one(window));
    }
}

/// Signature coordinates per fold task of [`MinHasher::signatures`]: one
/// task hashes every distinct shingle under this many salts into one
/// 64-byte row, and a record's running minimums stay in registers.
const BLOCK: usize = 8;

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
    /// token evidence and must never collide with anything. The one-record
    /// case of [`MinHasher::signatures`].
    pub fn signature(&self, record: &Record) -> Vec<u64> {
        self.signatures(std::slice::from_ref(record), 1)
            .pop()
            .unwrap_or_default()
    }

    /// Signatures for every record of a slice in input order, each equal to
    /// [`MinHasher::signature`] of that record, over `workers` threads
    /// (`0` = one per available core).
    ///
    /// Each distinct shingle of the slice is hashed once per coordinate,
    /// however many records emit it, and repeats within a table are the
    /// common case (57–98% of emitted shingle hashes on the default-scale
    /// datagen tables). Two [`run_indexed`] fan-outs do the work:
    ///
    /// 1. one task per record collects its distinct shingle hashes
    ///    ([`Shingle::hash_set`]), which are then indexed in first-seen
    ///    order;
    /// 2. one task per block of 8 coordinates (the last block is partial
    ///    when `num_hashes` is not a multiple of 8) hashes every distinct
    ///    shingle under its salts into one 64-byte row, then folds each
    ///    record's rows into 8 running minimums.
    ///
    /// Memory beyond the output: the records' shingle-id lists (4 bytes per
    /// distinct shingle of each record) and one 64-byte row per distinct
    /// shingle of the slice for each block task in flight. A coordinate is
    /// the min of the same values as in a per-record fold, and min is
    /// commutative and idempotent, so the worker count never changes a
    /// byte of the output.
    pub fn signatures(&self, records: &[Record], workers: usize) -> Vec<Vec<u64>> {
        let sets = run_indexed(records.len(), workers, |i| {
            self.shingle.hash_set(&records[i])
        });
        // Every record's distinct shingles as ids into `distinct`, one flat
        // list: record `r` owns `members[bounds[r]..bounds[r + 1]]`.
        let mut ids: FxHashMap<u64, u32> = FxHashMap::default();
        let mut distinct: Vec<u64> = Vec::new();
        let mut members: Vec<u32> = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut bounds: Vec<usize> = vec![0];
        for set in &sets {
            for &h in set {
                let id = *ids.entry(h).or_insert_with(|| {
                    distinct.push(h);
                    u32::try_from(distinct.len() - 1).expect("fewer than 2^32 distinct shingles")
                });
                members.push(id);
            }
            bounds.push(members.len());
        }
        drop((sets, ids));
        let record_members = || bounds.windows(2).map(|w| &members[w[0]..w[1]]);

        let num_hashes = self.salts.len();
        // `mins[b][r]`: record `r`'s minimums over block `b`'s coordinates.
        let mins: Vec<Vec<[u64; BLOCK]>> = run_indexed(num_hashes.div_ceil(BLOCK), workers, |b| {
            let mut salts = [0u64; BLOCK];
            let block = &self.salts[b * BLOCK..num_hashes.min((b + 1) * BLOCK)];
            salts[..block.len()].copy_from_slice(block);
            let rows: Vec<[u64; BLOCK]> = distinct
                .iter()
                .map(|&h| std::array::from_fn(|k| splitmix64(h ^ salts[k])))
                .collect();
            record_members()
                .map(|shingles| {
                    let mut min = [EMPTY_COORD; BLOCK];
                    for &id in shingles {
                        let row = &rows[id as usize];
                        for k in 0..BLOCK {
                            min[k] = min[k].min(row[k]);
                        }
                    }
                    min
                })
                .collect()
        });

        record_members()
            .enumerate()
            .map(|(r, shingles)| {
                if shingles.is_empty() {
                    return Vec::new();
                }
                let mut sig = Vec::with_capacity(num_hashes);
                for (b, block) in mins.iter().enumerate() {
                    let width = BLOCK.min(num_hashes - b * BLOCK);
                    sig.extend_from_slice(&block[r][..width]);
                }
                sig
            })
            .collect()
    }
}

/// Exact Jaccard similarity of two *sorted, deduped* shingle-hash sets
/// (as produced by [`Shingle::hash_set`]), the truth the tests hold MinHash
/// estimates to; 0.0 when both sets are empty.
#[cfg(test)]
pub(crate) fn jaccard_sorted(a: &[u64], b: &[u64]) -> f64 {
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
    use proptest::prelude::*;

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

    /// The per-record fold `signature` ran before `signatures` hashed each
    /// distinct shingle once: every emitted shingle, repeats included,
    /// under every salt.
    fn reference_signature(h: &MinHasher, record: &Record) -> Vec<u64> {
        let mut sig = vec![EMPTY_COORD; h.salts.len()];
        let mut saw_any = false;
        h.shingle.for_each_hash(record, |x| {
            saw_any = true;
            for (coord, salt) in sig.iter_mut().zip(&h.salts) {
                *coord = (*coord).min(splitmix64(x ^ salt));
            }
        });
        if saw_any {
            sig
        } else {
            Vec::new()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// `signatures` equals the per-record reference fold for any table,
        /// including blank records, for signature lengths that leave a
        /// partial coordinate block (1, 7, 12) and for any worker count.
        #[test]
        fn signatures_equal_the_per_record_fold(
            rows in proptest::collection::vec("[a-d]{1,6}( [a-d]{1,6}){0,4}", 1..30),
            blanks in any::<u64>(),
            hashes in 0usize..5,
            workers in 0usize..4,
            shingle in 0usize..3,
            q in 1usize..5,
            seed in any::<u64>(),
        ) {
            let num_hashes = [1, 7, 8, 12, 128][hashes];
            let workers = [0, 1, 2, 8][workers];
            let shingle = [Shingle::Tokens, Shingle::CharGrams(q), Shingle::TokensAndCharGrams(q)]
                [shingle];
            // Two attributes per record, the second shared with the next
            // row so shingles repeat across records; a set bit of `blanks`
            // makes a record blank.
            let records: Vec<Record> = (0..rows.len())
                .map(|i| {
                    let values = if blanks >> (i % 64) & 1 == 1 {
                        vec![String::new(), "  ".to_string()]
                    } else {
                        vec![rows[i].clone(), rows[(i + 1) % rows.len()].clone()]
                    };
                    Record::new(RecordId(i as u32), values)
                })
                .collect();
            let h = MinHasher::new(num_hashes, shingle, seed);
            let expected: Vec<Vec<u64>> =
                records.iter().map(|r| reference_signature(&h, r)).collect();
            prop_assert_eq!(h.signatures(&records, workers), expected);
        }
    }

    #[test]
    fn jaccard_sorted_basics() {
        assert_eq!(jaccard_sorted(&[], &[]), 0.0);
        assert_eq!(jaccard_sorted(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard_sorted(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard_sorted(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-12);
    }
}
