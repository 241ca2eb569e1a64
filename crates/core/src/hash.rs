//! A fast, deterministic, non-cryptographic hasher (FxHash).
//!
//! The explainers in this workspace hammer hash maps with short string keys
//! (tokens, attribute subsets, record content hashes). The standard library's
//! SipHash is collision-resistant but slow for these workloads; FxHash — the
//! multiply-xor hash used by rustc — is a better fit and keeps us dependency
//! free. Determinism also matters: prediction caches keyed by content hash
//! must behave identically across runs for the experiments to be reproducible.

use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED64: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The rustc FxHash hasher: `hash = (hash.rotate_left(5) ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED64);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = 0u64;
            for (i, b) in rem.iter().enumerate() {
                word |= u64::from(*b) << (8 * i);
            }
            // Mix in the length so "a" and "a\0" (as prefixes) differ.
            self.add_to_hash(word ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, BuildHasherDefault<FxHasher>>;

/// Hash any `Hash` value with [`FxHasher`] in one call.
///
/// Used for content-addressing perturbed records in prediction caches.
#[inline]
pub fn fx_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// The SplitMix64 finalizer: a strong 64-bit mixer. The MinHash families
/// of the blocking layer's LSH and the store's dataset signatures derive
/// their independent hash functions from one seed with it, so a change here
/// moves LSH candidates and signature bytes.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(fx_hash_one(&"sony bravia"), fx_hash_one(&"sony bravia"));
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
    }

    #[test]
    fn distinguishes_close_strings() {
        assert_ne!(fx_hash_one(&"sony"), fx_hash_one(&"sonya"));
        assert_ne!(fx_hash_one(&""), fx_hash_one(&" "));
        assert_ne!(fx_hash_one(&"ab"), fx_hash_one(&"ba"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        assert_eq!(m.get("a"), Some(&1));

        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn long_inputs_hash_by_full_content() {
        let a = "x".repeat(1000);
        let mut b = a.clone();
        b.replace_range(999..1000, "y");
        assert_ne!(fx_hash_one(&a), fx_hash_one(&b));
    }

    #[test]
    fn remainder_length_is_mixed_in() {
        // Byte strings that would collide if the tail length were ignored.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 0]);
        let mut h2 = FxHasher::default();
        h2.write(&[1]);
        assert_ne!(h1.finish(), h2.finish());
    }
}
