//! The per-attribute featurization memo.
//!
//! Perturbation-based explanation hammers the featurizers with records that
//! differ in only a few attributes: across one triangle's `2^arity` masks,
//! each attribute slot only ever holds one of **two** interned values (the
//! free record's or the support record's). [`FeatureMemo`] exploits this by
//! caching the expensive per-value and per-value-pair artifacts keyed by the
//! stable [`ValueId`]s that `certa-core`'s interner assigns:
//!
//! * **DeepER** — per-value token-embedding partial sums (and token counts),
//!   keyed by `ValueId`; a record embedding is then a cheap fold of its
//!   values' cached partials.
//! * **DeepMatcher** — the full `ATTR_FEATURES`-wide per-attribute similarity
//!   column (Jaccard, Jaro-Winkler, trigram, TF-IDF/numeric, missing flags),
//!   keyed by `(attr, ValueId, ValueId)`.
//! * **Ditto** — one [`DittoSegment`] per value, keyed by `ValueId`: the
//!   serialized `VAL` token segment (number rounding + cleaning applied),
//!   which is what `certa-store` persists, plus the parts of a pair's
//!   features that depend on that value alone — its surviving tokens with
//!   their hasher slots, the token count, the first token and its trigram
//!   codes. The parts are derived from the segment on first use, so a
//!   segment seeded from a snapshot derives them without a memo miss. They
//!   depend on the model's `FeatureHasher`, one more reason a memo serves
//!   one model.
//!
//! ## Determinism contract
//!
//! The memo **only** caches outputs of pure, deterministic functions; a hit
//! returns the exact `f64`s / bytes a fresh computation would produce, so
//! memoized and unmemoized featurization are **bit-for-bit identical**
//! (pinned by `tests/memo_props.rs` and `tests/ditto_oracle.rs`, and gated
//! in CI by `bench_featurize`). A Ditto segment's derived parts are a pure
//! function of its text and the model's hasher, so deriving them lazily
//! keeps the contract.
//! `ValueId`s are process-local but stable for the process lifetime (values
//! are never freed), so entries never go stale.
//!
//! ## Concurrency design
//!
//! Sharded exactly like [`crate::cache::CachingMatcher`]: keys spread over
//! [`MEMO_SHARDS`] independent `parking_lot` `RwLock` maps so the batch
//! engine's workers hit the memo concurrently without serializing on one
//! lock. Unlike the score cache there is no per-key cell: artifacts are
//! cheap enough that a cold-key race simply computes twice and both racers
//! insert the same deterministic value (last write wins, identical bytes).

use crate::cache::CacheStats;
use crate::features::DittoParts;
use certa_core::hash::{fx_hash_one, FxHashMap};
use certa_core::lockcheck;
use certa_core::ValueId;
use certa_ml::FeatureHasher;
use parking_lot::RwLock;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of independent memo shards per artifact family (power of two, so
/// shard selection is a mask) — mirrors the score cache's sharding.
pub const MEMO_SHARDS: usize = 16;

/// One sharded key → value map with hit/miss accounting hooks.
struct ShardedMap<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    fn new() -> Self {
        ShardedMap {
            shards: (0..MEMO_SHARDS).map(|_| RwLock::default()).collect(),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        (fx_hash_one(key) as usize) & (MEMO_SHARDS - 1)
    }

    /// Identity for [`lockcheck`] tracking (debug builds only). The memo
    /// has a single lock tier, so the tracker's job here is catching a
    /// shard lock taken while the *same map* already holds one — which is
    /// exactly the re-entrancy `lookup`'s compute-outside-the-lock design
    /// rules out.
    fn owner(&self) -> usize {
        self as *const ShardedMap<K, V> as usize
    }

    fn get(&self, key: &K) -> Option<V> {
        let idx = self.shard_index(key);
        let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, idx as u128);
        self.shards[idx].read().get(key).cloned()
    }

    fn insert(&self, key: K, value: V) {
        let idx = self.shard_index(&key);
        let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, idx as u128);
        self.shards[idx].write().insert(key, value);
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, i as u128);
                s.read().len()
            })
            .sum()
    }
}

/// Cached per-value DeepER artifact: the **un-normalized** sum of the
/// value's cleaned-token embedding vectors, plus the token count. Folding
/// these per value reproduces the record embedding exactly (the fold order
/// is the schema order both the memoized and unmemoized paths use).
pub struct EmbedArtifact {
    /// Per-dimension sum of the value's token vectors.
    pub sum: Vec<f64>,
    /// Number of cleaned tokens summed.
    pub count: usize,
}

/// Cached per-value Ditto artifact: the value's serialized `VAL` token
/// segment and the pair-independent parts derived from it on first use.
pub struct DittoSegment {
    text: Arc<str>,
    parts: OnceLock<DittoParts>,
}

impl DittoSegment {
    /// A segment whose parts are not derived yet.
    pub(crate) fn new(text: impl Into<Arc<str>>) -> Self {
        DittoSegment {
            text: text.into(),
            parts: OnceLock::new(),
        }
    }

    /// The serialized segment: each token followed by one space.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The parts of a pair's features this value alone decides, derived
    /// under `hasher` on the first call. Every call must pass the same
    /// hasher: one segment, like the memo holding it, serves one model.
    pub(crate) fn parts(&self, hasher: &FeatureHasher) -> &DittoParts {
        self.parts
            .get_or_init(|| DittoParts::derive(&self.text, hasher))
    }
}

/// The sharded per-value / per-value-pair featurization memo (see module
/// docs). One memo belongs to one trained model — the DeepMatcher columns
/// depend on that model's fitted IDF corpus, so memos are never shared
/// across models.
pub struct FeatureMemo {
    /// DeepER: `ValueId` → token-embedding partial sum.
    embed: ShardedMap<u32, Arc<EmbedArtifact>>,
    /// DeepMatcher: `(attr, ValueId, ValueId)` → similarity column.
    columns: ShardedMap<(u16, u32, u32), Arc<[f64]>>,
    /// Ditto: `ValueId` → serialized `VAL` token segment and its parts.
    segments: ShardedMap<u32, Arc<DittoSegment>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for FeatureMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for FeatureMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("FeatureMemo")
            .field("entries", &self.len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl FeatureMemo {
    /// An empty memo.
    pub fn new() -> Self {
        FeatureMemo {
            embed: ShardedMap::new(),
            columns: ShardedMap::new(),
            segments: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Lifetime hit/miss counters across all three artifact families (same
    /// semantics as the score cache's [`CacheStats`]: a hit is an artifact
    /// served without recomputation).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Total cached artifacts across all families.
    pub fn len(&self) -> usize {
        self.embed.len() + self.columns.len() + self.segments.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup<K: Eq + Hash, V: Clone>(
        &self,
        map: &ShardedMap<K, V>,
        key: K,
        compute: impl FnOnce() -> V,
    ) -> V {
        if let Some(v) = map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        // Compute outside any lock: a concurrent racer on the same cold key
        // just computes the same deterministic artifact and overwrites with
        // identical bytes.
        let v = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        map.insert(key, v.clone());
        v
    }

    /// DeepER per-value embedding partial, computed at most once per
    /// distinct value (per memo).
    pub fn embed_artifact(
        &self,
        value: ValueId,
        compute: impl FnOnce() -> EmbedArtifact,
    ) -> Arc<EmbedArtifact> {
        self.lookup(&self.embed, value.0, || Arc::new(compute()))
    }

    /// DeepMatcher per-attribute similarity column for one `(attr, u-value,
    /// v-value)` triple.
    pub fn column(
        &self,
        attr: u16,
        a: ValueId,
        b: ValueId,
        compute: impl FnOnce() -> Vec<f64>,
    ) -> Arc<[f64]> {
        self.lookup(&self.columns, (attr, a.0, b.0), || {
            Arc::from(compute().into_boxed_slice())
        })
    }

    /// Ditto segment of one value: its serialized tokens, with the parts a
    /// pair derives from them on first use.
    pub fn segment(&self, value: ValueId, compute: impl FnOnce() -> String) -> Arc<DittoSegment> {
        self.lookup(&self.segments, value.0, || {
            Arc::new(DittoSegment::new(compute()))
        })
    }

    // --------------------------------------------------- snapshot support
    //
    // `certa-store` persists warm memos and re-seeds them in a fresh
    // process. Exports hand out the raw `ValueId`-keyed entries; the store
    // translates ids to value *strings* before writing (ids are
    // process-local — see `certa_core::value`) and re-interns on load.
    // Seeding touches neither the hit nor the miss counter.

    /// Every cached DeepER embedding partial, keyed by value id.
    pub fn embed_entries(&self) -> Vec<(ValueId, Arc<EmbedArtifact>)> {
        let mut out = Vec::new();
        for shard in &self.embed.shards {
            out.extend(
                shard
                    .read()
                    .iter()
                    .map(|(&id, a)| (ValueId(id), Arc::clone(a))),
            );
        }
        out
    }

    /// Every cached DeepMatcher similarity column, keyed by
    /// `(attr, u-value id, v-value id)`.
    #[allow(clippy::type_complexity)]
    pub fn column_entries(&self) -> Vec<((u16, ValueId, ValueId), Arc<[f64]>)> {
        let mut out = Vec::new();
        for shard in &self.columns.shards {
            out.extend(
                shard
                    .read()
                    .iter()
                    .map(|(&(attr, a, b), col)| ((attr, ValueId(a), ValueId(b)), Arc::clone(col))),
            );
        }
        out
    }

    /// Every cached Ditto serialized segment, keyed by value id.
    pub fn segment_entries(&self) -> Vec<(ValueId, Arc<str>)> {
        let mut out = Vec::new();
        for shard in &self.segments.shards {
            out.extend(
                shard
                    .read()
                    .iter()
                    .map(|(&id, s)| (ValueId(id), Arc::clone(&s.text))),
            );
        }
        out
    }

    /// Pre-fill one DeepER embedding partial (no counter movement).
    pub fn seed_embed(&self, value: ValueId, artifact: EmbedArtifact) {
        self.embed.insert(value.0, Arc::new(artifact));
    }

    /// Pre-fill one DeepMatcher similarity column (no counter movement).
    pub fn seed_column(&self, attr: u16, a: ValueId, b: ValueId, column: Vec<f64>) {
        self.columns
            .insert((attr, a.0, b.0), Arc::from(column.into_boxed_slice()));
    }

    /// Pre-fill one Ditto serialized segment (no counter movement).
    pub fn seed_segment(&self, value: ValueId, segment: &str) {
        self.segments
            .insert(value.0, Arc::new(DittoSegment::new(segment)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_hits_after_first_computation() {
        let memo = FeatureMemo::new();
        assert!(memo.is_empty());
        let mut computed = 0;
        for _ in 0..3 {
            let a = memo.embed_artifact(ValueId(1), || {
                computed += 1;
                EmbedArtifact {
                    sum: vec![1.0, 2.0],
                    count: 2,
                }
            });
            assert_eq!(a.sum, vec![1.0, 2.0]);
            assert_eq!(a.count, 2);
        }
        assert_eq!(computed, 1, "artifact computed exactly once");
        assert_eq!(memo.stats(), CacheStats { hits: 2, misses: 1 });
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn families_and_keys_are_independent() {
        let memo = FeatureMemo::new();
        let c1 = memo.column(0, ValueId(1), ValueId(2), || vec![0.5]);
        let c2 = memo.column(1, ValueId(1), ValueId(2), || vec![0.7]);
        assert_ne!(&c1[..], &c2[..], "attr index participates in the key");
        let c3 = memo.column(0, ValueId(2), ValueId(1), || vec![0.9]);
        assert_eq!(&c3[..], &[0.9], "pair order participates in the key");
        let s = memo.segment(ValueId(1), || "sony tv".to_string());
        assert_eq!(s.text(), "sony tv");
        assert_eq!(memo.len(), 4);
        assert_eq!(memo.stats().misses, 4);
    }

    #[test]
    fn export_and_seed_roundtrip_without_recompute() {
        let memo = FeatureMemo::new();
        memo.embed_artifact(ValueId(3), || EmbedArtifact {
            sum: vec![0.25, -1.5],
            count: 4,
        });
        memo.column(2, ValueId(3), ValueId(9), || vec![0.5, 0.0]);
        memo.segment(ValueId(9), || "sony 380".to_string());

        let fresh = FeatureMemo::new();
        for (id, a) in memo.embed_entries() {
            fresh.seed_embed(
                id,
                EmbedArtifact {
                    sum: a.sum.clone(),
                    count: a.count,
                },
            );
        }
        for ((attr, a, b), col) in memo.column_entries() {
            fresh.seed_column(attr, a, b, col.to_vec());
        }
        for (id, s) in memo.segment_entries() {
            fresh.seed_segment(id, &s);
        }
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.stats(), CacheStats::default(), "seeding is silent");

        // Every lookup is now a hit; the compute closures must never run.
        let a = fresh.embed_artifact(ValueId(3), || unreachable!("seeded"));
        assert_eq!((a.sum.clone(), a.count), (vec![0.25, -1.5], 4));
        let c = fresh.column(2, ValueId(3), ValueId(9), || unreachable!("seeded"));
        assert_eq!(&c[..], &[0.5, 0.0]);
        let s = fresh.segment(ValueId(9), || unreachable!("seeded"));
        assert_eq!(s.text(), "sony 380");
        assert_eq!(fresh.stats().hits, 3);
    }

    #[test]
    fn concurrent_access_stays_consistent() {
        let memo = Arc::new(FeatureMemo::new());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let memo = Arc::clone(&memo);
                scope.spawn(move || {
                    for i in 0..64u32 {
                        let col = memo.column(0, ValueId(i), ValueId(i + 1), || {
                            vec![f64::from(i), f64::from(t)]
                        });
                        // First element is key-determined; the second records
                        // whichever racer computed first — but every reader
                        // of a warm entry sees one consistent artifact.
                        assert_eq!(col[0], f64::from(i));
                    }
                });
            }
        });
        assert_eq!(memo.len(), 64);
        let s = memo.stats();
        assert_eq!(s.total(), 8 * 64);
        assert!(s.misses >= 64, "each key computed at least once");
    }
}
