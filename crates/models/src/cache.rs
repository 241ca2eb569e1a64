//! Matcher decorators: content-addressed score caching and prediction
//! counting.
//!
//! CERTA's lattice exploration scores many *repeated* perturbed copies (the
//! same subset-copy can arise from different antichain walks), and every
//! experiment re-scores the same test pairs across explainers.
//! [`CachingMatcher`] memoizes by record content hash;
//! [`CountingMatcher`] counts **uncached** model invocations, which is the
//! quantity the Table 7 monotonicity audit reports ("predictions performed").
//!
//! ## Concurrency design
//!
//! The cache is **sharded**: keys are spread over [`SHARD_COUNT`] independent
//! maps, each behind its own `parking_lot` read-write lock, so concurrent
//! explainers (e.g. [`Certa::explain_batch`] workers) never serialize on one
//! global lock. Each key owns a *cell*, a shared `OnceLock<f64>` that holds
//! the memoized score once it is computed:
//!
//! - **Hits** read the score straight out of the cell under the shard's
//!   read lock, and take no other lock and clone nothing.
//! - **Misses** fetch or create the cell under the shard's write lock,
//!   release the shard, and resolve the cell with `OnceLock::get_or_init`.
//!   That is a strict **at-most-once** guarantee: when several threads race
//!   on the same cold pair, exactly one computes the score while the rest
//!   wait inside `get_or_init` (no thundering-herd double-scoring), and
//!   threads working on other pairs are never blocked at all.
//!
//! No path holds a shard lock while a score is computed or holds two shard
//! locks at once, so the inner model sees each distinct pair at most once
//! and [`CountingMatcher`] counts stay exact under arbitrary interleavings.
//! Batches take the trait's per-pair `score_batch` loop.
//!
//! [`Certa::explain_batch`]: https://docs.rs/certa-explain

use certa_core::hash::FxHashMap;
use certa_core::{lockcheck, BoxedMatcher, Matcher, Record};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Number of independent cache shards (power of two, so shard selection is a
/// mask). 16 keeps lock contention negligible at explainer-level fan-out
/// while staying cheap to clear and iterate.
pub const SHARD_COUNT: usize = 16;

/// Cache key: content hashes of the two records (id-independent).
type Key = (u64, u64);

/// One memoized score slot, empty until computed and then fixed. Shared so
/// a miss can resolve it after releasing the shard lock.
type Cell = Arc<OnceLock<f64>>;

/// Cache effectiveness counters, cumulative since construction.
///
/// `hits` counts requested scores served from a warm cell without reaching
/// the inner model (a repeat of a cold pair later in the same batch is
/// one); `misses` counts actual inner-model invocations. `clear` drops the
/// cached scores but keeps the counters — they describe lifetime traffic,
/// which is what the serving layer's `/metrics` endpoint reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Scores served from warm cells (no inner call).
    pub hits: u64,
    /// Scores that invoked the inner model.
    pub misses: u64,
}

impl CacheStats {
    /// Total scores requested.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// Thread-safe memoization of `score(u, v)` keyed by content hashes, sharded
/// to avoid cross-thread lock contention (see the module docs).
pub struct CachingMatcher {
    inner: BoxedMatcher,
    shards: Vec<RwLock<FxHashMap<Key, Cell>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CachingMatcher {
    /// Wrap a matcher with a fresh cache.
    pub fn new(inner: BoxedMatcher) -> Arc<Self> {
        Arc::new(CachingMatcher {
            inner,
            shards: (0..SHARD_COUNT).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Lifetime hit/miss counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Run `f` and return its result with the hit/miss traffic the cache
    /// saw over the call: what one pipeline run or request cost it, so a
    /// re-run over the same pairs shows its reuse. Traffic from other
    /// threads during the call is counted too.
    pub fn stats_over<T>(&self, f: impl FnOnce() -> T) -> (T, CacheStats) {
        let before = self.stats();
        let out = f();
        let after = self.stats();
        let delta = CacheStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        };
        (out, delta)
    }

    fn shard_of(key: Key) -> usize {
        // Content hashes are already well-mixed FxHash outputs; xor-fold the
        // pair and mask down to the shard index.
        ((key.0 ^ key.1.rotate_left(17)) as usize) & (SHARD_COUNT - 1)
    }

    /// Identity for [`lockcheck`] tracking (debug builds only): distinct
    /// cache instances never constrain each other.
    fn owner(&self) -> usize {
        self as *const CachingMatcher as usize
    }

    /// The score already resolved for `key`, read under the shard's read
    /// lock: the whole of a cache hit.
    fn resolved(&self, key: Key) -> Option<f64> {
        let idx = Self::shard_of(key);
        let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, idx as u128);
        self.shards[idx].read().get(&key)?.get().copied()
    }

    /// Fetch (or create) the cell for one key under the shard's write lock
    /// — the miss path, after [`CachingMatcher::resolved`] found no score.
    /// Shard locks are held only for the lookup/insert, never while a score
    /// is being computed.
    fn cell(&self, key: Key) -> Cell {
        let idx = Self::shard_of(key);
        let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, idx as u128);
        Arc::clone(self.shards[idx].write().entry(key).or_default())
    }

    /// Number of cached entries (cells created; a cell being computed right
    /// now by another thread is counted — it will hold a score momentarily).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, i as u128);
                s.read().len()
            })
            .sum()
    }

    /// True when nothing has been scored yet.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().enumerate().all(|(i, s)| {
            let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, i as u128);
            s.read().is_empty()
        })
    }

    /// Drop all cached scores.
    pub fn clear(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, i as u128);
            shard.write().clear();
        }
    }

    /// Export every resolved entry as `((hash_u, hash_v), score)`, sorted
    /// by key — the deterministic snapshot `certa-store` persists. Content
    /// hashes are pure functions of record content, so a snapshot is valid
    /// in any process.
    ///
    /// A cell that another thread is still computing is left out rather
    /// than waited for: its score is not part of this snapshot, and lands
    /// in the next one.
    pub fn snapshot(&self) -> Vec<((u64, u64), f64)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            let _held = lockcheck::acquire(self.owner(), lockcheck::rank::SHARD, i as u128);
            out.extend(
                shard
                    .read()
                    .iter()
                    .filter_map(|(&key, cell)| Some((key, *cell.get()?))),
            );
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Pre-fill the cache from snapshot entries. Seeded scores are served
    /// exactly like computed ones; counters are untouched (warm-start
    /// traffic then shows up as hits). An entry whose key already holds a
    /// resolved score is left as-is.
    pub fn seed(&self, entries: impl IntoIterator<Item = ((u64, u64), f64)>) {
        for (key, score) in entries {
            // `Err` means the key was already resolved, which wins.
            let _ = self.cell(key).set(score);
        }
    }
}

impl Matcher for CachingMatcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, u: &Record, v: &Record) -> f64 {
        let key = (u.content_hash(), v.content_hash());
        if let Some(s) = self.resolved(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return s;
        }
        // The first thread into `get_or_init` computes (racers on this pair
        // wait there and count as hits; other pairs proceed on their own
        // cells).
        let mut computed = false;
        let s = *self.cell(key).get_or_init(|| {
            computed = true;
            self.inner.score(u, v)
        });
        let counter = if computed { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        s
    }
}

/// Counts every `score` call that reaches the wrapped matcher.
pub struct CountingMatcher {
    inner: BoxedMatcher,
    count: AtomicU64,
}

impl CountingMatcher {
    /// Wrap a matcher with a zeroed counter.
    pub fn new(inner: BoxedMatcher) -> Arc<Self> {
        Arc::new(CountingMatcher {
            inner,
            count: AtomicU64::new(0),
        })
    }

    /// Number of scores computed since construction / the last reset.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset the counter to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }
}

impl Matcher for CountingMatcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, u: &Record, v: &Record) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.score(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certa_core::{FnMatcher, RecordId};
    use std::sync::atomic::AtomicU64 as RawCounter;

    fn rec(id: u32, val: &str) -> Record {
        Record::new(RecordId(id), vec![val.to_string()])
    }

    fn counted_base() -> (BoxedMatcher, Arc<RawCounter>) {
        let calls = Arc::new(RawCounter::new(0));
        let c2 = Arc::clone(&calls);
        let m: BoxedMatcher = Arc::new(FnMatcher::new("base", move |u: &Record, _v: &Record| {
            c2.fetch_add(1, Ordering::Relaxed);
            if u.values()[0].contains("match") {
                0.9
            } else {
                0.1
            }
        }));
        (m, calls)
    }

    #[test]
    fn cache_avoids_recomputation() {
        let (base, calls) = counted_base();
        let cached = CachingMatcher::new(base);
        let u = rec(0, "match me");
        let v = rec(1, "x");
        assert_eq!(cached.score(&u, &v), 0.9);
        assert_eq!(cached.score(&u, &v), 0.9);
        assert_eq!(cached.score(&u, &v), 0.9);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "only first call hits the model"
        );
        assert_eq!(cached.len(), 1);
    }

    #[test]
    fn cache_keys_on_content_not_id() {
        let (base, calls) = counted_base();
        let cached = CachingMatcher::new(base);
        let u1 = rec(0, "match me");
        let u2 = rec(99, "match me"); // same content, different id
        let v = rec(1, "x");
        cached.score(&u1, &v);
        cached.score(&u2, &v);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // Different content misses.
        let u3 = rec(0, "other");
        cached.score(&u3, &v);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn clear_resets_cache() {
        let (base, calls) = counted_base();
        let cached = CachingMatcher::new(base);
        let u = rec(0, "a");
        let v = rec(1, "b");
        cached.score(&u, &v);
        cached.clear();
        assert!(cached.is_empty());
        cached.score(&u, &v);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn batch_dedupes_and_reuses_cache() {
        let (base, calls) = counted_base();
        let cached = CachingMatcher::new(base);
        let u = rec(0, "match me");
        let w = rec(2, "other");
        let v = rec(1, "x");
        // Duplicate pairs inside one batch → one inner call each.
        let scores = cached.score_batch(&[(&u, &v), (&w, &v), (&u, &v), (&u, &v)]);
        assert_eq!(scores, vec![0.9, 0.1, 0.9, 0.9]);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "two distinct pairs");
        // A second batch overlapping the first only pays for the new pair.
        let z = rec(3, "match too");
        let scores = cached.score_batch(&[(&u, &v), (&z, &v)]);
        assert_eq!(scores, vec![0.9, 0.9]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(cached.len(), 3);
        assert!(cached.score_batch(&[]).is_empty());
    }

    #[test]
    fn batch_and_single_paths_share_entries() {
        let (base, calls) = counted_base();
        let cached = CachingMatcher::new(base);
        let u = rec(0, "match me");
        let v = rec(1, "x");
        cached.score(&u, &v);
        assert_eq!(cached.score_batch(&[(&u, &v)]), vec![0.9]);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "batch reuses single");
        let w = rec(2, "cold");
        cached.score_batch(&[(&w, &v)]);
        assert_eq!(cached.score(&w, &v), 0.1);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "single reuses batch");
    }

    #[test]
    fn shards_spread_entries() {
        let (base, _) = counted_base();
        let cached = CachingMatcher::new(base);
        let v = rec(1, "pivot");
        let records: Vec<Record> = (0..64).map(|i| rec(i, &format!("val {i}"))).collect();
        for u in &records {
            cached.score(u, &v);
        }
        assert_eq!(cached.len(), 64);
        // With 64 well-mixed keys over 16 shards, more than one shard must be
        // populated (all-in-one-shard would defeat the design).
        let populated = cached
            .shards
            .iter()
            .filter(|s| !s.read().is_empty())
            .count();
        assert!(populated > 1, "entries landed in {populated} shard(s)");
    }

    #[test]
    fn stats_track_hits_and_misses_on_both_paths() {
        let (base, _) = counted_base();
        let cached = CachingMatcher::new(base);
        assert_eq!(cached.stats(), CacheStats::default());
        assert_eq!(cached.stats().hit_rate(), 0.0);
        let u = rec(0, "match me");
        let w = rec(2, "other");
        let v = rec(1, "x");
        cached.score(&u, &v); // miss
        cached.score(&u, &v); // hit
        assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 1 });
        // Batch: one warm pair, one cold pair duplicated → 1 miss, 2 hits.
        cached.score_batch(&[(&u, &v), (&w, &v), (&w, &v)]);
        let s = cached.stats();
        assert_eq!(s, CacheStats { hits: 3, misses: 2 });
        assert_eq!(s.total(), 5);
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        // `clear` drops entries but keeps lifetime counters.
        cached.clear();
        assert_eq!(cached.stats().total(), 5);
        cached.score(&u, &v);
        assert_eq!(cached.stats(), CacheStats { hits: 3, misses: 3 });
    }

    #[test]
    fn snapshot_and_seed_roundtrip_without_inner_calls() {
        let (base, calls) = counted_base();
        let cached = CachingMatcher::new(base);
        let v = rec(1, "x");
        let records: Vec<Record> = (0..8).map(|i| rec(i, &format!("match {i}"))).collect();
        for u in &records {
            cached.score(u, &v);
        }
        let snap = cached.snapshot();
        assert_eq!(snap.len(), 8);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0), "sorted by key");
        assert_eq!(snap, cached.snapshot(), "snapshot is deterministic");

        // Seed a fresh cache: every score must be served without touching
        // the inner model.
        let (base2, calls2) = counted_base();
        let warm = CachingMatcher::new(base2);
        warm.seed(snap.clone());
        assert_eq!(warm.len(), 8);
        for u in &records {
            assert_eq!(warm.score(u, &v), 0.9);
        }
        assert_eq!(calls2.load(Ordering::Relaxed), 0, "all served from seed");
        assert_eq!(warm.stats().hits, 8);
        assert_eq!(warm.snapshot(), snap);

        // Seeding never overwrites a resolved score.
        let resolved_key = snap[0].0;
        warm.seed([(resolved_key, 0.123)]);
        assert_eq!(warm.snapshot()[0], snap[0]);
        let _ = calls;
    }

    #[test]
    fn counting_matcher_counts_and_resets() {
        let (base, _) = counted_base();
        let counting = CountingMatcher::new(base);
        let u = rec(0, "a");
        let v = rec(1, "b");
        counting.score(&u, &v);
        counting.score(&u, &v);
        assert_eq!(counting.count(), 2, "counting matcher does not dedupe");
        counting.score_batch(&[(&u, &v), (&u, &v)]);
        assert_eq!(counting.count(), 4, "batch counts every pair");
        counting.reset();
        assert_eq!(counting.count(), 0);
    }

    #[test]
    fn counting_under_cache_counts_misses_only() {
        let (base, _) = counted_base();
        let counting = CountingMatcher::new(base);
        let cached = CachingMatcher::new(counting.clone() as BoxedMatcher);
        let u = rec(0, "a");
        let v = rec(1, "b");
        for _ in 0..5 {
            cached.score(&u, &v);
        }
        assert_eq!(counting.count(), 1, "cache shields the counter");
        cached.score_batch(&[(&u, &v), (&u, &v)]);
        assert_eq!(counting.count(), 1, "batch hits stay shielded too");
        assert_eq!(cached.name(), "base");
    }
}
