//! Debug-build lock-order tracking: the dynamic half of the `lock-order`
//! contract.
//!
//! The static `certa-lint` rule catches *textual* second acquisitions
//! while a `let`-bound guard is live, but token scanning cannot see guards
//! held by temporaries or acquisitions behind a function call. This module
//! closes that gap at runtime: lock owners (the sharded `CachingMatcher`
//! and `FeatureMemo`, the serve registry and its warm-start state) register
//! each acquisition with a thread-local held-set, and a `debug_assert`
//! enforces the workspace's acquisition discipline:
//!
//! - within one owner, locks are acquired in strictly increasing
//!   `(rank, key)` order — coarse ranks before finer ones, and same-rank
//!   acquisitions walking keys upward, which keeps any nesting
//!   deadlock-free. Every tracked lock today is shard-rank: the caches'
//!   shard maps, the registry's maps and the warm-start state. The score
//!   cache's per-pair cells are `OnceLock`s rather than locks: a hit reads
//!   one under its shard's read lock, a miss resolves one after releasing
//!   the shard, so they take no rank;
//! - an owner can require that *nothing* of its own is held at a point
//!   (the registry materializes models outside its map lock).
//!
//! Different owners never constrain each other: nesting a cache inside
//! another cache's compute path is fine.
//!
//! In release builds everything compiles to nothing: [`Held`] is a
//! zero-sized token and the tracking code is `#[cfg(debug_assertions)]`.

/// Acquisition rank within an owner: coarse locks first, finer ones after.
pub mod rank {
    /// Shard maps (and the serve registry's maps and warm-start state).
    pub const SHARD: u8 = 0;
}

#[cfg(debug_assertions)]
mod imp {
    use std::cell::RefCell;

    thread_local! {
        /// Locks this thread currently holds: `(owner, rank, key)`.
        static HELD: RefCell<Vec<(usize, u8, u128)>> = const { RefCell::new(Vec::new()) };
    }

    pub fn acquire(owner: usize, rank: u8, key: u128) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for &(o, r, k) in held.iter() {
                if o == owner {
                    debug_assert!(
                        (r, k) < (rank, key),
                        "lock-order violation: acquiring (rank {rank}, key {key}) \
                         while (rank {r}, key {k}) of the same owner is held \
                         — acquisitions must walk (rank, key) strictly upward"
                    );
                }
            }
            held.push((owner, rank, key));
        });
    }

    pub fn release(owner: usize, rank: u8, key: u128) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(i) = held.iter().rposition(|&e| e == (owner, rank, key)) {
                held.remove(i);
            }
        });
    }

    pub fn assert_none_held(owner: usize, context: &str) {
        HELD.with(|held| {
            let held = held.borrow();
            debug_assert!(
                !held.iter().any(|&(o, _, _)| o == owner),
                "lock-order violation: {context} must run with no lock of this owner held, \
                 but {} are",
                held.iter().filter(|&&(o, _, _)| o == owner).count()
            );
        });
    }
}

/// RAII token for one tracked acquisition. Create it just before taking
/// the lock and keep it alongside the guard; dropping it (with the guard)
/// removes the entry from the thread's held-set. Zero-sized no-op in
/// release builds.
#[must_use = "hold the token for as long as the guard lives"]
pub struct Held {
    #[cfg(debug_assertions)]
    entry: (usize, u8, u128),
}

/// Record an acquisition of `(rank, key)` on `owner` (any stable address
/// identifying the lock's owner — `Arc::as_ptr` of the shared state works).
/// Panics in debug builds when the acquisition breaks the ordering
/// discipline; free in release builds.
#[inline]
pub fn acquire(owner: usize, rank: u8, key: u128) -> Held {
    #[cfg(debug_assertions)]
    {
        imp::acquire(owner, rank, key);
        Held {
            entry: (owner, rank, key),
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (owner, rank, key);
        Held {}
    }
}

impl Drop for Held {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::release(self.entry.0, self.entry.1, self.entry.2);
    }
}

/// Debug-assert that this thread holds none of `owner`'s tracked locks —
/// the guard for "materialize outside the lock" call sites. No-op in
/// release builds.
#[inline]
pub fn assert_none_held(owner: usize, context: &str) {
    #[cfg(debug_assertions)]
    imp::assert_none_held(owner, context);
    #[cfg(not(debug_assertions))]
    let _ = (owner, context);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finer rank than shards, as a per-key lock nested under a shard
    /// would take.
    const LEAF: u8 = rank::SHARD + 1;

    #[test]
    fn upward_walk_is_legal() {
        let owner = 0x1000;
        let _s = acquire(owner, rank::SHARD, 3);
        let _c1 = acquire(owner, LEAF, 1);
        drop(_c1);
        let _c2 = acquire(owner, LEAF, 2);
    }

    #[test]
    fn sequential_reacquire_is_legal() {
        let owner = 0x2000;
        for key in [5u128, 1, 9] {
            let _s = acquire(owner, rank::SHARD, key);
            // token drops each iteration — no ordering constraint across
            // non-overlapping acquisitions.
        }
    }

    #[test]
    fn distinct_owners_do_not_interact() {
        let _a = acquire(0x3000, LEAF, 7);
        let _b = acquire(0x4000, rank::SHARD, 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn leaf_then_shard_panics() {
        let owner = 0x5000;
        let _c = acquire(owner, LEAF, 7);
        let _s = acquire(owner, rank::SHARD, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_downward_panics() {
        let owner = 0x6000;
        let _a = acquire(owner, rank::SHARD, 9);
        let _b = acquire(owner, rank::SHARD, 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn assert_none_held_fires_while_holding() {
        let owner = 0x7000;
        let _s = acquire(owner, rank::SHARD, 0);
        assert_none_held(owner, "materialization");
    }
}
