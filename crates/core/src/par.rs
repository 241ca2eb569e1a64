//! The workspace's one data-parallel fan-out.
//!
//! Every loop that spreads independent work over threads runs on
//! [`run_indexed`]: `explain_batch` over pairs, the evaluation grid over
//! datasets, MinHash signing over records and then over blocks of
//! signature coordinates, and cluster scoring over candidate chunks. Each
//! task sees only its index and results come back in index order, so
//! "output never depends on the worker count" is a property of this one
//! function. [`worker_count`] is the one rule for resolving a
//! requested count: `0` means one worker per available core.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Resolve a requested worker count: `0` means one per available core
/// (at least 1); any other value is taken as given.
pub fn worker_count(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Run `f(i)` for every `i in 0..len` on a work-stealing scoped-thread pool
/// and return the results in index order.
///
/// `workers` resolves through [`worker_count`] and is then clamped to
/// `len`; one worker runs the loop inline with no threads. Workers claim
/// indices one at a time from a shared counter, so an expensive task never
/// stalls a statically assigned partner, and each result lands in its own
/// index slot. A panic in `f` propagates to the caller.
pub fn run_indexed<T: Send + Sync>(
    len: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = worker_count(workers).min(len);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    // The counter only hands out indices; results are published through
    // the `OnceLock` slots and the scope's join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<T>> = (0..len).map(|_| OnceLock::new()).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let value = f(i);
                slots[i]
                    .set(value)
                    .unwrap_or_else(|_| unreachable!("index {i} claimed once"));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        let expected: Vec<u64> = (0..50u64).map(|i| i * i + 7).collect();
        // 64 is more workers than tasks: it clamps to 50.
        for workers in [0, 1, 2, 8, 64] {
            let got = run_indexed(50, workers, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        for workers in [0, 1, 4] {
            assert!(run_indexed(0, workers, |i| i).is_empty());
            assert_eq!(run_indexed(1, workers, |i| i + 1), vec![1]);
        }
    }

    #[test]
    fn zero_resolves_to_one_per_core_and_counts_pass_through() {
        assert!(worker_count(0) >= 1);
        for n in [1, 3, 64] {
            assert_eq!(worker_count(n), n);
        }
    }
}
