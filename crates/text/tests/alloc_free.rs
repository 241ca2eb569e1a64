//! The kernels a model pair runs allocate nothing once warm.
//!
//! A counting global allocator tallies allocations per thread, so tests
//! running beside this one on other threads cannot disturb the count. Each
//! kernel runs once on the test's thread to fill its per-thread buffers,
//! and then must allocate nothing on the same inputs.

use certa_core::TokenId;
use certa_text::{jaccard_ids, jaro_winkler, levenshtein_sim, parse_number, trigram_sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made on this thread. A const-initialized `Cell` has no
    /// destructor, so reading it allocates nothing itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; it is not measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce() -> f64) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warm_kernels_allocate_nothing() {
    let ids = |text: &str| -> Vec<TokenId> { text.split(' ').map(TokenId::intern).collect() };
    let (brand, model) = (ids("sony bravia kdl"), ids("40 inch lcd tv"));
    let other = ids("sony kdl 40 lcd television black");
    let (a, b) = (
        "sony bravia kdl-40 lcd tv",
        "sony bravia kdl40 lcd télévision",
    );
    let kernels: [(&str, &dyn Fn() -> f64); 5] = [
        ("jaccard_ids", &|| {
            jaccard_ids([&brand[..], &model[..]], [&other[..]])
        }),
        ("trigram_sim", &|| trigram_sim(a, b)),
        ("levenshtein_sim", &|| levenshtein_sim(a, b)),
        ("jaro_winkler", &|| jaro_winkler(a, b)),
        ("parse_number", &|| {
            parse_number("$1,299.00").unwrap_or(f64::NAN)
        }),
    ];
    for (name, kernel) in kernels {
        let cold = kernel();
        assert_eq!(allocations(kernel), 0, "{name} allocated once warm");
        assert_eq!(
            kernel().to_bits(),
            cold.to_bits(),
            "{name} changed its result"
        );
    }
}
