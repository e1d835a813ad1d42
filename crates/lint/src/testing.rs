//! Shared test instrumentation: the counting global allocator behind
//! the workspace's "zero allocations on the hot path" regression tests.
//!
//! PR 2 introduced this as a private shim inside
//! `crates/cp/tests/propagate_allocs.rs`; it is promoted here so every
//! allocation-guard test binary (`propagate_allocs`, `trace_overhead`,
//! future arena work) installs the same audited shim instead of
//! re-rolling its own `unsafe impl GlobalAlloc`.
//!
//! Usage — the `#[global_allocator]` attribute must live in the test
//! binary itself:
//!
//! ```ignore
//! use tela_lint::testing::CountingAlloc;
//!
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc::new();
//!
//! let (allocs, result) = tela_lint::testing::count_allocations(|| vec![0u8; 64]);
//! assert!(allocs >= 1);
//! ```
//!
//! The counter is per thread: a measurement window sees only the
//! allocations of the thread that opened it, so sibling tests running
//! in parallel (and the libtest harness) can never leak into it, and
//! one measurement of a deterministic workload is exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialization with a `Drop`-free type: no lazy
    // registration, so touching it from inside the allocator cannot
    // recurse into the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record_allocation() {
    // Fails only while the thread's locals are being torn down, when
    // nothing is measuring.
    let _ = ALLOCS.try_with(|count| count.set(count.get() + 1));
}

/// A [`System`]-backed allocator that counts every `alloc`/`realloc`.
/// Deallocations are not counted: the guarded property is "no new heap
/// traffic", and frees always pair with a counted allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    /// `const` constructor for `#[global_allocator]` statics.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// The calling thread's allocation count so far. Only meaningful in a
/// binary whose `#[global_allocator]` is a [`CountingAlloc`]; otherwise
/// stays zero.
pub fn allocation_count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns `(allocations the calling thread made during f,
/// f's result)`.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let result = f();
    (allocation_count() - before, result)
}
