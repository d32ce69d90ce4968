//! A counting global allocator, shared by the allocation claims in
//! `tests/scan_alloc.rs` and the allocation columns of the benches.
//!
//! A binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: tass_bench::alloc::CountingAlloc = tass_bench::alloc::CountingAlloc;
//! ```
//!
//! and wraps the code it measures in [`counted`]. The counters are
//! global: while a count runs, every thread of the process adds to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Forwards to the system allocator, and counts allocations (and
/// reallocations) and their requested bytes while [`counted`] runs.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

/// `(allocations, bytes)` made by `f`, and its result. Counts do not
/// nest: run one at a time.
pub fn counted<R>(f: impl FnOnce() -> R) -> ((u64, u64), R) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    ((ALLOCS.load(Relaxed), BYTES.load(Relaxed)), r)
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from `System` with this layout, and the
        // caller upholds `GlobalAlloc::realloc`'s contract
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
