//! Counting global allocator for the traced run.
//!
//! Counting is off until [`enable`] is called, which only the traced run
//! does; while off, each allocation costs one relaxed load of a flag that
//! never changes. Counts are kept per thread, so a span's delta covers
//! exactly the allocations its own thread made inside it, whatever other
//! workers do meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus per-thread allocation and byte counters.
pub struct Counting;

#[inline]
fn note(bytes: usize) {
    // The flag publishes no other data; `Relaxed` is enough.
    if ON.load(Ordering::Relaxed) {
        // `try_with`: a thread being torn down may still free and allocate.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialised thread-locals
// without destructors, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Start counting (the traced run only).
pub fn enable() {
    ON.store(true, Ordering::Relaxed);
}

/// This thread's `(allocations, bytes)` so far.
pub fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
