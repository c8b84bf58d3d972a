//! A counting [`GlobalAlloc`] wrapper over the system allocator, used by
//! the zero-alloc delta-path test (`tests/alloc.rs` in the facade):
//! every `alloc`/`alloc_zeroed`/`realloc` call is one event; `dealloc`
//! is free.
//!
//! Each binary still declares its own registration:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: bds_par::CountingAlloc = bds_par::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counting allocator; register as `#[global_allocator]`.
pub struct CountingAlloc;

// Const-initialized and `Drop`-free, so accessing it inside the
// allocator can never itself allocate or recurse.
thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events performed by the *calling thread* (monotone).
///
/// Per-thread on purpose: a process-wide count would pick up whatever
/// other threads happen to allocate inside the measured window (the
/// libtest harness thread is enough to trip an `== 0` assertion
/// sporadically).
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[inline]
fn count() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method delegates verbatim to `System`, which upholds
// the GlobalAlloc contract; the counter bump on the side touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: caller obligations (non-zero-sized `layout`) are
        // passed through unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`; delegated with the caller's layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` pair comes from the caller, who must
        // have obtained it from this allocator (same contract System
        // requires).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: delegated; the caller guarantees `ptr` was allocated
        // here with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
