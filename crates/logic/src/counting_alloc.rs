//! A heap-allocation-counting global allocator (feature `alloc-count`).
//!
//! Used by the steady-state allocation guards to assert that the
//! simulation hot path performs **zero** heap allocations after warm-up.
//! Register it in a test or binary crate root:
//!
//! ```text
//! use eraser_logic::counting_alloc::CountingAlloc;
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let before = CountingAlloc::allocations();
//! hot_loop();
//! assert_eq!(CountingAlloc::allocations() - before, 0);
//! ```
//!
//! Counting uses a relaxed atomic — the counter is a monotone event count,
//! not a synchronization mechanism — so the overhead per allocation is a
//! single uncontended atomic increment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Total allocations (including reallocations) since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

// SAFETY: delegates every operation to `System`, only adding a relaxed
// counter increment; layout handling is unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}
