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
//! Counting uses relaxed atomics — the counters are monotone event counts,
//! not a synchronization mechanism — so the overhead per allocation is a
//! single uncontended atomic increment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    /// Total allocations (including reallocations) since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total deallocations since process start.
    pub fn deallocations() -> u64 {
        DEALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Total bytes requested from the allocator since process start.
    pub fn bytes_allocated() -> u64 {
        BYTES_ALLOCATED.load(Ordering::Relaxed)
    }
}

static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

impl CountingAlloc {
    /// Debug aid for hunting stray allocations: the next allocation (of
    /// any kind) prints a backtrace to stderr, then the trap disarms. The
    /// unarmed cost on the allocation path is a single relaxed load.
    pub fn arm_trap() {
        TRAP.store(true, Ordering::Relaxed);
    }
}

// SAFETY: delegates every operation to `System`, only adding relaxed
// counter increments; layout handling is unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRAP.load(Ordering::Relaxed) && TRAP.swap(false, Ordering::Relaxed) {
            eprintln!(
                "alloc trap ({} bytes):\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRAP.load(Ordering::Relaxed) && TRAP.swap(false, Ordering::Relaxed) {
            eprintln!(
                "realloc trap ({} -> {new_size} bytes):\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        // A realloc is a dealloc of the old block plus an alloc of the new
        // one, so both counters move and allocations - deallocations stays
        // an accurate live-block count.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if TRAP.load(Ordering::Relaxed) && TRAP.swap(false, Ordering::Relaxed) {
            eprintln!(
                "alloc_zeroed trap ({} bytes):\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}
