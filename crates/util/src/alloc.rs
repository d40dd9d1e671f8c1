//! A counting global allocator for allocation-regression tests and benches.
//!
//! Install [`CountingAllocator`] as the `#[global_allocator]` of a test
//! binary and measure a code region with [`count_allocations`]: the result
//! is the exact number of heap allocation *events* (fresh allocations,
//! zeroed allocations, and reallocations — frees are not counted) performed
//! by the region. Perf-critical paths pin their allocation budget with
//! `assert_eq!` on that count, so a regression that re-introduces a
//! per-frame allocation fails a test instead of silently eroding
//! throughput.
//!
//! Counting covers `alloc`, `alloc_zeroed` **and** `realloc`:
//! `vec![0u8; n]` goes through `alloc_zeroed` and a growing `Vec` through
//! `realloc`, and both are allocation events a hot path must account for.
//!
//! The counter is process-global, so a binary holding an exact-count test
//! must run it without concurrent allocating threads (the standard pattern
//! is one `#[test]` per integration-test file).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATION_EVENTS: AtomicU64 = AtomicU64::new(0);

/// A `System`-backed allocator that counts allocation events.
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: iotlan_util::alloc::CountingAllocator = iotlan_util::alloc::CountingAllocator;
/// ```
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATION_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocation events recorded since process start. Always zero unless
/// [`CountingAllocator`] is installed as the global allocator.
pub fn allocation_count() -> u64 {
    ALLOCATION_EVENTS.load(Ordering::SeqCst)
}

/// Is [`CountingAllocator`] installed in this process? Any process that
/// installed it has allocated before it can ask (the runtime itself
/// allocates at start-up), so a zero count means nothing is counting.
pub fn counting_active() -> bool {
    allocation_count() > 0
}

/// Run `f` and return how many allocation events it performed, with its
/// result.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let result = f();
    let after = allocation_count();
    (after - before, result)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The allocator is NOT installed in this crate's unit-test binary, so
    // only the bookkeeping API is testable here; the end-to-end behavior is
    // exercised by `iotlan-netsim`'s alloc_regression integration test,
    // which does install it.
    #[test]
    fn count_is_monotonic_and_delta_based() {
        let (delta, value) = count_allocations(|| 40 + 2);
        assert_eq!(value, 42);
        // Without the global allocator installed the delta is zero.
        assert_eq!(delta, 0);
    }
}
