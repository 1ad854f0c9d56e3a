//! A counting global allocator for bounded-memory regression tests.
//!
//! The streaming pipeline's whole point is a peak-RSS bound, and the only
//! way to *regression-test* a bound is to measure it from inside the
//! process: external RSS numbers are noisy (allocator slack, test harness
//! overhead) and platform-dependent. [`CountingAlloc`] wraps the system
//! allocator with three atomic counters — live bytes, their high-water
//! mark and the number of allocation calls — so a test binary can install
//! it with `#[global_allocator]` and assert `peak_bytes()` against a
//! budget (see `crates/core/tests/bounded_memory.rs`) or `allocations()`
//! against a count (see `crates/core/tests/cold_allocs.rs`).
//!
//! The counters track *requested* bytes, not allocator-internal overhead;
//! that is exactly what the streaming-vs-materialized comparison needs,
//! since both paths pay the same allocator slack factor.

// Implementing `GlobalAlloc` is inherently unsafe; this is the same
// documented carve-out as `pool` (the crate is `deny`, not `forbid`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A [`System`]-backed allocator that tracks live bytes, their peak and
/// the number of allocation calls.
///
/// All counter updates are relaxed atomics: the peak is maintained with a
/// `fetch_max` loop, so concurrent allocations can under-report the peak
/// by at most the bytes in flight — irrelevant at the megabyte budgets
/// the regression tests assert.
///
/// # Examples
///
/// Install in a test binary and measure a workload:
///
/// ```text
/// #[global_allocator]
/// static ALLOC: leqa::meter::CountingAlloc = leqa::meter::CountingAlloc::new();
///
/// let before = ALLOC.live_bytes();
/// ALLOC.reset_peak();
/// run_workload();
/// let peak = ALLOC.peak_bytes() - before;
/// assert!(peak < BUDGET);
/// ```
#[derive(Debug)]
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicUsize,
}

impl CountingAlloc {
    /// A zeroed counter set (const, as `#[global_allocator]` requires).
    #[must_use]
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicUsize::new(0),
        }
    }

    /// Allocation calls since process start: every `alloc`,
    /// `alloc_zeroed` and `realloc` that succeeded (a grown `Vec` counts
    /// once per reallocation). Unlike byte figures these repeat exactly
    /// for the same input, so tests difference two readings and assert a
    /// count.
    #[must_use]
    pub fn allocations(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated and not yet freed.
    #[must_use]
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`live_bytes`](Self::live_bytes) since the last
    /// [`reset_peak`](Self::reset_peak) (or process start).
    #[must_use]
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the peak tracking from the current live count, so a test
    /// can scope the measurement to one workload.
    pub fn reset_peak(&self) {
        self.peak
            .store(self.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn add(&self, bytes: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: delegates every allocation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counters never touch the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.sub(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.add(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.sub(layout.size());
            self.add(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not installed as the global allocator here (that would meter the
    // whole test binary); the accounting itself is what these pin down.
    #[test]
    fn counters_track_alloc_and_free() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(1024, 8).unwrap();
        // SAFETY: layout is non-zero-sized; the pointer is freed below
        // with the same layout.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.live_bytes(), 1024);
            assert_eq!(a.peak_bytes(), 1024);
            assert_eq!(a.allocations(), 1);
            a.dealloc(p, layout);
        }
        assert_eq!(a.allocations(), 1, "a free is not an allocation");
        assert_eq!(a.live_bytes(), 0);
        assert_eq!(a.peak_bytes(), 1024, "peak survives the free");
        a.reset_peak();
        assert_eq!(a.peak_bytes(), 0);
    }

    #[test]
    fn realloc_retargets_the_live_count() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: grow then free with the final size's layout.
        unsafe {
            let p = a.alloc(layout);
            let p2 = a.realloc(p, layout, 4096);
            assert!(!p2.is_null());
            assert_eq!(a.live_bytes(), 4096);
            assert!(a.peak_bytes() >= 4096);
            assert_eq!(a.allocations(), 2, "a reallocation counts once");
            a.dealloc(p2, Layout::from_size_align(4096, 8).unwrap());
        }
        assert_eq!(a.live_bytes(), 0);
    }
}
