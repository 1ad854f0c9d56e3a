//! The benchmark's counting global allocator.
//!
//! Installed in every run. It forwards to the system allocator and keeps:
//! - per-thread allocation and byte counts, which a span reads before and
//!   after a layer call to get that call's allocations (they repeat exactly
//!   for the same input, so they serve as deterministic gate quantities);
//! - the process-wide live heap and its high-water mark (`peak_heap_mib`);
//! - a second, resettable high-water mark for one measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The allocator type; `main.rs` installs one as `#[global_allocator]`.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static WINDOW_PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn on_alloc(size: usize) {
    // `try_with`: the thread-local may already be gone while a thread
    // exits; such late allocations still count towards the heap figures.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    grow(size);
}

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    WINDOW_PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees hold; the
// bookkeeping only touches atomics and const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this
        // allocator and the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let _ = BYTES.try_with(|c| c.set(c.get() + grown as u64));
                grow(grown);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Allocations and bytes requested so far by the calling thread.
pub fn thread_counts() -> (u64, u64) {
    (
        ALLOCS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// The process-wide heap high-water mark, in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Starts a new measurement window: its high-water mark restarts from the
/// heap in use now.
pub fn reset_window() {
    WINDOW_PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Heap growth at the window's high-water mark over `base` bytes, in MiB.
pub fn window_growth_mib(base: usize) -> f64 {
    WINDOW_PEAK.load(Ordering::Relaxed).saturating_sub(base) as f64 / (1024.0 * 1024.0)
}

/// The heap in use now, in bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}
