//! Counting global allocator: allocation count, bytes requested and peak
//! live bytes, all exact. Backs `peak_heap_mb`, `sim.allocs_per_kevent`
//! and `sim.alloc_kb_per_kevent`.
//!
//! The counters are process-wide statistics that publish no other data,
//! so every atomic access is `Relaxed`. With one thread running (every
//! measurement except `harness.par2_speedup`) they are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator with counters in front of it.
pub struct Counting;

fn on_alloc(size: usize) {
    let size = size as u64;
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// The only unsafe code in the benchmark: a global allocator cannot be
// written without it, and exact heap counts cannot be had from outside the
// program any other way. Every method forwards its arguments unchanged to
// `System`, so the caller's `GlobalAlloc` obligations are exactly the ones
// `System` requires; the counters never touch the memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and every pointer this allocator returns is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is forwarded unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// The counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// Allocations (and reallocations) so far.
    pub allocs: u64,
    /// Bytes requested so far.
    pub bytes: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Start a new peak-tracking phase: the peak restarts from the bytes live
/// now, which are returned.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
