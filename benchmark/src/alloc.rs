//! The harness's global allocator: `System`, plus two tallies.
//!
//! * The high-water mark of live heap bytes in blocks of at least
//!   [`LARGE_BLOCK`] bytes — the `peak_heap_mb` metric. Resident-set
//!   peaks (`VmHWM`) swing by 10–20 % from run to run here, because
//!   glibc keeps one arena per short-lived worker thread and what the
//!   arenas retain depends on where threads land; the bytes the
//!   program asks for do not. Small blocks are left out so the hot
//!   path of a small allocation stays one branch: matrices and
//!   workspaces, which set the peak, are far above the threshold.
//! * A count of every allocation while counting is switched on, for
//!   `dla.allocs_per_solve`.
//!
//! All four `GlobalAlloc` methods forward to `System`, so zeroed and
//! resized blocks take the same path they take without the harness.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub const LARGE_BLOCK: usize = 4096;

// Statistics only: no other memory is published through these.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

pub struct Tracking;

#[inline]
fn grew(size: usize) {
    if size >= LARGE_BLOCK {
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK.fetch_max(live, Relaxed);
    }
    if COUNTING.load(Relaxed) {
        COUNT.fetch_add(1, Relaxed);
    }
}

#[inline]
fn shrank(size: usize) {
    if size >= LARGE_BLOCK {
        LIVE.fetch_sub(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies touch only
// atomics and never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: the caller's block and layout, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        // SAFETY: the caller's block, layout and size, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// High-water mark of live bytes in large blocks, MB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Run `f` and return how many allocations were made meanwhile, on
/// any thread.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (out, COUNT.load(Relaxed))
}
