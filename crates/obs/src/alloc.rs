//! A counting global allocator for allocation metering.
//!
//! Binaries that want `alloc.count` / `alloc.bytes` in their traces
//! install this as the global allocator and switch metering on around
//! the region of interest:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: ca_obs::alloc::CountingAllocator = ca_obs::alloc::CountingAllocator;
//!
//! ca_obs::alloc::set_metering(true);
//! run_solver();
//! let (count, bytes) = ca_obs::alloc::take();
//! ```
//!
//! The metering gate is a plain [`AtomicBool`] toggled *explicitly* —
//! never derived lazily from the environment — because the allocator
//! runs inside every heap call: a lazy `env::var` or `OnceLock`
//! initialization here would itself allocate and recurse. For the same
//! reason the tallies are raw atomics rather than registry
//! [`Counter`](crate::counters::Counter)s (registration takes a lock
//! and grows a `Vec`); merge [`snapshot`] into the counter list at
//! export time instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static METERING: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Switch allocation metering on or off. Off by default; with metering
/// off the allocator adds one relaxed load per heap call.
pub fn set_metering(on: bool) {
    METERING.store(on, Ordering::Relaxed);
}

/// Current `(allocation count, allocated bytes)` tallies.
pub fn snapshot() -> (u64, u64) {
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// Read and reset the tallies.
pub fn take() -> (u64, u64) {
    (
        COUNT.swap(0, Ordering::Relaxed),
        BYTES.swap(0, Ordering::Relaxed),
    )
}

/// [`System`] with opt-in allocation counting; see the module docs.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if METERING.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if METERING.load(Ordering::Relaxed) {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator globally, so drive
    // the GlobalAlloc impl directly.
    #[test]
    fn meters_only_when_enabled() {
        let a = CountingAllocator;
        let layout = Layout::from_size_align(64, 8).unwrap();
        let base = snapshot();
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        unsafe { a.dealloc(p, layout) };
        assert_eq!(snapshot(), base, "metering off must not count");

        set_metering(true);
        let p = unsafe { a.alloc(layout) };
        assert!(!p.is_null());
        unsafe { a.dealloc(p, layout) };
        set_metering(false);
        let (count, bytes) = snapshot();
        assert!(count > base.0);
        assert!(bytes >= base.1 + 64);
    }
}
