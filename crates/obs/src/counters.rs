//! Process-global named counters.
//!
//! Subsystems declare a `static` [`Counter`] and bump it from hot paths
//! (`CHASE_WINDOWS.add(1)`); the counter registers itself in a global
//! list on its first live update, so [`snapshot`] only reports counters
//! that actually fired. Updates are a relaxed `fetch_add`/`fetch_max`
//! guarded by the tracing level — with tracing off (the default) an
//! update is one relaxed load and a branch, cheap enough for the bulge
//! chase and workspace checkout paths.
//!
//! Registered counters in this build: `workspace.checkouts`,
//! `workspace.grows`, `workspace.high_water_words` (arena metering),
//! `bulge.chase_windows` (chase kernel invocations), `gemm.flops` /
//! `gemm.wide_flops` (`2mnk` of every GEMM that reaches the tile loop,
//! and of those that ran the 6×32 AVX-512 tile), `dnc.secular_roots`
//! / `dnc.secular_iters` (secular-equation work),
//! `service.submitted` / `service.completed` / `service.failed` /
//! `service.queue_rejected` / `service.deadline_missed` /
//! `service.queue_depth_peak` / `service.queue_wait_us` /
//! `service.solve_us` (service scheduling, mirrored from
//! `ca_service::ServiceStats`), `rt.spawns` / `rt.jobs` / `rt.helped` /
//! `rt.parks` (the threading runtime's cumulative totals, mirrored by
//! the solver at every stage end with `record_max`; a flat `rt.spawns`
//! means no thread was created). `alloc.count` / `alloc.bytes` are not
//! counters: a binary that installs [`crate::alloc::CountingAllocator`]
//! (the umbrella package's `stage_times`) appends them to the
//! [`snapshot`] it exports.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A named monotonic counter; declare as `static` and update via
/// [`Counter::add`] / [`Counter::record_max`].
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

fn registry() -> &'static Mutex<Vec<&'static Counter>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl Counter {
    /// A new counter with the given registry name.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(self);
        }
    }

    /// Add `v`; a no-op unless tracing is enabled (`CA_TRACE ≥ 1`).
    #[inline]
    pub fn add(&'static self, v: u64) {
        if crate::enabled() {
            self.ensure_registered();
            self.value.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Raise the counter to at least `v` (high-water marks); a no-op
    /// unless tracing is enabled.
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if crate::enabled() {
            self.ensure_registered();
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// `(name, value)` of every counter that has fired, sorted by name.
pub fn snapshot() -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|c| (c.name, c.get()))
        .collect();
    out.sort_by_key(|(n, _)| *n);
    out
}

/// Zero every registered counter (between traced runs).
pub fn reset() {
    for c in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
}

// The whole suite needs live enablement toggling, which `off` stubs out.
#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    static TEST_A: Counter = Counter::new("test.a");
    static TEST_MAX: Counter = Counter::new("test.max");

    #[test]
    fn add_and_max_respect_enablement() {
        let _serial = crate::lock_level();
        let level = crate::level();
        crate::set_level(0);
        TEST_A.add(5);
        assert_eq!(TEST_A.get(), 0, "disabled add must be a no-op");
        crate::set_level(1);
        TEST_A.add(5);
        TEST_A.add(2);
        TEST_MAX.record_max(3);
        TEST_MAX.record_max(1);
        assert_eq!(TEST_A.get(), 7);
        assert_eq!(TEST_MAX.get(), 3);
        let snap = snapshot();
        assert!(snap.iter().any(|&(n, v)| n == "test.a" && v == 7));
        reset();
        assert_eq!(TEST_A.get(), 0);
        crate::set_level(level);
    }
}
