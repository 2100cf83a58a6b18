//! The heap a divide-and-conquer merge holds.
//!
//! A tracking global allocator keeps the high-water mark of live bytes
//! in blocks of at least 4 KiB (the benchmark's `peak_heap_mb` tally).
//! At n = 512 with nothing deflating, the top merge keeps all 512
//! columns and is the solve's peak. On entry the two halves' eigenvector
//! blocks `Q₁`, `Q₂` are live; the merge adds its output and `Û` (`n²`
//! each) and may add `O(n·KC)` scratch beside them — never a second
//! `n²` buffer (a block-diagonal carrier, a gathered copy of the kept
//! columns or a product buffer).
//!
//! Single test in this file on purpose: the tally is process-global and
//! libtest runs sibling tests concurrently.

use ca_dla::dnc::dnc_eigen;
use ca_dla::rt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

const LARGE_BLOCK: usize = 4096;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

struct Tracking;

fn grew(size: usize) {
    if size >= LARGE_BLOCK {
        let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(size: usize) {
    if size >= LARGE_BLOCK {
        LIVE.fetch_sub(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`;
// the tallies touch only atomics and never allocate.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// GEMM's chunk depth (`ca_dla::gemm`'s `KC`).
const KC: usize = 256;

/// Bytes above the live set on entry that one solve reaches at its peak,
/// run under a core budget of `budget`.
fn transient_peak(d: &[f64], e: &[f64], budget: usize) -> u64 {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let (lam, z) = rt::with_budget(budget, || dnc_eigen(d, e).expect("converges"));
    let peak = PEAK.load(Relaxed) - base;
    drop((lam, z));
    peak
}

#[test]
fn merge_holds_output_u_hat_and_chunk_scratch_only() {
    // A nearly uniform chain whose halves sit 0.0123 apart: nothing
    // deflates, so the top merge keeps every column.
    let n = 512;
    let mut rng = StdRng::seed_from_u64(705);
    let d: Vec<f64> = (0..n)
        .map(|i| rng.gen_range(-1e-3..1e-3) + if i < n / 2 { 0.0 } else { 0.0123 })
        .collect();
    let e: Vec<f64> = (0..n - 1)
        .map(|_| 1.0 + rng.gen_range(-1e-3..1e-3))
        .collect();
    let (k, m) = (n / 2, n);
    let words = |w: usize| (w * std::mem::size_of::<f64>()) as u64;
    // Live at the top merge: Q₁, Q₂, the output and Û.
    let structural = words(k * k + (n - k) * (n - k) + n * n + m * m);
    // Beside them: per half one chunk of its rows (n/2 × KC) and a
    // KC × KC block of Û, a forked GEMM's packed panel, and the O(n)
    // vectors of the plan and the recursion.
    let scratch = words(3 * n * KC);
    for budget in [1, 2] {
        // Warm the thread arenas and the pool first: what they keep
        // between calls is not the merge's.
        rt::with_budget(budget, || dnc_eigen(&d, &e).expect("converges"));
        let peak = transient_peak(&d, &e, budget);
        eprintln!(
            "budget {budget}: peak {peak} B = structural {structural} + {} B",
            peak as i64 - structural as i64
        );
        assert!(
            peak <= structural + scratch,
            "budget {budget}: the solve's peak is {peak} B above its entry, more than \
             Q₁ + Q₂ + output + Û ({structural} B) + 3·n·KC words ({scratch} B)"
        );
    }
}
