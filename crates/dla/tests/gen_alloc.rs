//! The heap the input generator holds.
//!
//! A tracking global allocator keeps the high-water mark of live bytes
//! in blocks of at least 4 KiB (the benchmark's `peak_heap_mb` tally).
//! `gen::symmetric_with_spectrum` forms a random orthogonal `Q` from the
//! compact-WY factors of a random matrix's QR and returns `Q·Λ·Qᵀ`: the
//! matrix is factored in place (no copy, no `R`), `T` is freed once
//! `S = T·Uᵀ` is formed and before `Q` is allocated, so at most three
//! `n × n` buffers are live at any point — `(W, U, T)`, `(U, S, Q)`,
//! `(Q, Q·Λ, A)` — beside GEMM's packing panels.
//!
//! Single test in this file on purpose: the tally is process-global and
//! libtest runs sibling tests concurrently.

use ca_dla::{gen, rt};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// GEMM's chunk depth and row-slab height (`ca_dla::gemm`'s `KC`, `MC`).
const KC: usize = 256;
const MC: usize = 96;

/// Bytes above the live set on entry that one generator call reaches at
/// its peak, run under a core budget of `budget`.
fn transient_peak(n: usize, budget: usize) -> u64 {
    let lambda = gen::linspace_spectrum(n, -1.0, 1.0);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let a = rt::with_budget(budget, || {
        gen::symmetric_with_spectrum(&mut StdRng::seed_from_u64(7), &lambda)
    });
    let peak = PEAK.load(Relaxed) - base;
    drop(a);
    peak
}

#[test]
fn generator_holds_three_n_squared_words() {
    let n = 256;
    let words = |w: usize| (w * std::mem::size_of::<f64>()) as u64;
    let structural = words(3 * n * n);
    // A forked product's row slabs pack `op(A)` on the pool's workers,
    // which drop their arenas when they park: an `MC × KC` panel each.
    let packing = words(2 * MC * KC);
    for budget in [1, 2] {
        // Warm the thread arenas first: what they keep between calls
        // (the QR's scratch, the caller's packing panels) is not the
        // generator's.
        transient_peak(n, budget);
        let peak = transient_peak(n, budget);
        eprintln!(
            "budget {budget}: peak {peak} B = 3·n² words ({structural} B) + {} B",
            peak as i64 - structural as i64
        );
        assert!(
            peak <= structural + packing,
            "budget {budget}: the generator's peak is {peak} B above its entry, more than \
             three n × n buffers ({structural} B) + packing panels ({packing} B)"
        );
    }
}
