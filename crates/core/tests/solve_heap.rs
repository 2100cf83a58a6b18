//! The heap a whole values solve holds above its input.
//!
//! A tracking global allocator keeps the high-water mark of live bytes
//! in blocks of at least 4 KiB (the benchmark's `peak_heap_mb` tally).
//! After a warm-up solve — the thread arenas keep GEMM's packing panels
//! and the QR's scratch between solves, which are not one solve's — the
//! transient of a second solve of the same input is bounded in `n²`
//! words. Its peak is in full→band: `U⁽⁰⁾` and `V⁽⁰⁾` at `(n − b)²`
//! each, the band, and one panel's line 7–9 operands, each held once
//! (one live host buffer per distributed operand, freed when it goes
//! dead).
//!
//! Single test in this file on purpose: the tally is process-global and
//! libtest runs sibling tests concurrently.

use ca_bsp::{Machine, MachineParams};
use ca_dla::{gen, rt};
use ca_eigen::{try_symm_eigen_25d, EigenParams};
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

/// Bytes above the live set on entry that one values solve of `a` at
/// `(p, c)` reaches at its peak, run under a core budget of `budget`.
fn transient_peak(a: &ca_dla::Matrix, p: usize, c: usize, budget: usize) -> u64 {
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, c);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = rt::with_budget(budget, || try_symm_eigen_25d(&machine, &params, a).unwrap());
    let peak = PEAK.load(Relaxed) - base;
    drop(out);
    peak
}

#[test]
fn values_solve_holds_its_operands_once() {
    let n = 256;
    let n2_bytes = (n * n * std::mem::size_of::<f64>()) as f64;
    let lambda = gen::linspace_spectrum(n, -1.0, 1.0);
    let a = gen::symmetric_with_spectrum(&mut StdRng::seed_from_u64(1), &lambda);
    // `(p, c, bound in n² words)`. The solves read 3.00·n² at p = 4
    // (b = n/2) and 2.17·n² at p = 64, c = 4 (b = n/6, then band→band
    // and two CA-SBR halvings), under either budget. Holding a second
    // host copy of `A̅₂₁`, of TSQR's stacks and `R`s and of
    // reconstruction's `Q`, `W` past its last read, `n × (n − b)`
    // aggregates and CA-SBR's input band through the halving, as the
    // panel path once did, reads 4.13·n² and 2.65·n².
    for (p, c, bound) in [(4, 1, 3.1), (64, 4, 2.25)] {
        for budget in [1, 2] {
            transient_peak(&a, p, c, budget);
            let peak = transient_peak(&a, p, c, budget);
            let words = peak as f64 / n2_bytes;
            eprintln!(
                "(n, p, c) = ({n}, {p}, {c}), budget {budget}: peak {peak} B = {words:.3}·n² words"
            );
            assert!(
                words <= bound,
                "(n, p, c) = ({n}, {p}, {c}), budget {budget}: a values solve's transient is \
                 {words:.3}·n² words above its input, more than {bound}·n²"
            );
        }
    }
}
