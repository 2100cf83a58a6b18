//! Arena and allocation guards for the three chase stages — band→band,
//! CA-SBR and Lang — which walk their plans through the one banded
//! kernel on a `Workspace` the stage owns and drops.
//!
//! * **Nothing parked in the caller's arena.** After each stage returns,
//!   the calling thread's arena stack holds the buffers it held before
//!   and none of them grew: the stage's strips (up to `(h + 3b) × b`
//!   words each) die with the stage instead of staying resident under
//!   the finale's memory peak. GEMM takes its packing panels from the
//!   thread's arena whoever calls it, so the thread is first warmed with
//!   a product larger than any the stages issue; `checkouts` moves with
//!   those panels and is not compared.
//! * **Nothing allocated per chase.** A band→band pass at
//!   (n, b, h) = (512, 64, 32) performs about as many heap allocations as
//!   one at n = 256 with a quarter of the chases: the first chase of a
//!   pass has the widest strips and warms the stage's arena, and no later
//!   one allocates (no dense window, no transpose, no `Matrix`
//!   temporaries). What is left is per pass — the working slab, the plan,
//!   the groups — and the two `Vec`s that grow with the plan.
//!
//! Single test in this file on purpose: the allocation tally is
//! process-global and libtest runs sibling tests concurrently.

use ca_bsp::{Machine, MachineParams};
use ca_dla::bulge::chase_plan_iter;
use ca_dla::workspace::thread_ws_stats;
use ca_dla::{gemm, gen, BandedSym, Matrix, Trans};
use ca_eigen::{ca_sbr, lang_band_to_tridiagonal, try_band_to_band};
use ca_pla::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: ca_obs::alloc::CountingAllocator = ca_obs::alloc::CountingAllocator;

fn random_band(n: usize, b: usize, seed: u64) -> BandedSym {
    let mut rng = StdRng::seed_from_u64(seed);
    BandedSym::from_dense(&gen::random_banded(&mut rng, n, b), b, b)
}

/// Buffers parked on this thread's arena stack, and how often one grew.
fn parked() -> (usize, u64) {
    let stats = thread_ws_stats();
    (stats.pooled, stats.grows)
}

/// `(heap allocations, chases)` of one band→band pass at b = 64, h = 32.
fn pass_allocations(n: usize) -> (u64, usize) {
    let (machine, grid) = (Machine::new(MachineParams::new(4)), Grid::all(4));
    let band = random_band(n, 64, 519);
    let _ = ca_obs::alloc::take();
    ca_obs::alloc::set_metering(true);
    let out = try_band_to_band(&machine, &grid, &band, 32, 1, None).unwrap();
    ca_obs::alloc::set_metering(false);
    assert_eq!(out.bandwidth(), 32);
    (ca_obs::alloc::take().0, chase_plan_iter(n, 64, 32).count())
}

#[test]
fn chase_stages_park_nothing_and_allocate_nothing_per_chase() {
    // Both of GEMM's packing panels (a transposed A is packed too), at
    // 128³: no product below has a dimension above h + 3b = 56.
    let x = Matrix::identity(128);
    let mut c = Matrix::zeros(128, 128);
    gemm(1.0, &x, Trans::T, &x, Trans::N, 0.0, &mut c);

    let (machine, grid) = (Machine::new(MachineParams::new(4)), Grid::all(4));
    let band = random_band(96, 16, 518);
    let before = parked();
    assert!(before.0 > 0, "the warm-up was meant to park GEMM's panels");
    try_band_to_band(&machine, &grid, &band, 8, 1, None).unwrap();
    assert_eq!(
        parked(),
        before,
        "band→band left scratch in the caller's arena"
    );
    let _ = ca_sbr(&machine, &grid, band.clone(), None);
    assert_eq!(
        parked(),
        before,
        "CA-SBR left scratch in the caller's arena"
    );
    let _ = lang_band_to_tridiagonal(&machine, &grid, &band, None);
    assert_eq!(parked(), before, "Lang left scratch in the caller's arena");

    let (small, small_chases) = pass_allocations(256);
    let (large, large_chases) = pass_allocations(512);
    assert!(
        large_chases >= small_chases + 40,
        "the larger pass was meant to run many more chases ({small_chases} vs {large_chases})"
    );
    assert!(
        large <= small + 8,
        "{} more chases cost {} more heap allocations ({small} → {large})",
        large_chases - small_chases,
        large.saturating_sub(small)
    );
}
