//! Bitwise-equivalence oracles for the zero-copy chase engine and the
//! parallel spectral kernels.
//!
//! The zero-copy engine (arena-backed strips, in-place QR, fused
//! negation, vectorized Householder kernels) is *claimed* to be bitwise
//! identical to the seed's dense-window path — not merely close. These
//! properties pin that claim over ragged shapes (`n` not a multiple of
//! the band, `h ∤ b`) by replaying full chase plans through both engines
//! and `assert_eq!`-ing the band storage and the recorded `(U, T)`
//! factors, with zero tolerance. Likewise the rayon-parallel bisection
//! must return exactly the sequential eigenvalues, in order.

use ca_dla::bulge::{chase_plan_iter, execute_chase, execute_chase_recording};
use ca_dla::gen;
use ca_dla::oracle::{execute_chase_recording_reference, execute_chase_reference};
use ca_dla::sturm::{bisection_eigenvalues, kth_eigenvalue};
use ca_dla::BandedSym;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 3] = [48, 65, 129];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Full chase plans through the zero-copy banded engine and the
    /// dense-window reference produce bitwise identical band matrices.
    #[test]
    fn zero_copy_chase_is_bitwise_identical(
        ni in 0usize..3,
        b in 5usize..12,
        h in 2usize..8,
        seed in 0u64..1024,
    ) {
        prop_assume!(h < b && b % h != 0); // ragged: h ∤ b
        let n = SIZES[ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = gen::random_banded(&mut rng, n, b);
        let cap = (2 * b).min(n - 1);
        let mut fast = BandedSym::from_dense(&dense, b, cap);
        let mut refr = fast.clone();
        for op in chase_plan_iter(n, b, h) {
            execute_chase(&mut fast, &op);
            execute_chase_reference(&mut refr, &op);
        }
        prop_assert_eq!(fast, refr);
    }

    /// The recording variants agree op-by-op: same `(U, T)` factors
    /// (bit for bit) and the same band state after every operation.
    #[test]
    fn recorded_factors_are_bitwise_identical(
        ni in 0usize..3,
        b in 4usize..10,
        h in 2usize..7,
        seed in 0u64..1024,
    ) {
        prop_assume!(h < b && b % h != 0);
        let n = SIZES[ni];
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7));
        let dense = gen::random_banded(&mut rng, n, b);
        let cap = (2 * b).min(n - 1);
        let mut fast = BandedSym::from_dense(&dense, b, cap);
        let mut refr = fast.clone();
        for op in chase_plan_iter(n, b, h) {
            let (uf, tf) = execute_chase_recording(&mut fast, &op);
            let (ur, tr) = execute_chase_recording_reference(&mut refr, &op);
            prop_assert_eq!(&uf, &ur, "U diverged at op ({}, {})", op.i, op.j);
            prop_assert_eq!(&tf, &tr, "T diverged at op ({}, {})", op.i, op.j);
            prop_assert_eq!(&fast, &refr, "band diverged at op ({}, {})", op.i, op.j);
        }
    }

    /// Parallel bisection returns exactly the sequential eigenvalues.
    #[test]
    fn parallel_bisection_matches_sequential(
        n in 2usize..96,
        seed in 0u64..1024,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(13));
        let t = gen::random_banded(&mut rng, n, 1);
        let d: Vec<f64> = (0..n).map(|i| t.get(i, i)).collect();
        let e: Vec<f64> = (1..n).map(|i| t.get(i, i - 1)).collect();
        let par = bisection_eigenvalues(&d, &e, 0.0);
        let seq: Vec<f64> = (0..n).map(|k| kth_eigenvalue(&d, &e, k, 0.0)).collect();
        prop_assert_eq!(par, seq);
    }
}

/// A whole plan through both engines, op by op: the same `(U, T)` and
/// the same band (scale mark included) after every operation.
fn replay_against_the_oracle(n: usize, b: usize, h: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = gen::random_banded(&mut rng, n, b);
    let cap = (2 * b).min(n - 1);
    let mut fast = BandedSym::from_dense(&dense, b, cap);
    let mut refr = fast.clone();
    for op in chase_plan_iter(n, b, h) {
        let (uf, tf) = execute_chase_recording(&mut fast, &op);
        let (ur, tr) = execute_chase_recording_reference(&mut refr, &op);
        let at = format!("n={n} b={b} h={h}, op ({}, {})", op.i, op.j);
        assert_eq!(uf, ur, "{at}: U diverged");
        assert_eq!(tf, tr, "{at}: T diverged");
        assert_eq!(fast, refr, "{at}: band diverged");
    }
}

/// A band wider than GEMM's `KC = 256`: the strip product `P·U`, the
/// diagonal square and `Uᵀ·W` run two chunks of the inner dimension
/// (`nr = 320`), so the structured products may cut a zero head only at
/// a chunk boundary.
#[test]
fn band_wider_than_one_gemm_chunk_is_bitwise_identical() {
    replay_against_the_oracle(640, 320, 160, 101);
}

/// Plans whose every sweep is its panel elimination alone (`j = 1`:
/// the bulge has nowhere to go) and whose last blocks are wide
/// (`nr < h`, so `U` is `nr × nr` and `T`'s order is `nr`): the shapes
/// at a matrix's end, where the trimmed strip is the whole strip.
#[test]
fn panel_only_sweeps_and_wide_tails_are_bitwise_identical() {
    for (n, b, h, seed) in [(40usize, 24usize, 16usize, 102u64), (57, 36, 22, 103)] {
        let plan: Vec<_> = chase_plan_iter(n, b, h).collect();
        let at = format!("n={n} b={b} h={h}");
        assert!(plan.iter().all(|op| op.j == 1), "{at}: a sweep chases");
        assert!(plan.iter().any(|op| op.nr() < op.h()), "{at}: no wide tail");
        replay_against_the_oracle(n, b, h, seed);
    }
}

/// An `h = 1` plan (direct tridiagonalization, the shape that dominates
/// the sequential finale) through both engines, deterministic.
#[test]
fn h_equals_one_plan_is_bitwise_identical() {
    let (n, b) = (96usize, 8usize);
    let mut rng = StdRng::seed_from_u64(99);
    let dense = gen::random_banded(&mut rng, n, b);
    let cap = (2 * b).min(n - 1);
    let mut fast = BandedSym::from_dense(&dense, b, cap);
    let mut refr = fast.clone();
    for op in chase_plan_iter(n, b, 1) {
        execute_chase(&mut fast, &op);
        execute_chase_reference(&mut refr, &op);
    }
    assert_eq!(fast, refr);
}
