//! Properties of the fused band → tridiagonal sweep and of the block
//! reflectors it records.
//!
//! * **One arithmetic.** The sweep loop is one source compiled twice —
//!   for AVX2 + FMA and portably — under the sum contract in
//!   `bulge::sweep_to_tridiagonal`'s docs; the two instantiations must
//!   agree to the bit on the band, the scale mark and every recorded
//!   `(row0, U, T)`, over band-widths on both sides of `dot`'s eight
//!   lanes, `n` not a multiple of `b`, and exactly the fill capacity
//!   `min(2b, n − 1)` the kernel demands. (On a host without those
//!   units both calls run the portable code and the test is vacuous.)
//!   The op-by-op comparison with the generic chase engine lives beside
//!   the private kernel (`bulge::tests::fused_op_tracks_generic_chase_op_by_op`).
//! * **The record is the transform, in a legal order.** `Q` accumulated
//!   from the emitted blocks in emitted order satisfies `QᵀAQ = T`; it
//!   equals the product of the same run's rank-1 reflectors taken in the
//!   sweep's own `(i, j)` order — the commutation argument of the docs,
//!   checked numerically — and each `T` is `larft`'s factor of its `U`
//!   (`qr::form_t`), a zero column standing for an identity chase.
//! * **Recording is free of side effects** on the band, and
//!   `tridiag::band_to_tridiagonal` is the same function with and
//!   without it.

use ca_dla::bulge::{
    sweep_group, sweep_to_tridiagonal, sweep_to_tridiagonal_portable, BlockReflector,
};
use ca_dla::gemm::{matmul, Trans};
use ca_dla::qr::{apply_q_right, form_t};
use ca_dla::tridiag::band_to_tridiagonal;
use ca_dla::{gen, BandedSym, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(n, b)`: ragged band-widths around `dot`'s lane count with `b ∤ n`;
/// (24, 17) and (19, 15) have `n − 1 < 2b`, so the capacity is `n − 1`.
/// Below a band-width of 32 the record is one reflector per chase
/// (`sweep_group` = 1); the last four shapes record blocks.
const SHAPES: [(usize, usize); 14] = [
    (11, 2),
    (20, 3),
    (37, 7),
    (43, 8),
    (50, 9),
    (19, 15),
    (64, 15),
    (70, 16),
    (24, 17),
    (88, 17),
    (75, 32),
    (140, 33),
    (171, 40),
    (200, 64),
];

fn banded(n: usize, b: usize, seed: u64) -> (Matrix, BandedSym) {
    let dense = gen::random_banded(&mut StdRng::seed_from_u64(seed), n, b);
    let band = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));
    (dense, band)
}

/// `Q = Q₁Q₂⋯` over the blocks in emitted order.
fn accumulate(n: usize, blocks: &[BlockReflector]) -> Matrix {
    let mut q = Matrix::identity(n);
    for (row0, u, t) in blocks {
        let mut cols = q.block(0, *row0, n, u.rows());
        apply_q_right(u, t, &mut cols);
        q.set_block(0, *row0, &cols);
    }
    q
}

/// The run's rank-1 reflectors `(first row, u, τ)` read back out of its
/// blocks and put in the order the sweep generated them: sweep `i`
/// ascending, chase position `j` ascending. Inside a group the blocks
/// come `j` descending — strictly falling `row0` — so a rising `row0`
/// opens the next group; column `s` of a block belongs to the group's
/// sweep `s`, and within one sweep `j` rises with the row.
fn rank1_in_sweep_order(blocks: &[BlockReflector]) -> Vec<(usize, Vec<f64>, f64)> {
    let mut keyed = Vec::new();
    let mut group = 0usize;
    for (k, (row0, u, t)) in blocks.iter().enumerate() {
        if k > 0 && *row0 > blocks[k - 1].0 {
            group += 1;
        }
        for s in 0..u.cols() {
            let column: Vec<f64> = (s..u.rows()).map(|r| u.get(r, s)).collect();
            keyed.push(((group, s, row0 + s), column, t.get(s, s)));
        }
    }
    keyed.sort_by_key(|(key, _, _)| *key);
    keyed
        .into_iter()
        .map(|((_, _, row), u, tau)| (row, u, tau))
        .collect()
}

#[test]
fn simd_and_portable_instantiations_agree_bitwise() {
    for (n, b) in SHAPES {
        let (_, band) = banded(n, b, 900 + n as u64);
        let (mut simd, mut portable) = (band.clone(), band);
        let (mut rec_simd, mut rec_portable) = (Vec::new(), Vec::new());
        sweep_to_tridiagonal(&mut simd, Some(&mut rec_simd));
        sweep_to_tridiagonal_portable(&mut portable, Some(&mut rec_portable));
        assert_eq!(
            simd, portable,
            "n={n} b={b}: band bits depend on the instantiation"
        );
        assert_eq!(
            rec_simd, rec_portable,
            "n={n} b={b}: recorded blocks depend on the instantiation"
        );
        assert!(
            simd.measured_bandwidth(0.0) <= 1,
            "n={n} b={b}: not tridiagonal"
        );
    }
}

#[test]
fn recording_leaves_the_band_bitwise_alone() {
    for (n, b) in SHAPES {
        let (_, band) = banded(n, b, 950 + n as u64);
        let (mut plain, mut recorded) = (band.clone(), band);
        sweep_to_tridiagonal(&mut plain, None);
        sweep_to_tridiagonal(&mut recorded, Some(&mut Vec::new()));
        assert_eq!(plain, recorded, "n={n} b={b}");
    }
}

#[test]
fn blocks_are_the_sweeps_transform_in_a_legal_order() {
    for (n, b) in SHAPES {
        let (dense, mut band) = banded(n, b, 1000 + n as u64);
        let scale = dense.norm_fro().max(1.0);
        let mut blocks = Vec::new();
        sweep_to_tridiagonal(&mut band, Some(&mut blocks));
        let g = sweep_group(b);

        // Shapes: at most g columns, the (b + g − 1)-row trapezoid cut
        // short only by the matrix end; a short last group and a short
        // last position both occur on these ragged shapes.
        for (row0, u, t) in &blocks {
            assert!(u.cols() <= g && (t.rows(), t.cols()) == (u.cols(), u.cols()));
            assert_eq!(
                u.rows(),
                (u.cols() - 1 + b).min(n - row0),
                "n={n} b={b} row0={row0}"
            );
        }
        assert!(
            g == 1 || blocks.iter().any(|(_, u, _)| u.rows() < u.cols() - 1 + b),
            "n={n} b={b}: no block was cut short by the matrix end"
        );
        assert!(
            g == 1 || blocks.iter().any(|(_, u, _)| u.cols() < g),
            "n={n} b={b}: no block narrower than the group"
        );

        // (1) The blocks, in emitted order, are the similarity applied.
        let q = accumulate(n, &blocks);
        let qtaq = matmul(
            &matmul(&q, Trans::T, &dense, Trans::N),
            Trans::N,
            &q,
            Trans::N,
        );
        let diff = qtaq.max_diff(&band.to_dense());
        assert!(diff < 1e-9 * scale, "n={n} b={b}: QᵀAQ ≠ T by {diff}");

        // (2) … and equal the rank-1 reflectors multiplied in the order
        // the sweep generated them: the regrouping only ever swaps
        // reflectors on disjoint rows.
        let mut q1 = Matrix::identity(n);
        for (row, u, tau) in rank1_in_sweep_order(&blocks) {
            for r in 0..n {
                let cells = &mut q1.row_mut(r)[row..row + u.len()];
                let dot: f64 = cells.iter().zip(&u).map(|(x, uc)| x * uc).sum();
                for (x, uc) in cells.iter_mut().zip(&u) {
                    *x -= tau * dot * uc;
                }
            }
        }
        let diff = q.max_diff(&q1);
        assert!(
            diff < 1e-12,
            "n={n} b={b}: block order changed the product by {diff}"
        );

        // (3) Each T is larft's factor of its U.
        for (row0, u, t) in &blocks {
            let taus: Vec<f64> = (0..u.cols()).map(|s| t.get(s, s)).collect();
            let diff = t.max_diff(&form_t(u, &taus));
            assert!(
                diff < 1e-13,
                "n={n} b={b} row0={row0}: T ≠ form_t(U, τ) by {diff}"
            );
        }
    }
}

#[test]
fn an_identity_chase_is_a_zero_column() {
    // Column 0 already eliminated: sweep 1 finds σ² = 0 at every
    // position (no bulge is ever created), so the first group's blocks
    // carry a zero first column in U and in T, and are otherwise what
    // form_t makes of them.
    let (n, b) = (150usize, 32usize);
    assert!(
        sweep_group(b) > 1,
        "the shape must be wide enough to record blocks"
    );
    let mut dense = gen::random_banded(&mut StdRng::seed_from_u64(77), n, b);
    for r in 2..=b {
        dense.set(r, 0, 0.0);
        dense.set(0, r, 0.0);
    }
    let mut band = BandedSym::zeros(n, b, 2 * b);
    for j in 0..n {
        for i in j..n.min(j + b + 1) {
            band.set(i, j, dense.get(i, j));
        }
    }
    let mut blocks = Vec::new();
    sweep_to_tridiagonal(&mut band, Some(&mut blocks));

    // The first group's blocks end at its `j = 1` block, `row0 = 1`.
    let first_group = blocks
        .iter()
        .position(|b| b.0 == 1)
        .expect("position 1 of group 1")
        + 1;
    for (row0, u, t) in &blocks[..first_group] {
        assert!(
            (0..u.rows()).all(|r| u.get(r, 0) == 0.0),
            "row0={row0}: U column 0"
        );
        assert!(
            (0..t.cols()).all(|c| t.get(0, c) == 0.0),
            "row0={row0}: T row 0"
        );
        let taus: Vec<f64> = (0..u.cols()).map(|s| t.get(s, s)).collect();
        assert_eq!(taus[0], 0.0);
        assert!(taus[1..].iter().all(|&tau| tau != 0.0));
        assert!(t.max_diff(&form_t(u, &taus)) < 1e-13, "row0={row0}");
    }
    let q = accumulate(n, &blocks);
    let qtaq = matmul(
        &matmul(&q, Trans::T, &dense, Trans::N),
        Trans::N,
        &q,
        Trans::N,
    );
    assert!(qtaq.max_diff(&band.to_dense()) < 1e-9 * dense.norm_fro());
}

#[test]
fn band_to_tridiagonal_is_one_function_for_values_and_vectors() {
    // Below and above the width from which a block-reflector pass runs
    // first (n = 300 at b = 200 takes it; the others sweep directly),
    // and a band declared narrower than it is: the reduction goes by
    // the larger of the declared and the measured width on both paths.
    for (n, b, declared) in [
        (40usize, 5usize, 5usize),
        (90, 24, 24),
        (300, 200, 200),
        (60, 7, 2),
    ] {
        let dense = gen::random_banded(&mut StdRng::seed_from_u64(1100 + n as u64), n, b);
        let mut band = BandedSym::zeros(n, declared, b);
        for j in 0..n {
            for i in j..n.min(j + b + 1) {
                band.set(i, j, dense.get(i, j));
            }
        }
        let mut blocks = Vec::new();
        let (d, e) = band_to_tridiagonal(&band, Some(&mut blocks));
        assert_eq!(
            (&d, &e),
            (
                &band_to_tridiagonal(&band, None).0,
                &band_to_tridiagonal(&band, None).1
            ),
            "n={n} b={b}: recording changed (d, e)"
        );

        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t.set(i, i, d[i]);
            if i + 1 < n {
                t.set(i + 1, i, e[i]);
                t.set(i, i + 1, e[i]);
            }
        }
        let q = accumulate(n, &blocks);
        let defect = matmul(&q, Trans::T, &q, Trans::N).max_diff(&Matrix::identity(n));
        assert!(defect < 1e-12, "n={n} b={b}: QᵀQ − I = {defect}");
        let qtaq = matmul(
            &matmul(&q, Trans::T, &dense, Trans::N),
            Trans::N,
            &q,
            Trans::N,
        );
        let diff = qtaq.max_diff(&t);
        assert!(
            diff < 1e-9 * dense.norm_fro(),
            "n={n} b={b}: QᵀAQ ≠ T by {diff}"
        );
    }
}
