//! Property tests for the recursive Householder QR (`ca_dla::qr`).
//!
//! For tall, square and wide shapes — single rows and columns, widths
//! one either side of the recursion's leaf (8 columns) and of its first
//! splits, odd splits — with zero columns and exactly repeated columns
//! mixed in, the factors must satisfy what every caller relies on:
//! `Q = I − U·T·Uᵀ` orthogonal, `A = Q·R`, `R` upper-trapezoidal, and
//! the `T` the recursion assembles by GEMM equal to the one the BLAS-1
//! `form_t` builds from the same `U` and `τ` (`τ = 0`, the reflector of
//! an already-eliminated column, must leave a zero `T` column). The
//! fully recursive `nb = 1` factorisation — single-column leaves, the
//! unblocked elimination order — is the oracle for the default one.

use ca_dla::gemm::{matmul, Trans};
use ca_dla::qr::{explicit_q, form_t, qr_factor};
use ca_dla::Matrix;
use proptest::prelude::*;

/// What is done to one column of a random matrix before factoring it.
#[derive(Debug, Clone, Copy)]
enum Degenerate {
    Nothing,
    /// Column `j mod n` is set to zero.
    ZeroColumn(usize),
    /// Column `j mod n` becomes a bitwise copy of column `i mod n`.
    RepeatedColumn(usize, usize),
}

fn input(m: usize, n: usize, vals: &[f64], boost: f64, how: Degenerate) -> Matrix {
    let mut a = Matrix::from_fn(m, n, |i, j| {
        vals[(i * 31 + j * 7 + i * j) % vals.len()] + if i == j { boost } else { 0.0 }
    });
    match how {
        Degenerate::Nothing => {}
        Degenerate::ZeroColumn(j) => {
            for i in 0..m {
                a.set(i, j % n, 0.0);
            }
        }
        Degenerate::RepeatedColumn(from, to) => {
            for i in 0..m {
                a.set(i, to % n, a.get(i, from % n));
            }
        }
    }
    a
}

/// The invariants of one factorisation.
fn check_factors(a: &Matrix, nb: usize, how: Degenerate) {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let f = qr_factor(a, nb);
    let ctx = format!("{m}×{n}, nb = {nb}, {how:?}");
    assert_eq!((f.u.rows(), f.u.cols()), (m, k), "{ctx}");
    assert_eq!((f.t.rows(), f.t.cols()), (k, k), "{ctx}");
    assert_eq!((f.r.rows(), f.r.cols()), (k, n), "{ctx}");

    // U unit lower-trapezoidal, T upper-triangular, R upper-trapezoidal:
    // exact zeros and ones, not small numbers.
    for i in 0..m {
        for j in 0..k {
            if i == j {
                assert_eq!(f.u.get(i, j), 1.0, "{ctx}: U diagonal");
            } else if i < j {
                assert_eq!(f.u.get(i, j), 0.0, "{ctx}: U above the diagonal");
            }
        }
    }
    for i in 0..k {
        for j in 0..i {
            assert_eq!(f.t.get(i, j), 0.0, "{ctx}: T below the diagonal");
            assert_eq!(f.r.get(i, j), 0.0, "{ctx}: R below the diagonal");
        }
    }

    let scale = a.norm_max().max(1.0);
    let tol = 1e-13 * (m + n) as f64;
    let q = explicit_q(&f.u, &f.t, m);
    let qtq = matmul(&q, Trans::T, &q, Trans::N);
    let orth = qtq.max_diff(&Matrix::identity(m));
    assert!(orth < tol, "{ctx}: ‖QᵀQ − I‖ = {orth:e}");
    let mut r_full = Matrix::zeros(m, n);
    r_full.set_block(0, 0, &f.r);
    let resid = matmul(&q, Trans::N, &r_full, Trans::N).max_diff(a);
    assert!(resid < tol * scale, "{ctx}: ‖A − QR‖ = {resid:e}");

    // The GEMM-assembled T against larft on the same U and τ.
    let taus: Vec<f64> = (0..k).map(|j| f.t.get(j, j)).collect();
    let t_diff = f.t.max_diff(&form_t(&f.u, &taus));
    assert!(t_diff <= 1e-13 * k as f64, "{ctx}: T differs from form_t by {t_diff:e}");
    for (j, &tau) in taus.iter().enumerate() {
        assert!((0.0..=2.0).contains(&tau), "{ctx}: τ[{j}] = {tau}");
        if tau == 0.0 {
            for i in 0..k {
                assert_eq!(f.t.get(i, j), 0.0, "{ctx}: τ[{j}] = 0 but T[{i}][{j}] ≠ 0");
            }
        }
    }
    if let Degenerate::ZeroColumn(j) = how {
        if j % n < k {
            assert_eq!(taus[j % n], 0.0, "{ctx}: a zero column needs no reflector");
        }
    }
}

/// Default factorisation against the single-column recursion.
fn check_against_unblocked(a: &Matrix, how: Degenerate) {
    let (fast, oracle) = (qr_factor(a, usize::MAX), qr_factor(a, 1));
    let scale = a.norm_max().max(1.0);
    for (name, x, y) in [
        ("R", &fast.r, &oracle.r),
        ("U", &fast.u, &oracle.u),
        ("T", &fast.t, &oracle.t),
    ] {
        let d = x.max_diff(y);
        assert!(
            d < 1e-12 * scale,
            "{}×{} {how:?}: {name} differs from the nb = 1 oracle by {d:e}",
            a.rows(),
            a.cols()
        );
    }
}

fn degenerate_strategy() -> impl Strategy<Value = Degenerate> {
    (0usize..=3, 0usize..64, 0usize..64).prop_map(|(kind, i, j)| match kind {
        0 | 1 => Degenerate::Nothing,
        2 => Degenerate::ZeroColumn(j),
        _ => Degenerate::RepeatedColumn(i, j),
    })
}

/// Shapes a random draw rarely lands on: `n = 1`, `m = 1`, the leaf
/// width 8 and one either side of it, nodes that split into a full and a
/// ragged leaf (9, 17, 25), odd halves (2·8 + 1 rows of leaves), the
/// same widths square and wide.
const CORNERS: [(usize, usize); 20] = [
    (1, 1),
    (7, 1),
    (1, 7),
    (2, 2),
    (7, 7),
    (8, 8),
    (9, 9),
    (40, 7),
    (40, 8),
    (40, 9),
    (33, 15),
    (33, 16),
    (33, 17),
    (64, 24),
    (64, 25),
    (50, 41),
    (9, 30),
    (8, 17),
    (17, 40),
    (96, 48),
];

#[test]
fn corner_shapes_hold_the_invariants() {
    let vals: Vec<f64> = (0..53).map(|i| ((i * i + 3) as f64).sin()).collect();
    for (m, n) in CORNERS {
        for how in [
            Degenerate::Nothing,
            Degenerate::ZeroColumn(n / 2),
            Degenerate::ZeroColumn(0),
            Degenerate::RepeatedColumn(0, n - 1),
        ] {
            for nb in [usize::MAX, 1, 3] {
                check_factors(&input(m, n, &vals, 0.0, how), nb, how);
            }
            if !matches!(how, Degenerate::RepeatedColumn(..)) {
                check_against_unblocked(&input(m, n, &vals, 4.0, how), how);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn factors_are_orthogonal_triangular_and_reproduce_a(
        dims in (1usize..=96, 1usize..=64),
        how in degenerate_strategy(),
        nb in (0usize..=2).prop_map(|c| [usize::MAX, 1, 5][c]),
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        let (m, n) = dims;
        check_factors(&input(m, n, &vals, 0.0, how), nb, how);
    }

    /// A repeated column leaves a column of rounding noise to reflect,
    /// and what a reflector built from noise does to the columns after
    /// it is not a property of the matrix — so the comparison runs on
    /// zero columns (eliminated exactly on both paths) and on nothing.
    /// The diagonal boost keeps the factors well conditioned: `R` is
    /// unique, but only as well determined as `A` allows.
    #[test]
    fn default_path_matches_the_single_column_recursion(
        dims in (1usize..=96, 1usize..=64),
        zero in (0usize..=1, 0usize..64),
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        let (m, n) = dims;
        let how = if zero.0 == 1 { Degenerate::ZeroColumn(zero.1) } else { Degenerate::Nothing };
        check_against_unblocked(&input(m, n, &vals, 4.0, how), how);
    }
}
