//! Property tests for the recursive triangular family (`ca_dla::lu`):
//! non-pivoted LU (plain and signed), left and right triangular solves
//! and triangular inversion, each against its scalar `*_reference`
//! oracle.
//!
//! Inputs are diagonally dominant (the only kind Corollary III.7 hands
//! these kernels), orders run from 1 to 96 with the leaves (16, and 32
//! for LU) and one either side of them, odd orders and orders that split
//! into a full and a ragged leaf; both triangles, `Unit`/`NonUnit`, both `transposed`
//! values and 1..=40 right-hand sides. Beyond agreement to `1e-12·n` the
//! kernels must satisfy what their callers rely on — `T·T⁻¹ = I`,
//! `L·U = A − S` with `|pivot| ≥ 1` for the signed variant, exact zeros
//! outside the triangles — and their bits must not depend on the pool:
//! a subprocess per `RAYON_NUM_THREADS` ∈ {1, 4} hashes results at
//! sizes whose GEMMs fork.

use ca_dla::gemm::{matmul, Trans};
use ca_dla::lu::{
    lu_nopivot, lu_nopivot_signed, tri_inverse, trsm_left, trsm_right, Diag, Triangle,
};
use ca_dla::oracle::{
    lu_nopivot_reference, lu_nopivot_signed_reference, tri_inverse_reference, trsm_left_reference,
    trsm_right_reference,
};
use ca_dla::Matrix;
use proptest::prelude::*;
use std::process::Command;

/// A diagonally dominant `n × n` matrix drawn from `vals`; `flip`
/// alternates the sign of the diagonal so signed LU sees both choices.
fn dominant(n: usize, vals: &[f64], flip: bool) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = vals[(i * 31 + j * 7 + i * j) % vals.len()];
        if i == j {
            let d = n as f64 + v;
            if flip && i % 3 == 1 {
                -d
            } else {
                d
            }
        } else {
            v
        }
    })
}

/// The `tri` triangle of `a`; the other triangle is filled with junk
/// the kernels must never read, and with `Unit` so is the diagonal.
fn triangle_of(a: &Matrix, tri: Triangle, diag: Diag) -> Matrix {
    Matrix::from_fn(a.rows(), a.cols(), |i, j| {
        let inside = match tri {
            Triangle::Lower => j < i,
            Triangle::Upper => j > i,
        };
        if inside || (i == j && matches!(diag, Diag::NonUnit)) {
            a.get(i, j)
        } else {
            f64::NAN
        }
    })
}

/// `op(T)` of a stored triangle as a dense matrix (unit diagonal made
/// explicit, the other triangle zero).
fn dense_op(t: &Matrix, tri: Triangle, diag: Diag, transposed: bool) -> Matrix {
    let n = t.rows();
    let stored = Matrix::from_fn(n, n, |i, j| {
        let inside = match tri {
            Triangle::Lower => j < i,
            Triangle::Upper => j > i,
        };
        if i == j {
            match diag {
                Diag::Unit => 1.0,
                Diag::NonUnit => t.get(i, i),
            }
        } else if inside {
            t.get(i, j)
        } else {
            0.0
        }
    });
    if transposed {
        stored.transpose()
    } else {
        stored
    }
}

fn rhs(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| vals[(i * 13 + j * 5 + 1) % vals.len()])
}

const TRIANGLES: [Triangle; 2] = [Triangle::Lower, Triangle::Upper];
const DIAGS: [Diag; 2] = [Diag::Unit, Diag::NonUnit];

fn check_lu(n: usize, vals: &[f64]) {
    let tol = 1e-12 * n as f64;
    let a = dominant(n, vals, false);
    let (l, u) = lu_nopivot(&a);
    let (lr, ur) = lu_nopivot_reference(&a);
    assert!(
        l.max_diff(&lr) <= tol,
        "n = {n}: L off the oracle by {:e}",
        l.max_diff(&lr)
    );
    assert!(
        u.max_diff(&ur) <= tol * n as f64,
        "n = {n}: U off the oracle by {:e}",
        u.max_diff(&ur)
    );
    let back = matmul(&l, Trans::N, &u, Trans::N).max_diff(&a);
    assert!(back <= tol * n as f64, "n = {n}: ‖L·U − A‖ = {back:e}");

    let a = dominant(n, vals, true);
    // Orthonormal-like scale: the signed variant is built for entries of
    // magnitude ≤ 1, where each pivot ends up at least 1 in magnitude.
    let mut q = a.clone();
    q.scale(1.0 / (2.0 * n as f64));
    let (l, u, s) = lu_nopivot_signed(&q);
    let (lr, ur, sr) = lu_nopivot_signed_reference(&q);
    assert_eq!(s, sr, "n = {n}: sign choices differ from the oracle");
    assert!(
        l.max_diff(&lr) <= tol,
        "n = {n}: signed L off the oracle by {:e}",
        l.max_diff(&lr)
    );
    assert!(
        u.max_diff(&ur) <= tol,
        "n = {n}: signed U off the oracle by {:e}",
        u.max_diff(&ur)
    );
    let mut a_minus_s = q.clone();
    for (i, si) in s.iter().enumerate() {
        assert!(si.abs() == 1.0, "n = {n}: s[{i}] = {si}");
        a_minus_s.add_to(i, i, -si);
        assert!(
            u.get(i, i).abs() >= 1.0,
            "n = {n}: |pivot {i}| = {}",
            u.get(i, i).abs()
        );
    }
    let back = matmul(&l, Trans::N, &u, Trans::N).max_diff(&a_minus_s);
    assert!(back <= tol, "n = {n}: ‖L·U − (A − S)‖ = {back:e}");
    for (f, strictly_zero_above) in [(&l, true), (&u, false)] {
        for i in 0..n {
            for j in 0..n {
                if (strictly_zero_above && j > i) || (!strictly_zero_above && j < i) {
                    assert_eq!(f.get(i, j), 0.0, "n = {n}: ({i}, {j}) outside the triangle");
                }
            }
            if strictly_zero_above {
                assert_eq!(f.get(i, i), 1.0, "n = {n}: L's diagonal");
            }
        }
    }
}

fn check_solves(n: usize, nrhs: usize, vals: &[f64]) {
    let tol = 1e-12 * n as f64;
    let a = dominant(n, vals, true);
    for tri in TRIANGLES {
        for diag in DIAGS {
            // A unit triangle is only well conditioned if what lies
            // beside the diagonal is small.
            let mut src = a.clone();
            if matches!(diag, Diag::Unit) {
                src.scale(1.0 / n as f64);
            }
            let t = triangle_of(&src, tri, diag);
            for transposed in [false, true] {
                let ctx =
                    format!("n = {n}, {nrhs} rhs, {tri:?}/{diag:?}/transposed = {transposed}");
                let op = dense_op(&t, tri, diag, transposed);
                let scale = op.norm_max().max(1.0);

                let b = rhs(n, nrhs, vals);
                let (mut x, mut xr) = (b.clone(), b.clone());
                trsm_left(&t, tri, diag, transposed, &mut x);
                trsm_left_reference(&t, tri, diag, transposed, &mut xr);
                assert!(
                    x.max_diff(&xr) <= tol,
                    "{ctx}: left solve off the oracle by {:e}",
                    x.max_diff(&xr)
                );
                let back = matmul(&op, Trans::N, &x, Trans::N).max_diff(&b);
                assert!(back <= tol * scale, "{ctx}: ‖op(T)·X − B‖ = {back:e}");

                let b = rhs(nrhs, n, vals);
                let (mut x, mut xr) = (b.clone(), b.clone());
                trsm_right(&t, tri, diag, transposed, &mut x);
                trsm_right_reference(&t, tri, diag, transposed, &mut xr);
                assert!(
                    x.max_diff(&xr) <= tol,
                    "{ctx}: right solve off the oracle by {:e}",
                    x.max_diff(&xr)
                );
                let back = matmul(&x, Trans::N, &op, Trans::N).max_diff(&b);
                assert!(back <= tol * scale, "{ctx}: ‖X·op(T) − B‖ = {back:e}");
            }

            let ctx = format!("n = {n}, {tri:?}/{diag:?}");
            let inv = tri_inverse(&t, tri, diag);
            let inv_ref = tri_inverse_reference(&t, tri, diag);
            assert!(
                inv.max_diff(&inv_ref) <= tol,
                "{ctx}: inverse off the oracle by {:e}",
                inv.max_diff(&inv_ref)
            );
            let op = dense_op(&t, tri, diag, false);
            let eye = matmul(&op, Trans::N, &inv, Trans::N).max_diff(&Matrix::identity(n));
            assert!(eye <= tol, "{ctx}: ‖T·T⁻¹ − I‖ = {eye:e}");
            for i in 0..n {
                for j in 0..n {
                    let outside = match tri {
                        Triangle::Lower => j > i,
                        Triangle::Upper => j < i,
                    };
                    if outside {
                        assert_eq!(inv.get(i, j), 0.0, "{ctx}: ({i}, {j}) outside the triangle");
                    }
                }
            }
        }
    }
}

/// Orders a random draw rarely lands on: 1 and 2, the leaf and one
/// either side, a full plus a ragged leaf (17, 33), odd halves, the top.
const CORNER_ORDERS: [usize; 14] = [1, 2, 3, 15, 16, 17, 31, 32, 33, 47, 48, 49, 65, 96];

#[test]
fn corner_orders_hold_the_invariants() {
    let vals: Vec<f64> = (0..53).map(|i| ((i * i + 3) as f64).sin()).collect();
    for n in CORNER_ORDERS {
        check_lu(n, &vals);
        for nrhs in [1, 7, 40] {
            check_solves(n, nrhs, &vals);
        }
    }
}

#[test]
#[should_panic(expected = "zero pivot at 40")]
fn a_zero_pivot_past_the_first_leaf_is_reported_where_it_is() {
    // Identity except for a 2×2 block [0 1; 1 1] at rows 40, 41: the
    // leading minor of order 41 is singular, and row 40 lies in the
    // recursion's trailing block (48 splits 32 + 16).
    let mut a = Matrix::identity(48);
    a.set(40, 40, 0.0);
    a.set(40, 41, 1.0);
    a.set(41, 40, 1.0);
    let _ = lu_nopivot(&a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lu_matches_its_oracle_and_reproduces_a(
        n in 1usize..=96,
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        check_lu(n, &vals);
    }

    #[test]
    fn solves_and_inverses_match_their_oracles(
        n in 1usize..=96,
        nrhs in 1usize..=40,
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        check_solves(n, nrhs, &vals);
    }
}

// ───────────────────────── bits do not depend on the pool ─────────────────────────

fn fnv(h: &mut u64, m: &Matrix) {
    for v in m.data() {
        *h = (*h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Subprocess payload: every kernel once at an order whose GEMMs are
/// above the fork threshold, hashed.
#[test]
#[ignore = "subprocess payload for bits_do_not_depend_on_the_pool"]
fn inner_emit_hash() {
    let n = 384;
    let vals: Vec<f64> = (0..61).map(|i| ((i * 7 + 1) as f64).cos()).collect();
    let a = dominant(n, &vals, true);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (l, u) = lu_nopivot(&a);
    fnv(&mut h, &l);
    fnv(&mut h, &u);
    let mut q = a.clone();
    q.scale(1.0 / (2.0 * n as f64));
    let (ls, us, _) = lu_nopivot_signed(&q);
    fnv(&mut h, &ls);
    fnv(&mut h, &us);
    for (tri, t) in [(Triangle::Lower, &l), (Triangle::Upper, &u)] {
        let diag = if matches!(tri, Triangle::Lower) {
            Diag::Unit
        } else {
            Diag::NonUnit
        };
        for transposed in [false, true] {
            let mut x = rhs(n, 320, &vals);
            trsm_left(t, tri, diag, transposed, &mut x);
            fnv(&mut h, &x);
            let mut x = rhs(320, n, &vals);
            trsm_right(t, tri, diag, transposed, &mut x);
            fnv(&mut h, &x);
        }
        fnv(&mut h, &tri_inverse(t, tri, diag));
    }
    println!(
        "HASH={h:016x} THREADS={}",
        ca_dla::rt::current_num_threads()
    );
}

#[test]
fn bits_do_not_depend_on_the_pool() {
    let leg = |threads: &str| -> String {
        let exe = std::env::current_exe().expect("test binary path");
        let out = Command::new(exe)
            .args(["--ignored", "--exact", "inner_emit_hash", "--nocapture"])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn test subprocess");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "leg RAYON_NUM_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find(|l| l.contains("HASH="))
            .unwrap_or_else(|| panic!("no HASH line:\n{stdout}"));
        assert!(
            line.contains(&format!("THREADS={threads}")),
            "the leg ignored RAYON_NUM_THREADS: {line}"
        );
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix("HASH="))
            .expect("HASH field")
            .to_string()
    };
    assert_eq!(leg("4"), leg("1"), "4 threads changed the bits");
}
