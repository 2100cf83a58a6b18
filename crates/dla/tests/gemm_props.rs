//! Property tests for the cache-blocked GEMM: for arbitrary shapes,
//! orientations and α/β, the kernel must agree with a straightforward
//! triple-loop reference to rounding, and with *itself* to the bit —
//! the SIMD and portable instantiations of the tile loop, the
//! `A`-in-place and `A`-packed paths, and a cell computed alone or as
//! part of a larger product all follow one cell contract (`gemm.rs`
//! module docs). Shapes are drawn on both sides of the packing
//! thresholds so ragged `MR`/`NR` strips, strided operands and the
//! multi-chunk `KC` accumulation are all exercised.

use ca_dla::gemm::{gemm, gemm_view, gemm_view_hinted, gemm_view_hinted_portable, matmul, Trans};
use ca_dla::{Matrix, MatrixView};
use proptest::prelude::*;

/// Triple-loop reference: `β·C + α·op(A)·op(B)`.
fn reference(
    alpha: f64,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    beta: f64,
    c0: &Matrix,
) -> Matrix {
    let a_eff = match ta {
        Trans::N => a.clone(),
        Trans::T => a.transpose(),
    };
    let b_eff = match tb {
        Trans::N => b.clone(),
        Trans::T => b.transpose(),
    };
    let (m, k, n) = (a_eff.rows(), a_eff.cols(), b_eff.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0;
            for l in 0..k {
                s += a_eff.get(i, l) * b_eff.get(l, j);
            }
            c.set(i, j, beta * c0.get(i, j) + alpha * s);
        }
    }
    c
}

fn trans_strategy() -> impl Strategy<Value = Trans> {
    (0usize..=1).prop_map(|t| if t == 0 { Trans::N } else { Trans::T })
}

fn fill(rows: usize, cols: usize, vals: Vec<f64>) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| vals[(i * cols + j) % vals.len()])
}

/// A shape hint on the read-in-place side of every packing threshold.
const HINT_IN_PLACE: (usize, usize, usize) = (1, 1, 1);
/// A shape hint on the packed side of every packing threshold.
const HINT_PACKED: (usize, usize, usize) = (1 << 10, 1 << 10, 1 << 10);

/// `op(X)` of shape `rows × cols`, stored in the orientation `t` asks
/// for inside a parent `pad` columns wider (so the view is strided).
fn operand(rows: usize, cols: usize, t: Trans, pad: usize, vals: &[f64], salt: usize) -> Matrix {
    let (r, c) = match t {
        Trans::N => (rows, cols),
        Trans::T => (cols, rows),
    };
    Matrix::from_fn(r, c + pad, |i, j| {
        vals[(salt + i * 31 + j * 7) % vals.len()]
    })
}

fn stored_view(parent: &Matrix, pad: usize) -> MatrixView<'_> {
    parent.subview(0, 0, parent.rows(), parent.cols() - pad)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_gemm_matches_reference(
        dims in (1usize..=160, 1usize..=96, 1usize..=160),
        ta in trans_strategy(),
        tb in trans_strategy(),
        coeffs in (-2.0f64..2.0, -2.0f64..2.0),
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        let (m, k, n) = dims;
        let (alpha, beta) = coeffs;
        let a = match ta {
            Trans::N => fill(m, k, vals.clone()),
            Trans::T => fill(k, m, vals.clone()),
        };
        let b = match tb {
            Trans::N => fill(k, n, vals.clone()),
            Trans::T => fill(n, k, vals.clone()),
        };
        let c0 = fill(m, n, vals);

        let mut c = c0.clone();
        gemm(alpha, &a, ta, &b, tb, beta, &mut c);
        let want = reference(alpha, &a, ta, &b, tb, beta, &c0);

        let tol = 1e-12 * (k as f64 + 1.0);
        prop_assert!(
            c.max_diff(&want) < tol,
            "m={m} k={k} n={n} ta={ta:?} tb={tb:?} α={alpha} β={beta}: diff {}",
            c.max_diff(&want)
        );
    }

    #[test]
    fn gemm_distributes_over_scaled_inputs(
        dims in (8usize..=80, 4usize..=48, 8usize..=80),
        scale in 0.25f64..4.0,
        vals in proptest::collection::vec(-1.0f64..1.0, 23usize..=64),
    ) {
        // α·(sA)·B == (αs)·A·B — the blocked kernel must be linear in α.
        let (m, k, n) = dims;
        let a = fill(m, k, vals.clone());
        let b = fill(k, n, vals);
        let mut sa = a.clone();
        sa.scale(scale);

        let mut c1 = Matrix::zeros(m, n);
        gemm(1.0, &sa, Trans::N, &b, Trans::N, 0.0, &mut c1);
        let mut c2 = Matrix::zeros(m, n);
        gemm(scale, &a, Trans::N, &b, Trans::N, 0.0, &mut c2);

        let tol = 1e-11 * (k as f64 + 1.0);
        prop_assert!(c1.max_diff(&c2) < tol, "diff {}", c1.max_diff(&c2));
    }

    /// The SIMD and portable instantiations of the tile loop agree
    /// bitwise — through the packed-`A` micro-kernel and through the
    /// `A`-in-place small path, which in turn agree with each other —
    /// over ragged shapes (row counts across the `MC` slab boundary),
    /// all four orientations, strided `A`, `B` and `C`, general α/β,
    /// and inner dimensions on both sides of the `KC = 256` chunk
    /// boundary. On a host without AVX2 + FMA both sides are the
    /// portable body and this only checks the two paths.
    #[test]
    fn simd_and_portable_kernels_agree_bitwise(
        dims in (1usize..=110, 1usize..=21),
        k_pick in 0usize..5,
        ta in trans_strategy(),
        tb in trans_strategy(),
        pads in (0usize..=3, 0usize..=3, 0usize..=3),
        coeffs in (-2.0f64..2.0, -2.0f64..2.0),
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        let (m, n) = dims;
        let k = [1usize, 255, 256, 257, 600][k_pick];
        let (alpha, beta) = (coeffs.0 + 2.5, coeffs.1 - 2.5); // never 0 or 1
        let (pa, pb, pc) = pads;
        let a = operand(m, k, ta, pa, &vals, 0);
        let b = operand(k, n, tb, pb, &vals, 5);
        let c0 = operand(m, n, Trans::N, pc, &vals, 11);

        let run = |portable: bool, hint: (usize, usize, usize)| {
            let mut c = c0.clone();
            let mut cv = c.subview_mut(0, 0, m, n);
            let (av, bv) = (stored_view(&a, pa), stored_view(&b, pb));
            if portable {
                gemm_view_hinted_portable(alpha, &av, ta, &bv, tb, beta, &mut cv, hint);
            } else {
                gemm_view_hinted(alpha, &av, ta, &bv, tb, beta, &mut cv, hint);
            }
            bits(&c)
        };
        let packed = run(false, HINT_PACKED);
        prop_assert!(packed == run(true, HINT_PACKED), "micro-kernel: SIMD ≠ portable");
        let in_place = run(false, HINT_IN_PLACE);
        prop_assert!(in_place == run(true, HINT_IN_PLACE), "small path: SIMD ≠ portable");
        prop_assert!(packed == in_place, "packed A ≠ A in place");
        // The padding columns of C are not the product's to touch.
        let mut c = c0.clone();
        gemm_view(alpha, &stored_view(&a, pa), ta, &stored_view(&b, pb), tb, beta,
            &mut c.subview_mut(0, 0, m, n));
        for i in 0..m {
            for j in n..n + pc {
                prop_assert!(c.get(i, j) == c0.get(i, j), "padding cell ({i}, {j}) written");
            }
        }
    }
}

/// The `gemm_view_hinted` contract: a cell computed on a shrunk output
/// (a sub-block of `C`, from the matching rows of `op(A)` and columns of
/// `op(B)`) is bitwise the same cell of the full product — with the
/// full shape as hint, and with no hint at all (the shrunk shape then
/// picks its own path). Full shapes on both sides of both packing
/// thresholds (`2mnk` = 2¹⁷ for a transposed `A`, 2²⁵ for one as
/// stored), and a forking one.
#[test]
fn shrunk_output_cells_match_the_full_product_bitwise() {
    let val = |i: usize, j: usize, s: usize| (((i * 37 + j * 11 + s) % 29) as f64) * 0.0625 - 0.9;
    for &(m, n, k) in &[(20, 30, 16), (40, 41, 39), (64, 64, 64), (300, 290, 200)] {
        for (ta, tb) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let a = match ta {
                Trans::N => Matrix::from_fn(m, k, |i, j| val(i, j, 1)),
                Trans::T => Matrix::from_fn(k, m, |i, j| val(j, i, 1)),
            };
            let b = match tb {
                Trans::N => Matrix::from_fn(k, n, |i, j| val(i, j, 2)),
                Trans::T => Matrix::from_fn(n, k, |i, j| val(j, i, 2)),
            };
            let full = matmul(&a, ta, &b, tb);
            // An off-tile, off-slab corner of the output.
            let (r0, c0) = (m / 3 + 1, n / 2 + 3);
            let (mr, nc) = (m - r0 - 1, n - c0 - 2);
            let a_sub = match ta {
                Trans::N => a.subview(r0, 0, mr, k),
                Trans::T => a.subview(0, r0, k, mr),
            };
            let b_sub = match tb {
                Trans::N => b.subview(0, c0, k, nc),
                Trans::T => b.subview(c0, 0, nc, k),
            };
            let mut hinted = Matrix::zeros(mr, nc);
            gemm_view_hinted(
                1.0,
                &a_sub,
                ta,
                &b_sub,
                tb,
                0.0,
                &mut hinted.view_mut(),
                (m, n, k),
            );
            let mut plain = Matrix::zeros(mr, nc);
            gemm_view(1.0, &a_sub, ta, &b_sub, tb, 0.0, &mut plain.view_mut());
            for i in 0..mr {
                for j in 0..nc {
                    let want = full.get(r0 + i, c0 + j).to_bits();
                    assert_eq!(
                        hinted.get(i, j).to_bits(),
                        want,
                        "{m}×{n}×{k} {ta:?},{tb:?}: hinted cell ({i}, {j})"
                    );
                    assert_eq!(
                        plain.get(i, j).to_bits(),
                        want,
                        "{m}×{n}×{k} {ta:?},{tb:?}: unhinted cell ({i}, {j})"
                    );
                }
            }
        }
    }
}

/// A forked product (row slabs on the pool) equals the same product
/// computed one slab-sized call at a time — calls of at most 96 rows
/// never fork — bit for bit: which thread computes a slab, and whether
/// any other slab is computed at all, cannot reach its cells.
#[test]
fn forked_product_matches_unforked_slabs_bitwise() {
    let (m, n, k) = (300usize, 290usize, 200usize); // 2mnk ≥ 2²³: forks
    let a = Matrix::from_fn(m, k, |i, j| {
        (((i * 37 + j * 11) % 29) as f64) * 0.0625 - 0.9
    });
    let b = Matrix::from_fn(k, n, |i, j| {
        (((i * 13 + j * 7) % 31) as f64) * 0.03125 - 0.5
    });
    let forked = matmul(&a, Trans::N, &b, Trans::N);
    let mut slabwise = Matrix::zeros(m, n);
    for r0 in (0..m).step_by(96) {
        let rows = 96.min(m - r0);
        gemm_view(
            1.0,
            &a.subview(r0, 0, rows, k),
            Trans::N,
            &b.view(),
            Trans::N,
            0.0,
            &mut slabwise.subview_mut(r0, 0, rows, n),
        );
    }
    assert!(bits(&forked) == bits(&slabwise), "forking changed bits");
}
