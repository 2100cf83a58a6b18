//! Property tests for the cache-blocked GEMM: for arbitrary shapes,
//! orientations and α/β, the kernel must agree with a straightforward
//! triple-loop reference to rounding, and with *itself* to the bit —
//! the SIMD and portable instantiations of the tile loop, the
//! `A`-in-place and `A`-packed paths, a cell computed alone or as part
//! of a larger product, and a product that skips a triangular factor's
//! zeros all follow one cell contract (`gemm.rs` module docs). Shapes
//! are drawn on both sides of the packing thresholds so ragged `MR`/`NR`
//! strips, strided operands and the multi-chunk `KC` accumulation are
//! all exercised.

use ca_dla::gemm::{gemm, gemm_view, gemm_view_forced, gemm_view_tri, matmul, Trans, Tri};
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

fn tri_strategy() -> impl Strategy<Value = Tri> {
    (0usize..3).prop_map(|t| [Tri::Full, Tri::Lower, Tri::Upper][t])
}

/// Whether entry `(r, c)` lies in `tri`.
fn inside(tri: Tri, r: usize, c: usize) -> bool {
    match tri {
        Tri::Full => true,
        Tri::Lower => c <= r,
        Tri::Upper => c >= r,
    }
}

/// [`operand`] without padding, with exact zeros where `op(X)` leaves
/// `tri`.
fn structured(rows: usize, cols: usize, t: Trans, tri: Tri, vals: &[f64], salt: usize) -> Matrix {
    let x = operand(rows, cols, t, 0, vals, salt);
    Matrix::from_fn(x.rows(), x.cols(), |i, j| {
        let (r, c) = match t {
            Trans::N => (i, j),
            Trans::T => (j, i),
        };
        if inside(tri, r, c) {
            x.get(i, j)
        } else {
            0.0
        }
    })
}

/// `gemm_view_tri` against `gemm_view` on the same operands: every
/// wanted cell bit for bit, every other one as it was or as computed.
#[allow(clippy::too_many_arguments)]
fn check_tri(
    (m, n, k): (usize, usize, usize),
    (ta, tb): (Trans, Trans),
    tri: [Tri; 3],
    (alpha, beta): (f64, f64),
    vals: &[f64],
) -> Result<(), String> {
    let a = structured(m, k, ta, tri[0], vals, 0);
    let b = structured(k, n, tb, tri[1], vals, 5);
    // Never zero, so no cell's value can hinge on the sign of a zero.
    let c0 = Matrix::from_fn(m, n, |i, j| 1.5 + vals[(i * 13 + j * 3) % vals.len()]);
    let mut full = c0.clone();
    let (av, bv) = (a.view(), b.view());
    gemm_view(alpha, &av, ta, &bv, tb, beta, &mut full.view_mut());
    let mut got = c0.clone();
    gemm_view_tri(alpha, &av, ta, &bv, tb, beta, &mut got.view_mut(), tri);
    for i in 0..m {
        for j in 0..n {
            let (g, f) = (got.get(i, j).to_bits(), full.get(i, j).to_bits());
            let ok = g == f || (!inside(tri[2], i, j) && g == c0.get(i, j).to_bits());
            if !ok {
                return Err(format!(
                    "{m}×{n}×{k} {ta:?},{tb:?} {tri:?}: cell ({i}, {j}) {} ≠ {}",
                    got.get(i, j),
                    full.get(i, j)
                ));
            }
        }
    }
    Ok(())
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

        let run = |pack_a: bool, portable: bool| {
            let mut c = c0.clone();
            let mut cv = c.subview_mut(0, 0, m, n);
            let (av, bv) = (stored_view(&a, pa), stored_view(&b, pb));
            gemm_view_forced(alpha, &av, ta, &bv, tb, beta, &mut cv, (pack_a, portable));
            bits(&c)
        };
        let packed = run(true, false);
        prop_assert!(packed == run(true, true), "micro-kernel: SIMD ≠ portable");
        let in_place = run(false, false);
        prop_assert!(in_place == run(false, true), "small path: SIMD ≠ portable");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The structured product skips a factor's zero triangle and the
    /// unwanted triangle of the output and changes no bit of what it
    /// computes: both triangle orientations on each operand and on `C`,
    /// all four orientations, inner dimensions on both sides of
    /// `KC = 256` (where a zero head may only be cut at a chunk
    /// boundary), extents on both sides of the 32-wide leaf and products
    /// on both sides of the one-call floor (2¹⁶ flops).
    #[test]
    fn triangular_products_match_the_full_product_bitwise(
        dims in (1usize..=130, 1usize..=130),
        k_pick in 0usize..6,
        ta in trans_strategy(),
        tb in trans_strategy(),
        tris in (tri_strategy(), tri_strategy(), tri_strategy()),
        coeffs in (-2.0f64..2.0, -2.0f64..2.0),
        vals in proptest::collection::vec(-1.0f64..1.0, 17usize..=64),
    ) {
        let k = [7usize, 40, 255, 256, 257, 600][k_pick];
        let (alpha, beta) = (coeffs.0 + 2.5, coeffs.1 - 2.5); // never 0 or 1
        let checked = check_tri((dims.0, dims.1, k), (ta, tb), [tris.0, tris.1, tris.2], (alpha, beta), &vals);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }
}

/// The same on shapes whose blocks fork (`2mnk ≥ 2²³` with more than one
/// row slab) and whose rows reach past one and two `KC` chunks of the
/// inner dimension, so a zero head is cut at 256 and 512 — the chase's
/// six structures among them.
#[test]
fn large_triangular_products_match_the_full_product_bitwise() {
    use Tri::{Full, Lower, Upper};
    let vals: Vec<f64> = (0..61).map(|i| (i * 37 % 61) as f64 / 30.5 - 1.0).collect();
    for (dims, trans, tri) in [
        ((300, 290, 600), (Trans::N, Trans::N), [Full, Lower, Full]),
        ((600, 290, 600), (Trans::T, Trans::N), [Upper, Full, Full]),
        ((290, 600, 600), (Trans::N, Trans::T), [Full, Lower, Upper]),
        ((300, 300, 300), (Trans::T, Trans::N), [Lower, Full, Full]),
        ((300, 290, 200), (Trans::N, Trans::T), [Lower, Full, Lower]),
        ((520, 300, 300), (Trans::N, Trans::T), [Full, Upper, Lower]),
        ((300, 300, 290), (Trans::N, Trans::N), [Full, Upper, Full]),
    ] {
        check_tri(dims, trans, tri, (1.0, 1.0), &vals).unwrap();
        check_tri(dims, trans, tri, (-0.75, 0.0), &vals).unwrap();
    }
}

/// A cell computed on a shrunk output (a sub-block of `C`, from the
/// matching rows of `op(A)` and columns of `op(B)`) is bitwise the same
/// cell of the full product — with `op(A)` packed, read in place, and
/// on whichever path the shrunk shape picks. Full shapes on both sides
/// of both packing thresholds (`2mnk` = 2¹⁷ for a transposed `A`, 2²⁵
/// for one as stored), and a forking one.
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
            let mut forced = [Matrix::zeros(mr, nc), Matrix::zeros(mr, nc)];
            for (pack_a, out) in [true, false].into_iter().zip(&mut forced) {
                let mut ov = out.view_mut();
                gemm_view_forced(1.0, &a_sub, ta, &b_sub, tb, 0.0, &mut ov, (pack_a, false));
            }
            let mut plain = Matrix::zeros(mr, nc);
            gemm_view(1.0, &a_sub, ta, &b_sub, tb, 0.0, &mut plain.view_mut());
            for i in 0..mr {
                for j in 0..nc {
                    let want = full.get(r0 + i, c0 + j).to_bits();
                    for (path, got) in ["packed", "in place", "own path"]
                        .iter()
                        .zip([&forced[0], &forced[1], &plain])
                    {
                        assert_eq!(
                            got.get(i, j).to_bits(),
                            want,
                            "{m}×{n}×{k} {ta:?},{tb:?}: {path} cell ({i}, {j})"
                        );
                    }
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
