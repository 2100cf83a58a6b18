//! Test oracles: the forms of this crate's kernels that no solve runs.
//!
//! Each production module holds one implementation of each operation;
//! what it replaced, or an instance of it no host would pick, lives here
//! so that `tests/` can hold the production kernel to it:
//!
//! * the seed's dense-window chase ([`execute_chase_reference`]), the
//!   bitwise oracle of [`crate::bulge`]'s banded kernel
//!   (`tests/kernel_equivalence.rs`);
//! * the scalar triangular family ([`lu_nopivot_reference`] and its four
//!   siblings), which [`crate::lu`]'s recursions match to rounding
//!   (`tests/tri_props.rs`);
//! * LAPACK's BLAS-1 `larft` ([`form_t`]), which the QR recursion's
//!   GEMM-assembled `T` and the sweep's recorded blocks are checked
//!   against (`tests/qr_props.rs`, `tests/sweep_props.rs`);
//! * Streaming-MM's numerics as each simulated rank computed them
//!   ([`streaming_mm_partials_reference`]), the bitwise oracle of
//!   `ca_pla::streaming`'s one product per inner block
//!   (`crates/pla/tests/streaming_props.rs`);
//! * the divide-and-conquer merge on the dense block-diagonal carrier
//!   ([`dnc_eigen_reference`], [`dnc_eigenvalues_reference`]), the
//!   bitwise oracle of [`crate::dnc`]'s merge on row halves (its unit
//!   tests);
//! * the portable instance of the band sweep
//!   ([`sweep_to_tridiagonal_portable`]) and a GEMM with both of its free
//!   choices forced ([`gemm_view_forced`]), which must agree with what
//!   the host runs bit for bit (`tests/sweep_props.rs`,
//!   `tests/gemm_props.rs`).
//!
//! Nothing outside tests calls this module.

use crate::band::BandedSym;
use crate::bulge::{BlockReflector, ChaseOp};
use crate::dnc::{self, ColSrc, MergePlan};
use crate::gemm::{self, gemm, matmul, Tile, Trans};
use crate::lu::{op_is_lower, unpack_lu, Diag, Triangle};
use crate::matrix::Matrix;
use crate::qr::qr_factor;
use crate::tridiag::NoConvergence;
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::with_ws;

/// The seed's dense-window chase: extract copies of the QR block and
/// update panels with `block`/`set_block`, allocate every temporary.
/// Kept verbatim as the bitwise oracle for the zero-copy engine.
pub fn chase_window_update_factors_reference(d: &mut Matrix, op: &ChaseOp) -> (Matrix, Matrix) {
    let (lo, _hi) = op.window();
    let nr = op.nr();
    let h = op.h();
    let nc = op.nc();
    let qr_r = op.qr_rows.0 - lo;
    let qr_c = op.qr_cols.0 - lo;
    let up_c = op.up_cols.0 - lo;

    // Line 16: [U, T, R] ← QR(B[I_qr.rs, I_qr.cs]).
    let block = d.block(qr_r, qr_c, nr, h);
    let f = qr_factor(&block, usize::MAX);
    let kk = f.k();

    // Line 17: B[I_qr.rs, I_qr.cs] = [R; 0] and its mirror.
    let mut r_full = Matrix::zeros(nr, h);
    r_full.set_block(0, 0, &f.r);
    d.set_block(qr_r, qr_c, &r_full);
    d.set_block(qr_c, qr_r, &r_full.transpose());

    // Line 19: W = B[I_up.cs, I_qr.rs]·U·T, V = −W.
    let bup = d.block(up_c, qr_r, nc, nr);
    let bu = matmul(&bup, Trans::N, &f.u, Trans::N);
    let w = matmul(&bu, Trans::N, &f.t, Trans::N); // nc × kk
    let mut v = w.clone();
    v.scale(-1.0);

    // Line 20: V[I_v.rs, :] += ½·U·(Tᵀ·(Uᵀ·W[I_v.rs, :])).
    let w_sym = w.block(op.ov, 0, nr, kk);
    let utw = matmul(&f.u, Trans::T, &w_sym, Trans::N); // kk × kk
    let ttutw = matmul(&f.t, Trans::T, &utw, Trans::N);
    let corr = matmul(&f.u, Trans::N, &ttutw, Trans::N); // nr × kk
    for a in 0..nr {
        for c in 0..kk {
            v.add_to(op.ov + a, c, 0.5 * corr.get(a, c));
        }
    }

    // Lines 21–22: B[I_qr.rs, I_up.cs] += U·Vᵀ; B[I_up.cs, I_qr.rs] += V·Uᵀ.
    let mut upd_rows = d.block(qr_r, up_c, nr, nc);
    gemm(1.0, &f.u, Trans::N, &v, Trans::T, 1.0, &mut upd_rows);
    d.set_block(qr_r, up_c, &upd_rows);
    let mut upd_cols = d.block(up_c, qr_r, nc, nr);
    gemm(1.0, &v, Trans::N, &f.u, Trans::T, 1.0, &mut upd_cols);
    d.set_block(up_c, qr_r, &upd_cols);

    (f.u, f.t)
}

/// The seed's chase executor: materialize the dense symmetric window,
/// update it, write the lower triangle back. [`crate::bulge::execute_chase`]
/// matches it bit for bit.
pub fn execute_chase_reference(bmat: &mut BandedSym, op: &ChaseOp) {
    let _ = execute_chase_recording_reference(bmat, op);
}

/// [`execute_chase_reference`], returning the chase's Householder factors
/// `(U, T)` — the oracle of [`crate::bulge::execute_chase_recording`].
pub fn execute_chase_recording_reference(bmat: &mut BandedSym, op: &ChaseOp) -> (Matrix, Matrix) {
    let (lo, hi) = op.window();
    let mut d = bmat.window(lo, hi);
    let factors = chase_window_update_factors_reference(&mut d, op);
    bmat.set_window(lo, &d);
    factors
}

/// The scalar elimination [`crate::lu::lu_inplace`] replaced, with or
/// without the sign subtraction.
fn lu_reference(a: &Matrix, signed: bool) -> (Matrix, Matrix, Vec<f64>) {
    let n = a.rows();
    assert_eq!(n, a.cols(), "LU requires a square matrix");
    let mut w = a.clone();
    let mut signs = Vec::with_capacity(n);
    for k in 0..n {
        if signed {
            let s = if w.get(k, k) >= 0.0 { -1.0 } else { 1.0 };
            signs.push(s);
            w.add_to(k, k, -s);
        }
        let pivot = w.get(k, k);
        assert!(
            pivot != 0.0,
            "lu_nopivot: zero pivot at {k}; matrix is not non-pivoted-LU factorizable"
        );
        for i in k + 1..n {
            let m = w.get(i, k) / pivot;
            w.set(i, k, m);
            if m != 0.0 {
                for j in k + 1..n {
                    w.add_to(i, j, -m * w.get(k, j));
                }
            }
        }
    }
    let (l, u) = unpack_lu(&w);
    (l, u, signs)
}

/// Scalar oracle for [`crate::lu::lu_nopivot`].
pub fn lu_nopivot_reference(a: &Matrix) -> (Matrix, Matrix) {
    let (l, u, _) = lu_reference(a, false);
    (l, u)
}

/// Scalar oracle for [`crate::lu::lu_nopivot_signed`].
pub fn lu_nopivot_signed_reference(a: &Matrix) -> (Matrix, Matrix, Vec<f64>) {
    lu_reference(a, true)
}

/// Scalar oracle for [`crate::lu::trsm_left`]: one substitution per
/// right-hand side, `op(T)` through a per-element accessor.
pub fn trsm_left_reference(
    t: &Matrix,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut Matrix,
) {
    let n = t.rows();
    assert_eq!(n, t.cols());
    assert_eq!(b.rows(), n);
    let get = |i: usize, j: usize| if transposed { t.get(j, i) } else { t.get(i, j) };
    let lower = op_is_lower(tri, transposed);
    for c in 0..b.cols() {
        for step in 0..n {
            let i = if lower { step } else { n - 1 - step };
            let known = if lower { 0..i } else { i + 1..n };
            let mut v = b.get(i, c);
            for j in known {
                v -= get(i, j) * b.get(j, c);
            }
            if matches!(diag, Diag::NonUnit) {
                v /= get(i, i);
            }
            b.set(i, c, v);
        }
    }
}

/// Scalar oracle for [`crate::lu::trsm_right`]: `X·op(T) = B ⇔
/// op(T)ᵀ·Xᵀ = Bᵀ` through two transposed copies.
pub fn trsm_right_reference(
    t: &Matrix,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut Matrix,
) {
    let mut bt = b.transpose();
    trsm_left_reference(t, tri, diag, !transposed, &mut bt);
    *b = bt.transpose();
}

/// Scalar oracle for [`crate::lu::tri_inverse`]: a left solve against the
/// dense identity, `n³` multiply-adds.
pub fn tri_inverse_reference(t: &Matrix, tri: Triangle, diag: Diag) -> Matrix {
    let n = t.rows();
    let mut inv = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
    trsm_left_reference(t, tri, diag, false, &mut inv);
    inv
}

/// Form the upper-triangular `T` of the compact-WY representation from
/// the unit lower-trapezoidal `U` and the `tau` scalars (LAPACK `larft`,
/// forward column-wise, BLAS-1 over the full width).
pub fn form_t(u: &Matrix, taus: &[f64]) -> Matrix {
    let (m, k) = (u.rows(), u.cols());
    assert_eq!(taus.len(), k);
    let mut t = Matrix::zeros(k, k);
    let mut w = vec![0.0; k];
    for j in 0..k {
        let tau = taus[j];
        t.set(j, j, tau);
        if j > 0 && tau != 0.0 {
            // w = −tau · U[:, 0..j]ᵀ · u_j
            let wj = &mut w[..j];
            wj.fill(0.0);
            for i in j..m {
                let uij = u.get(i, j);
                for (wc, &uic) in wj.iter_mut().zip(&u.row(i)[..j]) {
                    *wc += uic * uij;
                }
            }
            for wc in wj.iter_mut() {
                *wc *= -tau;
            }
            // T[0..j, j] = T[0..j, 0..j] · w
            for r in 0..j {
                let mut acc = 0.0;
                for (&tv, &wc) in t.row(r)[r..j].iter().zip(&w[r..j]) {
                    acc += tv * wc;
                }
                t.set(r, j, acc);
            }
        }
    }
    t
}

/// [`crate::bulge::sweep_to_tridiagonal`] through the portable
/// instantiation whatever the host supports: the sweep's bits are a
/// function of the input alone, so the SIMD instantiation must match it
/// bit for bit.
pub fn sweep_to_tridiagonal_portable(
    bmat: &mut BandedSym,
    record: Option<&mut Vec<BlockReflector>>,
) {
    with_ws(|ws| crate::bulge::sweep(bmat, record, ws, None));
}

/// [`crate::gemm::gemm_view`] with both of its free choices forced:
/// `pack_a` packs `op(A)` or reads it in place whatever the shape,
/// `tile` runs that instantiation of the tile loop whatever the shape
/// (one of [`Tile::available`]; panics on another). The cell contract
/// says neither can change a bit.
#[allow(clippy::too_many_arguments)] // gemm_view's BLAS-shaped signature + the two choices
pub fn gemm_view_forced(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
    (pack_a, tile): (bool, Tile),
) {
    gemm::check_shapes(a, ta, b, tb, c);
    gemm::gemm_core(alpha, a, ta, b, tb, beta, c, Some(pack_a), Some(tile));
}

/// Streaming-MM's numerics (`ca_pla::streaming`, Algorithm III.1) as
/// each simulated rank computed them: `out ← op(A)·op(B)` with the rows
/// of `op(A)` and the inner dimension cut into `q` blocks and the
/// columns of `op(B)` into `z = w·c` (block `t` of `n` over `parts` is
/// `[t·n/parts, (t+1)·n/parts)`), one partial product per (column block,
/// inner block, row block) in a fresh `β = 0` buffer, each added into
/// the zero-filled output as it is made.
pub fn streaming_mm_partials_reference(
    a: &MatrixView,
    transpose_a: bool,
    b: &MatrixView,
    transpose_b: bool,
    q: usize,
    z: usize,
    out: &mut MatrixViewMut,
) {
    let (out_rows, k) = (out.rows(), out.cols());
    let inner = if transpose_a { a.rows() } else { a.cols() };
    let ta = if transpose_a { Trans::T } else { Trans::N };
    let tb = if transpose_b { Trans::T } else { Trans::N };
    let block = |t: usize, n: usize, parts: usize| (t * n / parts, (t + 1) * n / parts);
    out.fill(0.0);
    for h in 0..z {
        let (k0, k1) = block(h, k, z);
        for j in 0..q {
            let (j0, j1) = block(j, inner, q);
            if k0 == k1 || j0 == j1 {
                continue;
            }
            let b_jh = if transpose_b {
                b.sub(k0, j0, k1 - k0, j1 - j0)
            } else {
                b.sub(j0, k0, j1 - j0, k1 - k0)
            };
            for i in 0..q {
                let (i0, i1) = block(i, out_rows, q);
                if i0 == i1 {
                    continue;
                }
                let a_ij = if transpose_a {
                    a.sub(j0, i0, j1 - j0, i1 - i0)
                } else {
                    a.sub(i0, j0, i1 - i0, j1 - j0)
                };
                let mut part = Matrix::zeros(i1 - i0, k1 - k0);
                gemm::gemm_view(1.0, &a_ij, ta, &b_jh, tb, 0.0, &mut part.view_mut());
                out.sub_mut(i0, k0, i1 - i0, k1 - k0)
                    .add_scaled(1.0, &part.view());
            }
        }
    }
}

/// [`crate::dnc::dnc_eigen`] with the merge it ran before it worked on
/// row halves (the dense merge below), recursing down to subproblems
/// of size `leaf` (the solver's is 40). The production merge matches it
/// bit for bit.
pub fn dnc_eigen_reference(
    d: &[f64],
    e: &[f64],
    leaf: usize,
) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    dnc::solve_full(d, e, leaf, merge_dense_reference)
}

/// [`crate::dnc::dnc_eigenvalues`] with the dense merge: the
/// eigenvalues and the `2 × n` row pair the recursion carries.
pub fn dnc_eigenvalues_reference(
    d: &[f64],
    e: &[f64],
    leaf: usize,
) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    dnc::solve_rows(d, e, leaf, merge_dense_reference)
}

/// The dense merge: the halves' rows copied into the block-diagonal
/// carrier `[q₁ 0; 0 q₂]`, the deflating rotations applied to its
/// columns, the kept columns gathered into one operand for one secular
/// product `W = Q[:, kept]·Û`, then every column placed in ascending-λ
/// order.
fn merge_dense_reference(plan: MergePlan, q1: Matrix, q2: Matrix) -> (Vec<f64>, Matrix) {
    let (r1, k) = (q1.rows(), q1.cols());
    let mut cmat = Matrix::zeros(r1 + q2.rows(), k + q2.cols());
    cmat.set_block(0, 0, &q1);
    cmat.set_block(r1, k, &q2);
    let nr = cmat.rows();
    let n = plan.lam.len();
    for &(i, j, c, s) in &plan.rots {
        for r in 0..nr {
            let a = cmat.get(r, i);
            let b = cmat.get(r, j);
            cmat.set(r, i, c * a - s * b);
            cmat.set(r, j, s * a + c * b);
        }
    }
    let m = plan.kept_cols.len();
    let mut out = Matrix::zeros(nr, n);
    let mut q_kept = Matrix::zeros(nr, m);
    for r in 0..nr {
        let row = cmat.row(r);
        for (dst, &c) in q_kept.row_mut(r).iter_mut().zip(&plan.kept_cols) {
            *dst = row[c];
        }
    }
    let w = matmul(&q_kept, Trans::N, &plan.ucoef, Trans::N);
    for r in 0..nr {
        let (wrow, crow) = (w.row(r), cmat.row(r));
        for (o, src) in out.row_mut(r).iter_mut().zip(&plan.src) {
            *o = match *src {
                ColSrc::Secular(j) => wrow[j],
                ColSrc::Deflated(c) => crow[c],
            };
        }
    }
    (plan.lam, out)
}
