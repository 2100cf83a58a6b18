//! Non-pivoted LU, triangular solves and triangular inversion — one
//! family, recursive on the one GEMM.
//!
//! The paper uses non-pivoted LU in exactly one place: Householder
//! reconstruction (Corollary III.7, after Ballard et al. \[26\]), where the
//! matrix `Q₁ − S` (orthonormal-columns block minus a diagonal sign
//! matrix) is diagonally dominant by construction, so pivoting is not
//! required for stability. The corollary's `U = (Q − S)·W₁⁻¹` and
//! `T = −W₁·S·U₁⁻ᵀ` add the triangular solves and inverses.
//!
//! All five kernels are the same half-split recursion (Ballard, Demmel,
//! Holtz & Schwartz's cache-oblivious triangular family, PAPERS.md):
//! factor / solve / invert the leading block, one GEMM for the
//! off-diagonal block, recurse on the trailing block, down to an
//! unblocked [`LEAF`]. There is no block size and no knob; everything
//! above the leaf goes through [`gemm_view`], on views, with scratch lent
//! by the arena. Where a GEMM would read and write column blocks of one
//! matrix — which interleave in row-major storage, so no two views can
//! hold them — the read operand is first copied into that scratch.
//!
//! **Bits.** The tree is [`split`] of the order alone and every product
//! obeys GEMM's cell contract, so results are bit-for-bit independent of
//! worker count, core budget, strides and host. They differ in the last
//! place from the scalar `*_reference` forms below (a different
//! summation order), which survive as test oracles only.

use crate::gemm::{gemm_view, Trans};
use crate::matrix::Matrix;
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::{with_ws, Workspace};

/// Which triangle a triangular-solve operand occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// Lower-triangular operand.
    Lower,
    /// Upper-triangular operand.
    Upper,
}

/// Whether the triangular operand has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Diag {
    /// Implicit unit diagonal (not stored).
    Unit,
    /// Explicit diagonal entries.
    NonUnit,
}

/// Order at or below which the recursions stop and a block is handled by
/// scalar row operations. Not a knob of the interface: it only has to be
/// large enough that the GEMMs above it are not dominated by call
/// overhead (`benches/kernels.rs`, group `tri_kernels`: no slower than
/// the scalar forms from n = 8 up). Changing it changes output bits.
const LEAF: usize = 16;

/// The LU recursion's leaf. Scalar elimination is already a sequence of
/// row `axpy`s, which stay ahead of the recursion's solves and copies up
/// to twice the width at which substitution does (same bench: n = 24 and
/// 32 against the 16-wide form).
const LU_LEAF: usize = 2 * LEAF;

/// Where an order-`n > LEAF` block splits: half, rounded up to whole
/// leaves — a function of `n` alone, so the tree and every bit of the
/// result are fixed by the shape.
fn split(n: usize) -> usize {
    (n / 2).next_multiple_of(LEAF)
}

/// `op(T)` of an order-`n ≤ LEAF` block as a dense array, the transpose
/// resolved once. The other triangle is copied along and never read.
fn load_op(t: &MatrixView, transposed: bool) -> [[f64; LEAF]; LEAF] {
    let mut tt = [[0.0; LEAF]; LEAF];
    for i in 0..t.rows() {
        for (j, &v) in t.row(i).iter().enumerate() {
            if transposed {
                tt[j][i] = v;
            } else {
                tt[i][j] = v;
            }
        }
    }
    tt
}

/// True when `op(T)` is lower-triangular.
fn op_is_lower(tri: Triangle, transposed: bool) -> bool {
    matches!(tri, Triangle::Lower) != transposed
}

/// The off-diagonal block of `T` as stored, and the orientation that
/// makes it `op(T)`'s: `op(T)₂₁` when `op(T)` is lower, `op(T)₁₂` when
/// upper.
fn off_diagonal<'a>(t: &MatrixView<'a>, tri: Triangle, transposed: bool, n1: usize) -> (MatrixView<'a>, Trans) {
    let n2 = t.rows() - n1;
    let off = match tri {
        Triangle::Lower => t.sub(n1, 0, n2, n1),
        Triangle::Upper => t.sub(0, n1, n1, n2),
    };
    (off, if transposed { Trans::T } else { Trans::N })
}

/// Rows `i` (mutable) and `j ≠ i` (shared) of a strided row-major buffer.
fn row_pair(data: &mut [f64], stride: usize, cols: usize, i: usize, j: usize) -> (&mut [f64], &[f64]) {
    if j < i {
        let (head, tail) = data.split_at_mut(i * stride);
        (&mut tail[..cols], &head[j * stride..][..cols])
    } else {
        let (head, tail) = data.split_at_mut(j * stride);
        (&mut head[i * stride..][..cols], &tail[..cols])
    }
}

/// A contiguous arena copy of `v` (`v.rows() × v.cols()`, row-major):
/// how a GEMM reads one column block of a matrix while it writes the
/// neighbouring one. The caller `put`s it back.
fn scratch_copy(v: &MatrixView, ws: &mut Workspace) -> Vec<f64> {
    let mut buf = ws.take_scratch(v.rows() * v.cols());
    MatrixViewMut::from_slice(&mut buf, v.rows(), v.cols()).copy_from(v);
    buf
}

/// Non-pivoted LU factorization `A = L·U` of a square matrix.
///
/// Returns `(L, U)` with `L` unit lower-triangular and `U`
/// upper-triangular. Panics if a zero (or exactly-zero) pivot is
/// encountered; callers must supply matrices for which non-pivoted LU is
/// stable (diagonally dominant, as in the reconstruction use-case).
pub fn lu_nopivot(a: &Matrix) -> (Matrix, Matrix) {
    let mut w = a.clone();
    with_ws(|ws| lu_inplace(&mut w.view_mut(), None, ws));
    unpack_lu(&w)
}

/// Non-pivoted LU with on-the-fly diagonal sign subtraction, the
/// Householder-reconstruction variant of Ballard et al. \[26\]: factors
/// `A − S = L·U` where `S = diag(s)` is chosen during elimination as
/// `sᵢ = −sgn(pivotᵢ)`, which makes every pivot at least 1 in magnitude
/// when `A` has orthonormal columns. Returns `(L, U, s)`.
pub fn lu_nopivot_signed(a: &Matrix) -> (Matrix, Matrix, Vec<f64>) {
    let mut w = a.clone();
    let mut signs = vec![0.0; a.rows()];
    with_ws(|ws| lu_inplace(&mut w.view_mut(), Some(&mut signs), ws));
    let (l, u) = unpack_lu(&w);
    (l, u, signs)
}

/// Split a packed factorization (`L` strictly below the diagonal with
/// its unit diagonal implicit, `U` on and above) into explicit factors.
pub fn unpack_lu(w: &Matrix) -> (Matrix, Matrix) {
    let n = w.rows();
    assert_eq!(n, w.cols(), "LU requires a square matrix");
    let mut l = Matrix::zeros(n, n);
    let mut u = Matrix::zeros(n, n);
    for i in 0..n {
        let row = w.row(i);
        l.row_mut(i)[..i].copy_from_slice(&row[..i]);
        l.set(i, i, 1.0);
        u.row_mut(i)[i..].copy_from_slice(&row[i..]);
    }
    (l, u)
}

/// [`lu_nopivot`] of the square view `w` **in place**, packed: on exit
/// `L` sits strictly below the diagonal (unit diagonal implicit) and `U`
/// on and above it. With `signs` (one slot per row) it is
/// [`lu_nopivot_signed`]: each pivot has its sign choice subtracted just
/// before it is used, and the choices are written to `signs`.
///
/// A node factors `A₁₁`, solves `A₁₂ ← L₁₁⁻¹·A₁₂` and `A₂₁ ← A₂₁·U₁₁⁻¹`,
/// updates `A₂₂ −= A₂₁·A₁₂` by GEMM and factors `A₂₂`. Scratch (one
/// `n₁ × n₁` buffer at a time) comes from `ws`.
pub fn lu_inplace(w: &mut MatrixViewMut, signs: Option<&mut [f64]>, ws: &mut Workspace) {
    let n = w.rows();
    assert_eq!(n, w.cols(), "LU requires a square matrix");
    if let Some(s) = &signs {
        assert_eq!(s.len(), n, "one sign per row");
    }
    lu_rec(w, signs, 0, ws);
}

/// One node of [`lu_inplace`]; `k0` is the block's offset in the whole
/// matrix (for the zero-pivot message).
fn lu_rec(w: &mut MatrixViewMut, signs: Option<&mut [f64]>, k0: usize, ws: &mut Workspace) {
    let n = w.rows();
    if n <= LU_LEAF {
        return lu_leaf(w, signs, k0);
    }
    let n1 = split(n);
    let n2 = n - n1;
    let (s1, s2) = match signs {
        Some(s) => {
            let (s1, s2) = s.split_at_mut(n1);
            (Some(s1), Some(s2))
        }
        None => (None, None),
    };
    let (mut top, mut bot) = w.split_rows_mut(n1);
    lu_rec(&mut top.sub_mut(0, 0, n1, n1), s1, k0, ws);

    // A₁₁ and A₁₂ share rows: the solve reads the factored block from a
    // copy. A₂₁ lies in other rows and reads U₁₁ where it is.
    let f = scratch_copy(&top.sub(0, 0, n1, n1), ws);
    trsm_left_rec(
        &MatrixView::from_slice(&f, n1, n1),
        Triangle::Lower,
        Diag::Unit,
        false,
        &mut top.sub_mut(0, n1, n1, n2),
    );
    ws.put(f);
    trsm_right_rec(
        &top.sub(0, 0, n1, n1),
        Triangle::Upper,
        Diag::NonUnit,
        false,
        &mut bot.sub_mut(0, 0, n2, n1),
        ws,
    );

    // A₂₂ −= A₂₁·A₁₂, A₂₁ from a copy for the same reason.
    let f = scratch_copy(&bot.sub(0, 0, n2, n1), ws);
    gemm_view(
        -1.0,
        &MatrixView::from_slice(&f, n2, n1),
        Trans::N,
        &top.sub(0, n1, n1, n2),
        Trans::N,
        1.0,
        &mut bot.sub_mut(0, n1, n2, n2),
    );
    ws.put(f);
    lu_rec(&mut bot.sub_mut(0, n1, n2, n2), s2, k0 + n1, ws);
}

/// The LU leaf: right-looking elimination by row operations.
fn lu_leaf(w: &mut MatrixViewMut, mut signs: Option<&mut [f64]>, k0: usize) {
    let (n, stride) = (w.rows(), w.stride());
    let data = w.data_mut();
    for k in 0..n {
        if let Some(signs) = signs.as_deref_mut() {
            let s = if data[k * stride + k] >= 0.0 { -1.0 } else { 1.0 };
            signs[k] = s;
            data[k * stride + k] -= s;
        }
        let pivot = data[k * stride + k];
        assert!(
            pivot != 0.0,
            "lu_nopivot: zero pivot at {}; matrix is not non-pivoted-LU factorizable",
            k0 + k
        );
        for i in k + 1..n {
            let (ri, rk) = row_pair(data, stride, n, i, k);
            let m = ri[k] / pivot;
            ri[k] = m;
            if m != 0.0 {
                for (x, &y) in ri[k + 1..].iter_mut().zip(&rk[k + 1..]) {
                    *x -= m * y;
                }
            }
        }
    }
}

/// Solve `op(T)·X = B` in place where `T` is triangular (left-sided
/// triangular solve, `X` overwrites `b`).
pub fn trsm_left(t: &Matrix, tri: Triangle, diag: Diag, transposed: bool, b: &mut Matrix) {
    trsm_left_view(&t.view(), tri, diag, transposed, &mut b.view_mut());
}

/// [`trsm_left`] on views. A node solves the block of `B` that `op(T)`'s
/// leading (lower) or trailing (upper) diagonal block determines,
/// subtracts its contribution from the other block by one GEMM and
/// solves that; the two blocks are row ranges of `B`, so nothing is
/// copied and no scratch is needed.
pub fn trsm_left_view(t: &MatrixView, tri: Triangle, diag: Diag, transposed: bool, b: &mut MatrixViewMut) {
    let n = t.rows();
    assert_eq!(n, t.cols(), "triangular operand must be square");
    assert_eq!(b.rows(), n, "right-hand side row count disagrees");
    trsm_left_rec(t, tri, diag, transposed, b);
}

fn trsm_left_rec(t: &MatrixView, tri: Triangle, diag: Diag, transposed: bool, b: &mut MatrixViewMut) {
    let n = t.rows();
    if n <= LEAF {
        return trsm_left_leaf(t, tri, diag, transposed, b);
    }
    let n1 = split(n);
    let n2 = n - n1;
    let (t11, t22) = (t.sub(0, 0, n1, n1), t.sub(n1, n1, n2, n2));
    let (off, tr) = off_diagonal(t, tri, transposed, n1);
    let (mut b1, mut b2) = b.split_rows_mut(n1);
    if op_is_lower(tri, transposed) {
        trsm_left_rec(&t11, tri, diag, transposed, &mut b1);
        gemm_view(-1.0, &off, tr, &b1.as_view(), Trans::N, 1.0, &mut b2);
        trsm_left_rec(&t22, tri, diag, transposed, &mut b2);
    } else {
        trsm_left_rec(&t22, tri, diag, transposed, &mut b2);
        gemm_view(-1.0, &off, tr, &b2.as_view(), Trans::N, 1.0, &mut b1);
        trsm_left_rec(&t11, tri, diag, transposed, &mut b1);
    }
}

/// The left-solve leaf: substitution by whole rows of `B`.
fn trsm_left_leaf(t: &MatrixView, tri: Triangle, diag: Diag, transposed: bool, b: &mut MatrixViewMut) {
    let tt = load_op(t, transposed);
    let (n, cols, stride) = (b.rows(), b.cols(), b.stride());
    if cols == 0 {
        return;
    }
    let data = b.data_mut();
    let mut solve_row = |i: usize, known: std::ops::Range<usize>| {
        for j in known {
            let (bi, bj) = row_pair(data, stride, cols, i, j);
            let tij = tt[i][j];
            for (x, &y) in bi.iter_mut().zip(bj) {
                *x -= tij * y;
            }
        }
        if matches!(diag, Diag::NonUnit) {
            let d = tt[i][i];
            for x in &mut data[i * stride..][..cols] {
                *x /= d;
            }
        }
    };
    if op_is_lower(tri, transposed) {
        for i in 0..n {
            solve_row(i, 0..i);
        }
    } else {
        for i in (0..n).rev() {
            solve_row(i, i + 1..n);
        }
    }
}

/// Solve `X·op(T) = B` in place (right-sided triangular solve).
pub fn trsm_right(t: &Matrix, tri: Triangle, diag: Diag, transposed: bool, b: &mut Matrix) {
    with_ws(|ws| trsm_right_view(&t.view(), tri, diag, transposed, &mut b.view_mut(), ws));
}

/// [`trsm_right`] on views — solved from the right, `B` is never
/// transposed. The two blocks of `B` a node works on are column ranges,
/// so the solved one is copied into `ws` scratch to feed the GEMM that
/// updates the other.
pub fn trsm_right_view(
    t: &MatrixView,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut MatrixViewMut,
    ws: &mut Workspace,
) {
    let n = t.rows();
    assert_eq!(n, t.cols(), "triangular operand must be square");
    assert_eq!(b.cols(), n, "right-hand side column count disagrees");
    trsm_right_rec(t, tri, diag, transposed, b, ws);
}

fn trsm_right_rec(
    t: &MatrixView,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut MatrixViewMut,
    ws: &mut Workspace,
) {
    let n = t.rows();
    if n <= LEAF {
        return trsm_right_leaf(t, tri, diag, transposed, b, ws);
    }
    let n1 = split(n);
    let n2 = n - n1;
    let r = b.rows();
    let (t11, t22) = (t.sub(0, 0, n1, n1), t.sub(n1, n1, n2, n2));
    let (off, tr) = off_diagonal(t, tri, transposed, n1);
    // The column block solved first, then the one it updates: (first
    // column, width, diagonal block of T).
    let (first, then) = if op_is_lower(tri, transposed) {
        ((n1, n2, t22), (0, n1, t11))
    } else {
        ((0, n1, t11), (n1, n2, t22))
    };
    trsm_right_rec(&first.2, tri, diag, transposed, &mut b.sub_mut(0, first.0, r, first.1), ws);
    let x = scratch_copy(&b.sub(0, first.0, r, first.1), ws);
    gemm_view(
        -1.0,
        &MatrixView::from_slice(&x, r, first.1),
        Trans::N,
        &off,
        tr,
        1.0,
        &mut b.sub_mut(0, then.0, r, then.1),
    );
    ws.put(x);
    trsm_right_rec(&then.2, tri, diag, transposed, &mut b.sub_mut(0, then.0, r, then.1), ws);
}

/// The right-solve leaf. Each row of `B` is an independent small solve
/// whose steps depend on one another, so the block is gathered once into
/// a column-major arena buffer: an elimination step is then an `axpy`
/// between two contiguous columns, as long as `B` is tall.
fn trsm_right_leaf(
    t: &MatrixView,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut MatrixViewMut,
    ws: &mut Workspace,
) {
    let tt = load_op(t, transposed);
    let (r, n) = (b.rows(), t.rows());
    if r == 0 {
        return;
    }
    let lower = op_is_lower(tri, transposed);
    let mut p = ws.take_scratch(r * n);
    for i in 0..r {
        for (c, &x) in b.row(i).iter().enumerate() {
            p[c * r + i] = x;
        }
    }
    for step in 0..n {
        let j = if lower { n - 1 - step } else { step };
        if matches!(diag, Diag::NonUnit) {
            let d = tt[j][j];
            for x in &mut p[j * r..][..r] {
                *x /= d;
            }
        }
        for k in if lower { 0..j } else { j + 1..n } {
            let (xk, xj) = row_pair(&mut p, r, r, k, j);
            let tjk = tt[j][k];
            for (a, &b) in xk.iter_mut().zip(xj) {
                *a -= b * tjk;
            }
        }
    }
    for i in 0..r {
        for (c, x) in b.row_mut(i).iter_mut().enumerate() {
            *x = p[c * r + i];
        }
    }
    ws.put(p);
}

/// Explicit inverse of a triangular matrix.
pub fn tri_inverse(t: &Matrix, tri: Triangle, diag: Diag) -> Matrix {
    let n = t.rows();
    let mut inv = Matrix::zeros(n, n);
    with_ws(|ws| tri_inverse_view(&t.view(), tri, diag, &mut inv.view_mut(), ws));
    inv
}

/// [`tri_inverse`] on views: `out ← T⁻¹`, every entry of `out` written
/// (the other triangle with zeros). A node inverts the two diagonal
/// blocks and forms the off-diagonal one from them by two GEMMs —
/// `X₁₂ = −(X₁₁·T₁₂)·X₂₂` for an upper `T`, `X₂₁ = −(X₂₂·T₂₁)·X₁₁` for a
/// lower one — so it executes the `n³/3` multiply-adds an inverse costs,
/// not the `n³` of a solve against a dense identity.
pub fn tri_inverse_view(t: &MatrixView, tri: Triangle, diag: Diag, out: &mut MatrixViewMut, ws: &mut Workspace) {
    let n = t.rows();
    assert_eq!(n, t.cols(), "triangular operand must be square");
    assert_eq!((out.rows(), out.cols()), (n, n), "inverse shape disagrees");
    tri_inverse_rec(t, tri, diag, out, ws);
}

fn tri_inverse_rec(t: &MatrixView, tri: Triangle, diag: Diag, out: &mut MatrixViewMut, ws: &mut Workspace) {
    let n = t.rows();
    if n <= LEAF {
        return tri_inverse_leaf(t, tri, diag, out);
    }
    let n1 = split(n);
    let n2 = n - n1;
    tri_inverse_rec(&t.sub(0, 0, n1, n1), tri, diag, &mut out.sub_mut(0, 0, n1, n1), ws);
    tri_inverse_rec(&t.sub(n1, n1, n2, n2), tri, diag, &mut out.sub_mut(n1, n1, n2, n2), ws);
    let mut tmp = ws.take_scratch(n1 * n2);
    let (mut top, mut bot) = out.split_rows_mut(n1);
    match tri {
        Triangle::Upper => {
            bot.sub_mut(0, 0, n2, n1).fill(0.0);
            gemm_view(
                1.0,
                &top.sub(0, 0, n1, n1),
                Trans::N,
                &t.sub(0, n1, n1, n2),
                Trans::N,
                0.0,
                &mut MatrixViewMut::from_slice(&mut tmp, n1, n2),
            );
            gemm_view(
                -1.0,
                &MatrixView::from_slice(&tmp, n1, n2),
                Trans::N,
                &bot.sub(0, n1, n2, n2),
                Trans::N,
                0.0,
                &mut top.sub_mut(0, n1, n1, n2),
            );
        }
        Triangle::Lower => {
            top.sub_mut(0, n1, n1, n2).fill(0.0);
            gemm_view(
                1.0,
                &bot.sub(0, n1, n2, n2),
                Trans::N,
                &t.sub(n1, 0, n2, n1),
                Trans::N,
                0.0,
                &mut MatrixViewMut::from_slice(&mut tmp, n2, n1),
            );
            gemm_view(
                -1.0,
                &MatrixView::from_slice(&tmp, n2, n1),
                Trans::N,
                &top.sub(0, 0, n1, n1),
                Trans::N,
                0.0,
                &mut bot.sub_mut(0, 0, n2, n1),
            );
        }
    }
    ws.put(tmp);
}

/// The inversion leaf: substitution against the identity, restricted to
/// the triangle (row `i` of `X` from the rows already known).
fn tri_inverse_leaf(t: &MatrixView, tri: Triangle, diag: Diag, out: &mut MatrixViewMut) {
    let n = t.rows();
    let mut x = [[0.0; LEAF]; LEAF];
    let mut invert_row = |i: usize, known: std::ops::Range<usize>| {
        let ti = t.row(i);
        let d = if matches!(diag, Diag::NonUnit) { ti[i] } else { 1.0 };
        let mut xi = [0.0; LEAF];
        for k in known {
            // Row k of X is zero outside the triangle's columns.
            let live = if k < i { 0..k + 1 } else { k..n };
            for (a, &b) in xi[live.clone()].iter_mut().zip(&x[k][live]) {
                *a -= ti[k] * b;
            }
        }
        for a in &mut xi[..n] {
            *a /= d;
        }
        xi[i] = 1.0 / d;
        x[i] = xi;
    };
    match tri {
        Triangle::Lower => (0..n).for_each(|i| invert_row(i, 0..i)),
        Triangle::Upper => (0..n).rev().for_each(|i| invert_row(i, i + 1..n)),
    }
    for i in 0..n {
        out.row_mut(i).copy_from_slice(&x[i][..n]);
    }
}

/// The scalar elimination [`lu_inplace`] replaced, with or without the
/// sign subtraction. Not on any solver path: the oracle of
/// `tests/tri_props.rs` and the baseline of `benches/kernels.rs`.
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

/// Scalar oracle for [`lu_nopivot`] (tests and benches only).
#[doc(hidden)]
pub fn lu_nopivot_reference(a: &Matrix) -> (Matrix, Matrix) {
    let (l, u, _) = lu_reference(a, false);
    (l, u)
}

/// Scalar oracle for [`lu_nopivot_signed`] (tests and benches only).
#[doc(hidden)]
pub fn lu_nopivot_signed_reference(a: &Matrix) -> (Matrix, Matrix, Vec<f64>) {
    lu_reference(a, true)
}

/// Scalar oracle for [`trsm_left`]: one substitution per right-hand
/// side, `op(T)` through a per-element accessor (tests and benches only).
#[doc(hidden)]
pub fn trsm_left_reference(t: &Matrix, tri: Triangle, diag: Diag, transposed: bool, b: &mut Matrix) {
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

/// Scalar oracle for [`trsm_right`]: `X·op(T) = B ⇔ op(T)ᵀ·Xᵀ = Bᵀ`
/// through two transposed copies (tests and benches only).
#[doc(hidden)]
pub fn trsm_right_reference(t: &Matrix, tri: Triangle, diag: Diag, transposed: bool, b: &mut Matrix) {
    let mut bt = b.transpose();
    trsm_left_reference(t, tri, diag, !transposed, &mut bt);
    *b = bt.transpose();
}

/// Scalar oracle for [`tri_inverse`]: a left solve against the dense
/// identity, `n³` multiply-adds (tests and benches only).
#[doc(hidden)]
pub fn tri_inverse_reference(t: &Matrix, tri: Triangle, diag: Diag) -> Matrix {
    let n = t.rows();
    let mut inv = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
    trsm_left_reference(t, tri, diag, false, &mut inv);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Trans};
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn diag_dominant(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = gen::random_matrix(&mut rng, n, n);
        for i in 0..n {
            a.set(i, i, n as f64 + a.get(i, i));
        }
        a
    }

    #[test]
    fn lu_reconstructs() {
        let a = diag_dominant(9, 20);
        let (l, u) = lu_nopivot(&a);
        let la = matmul(&l, Trans::N, &u, Trans::N);
        assert!(la.max_diff(&a) < 1e-10);
        // L unit lower, U upper.
        for i in 0..9 {
            assert_eq!(l.get(i, i), 1.0);
            for j in i + 1..9 {
                assert_eq!(l.get(i, j), 0.0);
                assert_eq!(u.get(j, i), 0.0);
            }
        }
    }

    #[test]
    fn trsm_left_lower_solves() {
        let a = diag_dominant(7, 21);
        let (l, _) = lu_nopivot(&a);
        let mut rng = StdRng::seed_from_u64(22);
        let x = gen::random_matrix(&mut rng, 7, 3);
        let mut b = matmul(&l, Trans::N, &x, Trans::N);
        trsm_left(&l, Triangle::Lower, Diag::Unit, false, &mut b);
        assert!(b.max_diff(&x) < 1e-10);
    }

    #[test]
    fn trsm_left_upper_transposed_solves() {
        let a = diag_dominant(6, 23);
        let (_, u) = lu_nopivot(&a);
        let mut rng = StdRng::seed_from_u64(24);
        let x = gen::random_matrix(&mut rng, 6, 2);
        let mut b = matmul(&u, Trans::T, &x, Trans::N);
        trsm_left(&u, Triangle::Upper, Diag::NonUnit, true, &mut b);
        assert!(b.max_diff(&x) < 1e-9);
    }

    #[test]
    fn trsm_right_solves() {
        let a = diag_dominant(5, 25);
        let (_, u) = lu_nopivot(&a);
        let mut rng = StdRng::seed_from_u64(26);
        let x = gen::random_matrix(&mut rng, 3, 5);
        let mut b = matmul(&x, Trans::N, &u, Trans::N);
        trsm_right(&u, Triangle::Upper, Diag::NonUnit, false, &mut b);
        assert!(b.max_diff(&x) < 1e-9);
    }

    #[test]
    fn tri_inverse_inverts() {
        let a = diag_dominant(8, 27);
        let (l, u) = lu_nopivot(&a);
        let li = tri_inverse(&l, Triangle::Lower, Diag::Unit);
        let ui = tri_inverse(&u, Triangle::Upper, Diag::NonUnit);
        assert!(matmul(&l, Trans::N, &li, Trans::N).max_diff(&Matrix::identity(8)) < 1e-10);
        assert!(matmul(&u, Trans::N, &ui, Trans::N).max_diff(&Matrix::identity(8)) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero pivot")]
    fn zero_pivot_panics() {
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let _ = lu_nopivot(&a);
    }
}
