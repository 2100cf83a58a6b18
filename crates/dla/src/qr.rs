//! Recursive Householder QR with the compact-WY representation
//! `Q = I − U·T·Uᵀ` used throughout the paper (§III.B, §IV).
//!
//! `U` is unit lower-trapezoidal (`m × min(m,n)`, implicit unit diagonal
//! stored explicitly here for simplicity), `T` is upper-triangular. This
//! matches the paper's Householder aggregation: Corollary III.7's
//! reconstruction produces the same `(U, T)` pair, and the two-sided
//! update identity of Eqn. (IV.1) consumes it.
//!
//! There is one factorisation, `qr_inplace` — Lemma III.4's sequential
//! recursive QR: split the columns, factor the left half, update the
//! right half by GEMM, factor it, assemble `T` by GEMM. It has no block
//! size; rect-QR's tree nodes, TSQR's leaves, every bulge chase and the
//! input generator reach it ([`qr_factor`] is its allocating wrapper).

use crate::gemm::{gemm, gemm_view, matmul, Trans};
use crate::matrix::Matrix;
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::{with_ws, Workspace};

/// The result of a Householder QR factorization: `A = Q·R` with
/// `Q = I − U·T·Uᵀ`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// `m × k` unit lower-trapezoidal Householder vectors, `k = min(m, n)`.
    pub u: Matrix,
    /// `k × k` upper-triangular compact-WY factor.
    pub t: Matrix,
    /// `k × n` upper-triangular (trapezoidal if `m < n`) factor.
    pub r: Matrix,
}

impl QrFactors {
    /// Number of rows of the factored matrix.
    pub fn m(&self) -> usize {
        self.u.rows()
    }

    /// Number of reflectors, `min(m, n)`.
    pub fn k(&self) -> usize {
        self.u.cols()
    }
}

/// Generate a Householder reflector for the vector `x`:
/// returns `(v, tau, beta)` with `v\[0\] = 1` such that
/// `(I − tau·v·vᵀ)·x = beta·e₁`.
pub fn house_gen(x: &[f64]) -> (Vec<f64>, f64, f64) {
    let mut v = x.to_vec();
    let (tau, beta) = house_gen_in_place(&mut v);
    (v, tau, beta)
}

/// [`house_gen`] in place: `v` holds `x` on entry and the reflector
/// (with `v[0] = 1`) on exit; returns `(tau, beta)`. The one reflector
/// convention of the crate: the QR leaf and the band sweep
/// ([`crate::bulge`]) both generate theirs here.
#[inline]
pub(crate) fn house_gen_in_place(v: &mut [f64]) -> (f64, f64) {
    assert!(!v.is_empty());
    let alpha = v[0];
    let sigma2 = dot(&v[1..], &v[1..]);
    v[0] = 1.0;
    if sigma2 == 0.0 {
        // Already in e₁ direction: H = I (tau = 0) keeps beta = alpha.
        return (0.0, alpha);
    }
    let norm = (alpha * alpha + sigma2).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let denom = alpha - beta;
    for vi in v[1..].iter_mut() {
        *vi /= denom;
    }
    let tau = (beta - alpha) / beta;
    (tau, beta)
}

/// `Σ x[i]·y[i]` over eight interleaved partial sums (element `i` into
/// lane `i mod 8`) combined as a fixed tree, the ragged tail added last:
/// the order is part of the source, so the compiler may vectorise the
/// lanes but cannot reassociate, and the value is the same on every host
/// and in every instantiation (the band sweep inlines it into a function
/// compiled for AVX2 + FMA and into its portable twin).
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact(8);
    for (a, b) in xc.by_ref().zip(yc.by_ref()) {
        for l in 0..8 {
            acc[l] += a[l] * b[l];
        }
    }
    let mut s = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (a, b) in xc.remainder().iter().zip(yc.remainder()) {
        s += a * b;
    }
    s
}

/// The recursion's leaf: unblocked Householder QR (LAPACK `geqr2` +
/// `larft`) of a tall `m × n` panel, `n ≤ LEAF`, with the same outputs
/// as [`qr_inplace`]. The panel is gathered once into a column-major
/// arena buffer so that every reflector norm, every `vᵀ·c` and every
/// rank-1 update runs over contiguous columns (in `w` itself a column is
/// one element per cache line, and for a power-of-two stride one cache
/// set), then scattered back once.
fn qr_leaf(w: &mut MatrixViewMut, u: &mut MatrixViewMut, t: &mut MatrixViewMut, ws: &mut Workspace) {
    let (m, n) = (w.rows(), w.cols());
    debug_assert!(n <= LEAF && n <= m);
    let mut p = ws.take_scratch(m * n);
    for i in 0..m {
        for (c, &x) in w.row(i).iter().enumerate() {
            p[c * m + i] = x;
        }
    }

    let mut taus = [0.0; LEAF];
    for j in 0..n {
        let (head, rest) = p.split_at_mut((j + 1) * m);
        let v = &mut head[j * m + j..];
        let (tau, beta) = house_gen_in_place(v);
        if tau != 0.0 {
            for col in rest.chunks_exact_mut(m) {
                let c = &mut col[j..];
                let s = tau * dot(v, c);
                for (x, &vi) in c.iter_mut().zip(v.iter()) {
                    *x -= s * vi;
                }
            }
        }
        v[0] = beta;
        taus[j] = tau;
    }

    // T, column by column: T[0..j, j] = −τⱼ·T[0..j, 0..j]·(U[:, 0..j]ᵀ·uⱼ),
    // with uⱼ's unit diagonal implicit.
    t.fill(0.0);
    let mut z = [0.0; LEAF];
    for j in 0..n {
        let tau = taus[j];
        t.set(j, j, tau);
        if tau == 0.0 {
            continue;
        }
        let uj = &p[j * m + j + 1..(j + 1) * m];
        for c in 0..j {
            let uc = &p[c * m + j..(c + 1) * m];
            z[c] = -tau * (uc[0] + dot(&uc[1..], uj));
        }
        for r in 0..j {
            let mut acc = 0.0;
            for (&tv, &zc) in t.row(r)[r..j].iter().zip(&z[r..j]) {
                acc += tv * zc;
            }
            t.set(r, j, acc);
        }
    }

    for i in 0..m {
        let (wr, ur) = (w.row_mut(i), u.row_mut(i));
        for (c, x) in wr.iter_mut().enumerate() {
            *x = p[c * m + i];
        }
        let below = i.min(n);
        ur[..below].copy_from_slice(&wr[..below]);
        if i < n {
            ur[i] = 1.0;
            ur[i + 1..].fill(0.0);
        }
    }
    ws.put(p);
}

/// Form the upper-triangular `T` of the compact-WY representation from
/// the unit lower-trapezoidal `U` and the `tau` scalars (LAPACK `larft`,
/// forward column-wise, BLAS-1 over the full width). Not on any solver
/// path: the oracle the recursion's GEMM-assembled `T` is held to in
/// `tests/qr_props.rs`.
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

/// Column count at or below which the recursion stops and the panel is
/// factored by the unblocked [`qr_leaf`]. Not a knob of the interface:
/// the recursion is cache-oblivious and every product above the leaf
/// goes through the one GEMM; the leaf only has to be wide enough that
/// those products are not dominated by call overhead, and narrow enough
/// that the BLAS-2 share (`LEAF / n` of the flops) stays small. Changing
/// it changes output bits.
const LEAF: usize = 8;

/// Where a node of `n > leaf` columns splits: half, rounded up to a
/// whole number of leaves. A function of the column count and the leaf
/// width alone — not of the cache, the worker count or the host — so the
/// tree, and with it every bit of the factors, is fixed by the shape.
fn split(n: usize, leaf: usize) -> usize {
    (n / 2).next_multiple_of(leaf)
}

/// Householder QR of `a`: explicit `(U, T, R)`; the input is not
/// modified. This is Lemma III.4's sequential recursive QR (see
/// `qr_inplace`); the vertical-traffic charge for running it on a
/// virtual processor lives in [`crate::costs`].
///
/// `nb` is a cap on the recursion's leaf width and nothing else: any
/// `nb ≥ 8` (callers without an opinion pass `usize::MAX`) is the
/// default factorisation, `nb = 1` recurses down to single columns —
/// the unblocked elimination order, kept as the oracle the tests and
/// `benches/kernels.rs` compare against. The parameter survives because
/// the frozen benchmark harness passes one; it goes in the next
/// `[benchmark]` PR (ROADMAP item 5's shim list).
///
/// ```
/// use ca_dla::qr::{qr_factor, explicit_q};
/// use ca_dla::gemm::{matmul, Trans};
/// use ca_dla::Matrix;
///
/// let a = Matrix::from_fn(8, 3, |i, j| ((i * 3 + j) as f64).sin());
/// let f = qr_factor(&a, 2);
/// let q = explicit_q(&f.u, &f.t, 3);
/// assert!(matmul(&q, Trans::N, &f.r, Trans::N).max_diff(&a) < 1e-12);
/// ```
pub fn qr_factor(a: &Matrix, nb: usize) -> QrFactors {
    let _span = ca_obs::kernel_span("qr.factor");
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let mut w = a.clone();
    let mut u = Matrix::zeros(m, k);
    let mut t = Matrix::zeros(k, k);
    let leaf = nb.clamp(1, LEAF);
    with_ws(|ws| qr_leaf_capped(&mut w.view_mut(), &mut u.view_mut(), &mut t.view_mut(), leaf, ws));
    let mut r = Matrix::zeros(k, n);
    for i in 0..k {
        r.row_mut(i)[i..].copy_from_slice(&w.row(i)[i..]);
    }
    QrFactors { u, t, r }
}

/// Recursive Householder QR of the view `w` **in place** (Lemma III.4,
/// after Elmroth–Gustavson): on exit `w` holds `R` in its upper triangle
/// and the reflector tails below the diagonal, `u` (`m × k`,
/// `k = min(m, n)`) the explicit unit lower-trapezoidal reflectors and
/// `t` (`k × k`) the upper-triangular compact-WY factor, `Q = I − U·T·Uᵀ`.
/// Every entry of `u` and `t` is written, so both may be unzeroed scratch.
///
/// A node splits its columns `n = n₁ + n₂` ([`split`]), factors the left
/// `m × n₁` block, applies `Q₁ᵀ` to the right one
/// (`C −= U₁·(T₁₁ᵀ·(U₁ᵀ·C))`), factors the trailing `(m − n₁) × n₂`
/// block and merges `T₁₂ = −T₁₁·(U₁ᵀ·U₂)·T₂₂` — six products through
/// [`gemm_view`], so all but the leaf columns run at GEMM rate with no
/// block size to tune. A wide input (`m < n`) factors its leading `m`
/// columns and applies `Qᵀ` to the rest. All scratch (the `n₁ × n₂`
/// temporaries) comes from `ws`: steady-state calls allocate nothing.
///
/// The tree depends on `(m, n)` only and each product obeys GEMM's cell
/// contract, so the factors are bit-for-bit independent of worker count,
/// core budget, strides and host.
pub(crate) fn qr_inplace(
    w: &mut MatrixViewMut,
    u: &mut MatrixViewMut,
    t: &mut MatrixViewMut,
    ws: &mut Workspace,
) {
    qr_leaf_capped(w, u, t, LEAF, ws);
}

/// [`qr_inplace`] with the leaf width given (`1 ≤ leaf ≤ LEAF`).
fn qr_leaf_capped(
    w: &mut MatrixViewMut,
    u: &mut MatrixViewMut,
    t: &mut MatrixViewMut,
    leaf: usize,
    ws: &mut Workspace,
) {
    let (m, n) = (w.rows(), w.cols());
    let k = m.min(n);
    assert_eq!((u.rows(), u.cols()), (m, k));
    assert_eq!((t.rows(), t.cols()), (k, k));
    qr_rec(&mut w.sub_mut(0, 0, m, k), u, t, leaf, ws);
    if k < n {
        apply_qt_view(&u.as_view(), &t.as_view(), &mut w.sub_mut(0, k, m, n - k), ws);
    }
}

/// One node of the recursion on a tall-or-square `m × n` block.
fn qr_rec(
    w: &mut MatrixViewMut,
    u: &mut MatrixViewMut,
    t: &mut MatrixViewMut,
    leaf: usize,
    ws: &mut Workspace,
) {
    let (m, n) = (w.rows(), w.cols());
    if n <= leaf {
        return qr_leaf(w, u, t, ws);
    }
    let n1 = split(n, leaf);
    let n2 = n - n1;
    qr_rec(
        &mut w.sub_mut(0, 0, m, n1),
        &mut u.sub_mut(0, 0, m, n1),
        &mut t.sub_mut(0, 0, n1, n1),
        leaf,
        ws,
    );
    apply_qt_view(&u.sub(0, 0, m, n1), &t.sub(0, 0, n1, n1), &mut w.sub_mut(0, n1, m, n2), ws);
    qr_rec(
        &mut w.sub_mut(n1, n1, m - n1, n2),
        &mut u.sub_mut(n1, n1, m - n1, n2),
        &mut t.sub_mut(n1, n1, n2, n2),
        leaf,
        ws,
    );
    u.sub_mut(0, n1, n1, n2).fill(0.0);
    t.sub_mut(n1, 0, n2, n1).fill(0.0);

    // T₁₂ = −T₁₁·(U₁ᵀ·U₂)·T₂₂; U₂ is zero above row n₁, so only U₁'s
    // rows from n₁ down meet it.
    let mut g = ws.take_scratch(n1 * n2);
    let mut h = ws.take_scratch(n1 * n2);
    gemm_view(
        1.0,
        &u.sub(n1, 0, m - n1, n1),
        Trans::T,
        &u.sub(n1, n1, m - n1, n2),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut g, n1, n2),
    );
    gemm_view(
        1.0,
        &MatrixView::from_slice(&g, n1, n2),
        Trans::N,
        &t.sub(n1, n1, n2, n2),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut h, n1, n2),
    );
    gemm_view(
        -1.0,
        &t.sub(0, 0, n1, n1),
        Trans::N,
        &MatrixView::from_slice(&h, n1, n2),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut g, n1, n2),
    );
    t.sub_mut(0, n1, n1, n2).copy_from(&MatrixView::from_slice(&g, n1, n2));
    ws.put(h);
    ws.put(g);
}

/// `C ← Qᵀ·C = C − U·(Tᵀ·(Uᵀ·C))` on views, temporaries from `ws`.
fn apply_qt_view(u: &MatrixView, t: &MatrixView, c: &mut MatrixViewMut, ws: &mut Workspace) {
    apply_block_view(u, t, Trans::T, c, ws);
}

/// `C ← Q·C = C − U·(T·(Uᵀ·C))` in place on a (strided) view of `C`, the
/// two `k × n` intermediates lent by `ws` — the eigenvector
/// back-transformation applies every recorded block this way, straight
/// on a column panel's row window.
pub fn apply_q_view(u: &MatrixView, t: &MatrixView, c: &mut MatrixViewMut, ws: &mut Workspace) {
    apply_block_view(u, t, Trans::N, c, ws);
}

/// `C ← C − U·(op(T)·(Uᵀ·C))`: three products, `op(T) = T` for `Q`,
/// `Tᵀ` for `Qᵀ`.
fn apply_block_view(
    u: &MatrixView,
    t: &MatrixView,
    tt: Trans,
    c: &mut MatrixViewMut,
    ws: &mut Workspace,
) {
    let (k, nc) = (u.cols(), c.cols());
    let mut utc = ws.take_scratch(k * nc);
    let mut s = ws.take_scratch(k * nc);
    gemm_view(
        1.0,
        u,
        Trans::T,
        &c.as_view(),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut utc, k, nc),
    );
    gemm_view(
        1.0,
        t,
        tt,
        &MatrixView::from_slice(&utc, k, nc),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut s, k, nc),
    );
    gemm_view(-1.0, u, Trans::N, &MatrixView::from_slice(&s, k, nc), Trans::N, 1.0, c);
    ws.put(s);
    ws.put(utc);
}

/// `C ← Qᵀ·C = C − U·(Tᵀ·(Uᵀ·C))`.
pub fn apply_qt(u: &Matrix, t: &Matrix, c: &mut Matrix) {
    assert_eq!(u.rows(), c.rows());
    with_ws(|ws| apply_qt_view(&u.view(), &t.view(), &mut c.view_mut(), ws));
}

/// `C ← Q·C = C − U·(T·(Uᵀ·C))`.
pub fn apply_q(u: &Matrix, t: &Matrix, c: &mut Matrix) {
    assert_eq!(u.rows(), c.rows());
    let utc = matmul(u, Trans::T, c, Trans::N);
    let s = matmul(t, Trans::N, &utc, Trans::N);
    gemm(-1.0, u, Trans::N, &s, Trans::N, 1.0, c);
}

/// `C ← C·Q = C − ((C·U)·T)·Uᵀ`.
pub fn apply_q_right(u: &Matrix, t: &Matrix, c: &mut Matrix) {
    assert_eq!(u.rows(), c.cols());
    let cu = matmul(c, Trans::N, u, Trans::N);
    let cut = matmul(&cu, Trans::N, t, Trans::N);
    gemm(-1.0, &cut, Trans::N, u, Trans::T, 1.0, c);
}

/// The first `ncols` columns of the explicit `Q` factor (`m × ncols`).
pub fn explicit_q(u: &Matrix, t: &Matrix, ncols: usize) -> Matrix {
    let m = u.rows();
    assert!(ncols <= m);
    let mut q = Matrix::zeros(m, ncols);
    for i in 0..ncols {
        q.set(i, i, 1.0);
    }
    apply_q(u, t, &mut q);
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_qr(a: &Matrix, nb: usize, tol: f64) {
        let f = qr_factor(a, nb);
        let k = f.k();
        // R upper-triangular.
        for i in 0..k {
            for j in 0..i.min(f.r.cols()) {
                assert!(
                    f.r.get(i, j).abs() < tol,
                    "R not upper triangular at ({i},{j})"
                );
            }
        }
        // Q orthogonal: (I − UTUᵀ)ᵀ(I − UTUᵀ) = I on the first k columns.
        let q = explicit_q(&f.u, &f.t, k);
        let qtq = matmul(&q, Trans::T, &q, Trans::N);
        assert!(
            qtq.max_diff(&Matrix::identity(k)) < tol,
            "QᵀQ deviates from identity by {}",
            qtq.max_diff(&Matrix::identity(k))
        );
        // A = Q·R.
        let qr = matmul(&q, Trans::N, &f.r, Trans::N);
        assert!(qr.max_diff(a) < tol * a.norm_max().max(1.0), "A ≠ QR");
    }

    #[test]
    fn tall_matrix() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = gen::random_matrix(&mut rng, 40, 8);
        check_qr(&a, 4, 1e-10);
    }

    #[test]
    fn square_matrix() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = gen::random_matrix(&mut rng, 16, 16);
        check_qr(&a, 5, 1e-10);
    }

    #[test]
    fn wide_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = gen::random_matrix(&mut rng, 6, 14);
        check_qr(&a, 3, 1e-10);
    }

    #[test]
    fn single_column() {
        let a = Matrix::from_vec(4, 1, vec![3.0, 0.0, 4.0, 0.0]);
        let f = qr_factor(&a, 1);
        assert!((f.r.get(0, 0).abs() - 5.0).abs() < 1e-12);
        check_qr(&a, 1, 1e-12);
    }

    #[test]
    fn already_triangular_input() {
        let a = Matrix::from_fn(5, 5, |i, j| if j >= i { (i + j + 1) as f64 } else { 0.0 });
        check_qr(&a, 2, 1e-10);
    }

    #[test]
    fn zero_column_is_handled() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut a = gen::random_matrix(&mut rng, 10, 4);
        for i in 0..10 {
            a.set(i, 2, 0.0);
        }
        check_qr(&a, 2, 1e-10);
    }

    #[test]
    fn blocked_matches_unblocked() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = gen::random_matrix(&mut rng, 24, 12);
        let f1 = qr_factor(&a, 1);
        let f2 = qr_factor(&a, 5);
        // R is unique up to column signs; with identical reflector sign
        // conventions both paths must agree exactly (same elimination order).
        assert!(f1.r.max_diff(&f2.r) < 1e-10);
        assert!(f1.u.max_diff(&f2.u) < 1e-10);
    }

    #[test]
    fn apply_qt_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = gen::random_matrix(&mut rng, 12, 5);
        let c = gen::random_matrix(&mut rng, 12, 7);
        let f = qr_factor(&a, 3);
        let q = explicit_q(&f.u, &f.t, 12);
        let want = matmul(&q, Trans::T, &c, Trans::N);
        let mut got = c.clone();
        apply_qt(&f.u, &f.t, &mut got);
        assert!(got.max_diff(&want) < 1e-10);
    }

    #[test]
    fn apply_q_right_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = gen::random_matrix(&mut rng, 9, 4);
        let c = gen::random_matrix(&mut rng, 6, 9);
        let f = qr_factor(&a, 2);
        let q = explicit_q(&f.u, &f.t, 9);
        let want = matmul(&c, Trans::N, &q, Trans::N);
        let mut got = c.clone();
        apply_q_right(&f.u, &f.t, &mut got);
        assert!(got.max_diff(&want) < 1e-10);
    }

    #[test]
    fn qt_applied_to_a_gives_r() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = gen::random_matrix(&mut rng, 15, 6);
        let f = qr_factor(&a, 4);
        let mut c = a.clone();
        apply_qt(&f.u, &f.t, &mut c);
        // Top 6×6 of QᵀA is R, bottom is ~0.
        for i in 0..6 {
            for j in 0..6 {
                assert!((c.get(i, j) - f.r.get(i, j)).abs() < 1e-10);
            }
        }
        for i in 6..15 {
            for j in 0..6 {
                assert!(c.get(i, j).abs() < 1e-10);
            }
        }
    }
}
