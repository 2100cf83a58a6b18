//! Recursive Householder QR with the compact-WY representation
//! `Q = I − U·T·Uᵀ` used throughout the paper (§III.B, §IV).
//!
//! `U` is unit lower-trapezoidal (`m × min(m,n)`, implicit unit diagonal
//! stored explicitly here for simplicity), `T` is upper-triangular. This
//! matches the paper's Householder aggregation: Corollary III.7's
//! reconstruction produces the same kind of `(U, T)` pair, and the
//! two-sided update identity of Eqn. (IV.1) consumes it. The structure
//! is exact for the factors made here; the reconstruction's `U`
//! (`ca_pla::reconstruct`) is unit lower-trapezoidal only to rounding —
//! its top block carries ulp-level entries above and on the diagonal —
//! so a product that skips a triangle of a `U` is exact only on these.
//!
//! There is one factorisation, `qr_inplace` — Lemma III.4's sequential
//! recursive QR: split the columns, factor the left half, update the
//! right half by GEMM, factor it, assemble `T` by GEMM. It has no block
//! size; rect-QR's tree nodes, TSQR's leaves, every bulge chase and the
//! input generator reach it ([`qr_factor`] is its allocating wrapper).
//!
//! There is one compact-WY routine, [`Wy`], which forms and applies `Q`
//! and `Qᵀ` on the exact zeros of `U` and `T`; every product by a `Q`
//! made here, and the back-transformation's, goes through it.

use crate::gemm::{gemm_view_tri, Trans, Tri};
use crate::matrix::Matrix;
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::{with_ws, Workspace};
use std::borrow::Cow;

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
fn qr_leaf(
    w: &mut MatrixViewMut,
    u: &mut MatrixViewMut,
    t: &mut MatrixViewMut,
    ws: &mut Workspace,
) {
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
/// the unblocked elimination order, kept as the oracle the tests compare
/// against. The parameter survives because
/// the frozen benchmark harness passes one; it goes in the next
/// `[benchmark]` PR (ROADMAP item 9's shim list).
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
    factor_in_place(a.clone(), nb.clamp(1, LEAF))
}

/// [`qr_factor`] of a (strided) view with the default leaf: how a
/// distributed building block factors one rank's block of its operand.
/// The one copy it makes is the factorisation's working buffer, as in
/// [`qr_factor`].
pub fn qr_factor_view(a: &MatrixView) -> QrFactors {
    factor_in_place(a.to_matrix(), LEAF)
}

/// `(U, T, R)` of `w`, factored in place with leaf width `leaf`.
fn factor_in_place(mut w: Matrix, leaf: usize) -> QrFactors {
    let (u, t) = factor_wy(&mut w, leaf);
    let k = u.cols();
    let mut r = Matrix::zeros(k, w.cols());
    for i in 0..k {
        r.row_mut(i)[i..].copy_from_slice(&w.row(i)[i..]);
    }
    QrFactors { u, t, r }
}

/// `(U, T)` of `w`, factored in place with leaf width `leaf`; `w` is
/// left holding `R` and the reflector tails.
fn factor_wy(w: &mut Matrix, leaf: usize) -> (Matrix, Matrix) {
    let _span = ca_obs::kernel_span("qr.factor");
    let (m, n) = (w.rows(), w.cols());
    let k = m.min(n);
    let mut u = Matrix::zeros(m, k);
    let mut t = Matrix::zeros(k, k);
    with_ws(|ws| {
        qr_leaf_capped(
            &mut w.view_mut(),
            &mut u.view_mut(),
            &mut t.view_mut(),
            leaf,
            ws,
        )
    });
    (u, t)
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
/// [`Wy`], which skips the factors' zero triangles, so all but the leaf
/// columns run at GEMM rate with no block size to tune. A wide input
/// (`m < n`) factors its leading `m` columns and applies `Qᵀ` to the
/// rest. All scratch (the `n₁ × n₂` temporaries) comes from `ws`:
/// steady-state calls allocate nothing.
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
        own_factors(u.as_view(), t.as_view()).apply(
            Trans::T,
            Side::Left,
            &mut w.sub_mut(0, k, m, n - k),
            ws,
        );
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
    own_factors(u.sub(0, 0, m, n1), t.sub(0, 0, n1, n1)).apply(
        Trans::T,
        Side::Left,
        &mut w.sub_mut(0, n1, m, n2),
        ws,
    );
    qr_rec(
        &mut w.sub_mut(n1, n1, m - n1, n2),
        &mut u.sub_mut(n1, n1, m - n1, n2),
        &mut t.sub_mut(n1, n1, n2, n2),
        leaf,
        ws,
    );
    u.sub_mut(0, n1, n1, n2).fill(0.0);
    t.sub_mut(n1, 0, n2, n1).fill(0.0);

    let mut g = ws.take_scratch(n1 * n2);
    let first = own_factors(u.sub(0, 0, m, n1), t.sub(0, 0, n1, n1));
    let second = own_factors(u.sub(n1, n1, m - n1, n2), t.sub(n1, n1, n2, n2));
    first.join_t(&second, &mut MatrixViewMut::from_slice(&mut g, n1, n2), ws);
    t.sub_mut(0, n1, n1, n2)
        .copy_from(&MatrixView::from_slice(&g, n1, n2));
    ws.put(g);
}

/// The recursion's own factors, whose zeros it writes exactly: a debug
/// build asserts that [`Wy::new`] found them so, since a lost zero would
/// only slow the products down, silently.
fn own_factors<'a>(u: MatrixView<'a>, t: MatrixView<'a>) -> Wy<'a> {
    let wy = Wy::new(u, t);
    debug_assert!(
        wy.is_exact(),
        "the QR's compact-WY factors with non-zeros in a structural triangle"
    );
    wy
}

/// Which side of `C` a compact-WY `Q` multiplies from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `C ← op(Q)·C`.
    Left,
    /// `C ← C·op(Q)`.
    Right,
}

/// A right-hand side of [`Wy::coeff`] and [`Wy::update`] with its zeros
/// known, `U`'s `m` rows tall. Neither is materialised: the products
/// read only the rows that can be non-zero.
#[derive(Clone, Copy)]
pub enum Rhs<'a> {
    /// `I[:, ..ncols]`: the first `ncols ≤ m` columns of the identity.
    Identity(usize),
    /// `[S; 0]`: `S` (at most `m` rows) on top of zero rows.
    Top(MatrixView<'a>),
}

impl Rhs<'_> {
    /// Columns of `C`.
    pub fn cols(&self) -> usize {
        match self {
            Rhs::Identity(ncols) => *ncols,
            Rhs::Top(s) => s.cols(),
        }
    }
}

/// `Q = I − U·T·Uᵀ` as the one routine that forms and applies it: the
/// recursive QR's trailing update and `T` merge, the explicit `Q` of a
/// QR, TSQR's down-sweep and the eigenvector back-transformation are
/// methods here. (The chase kernel fuses its two-sided update into its
/// own structured products, [`crate::bulge`]; rect-QR's distributed
/// multiplies charge Lemma III.2 on a `U` that is not exact.)
///
/// **Structure.** `U` (`m × k`) is unit lower-trapezoidal and `T`
/// (`k × k`) upper triangular. When both hold *exactly* — `U` zero above
/// its diagonal, `T` below, as every factor `qr_inplace` writes —
/// each product goes through [`gemm_view_tri`] told so: `Uᵀ·C`, `U·X`,
/// `C·U`, `X·Uᵀ` and `op(T)·W` cut their inner dimension to where both
/// factors can be non-zero, and an identity right-hand side is read as
/// `Uᵀ` in place (`Uᵀ·I[:, ..ncols]` is `Uᵀ[:, ..ncols]`, entry for
/// entry), so the explicit `Q` takes about `n³` flops instead of `6n³`.
/// By GEMM's cell contract each product's cells keep the bits of the
/// plain three-product form (`oracle::apply_wy_reference`,
/// `tests/wy_props.rs`). A factor whose zeros hold only to rounding — the
/// reconstruction's `U` (`ca_pla::reconstruct`) — runs the same products
/// with no structure claimed, which are the plain form exactly:
/// [`Wy::new`] reads the triangles and decides.
///
/// **Right-hand sides.** [`Wy::apply`] updates a dense `C` in place from
/// either side, its two `k`-wide intermediates lent by the arena.
/// [`Wy::coeff`] and [`Wy::update`] are the left-side application split
/// at its coefficient `X = op(T)·(Uᵀ·C)` for a [`Rhs`] that is not
/// materialised, so that one coefficient can feed several row windows
/// of `op(Q)·C = C − U·X` (TSQR sends the two halves of a node's output
/// to different ranks).
#[derive(Clone, Copy)]
pub struct Wy<'a> {
    u: MatrixView<'a>,
    t: MatrixView<'a>,
    exact: bool,
}

impl<'a> Wy<'a> {
    /// The factors, their structure checked, not assumed: the products
    /// skip `U`'s and `T`'s zero triangles only if every entry there is
    /// an exact zero, else they run on the full operands. The scan reads
    /// `k²` entries against the products' `m·k·ncols`.
    pub fn new(u: MatrixView<'a>, t: MatrixView<'a>) -> Self {
        let k = u.cols();
        assert!(k <= u.rows(), "U must be tall");
        assert_eq!((t.rows(), t.cols()), (k, k), "T must be k × k");
        let exact = (0..k).all(|r| u.row(r)[r + 1..].iter().all(|&x| x == 0.0))
            && (1..k).all(|r| t.row(r)[..r].iter().all(|&x| x == 0.0));
        Wy { u, t, exact }
    }

    /// Whether the products skip the structural zeros: `U` is exactly
    /// zero above its diagonal and `T` below.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// Number of reflectors.
    pub fn k(&self) -> usize {
        self.u.cols()
    }

    /// `C ← op(Q)·C` ([`Side::Left`], `C` has `m` rows) or `C ← C·op(Q)`
    /// ([`Side::Right`], `m` columns) in place on a (strided) view, with
    /// `op(Q) = Q` for `trans = N` and `Qᵀ` for `T`: three products, two
    /// `k`-wide intermediates lent by `ws`.
    pub fn apply(&self, trans: Trans, side: Side, c: &mut MatrixViewMut, ws: &mut Workspace) {
        let (u, t, k) = (&self.u, &self.t, self.k());
        let t_tri = t_structure(trans);
        let (rows, cols) = match side {
            Side::Left => (k, c.cols()),
            Side::Right => (c.rows(), k),
        };
        let mut w = ws.take_scratch(rows * cols);
        let mut x = ws.take_scratch(rows * cols);
        let mut wv = MatrixViewMut::from_slice(&mut w, rows, cols);
        let mut xv = MatrixViewMut::from_slice(&mut x, rows, cols);
        match side {
            Side::Left => {
                assert_eq!(u.rows(), c.rows(), "apply: C must have U's rows");
                // C − U·(op(T)·(Uᵀ·C)).
                let ut = [Tri::Upper, Tri::Full, Tri::Full];
                self.product(1.0, u, Trans::T, &c.as_view(), Trans::N, 0.0, &mut wv, ut);
                let tw = [t_tri, Tri::Full, Tri::Full];
                self.product(1.0, t, trans, &wv.as_view(), Trans::N, 0.0, &mut xv, tw);
                let ux = [Tri::Lower, Tri::Full, Tri::Full];
                self.product(-1.0, u, Trans::N, &xv.as_view(), Trans::N, 1.0, c, ux);
            }
            Side::Right => {
                assert_eq!(u.rows(), c.cols(), "apply: C must have U's rows as columns");
                // C − ((C·U)·op(T))·Uᵀ.
                let cu = [Tri::Full, Tri::Lower, Tri::Full];
                self.product(1.0, &c.as_view(), Trans::N, u, Trans::N, 0.0, &mut wv, cu);
                let wt = [Tri::Full, t_tri, Tri::Full];
                self.product(1.0, &wv.as_view(), Trans::N, t, trans, 0.0, &mut xv, wt);
                let xu = [Tri::Full, Tri::Upper, Tri::Full];
                self.product(-1.0, &xv.as_view(), Trans::N, u, Trans::T, 1.0, c, xu);
            }
        }
        ws.put(x);
        ws.put(w);
    }

    /// `out ← op(T)·(Uᵀ·C)` (`k × ncols`), the coefficient of
    /// `op(Q)·C = C − U·out` for a right-hand side whose zeros are known.
    /// For an identity it is `op(T)·Uᵀ[:, ..ncols]` with `Uᵀ` read in
    /// place — upper × upper for `Q`, so only `out`'s upper triangle is
    /// computed and the rest is zeroed.
    pub fn coeff(&self, trans: Trans, rhs: Rhs, out: &mut MatrixViewMut) {
        let (u, t, k) = (&self.u, &self.t, self.k());
        let ncols = rhs.cols();
        assert_eq!(
            (out.rows(), out.cols()),
            (k, ncols),
            "coeff: out must be k × ncols"
        );
        let t_tri = t_structure(trans);
        match rhs {
            Rhs::Identity(_) => {
                assert!(ncols <= u.rows(), "coeff: more identity columns than rows");
                let out_tri = if t_tri == Tri::Upper && self.exact {
                    for r in 1..k {
                        out.row_mut(r)[..r.min(ncols)].fill(0.0);
                    }
                    Tri::Upper
                } else {
                    Tri::Full
                };
                let ut = u.sub(0, 0, ncols, k);
                let tri = [t_tri, Tri::Upper, out_tri];
                self.product(1.0, t, trans, &ut, Trans::T, 0.0, out, tri);
            }
            Rhs::Top(s) => {
                let r = s.rows();
                assert!(r <= u.rows(), "coeff: S taller than U");
                // Uᵀ·[S; 0] = U[..r]ᵀ·S: the zero rows end the inner
                // dimension, so dropping them moves no chunk boundary.
                let mut w = Matrix::zeros(k, ncols);
                let us = [Tri::Upper, Tri::Full, Tri::Full];
                let ur = u.sub(0, 0, r, k);
                self.product(1.0, &ur, Trans::T, &s, Trans::N, 0.0, &mut w.view_mut(), us);
                let tw = [t_tri, Tri::Full, Tri::Full];
                self.product(1.0, t, trans, &w.view(), Trans::N, 0.0, out, tw);
            }
        }
    }

    /// Rows `row0 .. row0 + out.rows()` of `op(Q)·C = C − U·coeff` into
    /// `out`, `coeff` from [`Wy::coeff`] with the same `trans` and `rhs`.
    /// It reads `U` alone, so the explicit `Q` of a QR can free `T`
    /// first.
    pub fn update(
        &self,
        trans: Trans,
        rhs: Rhs,
        coeff: &MatrixView,
        row0: usize,
        out: &mut MatrixViewMut,
    ) {
        update_rows(&self.u, self.exact, trans, rhs, coeff, row0, out);
    }

    /// `T₁₂ = −T₁₁·(U₁ᵀ·U₂)·T₂₂`, the block that joins `self = (U₁, T₁₁)`
    /// and `second = (U₂, T₂₂)` — whose reflectors act on rows `k₁..` of
    /// the first's — into one compact-WY pair `Q₁·Q₂`, into `out`
    /// (`k₁ × k₂`). Only `U₁`'s rows from `k₁` down meet `U₂`, and below
    /// its triangle they are full.
    fn join_t(&self, second: &Wy, out: &mut MatrixViewMut, ws: &mut Workspace) {
        let (k1, k2) = (self.k(), second.k());
        // Skip U₂'s and T₂₂'s zeros only if they are exact too.
        let wy = Wy {
            exact: self.exact && second.exact,
            ..*self
        };
        let below = self.u.sub(k1, 0, self.u.rows() - k1, k1);
        assert_eq!(
            below.rows(),
            second.u.rows(),
            "join_t: U₂ must hang below U₁'s triangle"
        );
        let mut h = ws.take_scratch(k1 * k2);
        let mut hv = MatrixViewMut::from_slice(&mut h, k1, k2);
        let uu = [Tri::Full, Tri::Lower, Tri::Full];
        wy.product(1.0, &below, Trans::T, &second.u, Trans::N, 0.0, out, uu);
        let gt = [Tri::Full, Tri::Upper, Tri::Full];
        wy.product(
            1.0,
            &out.as_view(),
            Trans::N,
            &second.t,
            Trans::N,
            0.0,
            &mut hv,
            gt,
        );
        let th = [Tri::Upper, Tri::Full, Tri::Full];
        wy.product(
            -1.0,
            &self.t,
            Trans::N,
            &hv.as_view(),
            Trans::N,
            0.0,
            out,
            th,
        );
        ws.put(h);
    }

    /// One product of the routine, its structure claimed only when the
    /// factors' zeros are exact.
    #[allow(clippy::too_many_arguments)] // gemm_view_tri's signature
    fn product(
        &self,
        alpha: f64,
        a: &MatrixView,
        ta: Trans,
        b: &MatrixView,
        tb: Trans,
        beta: f64,
        c: &mut MatrixViewMut,
        tri: [Tri; 3],
    ) {
        let tri = if self.exact { tri } else { [Tri::Full; 3] };
        gemm_view_tri(alpha, a, ta, b, tb, beta, c, tri);
    }
}

/// The structure of `op(T)`: upper for `T`, lower for `Tᵀ`.
fn t_structure(trans: Trans) -> Tri {
    match trans {
        Trans::N => Tri::Upper,
        Trans::T => Tri::Lower,
    }
}

/// [`Wy::update`] on `U` alone, `exact` as [`Wy::is_exact`] read it for
/// the coefficient: the last product needs no `T`, so [`explicit_q_of`]
/// frees `T` before it allocates `Q`.
#[allow(clippy::too_many_arguments)] // Wy::update's arguments and the factor
fn update_rows(
    u: &MatrixView,
    exact: bool,
    trans: Trans,
    rhs: Rhs,
    coeff: &MatrixView,
    row0: usize,
    out: &mut MatrixViewMut,
) {
    let (nrows, ncols, k) = (out.rows(), out.cols(), u.cols());
    assert_eq!(ncols, rhs.cols(), "update: out must have C's columns");
    assert!(row0 + nrows <= u.rows(), "update: rows past U's");
    let identity = match rhs {
        Rhs::Identity(_) => {
            out.fill(0.0);
            for i in row0..(row0 + nrows).min(ncols) {
                out.set(i - row0, i, 1.0);
            }
            true
        }
        Rhs::Top(s) => {
            let live = s.rows().saturating_sub(row0).min(nrows);
            out.sub_mut(0, 0, live, ncols)
                .copy_from(&s.sub(row0.min(s.rows()), 0, live, ncols));
            out.sub_mut(live, 0, nrows - live, ncols).fill(0.0);
            false
        }
    };
    // T·Uᵀ is upper × upper.
    let coeff_tri = if identity && trans == Trans::N {
        Tri::Upper
    } else {
        Tri::Full
    };
    // A window from row 0 is U's own lower trapezoid; one lower down is
    // lower only from an offset diagonal, which no `Tri` names.
    let u_tri = if row0 == 0 { Tri::Lower } else { Tri::Full };
    let tri = if exact {
        [u_tri, coeff_tri, Tri::Full]
    } else {
        [Tri::Full; 3]
    };
    let uw = u.sub(row0, 0, nrows, k);
    gemm_view_tri(-1.0, &uw, Trans::N, coeff, Trans::N, 1.0, out, tri);
}

/// `C ← Qᵀ·C = C − U·(Tᵀ·(Uᵀ·C))`.
pub fn apply_qt(u: &Matrix, t: &Matrix, c: &mut Matrix) {
    let wy = Wy::new(u.view(), t.view());
    with_ws(|ws| wy.apply(Trans::T, Side::Left, &mut c.view_mut(), ws));
}

/// `C ← C·Q = C − ((C·U)·T)·Uᵀ`.
pub fn apply_q_right(u: &Matrix, t: &Matrix, c: &mut Matrix) {
    let wy = Wy::new(u.view(), t.view());
    with_ws(|ws| wy.apply(Trans::N, Side::Right, &mut c.view_mut(), ws));
}

/// The first `ncols` columns of the explicit `Q` factor (`m × ncols`):
/// `S = T·Uᵀ[:, ..ncols]`, then `Q = I − U·S` (module [`Wy`]).
pub fn explicit_q(u: &Matrix, t: &Matrix, ncols: usize) -> Matrix {
    q_from_factors(u, Cow::Borrowed(t), ncols)
}

/// The explicit `m × k` `Q` of `a`'s QR with the least memory: `a` is
/// factored in place and freed with `R`, and `T` is freed before `Q` is
/// allocated — at most three `m × k`-sized buffers are live (the input
/// generator's `n × n` case).
pub(crate) fn explicit_q_of(mut a: Matrix) -> Matrix {
    let (u, t) = factor_wy(&mut a, LEAF);
    drop(a);
    let k = u.cols();
    q_from_factors(&u, Cow::Owned(t), k)
}

/// [`explicit_q`]'s two products; an owned `T` is freed once `S` is
/// formed.
fn q_from_factors(u: &Matrix, t: Cow<Matrix>, ncols: usize) -> Matrix {
    let rhs = Rhs::Identity(ncols);
    let wy = Wy::new(u.view(), t.view());
    let exact = wy.is_exact();
    let mut s = Matrix::zeros(wy.k(), ncols);
    wy.coeff(Trans::N, rhs, &mut s.view_mut());
    drop(t);
    let mut q = Matrix::zeros(u.rows(), ncols);
    update_rows(
        &u.view(),
        exact,
        Trans::N,
        rhs,
        &s.view(),
        0,
        &mut q.view_mut(),
    );
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
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
