//! Bulge-chasing band reduction: the elimination kernel of
//! Algorithm IV.2 (2.5D-Band-to-Band), with the paper's exact index
//! ranges (lines 8–14 of the pseudocode).
//!
//! A symmetric matrix of bandwidth `b` is reduced to bandwidth `h = b/k`
//! by eliminating `n/h` trapezoidal panels via QR; each elimination
//! creates a *bulge* of fill which is chased down the band by `O(n/b)`
//! further QR factorizations. The module exposes:
//!
//! * [`chase_plan`] — the full list of chase operations `(i, j)` with all
//!   index ranges precomputed. Both the sequential executor here and the
//!   distributed executors in `ca-eigen` replay this same plan, so their
//!   numerics are identical; the distributed versions additionally
//!   schedule operations into the paper's pipeline *phases*
//!   (`2i + j = const`, cf. Figure 2) and charge communication.
//! * [`execute_chase`] — apply one chase to a [`BandedSym`] in place:
//!   the zero-copy engine factors the QR block and updates the affected
//!   band strip directly through [`crate::workspace`] arena buffers and
//!   [`crate::view`] views, with no dense-window materialization and no
//!   steady-state heap allocation. The seed's dense-window path is kept
//!   as [`execute_chase_reference`], the bitwise oracle of
//!   `tests/kernel_equivalence.rs` (see DESIGN.md §"kernel engine").
//! * [`reduce_band`] — run the whole plan sequentially.

use crate::band::BandedSym;
use crate::gemm::{gemm, gemm_view, gemm_view_hinted, matmul, Trans};
use crate::matrix::Matrix;
use crate::qr::{qr_factor, qr_inplace};
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::{with_ws, Workspace};

/// Chase-window executions (all dispatch variants); live only when
/// `CA_TRACE ≥ 1`, otherwise one relaxed load per chase.
static CHASE_WINDOWS: ca_obs::Counter = ca_obs::Counter::new("bulge.chase_windows");

/// One bulge-chase operation of Algorithm IV.2, with the paper's index
/// ranges translated to 0-based half-open ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseOp {
    /// Panel index `i` (1-based, as in the paper).
    pub i: usize,
    /// Chase index `j` (1-based; `j = 1` is the panel elimination).
    pub j: usize,
    /// Rows of the QR block, `I_qr.rs` (global, 0-based, half-open).
    pub qr_rows: (usize, usize),
    /// Columns of the QR block, `I_qr.cs`.
    pub qr_cols: (usize, usize),
    /// Columns of the trailing update, `I_up.cs`.
    pub up_cols: (usize, usize),
    /// Offset `o_v` of the rows of `V` receiving the symmetric
    /// (two-sided) correction: `I_v.rs = o_v..o_v+nr` within `up_cols`.
    pub ov: usize,
}

impl ChaseOp {
    /// Number of rows of the QR block (`nr ≤ b`).
    pub fn nr(&self) -> usize {
        self.qr_rows.1 - self.qr_rows.0
    }

    /// Number of columns of the QR block (`h`).
    pub fn h(&self) -> usize {
        self.qr_cols.1 - self.qr_cols.0
    }

    /// Number of columns of the trailing update (`nc ≤ h + 3b`).
    pub fn nc(&self) -> usize {
        self.up_cols.1 - self.up_cols.0
    }

    /// The pipeline phase of this operation: operations with equal
    /// `2i + j` are independent (they involve disjoint index ranges) and
    /// execute concurrently on different processor groups (Figure 2).
    pub fn phase(&self) -> usize {
        2 * self.i + self.j
    }

    /// Dense-window bounds `[lo, hi)` covering every entry this chase
    /// reads or writes.
    pub fn window(&self) -> (usize, usize) {
        let lo = self.qr_cols.0;
        let hi = self.qr_rows.1.max(self.up_cols.1);
        (lo, hi)
    }
}

/// Enumerate every chase operation for reducing bandwidth `b` to
/// `h = ⌈b/k⌉` on an `n × n` symmetric band matrix, in the sequential
/// (dependency-respecting) order `i`-then-`j` of Algorithm IV.2.
///
/// The paper states the algorithm for `b mod k ≡ 0`; the plan is well
/// defined for any target (strip width `h`, chase step `b`), so
/// non-dividing `k` rounds the target up to `⌈b/k⌉` instead of
/// rejecting the input — what the arbitrary-`n` bandwidth schedules
/// need when halving odd band-widths.
pub fn chase_plan(n: usize, b: usize, k: usize) -> Vec<ChaseOp> {
    assert!(k >= 1 && b >= k, "need 1 ≤ k ≤ b");
    chase_plan_to(n, b, b.div_ceil(k))
}

/// [`chase_plan`] with the target band-width `h` given directly
/// (`1 ≤ h ≤ b < n`): sweep `i` eliminates the `h`-column strip
/// `[(i−1)h, ih)` and chases the resulting bulge in steps of `b`. `h`
/// need not divide `b`.
pub fn chase_plan_to(n: usize, b: usize, h: usize) -> Vec<ChaseOp> {
    assert!(h >= 1 && h <= b, "need 1 ≤ h ≤ b (got h={h}, b={b})");
    assert!(b < n, "bandwidth must be below the matrix dimension");
    let mut ops = Vec::new();
    if h == b {
        return ops; // already at target bandwidth
    }
    // Sweep i eliminates the column strip [(i−1)h, ih). The paper's loop
    // bound `i ∈ [1, n/h − 1]` assumes h | n; the equivalent divisor-free
    // condition is `ih ≤ n − 2` (a strip is needed while some entry below
    // it can sit deeper than h).
    let mut i = 1;
    while i * h <= n - 2 {
        // The paper's bound `j = 1 : ⌊(n − ih − 1)/b⌋` drops the final
        // partial chase of each sweep, stranding tail fill near the
        // bottom-right corner; we instead chase until the QR block hits
        // the matrix end (nr ≥ 2 — a one-row block eliminates nothing
        // and no fill deeper than the band can reach it).
        let mut j = 1;
        loop {
            let oblg = (i - 1) * h + (j - 1) * b;
            let oqr_r = oblg + h;
            if oqr_r > n - 2 {
                break;
            }
            let oqr_c = if j == 1 { oqr_r - h } else { oqr_r - b };
            let oup_c = oqr_c + h;
            let ov = oqr_r - oup_c;
            let nr = (n - oqr_r).min(b);
            let nc = (n - oup_c).min(h + 3 * b);
            ops.push(ChaseOp {
                i,
                j,
                qr_rows: (oqr_r, oqr_r + nr),
                qr_cols: (oqr_c, oqr_c + h),
                up_cols: (oup_c, oup_c + nc),
                ov,
            });
            j += 1;
        }
        i += 1;
    }
    ops
}

/// The dense-window computation of one chase, shared by the sequential
/// and distributed executors: given the symmetric window `d` (with
/// `op.window() = (lo, _)` mapped to local index 0), perform the QR
/// elimination and the two-sided trailing update of Algorithm IV.2
/// lines 16–22 in place.
///
/// Returns the flop-relevant shapes `(nr, h, nc)` so callers can charge
/// costs.
pub fn chase_window_update(d: &mut Matrix, op: &ChaseOp) -> (usize, usize, usize) {
    CHASE_WINDOWS.add(1);
    with_ws(|ws| chase_dense_fast(d, op, ws, false));
    (op.nr(), op.h(), op.nc())
}

/// Like [`chase_window_update`], additionally returning the chase's
/// Householder factors `(U, T)` (with `Q = I − U·T·Uᵀ` acting on the
/// global rows `op.qr_rows`) — the record needed for eigenvector
/// back-transformation.
pub fn chase_window_update_factors(d: &mut Matrix, op: &ChaseOp) -> (Matrix, Matrix) {
    CHASE_WINDOWS.add(1);
    with_ws(|ws| chase_dense_fast(d, op, ws, true)).expect("recording chase returns factors")
}

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

/// Zero-copy dense-window chase: the same arithmetic as
/// [`chase_window_update_factors_reference`] — bitwise identical output
/// — but factoring the QR block in place inside the window and
/// accumulating the rank-2k updates straight into `d`, with every
/// temporary checked out of the arena `ws`. With `record == false` the
/// steady state allocates nothing.
fn chase_dense_fast(
    d: &mut Matrix,
    op: &ChaseOp,
    ws: &mut Workspace,
    record: bool,
) -> Option<(Matrix, Matrix)> {
    let (lo, _hi) = op.window();
    let nr = op.nr();
    let h = op.h();
    let nc = op.nc();
    let ov = op.ov;
    let qr_r = op.qr_rows.0 - lo;
    let qr_c = op.qr_cols.0 - lo;
    let up_c = op.up_cols.0 - lo;
    let kk = nr.min(h);

    // Line 16: [U, T, R] ← QR(B[I_qr.rs, I_qr.cs]), factored in place —
    // afterwards the window block holds R above the diagonal and the
    // reflector tails below it.
    let mut u = ws.take_scratch(nr * kk);
    let mut t = ws.take_scratch(kk * kk);
    qr_inplace(
        &mut d.subview_mut(qr_r, qr_c, nr, h),
        &mut MatrixViewMut::from_slice(&mut u, nr, kk),
        &mut MatrixViewMut::from_slice(&mut t, kk, kk),
        ws,
    );

    // Line 17: zero the reflector tails so the block reads [R; 0], and
    // mirror it (the QR block sits strictly below the mirror — the two
    // regions are disjoint).
    for i in 1..nr {
        for j in 0..i.min(kk) {
            d.set(qr_r + i, qr_c + j, 0.0);
        }
    }
    for i in 0..nr {
        for j in 0..h {
            let val = d.get(qr_r + i, qr_c + j);
            d.set(qr_c + j, qr_r + i, val);
        }
    }

    // Line 19: W = B[I_up.cs, I_qr.rs]·U·T and V = −W, the negation
    // fused into the copy-out instead of clone-then-scale.
    let mut bu = ws.take(nc * kk);
    gemm_view(
        1.0,
        &d.subview(up_c, qr_r, nc, nr),
        Trans::N,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut bu, nc, kk),
    );
    let mut w = ws.take(nc * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&bu, nc, kk),
        Trans::N,
        &MatrixView::from_slice(&t, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut w, nc, kk),
    );
    let mut v = ws.take(nc * kk);
    for (vv, &wv) in v.iter_mut().zip(w.iter()) {
        *vv = -wv;
    }

    // Line 20: V[I_v.rs, :] += ½·U·(Tᵀ·(Uᵀ·W[I_v.rs, :])), reading
    // W's symmetric rows through a strided view instead of a copy.
    let mut utw = ws.take(kk * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::T,
        &MatrixView::from_slice(&w, nc, kk).sub(ov, 0, nr, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut utw, kk, kk),
    );
    let mut ttutw = ws.take(kk * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&t, kk, kk),
        Trans::T,
        &MatrixView::from_slice(&utw, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut ttutw, kk, kk),
    );
    let mut corr = ws.take(nr * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::N,
        &MatrixView::from_slice(&ttutw, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut corr, nr, kk),
    );
    for a in 0..nr {
        for c in 0..kk {
            v[(ov + a) * kk + c] += 0.5 * corr[a * kk + c];
        }
    }

    // Lines 21–22: accumulate B[I_qr.rs, I_up.cs] += U·Vᵀ and
    // B[I_up.cs, I_qr.rs] += V·Uᵀ directly into the window, in the
    // reference's order (the second read-modify-writes the diagonal
    // square the first already touched).
    gemm_view(
        1.0,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::N,
        &MatrixView::from_slice(&v, nc, kk),
        Trans::T,
        1.0,
        &mut d.subview_mut(qr_r, up_c, nr, nc),
    );
    gemm_view(
        1.0,
        &MatrixView::from_slice(&v, nc, kk),
        Trans::N,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::T,
        1.0,
        &mut d.subview_mut(up_c, qr_r, nc, nr),
    );

    let out = if record {
        Some((Matrix::from_vec(nr, kk, u.clone()), Matrix::from_vec(kk, kk, t.clone())))
    } else {
        None
    };
    ws.put(corr);
    ws.put(ttutw);
    ws.put(utw);
    ws.put(v);
    ws.put(w);
    ws.put(bu);
    ws.put(t);
    ws.put(u);
    out
}

/// Zero-copy banded chase: operate on the band storage directly, never
/// materializing the dense symmetric window. Only the `nr × h` QR block
/// and the `nc × nr` update strip `B[I_up.cs, I_qr.rs]` are gathered
/// (into arena buffers); the rank-2k update runs on the strip and each
/// symmetric pair is written back exactly once, from the orientation
/// whose floating-point accumulation order matches the cell the
/// reference path's `set_window` persists (the globally *lower* one) —
/// see DESIGN.md §"kernel engine" for the case analysis. Bitwise
/// identical to [`execute_chase_reference`].
fn chase_banded_fast(
    bmat: &mut BandedSym,
    op: &ChaseOp,
    ws: &mut Workspace,
    record: bool,
) -> Option<(Matrix, Matrix)> {
    let nr = op.nr();
    let h = op.h();
    let nc = op.nc();
    let ov = op.ov;
    let qr_r0 = op.qr_rows.0;
    let qr_c0 = op.qr_cols.0;
    let up_c0 = op.up_cols.0;
    let kk = nr.min(h);

    // Line 16: gather the QR block from the band (symmetric read, 0.0
    // beyond capacity — exactly the window materialization values) and
    // factor it in the arena.
    let mut blk = ws.take(nr * h);
    for i in 0..nr {
        for j in 0..h {
            blk[i * h + j] = bmat.get(qr_r0 + i, qr_c0 + j);
        }
    }
    let mut u = ws.take_scratch(nr * kk);
    let mut t = ws.take_scratch(kk * kk);
    qr_inplace(
        &mut MatrixViewMut::from_slice(&mut blk, nr, h),
        &mut MatrixViewMut::from_slice(&mut u, nr, kk),
        &mut MatrixViewMut::from_slice(&mut t, kk, kk),
        ws,
    );

    // Line 17: write [R; 0] back. Every QR-block entry is globally
    // lower (qr_rows.0 ≥ qr_cols.0 + h), so this covers the mirror too.
    for i in 0..nr {
        for j in 0..h {
            let val = if i < kk && j >= i { blk[i * h + j] } else { 0.0 };
            bmat.set(qr_r0 + i, qr_c0 + j, val);
        }
    }

    // Gather the update strip P = B[I_up.cs, I_qr.rs] (disjoint from the
    // QR block in band storage, so gathering after the R write is safe).
    // Strip cell (r, c) is global (up_c0+r, qr_r0+c); instead of per-cell
    // symmetric `get` (orientation branch + capacity branch each), stream
    // the two triangles straight off the band slab: globally-upper cells
    // (r < ov + c) sit mirror-contiguous along each strip row, lower
    // cells run contiguously down each stored column. Cells beyond the
    // capacity stay at the arena's 0.0 fill — the value `get` returns.
    let cap = bmat.capacity();
    let bw = cap + 1;
    let mut p1 = ws.take(nc * nr);
    {
        let slab = bmat.bands();
        for r in 0..nc.min(ov + nr) {
            let c0 = (r + 1).saturating_sub(ov).min(nr);
            let c1 = nr.min((cap + r + 1).saturating_sub(ov));
            if c0 < c1 {
                let base = (up_c0 + r) * bw + (ov + c0 - r);
                p1[r * nr + c0..r * nr + c1].copy_from_slice(&slab[base..base + (c1 - c0)]);
            }
        }
        for c in 0..nr {
            let r0 = ov + c;
            if r0 >= nc {
                break;
            }
            let r1 = nc.min(r0 + bw);
            let base = (qr_r0 + c) * bw;
            for (d, r) in (r0..r1).enumerate() {
                p1[r * nr + c] = slab[base + d];
            }
        }
    }

    // Line 19: W = P·U·T, V = −W fused.
    let mut bu = ws.take(nc * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&p1, nc, nr),
        Trans::N,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut bu, nc, kk),
    );
    let mut w = ws.take(nc * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&bu, nc, kk),
        Trans::N,
        &MatrixView::from_slice(&t, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut w, nc, kk),
    );
    let mut v = ws.take(nc * kk);
    for (vv, &wv) in v.iter_mut().zip(w.iter()) {
        *vv = -wv;
    }

    // Line 20: symmetric correction on V's rows ov..ov+nr.
    let mut utw = ws.take(kk * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::T,
        &MatrixView::from_slice(&w, nc, kk).sub(ov, 0, nr, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut utw, kk, kk),
    );
    let mut ttutw = ws.take(kk * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&t, kk, kk),
        Trans::T,
        &MatrixView::from_slice(&utw, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut ttutw, kk, kk),
    );
    let mut corr = ws.take(nr * kk);
    gemm_view(
        1.0,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::N,
        &MatrixView::from_slice(&ttutw, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut corr, nr, kk),
    );
    for a in 0..nr {
        for c in 0..kk {
            v[(ov + a) * kk + c] += 0.5 * corr[a * kk + c];
        }
    }

    // Line 21 restricted to the strip: of B[I_qr.rs, I_up.cs] += U·Vᵀ
    // only the diagonal square (columns ov..ov+nr of the update) lands
    // on pairs the strip holds; accumulate it into P's rows ov..ov+nr
    // *before* line 22, reproducing the reference's per-cell addition
    // order on the persisted orientation. The shape hint pins the
    // reference's full-shape (nr × nc × kk) kernel choice.
    {
        let mut p1v = MatrixViewMut::from_slice(&mut p1, nc, nr);
        gemm_view_hinted(
            1.0,
            &MatrixView::from_slice(&u, nr, kk),
            Trans::N,
            &MatrixView::from_slice(&v, nc, kk).sub(ov, 0, nr, kk),
            Trans::T,
            1.0,
            &mut p1v.sub_mut(ov, 0, nr, nr),
            (nr, nc, kk),
        );
    }
    // Line 22: B[I_up.cs, I_qr.rs] += V·Uᵀ, the strip's own orientation.
    gemm_view(
        1.0,
        &MatrixView::from_slice(&v, nc, kk),
        Trans::N,
        &MatrixView::from_slice(&u, nr, kk),
        Trans::T,
        1.0,
        &mut MatrixViewMut::from_slice(&mut p1, nc, nr),
    );

    // Write each symmetric pair back exactly once:
    // * rows r < ov are globally upper with no mirror in the strip —
    //   single-term cells, bitwise equal to the lower value the
    //   reference persists;
    // * rows r ≥ ov are lower iff r − ov ≥ c; the lower cell carries the
    //   reference's (line 21 then line 22) accumulation order, its upper
    //   mirror the swapped order — skip the mirror.
    //
    // As in the gather, stream straight onto the band slab (mirror rows
    // for r < ov, stored columns for the lower triangle), maintaining
    // `set`'s scale high-water and its fill-analysis check: a value the
    // capacity cannot hold must be negligible against the scale.
    {
        let (slab, scale) = bmat.bands_mut_scale();
        let mut smax = *scale;
        for r in 0..ov.min(nc) {
            let c1 = nr.min((cap + r + 1).saturating_sub(ov));
            let base = (up_c0 + r) * bw + (ov - r);
            for (c, &vv) in p1[r * nr..r * nr + c1].iter().enumerate() {
                if vv.abs() > smax {
                    smax = vv.abs();
                }
                slab[base + c] = vv;
            }
            for (c, &vv) in p1[r * nr + c1..r * nr + nr].iter().enumerate() {
                assert!(
                    vv.abs() < 1e-9 * smax.max(1.0),
                    "write of {vv:.3e} outside band capacity at ({},{}): fill analysis violated",
                    up_c0 + r,
                    qr_r0 + c1 + c,
                );
            }
        }
        for c in 0..nr {
            let r0 = ov + c;
            if r0 >= nc {
                break;
            }
            let r1 = nc.min(r0 + bw);
            let base = (qr_r0 + c) * bw;
            for (d, r) in (r0..r1).enumerate() {
                let vv = p1[r * nr + c];
                if vv.abs() > smax {
                    smax = vv.abs();
                }
                slab[base + d] = vv;
            }
            for r in r1..nc {
                let vv = p1[r * nr + c];
                assert!(
                    vv.abs() < 1e-9 * smax.max(1.0),
                    "write of {vv:.3e} outside band capacity at ({},{}): fill analysis violated",
                    up_c0 + r,
                    qr_r0 + c,
                );
            }
        }
        *scale = smax;
    }

    let out = if record {
        Some((Matrix::from_vec(nr, kk, u.clone()), Matrix::from_vec(kk, kk, t.clone())))
    } else {
        None
    };
    ws.put(corr);
    ws.put(ttutw);
    ws.put(utw);
    ws.put(v);
    ws.put(w);
    ws.put(bu);
    ws.put(p1);
    ws.put(t);
    ws.put(u);
    ws.put(blk);
    out
}

/// Apply one chase operation to a banded matrix, updating the band in
/// place through arena-backed strips (bitwise identical to
/// [`execute_chase_reference`]).
pub fn execute_chase(bmat: &mut BandedSym, op: &ChaseOp) {
    CHASE_WINDOWS.add(1);
    with_ws(|ws| chase_banded_fast(bmat, op, ws, false));
}

/// The seed's chase executor: materialize the dense symmetric window,
/// update it, write the lower triangle back.
pub fn execute_chase_reference(bmat: &mut BandedSym, op: &ChaseOp) {
    let (lo, hi) = op.window();
    let mut d = bmat.window(lo, hi);
    let _ = chase_window_update_factors_reference(&mut d, op);
    bmat.set_window(lo, &d);
}

/// [`execute_chase`], additionally returning the chase's Householder
/// factors `(U, T)` acting on global rows `op.qr_rows`.
pub fn execute_chase_recording(bmat: &mut BandedSym, op: &ChaseOp) -> (Matrix, Matrix) {
    CHASE_WINDOWS.add(1);
    with_ws(|ws| chase_banded_fast(bmat, op, ws, true)).expect("recording chase returns factors")
}

/// Reference-path [`execute_chase_recording`] (dense window, allocating).
pub fn execute_chase_recording_reference(bmat: &mut BandedSym, op: &ChaseOp) -> (Matrix, Matrix) {
    let (lo, hi) = op.window();
    let mut d = bmat.window(lo, hi);
    let factors = chase_window_update_factors_reference(&mut d, op);
    bmat.set_window(lo, &d);
    factors
}

/// Sequentially reduce a symmetric banded matrix from bandwidth `b` to
/// `⌈b/k⌉` (Algorithm IV.2 executed on one processor). The matrix's
/// fill capacity must be at least `min(n−1, 2b)`.
pub fn reduce_band(bmat: &mut BandedSym, k: usize) {
    reduce_band_to(bmat, bmat.bandwidth().div_ceil(k));
}

/// Sequentially reduce a symmetric banded matrix to the explicit target
/// bandwidth `h` (`1 ≤ h ≤ b`); `h` need not divide the current
/// bandwidth.
pub fn reduce_band_to(bmat: &mut BandedSym, h: usize) {
    let n = bmat.n();
    let b = bmat.bandwidth();
    assert!(
        bmat.capacity() >= (2 * b).min(n.saturating_sub(1)),
        "capacity {} too small for bulge fill of band {}",
        bmat.capacity(),
        b
    );
    for op in chase_plan_to(n, b, h) {
        execute_chase(bmat, &op);
    }
    bmat.set_bandwidth(h);
}

/// Reduce a symmetric banded matrix straight to tridiagonal form with
/// the **fused rank-1 sweep**: the same `h = 1` chase geometry as
/// `reduce_band_to(bmat, 1)` (identical [`chase_plan_to`] operations,
/// identical fill pattern), but with the per-chase work — Householder
/// generation, the two-sided rank-1 update, the symmetric correction —
/// fused into two passes over the band slab's contiguous runs.
///
/// At `h = 1` every chase is rank one, and the generic engine's
/// strengths invert into overheads: the `nc × nr` strip gather/write-
/// back doubles memory traffic, the GEMM calls degenerate to
/// matrix–vector shapes below the blocked kernels' profitable sizes,
/// and the per-cell fill/scale bookkeeping costs as much as the update
/// arithmetic. The fused kernel reads each band cell once (directly in
/// slab storage: mirror rows for the globally-upper part of the strip,
/// stored columns for the lower part), accumulates `P·u` on the fly,
/// and applies `ΔP = v·uᵀ + [rows ov..ov+nr] u·vᵀ` in the same two
/// loop shapes. The band's scale high-water is raised once per sweep to
/// the Frobenius norm (invariant under the orthogonal similarity, so it
/// bounds every intermediate entry) instead of per cell.
///
/// Unlike the zero-copy/reference engine pair this kernel is **not**
/// bitwise-matched to `reduce_band_to`; it is validated against the
/// spectrum oracles (moments, Sturm bisection, QL) in this module's and
/// `tridiag`'s tests.
pub fn sweep_to_tridiagonal(bmat: &mut BandedSym) {
    let _ = sweep_impl(bmat, false);
}

/// [`sweep_to_tridiagonal`], additionally returning every non-trivial
/// Householder reflector as `(row0, u, τ)` — `Q_op = I − τ·u·uᵀ` acting
/// on global rows `row0 .. row0 + u.len()` — in application order, the
/// record eigenvector back-transformation replays in reverse.
pub fn sweep_to_tridiagonal_recording(bmat: &mut BandedSym) -> Vec<(usize, Vec<f64>, f64)> {
    sweep_impl(bmat, true)
}

fn sweep_impl(bmat: &mut BandedSym, record: bool) -> Vec<(usize, Vec<f64>, f64)> {
    let n = bmat.n();
    let b = bmat.bandwidth();
    let cap = bmat.capacity();
    assert!(
        cap >= (2 * b).min(n.saturating_sub(1)),
        "capacity {cap} too small for bulge fill of band {b}"
    );
    let mut reflectors = Vec::new();
    if b <= 1 {
        return reflectors;
    }
    let plan = chase_plan_to(n, b, 1);
    let bw = cap + 1;
    let mut u = vec![0.0f64; b];
    let mut pu = vec![0.0f64; 1 + 3 * b];
    let mut v = vec![0.0f64; 1 + 3 * b];

    {
        let (slab, scale) = bmat.bands_mut_scale();
        // ‖A‖_F bounds every entry of every orthogonal similarity of A:
        // one high-water raise covers the whole sweep.
        let mut fro2 = 0.0f64;
        for j in 0..n {
            let col = &slab[j * bw..j * bw + bw.min(n - j)];
            fro2 += col[0] * col[0];
            for &x in &col[1..] {
                fro2 += 2.0 * x * x;
            }
        }
        let fro = fro2.sqrt();
        if fro > *scale {
            *scale = fro;
        }

        for op in &plan {
            if let Some((row0, tau)) = fused_op(slab, cap, op, &mut u, &mut pu, &mut v) {
                if record {
                    reflectors.push((row0, u[..op.nr()].to_vec(), tau));
                }
            }
        }
    }
    bmat.set_bandwidth(1);
    reflectors
}

/// One fused rank-1 chase on the raw band slab (`cap + 1` stored
/// diagonals per column). Returns `(row0, τ)` when the op did work
/// (with the reflector left in `u[..op.nr()]`), `None` when its column
/// was already eliminated. `u`/`pu`/`v` are caller-provided scratch of
/// lengths ≥ `b`, `1 + 3b`, `1 + 3b`.
fn fused_op(
    slab: &mut [f64],
    cap: usize,
    op: &ChaseOp,
    u: &mut [f64],
    pu: &mut [f64],
    v: &mut [f64],
) -> Option<(usize, f64)> {
    let bw = cap + 1;
    let nr = op.nr();
    let nc = op.nc();
    let ov = op.ov;
    let (qr_r0, qr_c0, up_c0) = (op.qr_rows.0, op.qr_cols.0, op.up_cols.0);
    if nr < 2 {
        return None;
    }

    // Householder annihilating the length-nr column at
    // (qr_r0, qr_c0) — contiguous in the slab. Same convention
    // as qr::house_gen: u[0] = 1, (I − τuuᵀ)x = βe₁.
    let cbase = qr_c0 * bw + (qr_r0 - qr_c0);
    let alpha = slab[cbase];
    let sigma2: f64 = slab[cbase + 1..cbase + nr].iter().map(|x| x * x).sum();
    if sigma2 == 0.0 {
        return None; // already eliminated; reflector is identity
    }
    let norm = (alpha * alpha + sigma2).sqrt();
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let inv = 1.0 / (alpha - beta);
    u[0] = 1.0;
    for (ui, x) in u[1..nr].iter_mut().zip(&slab[cbase + 1..cbase + nr]) {
        *ui = *x * inv;
    }
    slab[cbase] = beta;
    slab[cbase + 1..cbase + nr].fill(0.0);

    // P·u over the strip P = B[I_up.cs, I_qr.rs], streaming the
    // slab's two contiguous layouts: strip cell (r, c), global
    // (up_c0 + r, qr_r0 + c), lives mirror-contiguous in row
    // up_c0 + r when globally upper (r < ov + c) and contiguous
    // in stored column qr_r0 + c when lower. Cells beyond the
    // capacity are the (negligible, dropped) fill the generic
    // engine also discards.
    pu[..nc].fill(0.0);
    for (r, pur) in pu[..nc.min(ov + nr)].iter_mut().enumerate() {
        let c0 = (r + 1).saturating_sub(ov).min(nr);
        let c1 = nr.min((cap + r + 1).saturating_sub(ov));
        if c0 < c1 {
            let base = (up_c0 + r) * bw + (ov + c0 - r);
            let mut acc = 0.0f64;
            for (s, uc) in slab[base..base + (c1 - c0)].iter().zip(&u[c0..c1]) {
                acc += s * uc;
            }
            *pur += acc;
        }
    }
    for (c, &uc) in u[..nr].iter().enumerate() {
        let r0 = ov + c;
        if r0 >= nc {
            break;
        }
        let r1 = nc.min(r0 + bw);
        let base = (qr_r0 + c) * bw;
        for (s, pur) in slab[base..base + (r1 - r0)].iter().zip(&mut pu[r0..r1]) {
            *pur += uc * s;
        }
    }

    // v = −τ·P·u + ½τ²(uᵀ(P·u)_sym)·u on the symmetric rows:
    // the rank-1 specialization of lines 19–20.
    let swsym: f64 = u[..nr].iter().zip(&pu[ov..ov + nr]).map(|(a, b)| a * b).sum();
    for (vr, pur) in v[..nc].iter_mut().zip(&pu[..nc]) {
        *vr = -tau * pur;
    }
    let half = 0.5 * tau * tau * swsym;
    for (vr, uc) in v[ov..ov + nr].iter_mut().zip(&u[..nr]) {
        *vr += half * uc;
    }

    // ΔP(r, c) = v[r]·u[c] + (ov ≤ r < ov + nr) u[r−ov]·v[ov+c]
    // (lines 21–22 restricted to the strip), written through the
    // same two slab layouts as the gather — with one difference from
    // the gather: strip rows ov..ov+nr and columns 0..nr form the
    // symmetric square, whose upper-triangle strip cells alias the
    // lower-triangle ones in band storage (strip (r, c) and
    // (ov + c, r − ov) are the same stored cell). The delta there is
    // symmetric, so apply it once through the lower orientation: the
    // mirror-row pass covers only rows r < ov, which have no aliased
    // partner in the strip.
    for r in 0..ov.min(nc) {
        let c1 = nr.min((cap + r + 1).saturating_sub(ov));
        if c1 == 0 {
            continue;
        }
        let base = (up_c0 + r) * bw + (ov - r);
        let vr = v[r];
        for (s, uc) in slab[base..base + c1].iter_mut().zip(&u[..c1]) {
            *s += vr * uc;
        }
    }
    for (c, &uc) in u[..nr].iter().enumerate() {
        let r0 = ov + c;
        if r0 >= nc {
            break;
        }
        let r1 = nc.min(r0 + bw);
        let base = (qr_r0 + c) * bw;
        let sym_end = (ov + nr).min(r1);
        let vc = v[ov + c];
        let mut idx = 0;
        for r in r0..sym_end {
            slab[base + idx] += v[r] * uc + u[r - ov] * vc;
            idx += 1;
        }
        for r in sym_end..r1 {
            slab[base + idx] += v[r] * uc;
            idx += 1;
        }
    }

    Some((qr_r0, tau))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Orthogonal-similarity invariants: trace, ‖·‖_F, trace(A³).
    fn moments(a: &Matrix) -> (f64, f64, f64) {
        let n = a.rows();
        let tr: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let fro = a.norm_fro();
        let a2 = matmul(a, Trans::N, a, Trans::N);
        let a3 = matmul(&a2, Trans::N, a, Trans::N);
        let tr3: f64 = (0..n).map(|i| a3.get(i, i)).sum();
        (tr, fro, tr3)
    }

    fn check_reduction(n: usize, b: usize, k: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = gen::random_banded(&mut rng, n, b);
        let (t0, f0, m0) = moments(&dense);
        let cap = (2 * b).min(n - 1);
        let mut bm = BandedSym::from_dense(&dense, b, cap);
        reduce_band(&mut bm, k);
        let h = b / k;
        assert!(
            bm.measured_bandwidth(1e-10) <= h,
            "n={n} b={b} k={k}: bandwidth {} > target {h}",
            bm.measured_bandwidth(1e-10)
        );
        let out = bm.to_dense();
        let (t1, f1, m1) = moments(&out);
        let scale = f0.max(1.0);
        assert!((t0 - t1).abs() < 1e-9 * scale, "trace drifted: {t0} vs {t1}");
        assert!((f0 - f1).abs() < 1e-9 * scale, "‖A‖_F drifted: {f0} vs {f1}");
        assert!(
            (m0 - m1).abs() < 1e-7 * scale.powi(3),
            "tr(A³) drifted: {m0} vs {m1}"
        );
    }

    fn check_reduction_to(n: usize, b: usize, h: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = gen::random_banded(&mut rng, n, b);
        let (t0, f0, m0) = moments(&dense);
        let cap = (2 * b).min(n - 1);
        let mut bm = BandedSym::from_dense(&dense, b, cap);
        reduce_band_to(&mut bm, h);
        assert!(
            bm.measured_bandwidth(1e-10) <= h,
            "n={n} b={b} h={h}: bandwidth {} > target {h}",
            bm.measured_bandwidth(1e-10)
        );
        let out = bm.to_dense();
        let (t1, f1, m1) = moments(&out);
        let scale = f0.max(1.0);
        assert!((t0 - t1).abs() < 1e-9 * scale, "trace drifted: {t0} vs {t1}");
        assert!((f0 - f1).abs() < 1e-9 * scale, "‖A‖_F drifted: {f0} vs {f1}");
        assert!(
            (m0 - m1).abs() < 1e-7 * scale.powi(3),
            "tr(A³) drifted: {m0} vs {m1}"
        );
    }

    #[test]
    fn halve_small_band() {
        check_reduction(32, 4, 2, 40);
    }

    #[test]
    fn non_dividing_target_bandwidth() {
        // h ∤ b: what the arbitrary-n schedules produce when halving odd
        // band-widths (b → ⌈b/2⌉) or trimming clamped ones.
        for (n, b, h, seed) in [
            (33usize, 7usize, 4usize, 50u64),
            (41, 5, 3, 51),
            (29, 9, 5, 52),
            (37, 3, 2, 53),
            (40, 6, 4, 54),
            (23, 11, 3, 55),
        ] {
            check_reduction_to(n, b, h, seed);
        }
    }

    #[test]
    fn rounding_k_matches_explicit_target() {
        // chase_plan with k ∤ b rounds the target up to ⌈b/k⌉.
        let plan_k = chase_plan(35, 7, 2);
        let plan_h = chase_plan_to(35, 7, 4);
        assert_eq!(plan_k, plan_h);
    }

    #[test]
    fn quarter_band() {
        check_reduction(48, 8, 4, 41);
    }

    #[test]
    fn reduce_to_tridiagonal() {
        check_reduction(30, 6, 6, 42);
    }

    #[test]
    fn non_divisible_dimension() {
        check_reduction(37, 6, 2, 43);
    }

    #[test]
    fn band_two_to_one() {
        check_reduction(25, 2, 2, 44);
    }

    #[test]
    fn larger_problem() {
        check_reduction(96, 12, 3, 45);
    }

    #[test]
    fn h_equals_one_plan_eliminates_every_column_strip() {
        // k = b gives h = 1 (direct tridiagonalization): every column
        // below the first sub-diagonal must be covered by some QR block.
        let (n, b) = (24usize, 4usize);
        let plan = chase_plan(n, b, b);
        let mut covered = vec![false; n];
        for op in &plan {
            for c in op.qr_cols.0..op.qr_cols.1 {
                covered[c] = true;
            }
        }
        // Columns 0..n−2 all need an elimination pass.
        for (c, &cov) in covered.iter().enumerate().take(n - 2) {
            assert!(cov, "column {c} never eliminated");
        }
    }

    #[test]
    fn execute_chase_recording_matches_plain_execution() {
        let mut rng = StdRng::seed_from_u64(49);
        let dense = gen::random_banded(&mut rng, 30, 4);
        let mut a = BandedSym::from_dense(&dense, 4, 8);
        let mut b = BandedSym::from_dense(&dense, 4, 8);
        for op in chase_plan(30, 4, 2) {
            execute_chase(&mut a, &op);
            let (u, t) = execute_chase_recording(&mut b, &op);
            assert_eq!(u.rows(), op.nr());
            assert!(t.rows() >= 1);
        }
        assert_eq!(a, b, "recording must not change the numerics");
    }

    #[test]
    fn plan_is_empty_when_k_is_one() {
        assert!(chase_plan(20, 4, 1).is_empty());
    }

    #[test]
    fn plan_phases_match_figure2() {
        // Figure 2 (k = 2): iterations {(3,1),(2,3),(1,5)} are concurrent,
        // as are {(3,2),(2,4),(1,6)} — i.e. equal 2i + j.
        for (a, b) in [((3, 1), (2, 3)), ((2, 3), (1, 5)), ((3, 2), (2, 4)), ((2, 4), (1, 6))] {
            assert_eq!(2 * a.0 + a.1, 2 * b.0 + b.1);
        }
        // And the plan generator assigns those phases.
        let plan = chase_plan(64, 8, 2);
        for op in &plan {
            assert_eq!(op.phase(), 2 * op.i + op.j);
        }
    }

    #[test]
    fn plan_ops_within_bounds() {
        let n = 50;
        for (b, k) in [(4, 2), (8, 4), (10, 2), (6, 3)] {
            for op in chase_plan(n, b, k) {
                assert!(op.qr_rows.1 <= n);
                assert!(op.qr_cols.1 <= n);
                assert!(op.up_cols.1 <= n);
                assert!(op.nr() <= b);
                assert_eq!(op.h(), b / k);
                assert!(op.nc() <= b / k + 3 * b);
                assert_eq!(op.ov, op.qr_rows.0 - op.up_cols.0);
                // QR block sits strictly below the target band...
                assert!(op.qr_rows.0 >= op.qr_cols.0 + b / k);
            }
        }
    }

    #[test]
    fn fused_op_tracks_generic_chase_op_by_op() {
        // Drive the fused kernel and the generic engine through the same
        // h = 1 plan, comparing the dense band after every operation —
        // pinpoints any geometric disagreement to the first bad op.
        let (n, b) = (18usize, 3usize);
        let mut rng = StdRng::seed_from_u64(67);
        let dense = gen::random_banded(&mut rng, n, b);
        let cap = (2 * b).min(n - 1);
        let mut fused = BandedSym::from_dense(&dense, b, cap);
        let mut generic = BandedSym::from_dense(&dense, b, cap);
        let scale = dense.norm_fro().max(1.0);
        let (mut u, mut pu, mut v) = (vec![0.0; b], vec![0.0; 1 + 3 * b], vec![0.0; 1 + 3 * b]);
        for (idx, op) in chase_plan_to(n, b, 1).iter().enumerate() {
            execute_chase(&mut generic, op);
            {
                let (slab, _) = fused.bands_mut_scale();
                fused_op(slab, cap, op, &mut u, &mut pu, &mut v);
            }
            let diff = fused.to_dense().max_diff(&generic.to_dense());
            assert!(
                diff < 1e-12 * scale,
                "op {idx} ({op:?}): fused diverged from generic by {diff}"
            );
        }
    }

    #[test]
    fn fused_sweep_matches_generic_engine_spectrum() {
        // Same plan, different kernel: the fused rank-1 sweep must land
        // on the same tridiagonal spectrum as reduce_band_to(·, 1).
        for (n, b, seed) in [(40usize, 6usize, 60u64), (33, 7, 61), (48, 12, 62), (21, 2, 63)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let dense = gen::random_banded(&mut rng, n, b);
            let cap = (2 * b).min(n - 1);
            let mut fused = BandedSym::from_dense(&dense, b, cap);
            let mut generic = BandedSym::from_dense(&dense, b, cap);
            sweep_to_tridiagonal(&mut fused);
            reduce_band_to(&mut generic, 1);
            assert_eq!(fused.bandwidth(), 1);
            assert!(fused.measured_bandwidth(1e-10) <= 1);
            let (df, ef) = fused.tridiagonal();
            let (dg, eg) = generic.tridiagonal();
            let sf = crate::tridiag::tridiag_eigenvalues(&df, &ef);
            let sg = crate::tridiag::tridiag_eigenvalues(&dg, &eg);
            let dist = crate::tridiag::spectrum_distance(&sf, &sg);
            assert!(dist < 1e-9 * dense.norm_fro().max(1.0), "n={n} b={b}: spectra differ by {dist}");
        }
    }

    #[test]
    fn fused_sweep_preserves_moments() {
        let mut rng = StdRng::seed_from_u64(64);
        let dense = gen::random_banded(&mut rng, 50, 9);
        let (t0, f0, m0) = moments(&dense);
        let mut bm = BandedSym::from_dense(&dense, 9, 18);
        sweep_to_tridiagonal(&mut bm);
        let (t1, f1, m1) = moments(&bm.to_dense());
        let scale = f0.max(1.0);
        assert!((t0 - t1).abs() < 1e-9 * scale);
        assert!((f0 - f1).abs() < 1e-9 * scale);
        assert!((m0 - m1).abs() < 1e-7 * scale.powi(3));
    }

    #[test]
    fn fused_sweep_recording_reconstructs_similarity() {
        // Accumulate the recorded reflectors into dense Q and verify
        // Qᵀ·A·Q equals the tridiagonal result: the record is exactly
        // the transform the sweep applied.
        let (n, b) = (26usize, 5usize);
        let mut rng = StdRng::seed_from_u64(65);
        let dense = gen::random_banded(&mut rng, n, b);
        let mut bm = BandedSym::from_dense(&dense, b, 2 * b);
        let refl = sweep_to_tridiagonal_recording(&mut bm);
        assert!(!refl.is_empty());
        // Q = H₁·H₂·…  (application order: Hᵢᵀ…H₁ᵀ·A·H₁…Hᵢ).
        let mut q = Matrix::identity(n);
        for (row0, u, tau) in &refl {
            // q ← q·(I − τuuᵀ) on columns row0..row0+len.
            let len = u.len();
            for r in 0..n {
                let row = q.row_mut(r);
                let dot: f64 = row[*row0..row0 + len].iter().zip(u).map(|(a, b)| a * b).sum();
                for (x, uc) in row[*row0..row0 + len].iter_mut().zip(u) {
                    *x -= tau * dot * uc;
                }
            }
        }
        let qtaq = matmul(&matmul(&q, Trans::T, &dense, Trans::N), Trans::N, &q, Trans::N);
        let diff = qtaq.max_diff(&bm.to_dense());
        assert!(diff < 1e-9 * dense.norm_fro().max(1.0), "QᵀAQ ≠ T: {diff}");
        // And the recording run equals the plain run bitwise.
        let mut plain = BandedSym::from_dense(&dense, b, 2 * b);
        sweep_to_tridiagonal(&mut plain);
        assert_eq!(plain, bm);
    }

    #[test]
    fn fused_sweep_noop_on_tridiagonal_input() {
        let mut rng = StdRng::seed_from_u64(66);
        let dense = gen::random_banded(&mut rng, 12, 1);
        let mut bm = BandedSym::from_dense(&dense, 1, 4);
        let before = bm.clone();
        assert!(sweep_to_tridiagonal_recording(&mut bm).is_empty());
        assert_eq!(bm, before);
    }

    #[test]
    fn pipelined_phase_order_matches_sequential_order() {
        // Algorithm IV.2 executes iterations with equal 2i + j
        // concurrently on different processor groups (Figure 2). That
        // schedule is legal iff replaying the plan sorted by phase
        // (ties broken by ascending i, matching the pipeline's
        // adjacent-group handoff order) yields the *bitwise identical*
        // matrix as the sequential i-then-j order — any true data
        // conflict between same-phase ops would reorder floating-point
        // operations and change low bits.
        for (n, b, k, seed) in [(64usize, 8usize, 2usize, 46u64), (60, 6, 3, 47), (48, 4, 4, 48)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let dense = gen::random_banded(&mut rng, n, b);
            let cap = (2 * b).min(n - 1);

            let mut seq = BandedSym::from_dense(&dense, b, cap);
            let plan = chase_plan(n, b, k);
            for op in &plan {
                execute_chase(&mut seq, op);
            }

            let mut piped = BandedSym::from_dense(&dense, b, cap);
            let mut sorted: Vec<&ChaseOp> = plan.iter().collect();
            sorted.sort_by_key(|op| (op.phase(), op.i));
            for op in sorted {
                execute_chase(&mut piped, op);
            }

            assert_eq!(
                seq, piped,
                "n={n} b={b} k={k}: pipelined phase order diverged from sequential order"
            );
        }
    }
}
