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
//!   index ranges precomputed.
//! * [`reduce_band_pass`] — the one walk: apply a sequence of the plan's
//!   operations to a [`BandedSym`] in place through the one banded
//!   kernel, calling the caller's hook at every chase's factor step. The
//!   finale's pass and the distributed stages of `ca-eigen` (band→band,
//!   CA-SBR, Lang) are this walk under their own charge models; the
//!   distributed ones order the plan into the paper's pipeline *phases*
//!   (`2i + j = const`, cf. Figure 2).
//! * [`execute_chase`] — one chase on the thread's arena: the kernel
//!   factors the QR block and updates the affected band strip directly
//!   through [`crate::workspace`] arena buffers and [`crate::view`]
//!   views, with no dense-window materialization and no steady-state
//!   heap allocation. The seed's dense-window path is kept as
//!   [`execute_chase_reference`], the bitwise oracle of
//!   `tests/kernel_equivalence.rs` (see DESIGN.md §"kernel engine").
//! * [`reduce_band`] — run the whole plan sequentially.

use crate::band::{check_fill, BandedSym};
use crate::gemm::{gemm, gemm_view_tri, matmul, Fma, Trans, Tri};
use crate::matrix::Matrix;
use crate::qr::{dot, house_gen_in_place, qr_factor, qr_inplace, QrFactors};
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::{with_ws, Workspace};
use std::borrow::Borrow;

/// Executions of the banded chase kernel; live only when
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
/// need not divide `b`. Collects [`chase_plan_iter`].
pub fn chase_plan_to(n: usize, b: usize, h: usize) -> Vec<ChaseOp> {
    chase_plan_iter(n, b, h).collect()
}

/// The plan of [`chase_plan_to`] enumerated lazily, in the same order:
/// the one place the geometry lives. The sequential executors iterate
/// it directly — an `h = 1` plan is `≈ n²/2b` operations, megabytes the
/// sweep has no reason to materialise.
pub fn chase_plan_iter(n: usize, b: usize, h: usize) -> ChasePlan {
    assert!(h >= 1 && h <= b, "need 1 ≤ h ≤ b (got h={h}, b={b})");
    assert!(b < n, "bandwidth must be below the matrix dimension");
    ChasePlan {
        n,
        b,
        h,
        i: 1,
        j: 1,
    }
}

/// Iterator over a chase plan (see [`chase_plan_iter`]).
#[derive(Debug, Clone)]
pub struct ChasePlan {
    n: usize,
    b: usize,
    h: usize,
    /// The next operation's panel and chase index.
    i: usize,
    j: usize,
}

impl Iterator for ChasePlan {
    type Item = ChaseOp;

    fn next(&mut self) -> Option<ChaseOp> {
        let (n, b, h) = (self.n, self.b, self.h);
        if h == b {
            return None; // already at target bandwidth
        }
        loop {
            let (i, j) = (self.i, self.j);
            // Sweep i eliminates the column strip [(i−1)h, ih). The
            // paper's loop bound `i ∈ [1, n/h − 1]` assumes h | n; the
            // equivalent divisor-free condition is `ih ≤ n − 2` (a strip
            // is needed while some entry below it can sit deeper than h).
            if i * h > n - 2 {
                return None;
            }
            // The paper's bound `j = 1 : ⌊(n − ih − 1)/b⌋` drops the
            // final partial chase of each sweep, stranding tail fill
            // near the bottom-right corner; we instead chase until the
            // QR block hits the matrix end (nr ≥ 2 — a one-row block
            // eliminates nothing and no fill deeper than the band can
            // reach it).
            let oblg = (i - 1) * h + (j - 1) * b;
            let oqr_r = oblg + h;
            if oqr_r > n - 2 {
                (self.i, self.j) = (i + 1, 1);
                continue;
            }
            let oqr_c = if j == 1 { oqr_r - h } else { oqr_r - b };
            let oup_c = oqr_c + h;
            let ov = oqr_r - oup_c;
            let nr = (n - oqr_r).min(b);
            let nc = (n - oup_c).min(h + 3 * b);
            self.j = j + 1;
            return Some(ChaseOp {
                i,
                j,
                qr_rows: (oqr_r, oqr_r + nr),
                qr_cols: (oqr_c, oqr_c + h),
                up_cols: (oup_c, oup_c + nc),
                ov,
            });
        }
    }
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

/// Rows per tile of the transposing copies between a row-major buffer
/// and stored band columns ([`Runs`]): a tile's rows of the buffer — one
/// cache line each per eight columns — stay in L1 while every column's
/// run streams past, instead of a whole run's rows (up to `2b + 1`
/// lines) being revisited once per column.
const TILE: usize = 32;

/// A row-major buffer (row length `ld`) whose column `c` lies, over its
/// rows `run(c) = (r0, r1, base)`, along one stored band column: buffer
/// cell `(r, c)` is slab word `base + r − r0`. Rows `r1 .. rows` of the
/// column are beyond the band's capacity. The QR block (every cell
/// globally lower) and the lower part of the update strip are both of
/// this shape.
struct Runs<F: Fn(usize) -> (usize, usize, usize)> {
    ld: usize,
    cols: usize,
    rows: usize,
    run: F,
}

impl<F: Fn(usize) -> (usize, usize, usize)> Runs<F> {
    /// Every run, a tile of rows at a time.
    fn for_each(&self, mut f: impl FnMut(usize, usize, usize, usize)) {
        for t0 in (0..self.rows).step_by(TILE) {
            let t1 = self.rows.min(t0 + TILE);
            for c in 0..self.cols {
                let (r0, r1, base) = (self.run)(c);
                let (lo, hi) = (r0.max(t0), r1.min(t1));
                if lo < hi {
                    f(c, lo, hi, base + lo - r0);
                }
            }
        }
    }

    /// Each column's cells beyond the capacity, `(r, c)` for `r` in
    /// `r1 .. rows`.
    fn beyond(&self, mut f: impl FnMut(usize, usize)) {
        for c in 0..self.cols {
            let (r0, r1, _) = (self.run)(c);
            for r in r1.max(r0)..self.rows {
                f(r, c);
            }
        }
    }

    /// Copy the runs from the slab into the buffer, and store the zero
    /// `get` reads beyond the capacity.
    fn gather(&self, slab: &[f64], buf: &mut [f64]) {
        let ld = self.ld;
        self.for_each(|c, lo, hi, at| {
            for (r, &s) in (lo..hi).zip(&slab[at..at + (hi - lo)]) {
                buf[r * ld + c] = s;
            }
        });
        self.beyond(|r, c| buf[r * ld + c] = 0.0);
    }

    /// Copy the runs from the buffer onto the slab under
    /// [`BandedSym::set`]'s contract: `scale` rises to every value
    /// stored, and a cell beyond the capacity must be negligible against
    /// it. `at` maps a buffer cell to global indices for the message.
    fn scatter(
        &self,
        buf: &[f64],
        slab: &mut [f64],
        scale: &mut f64,
        at: impl Fn(usize, usize) -> (usize, usize),
    ) {
        let ld = self.ld;
        let mut smax = *scale;
        self.for_each(|c, lo, hi, base| {
            let run = &mut slab[base..base + (hi - lo)];
            for (s, r) in run.iter_mut().zip(lo..hi) {
                *s = buf[r * ld + c];
            }
            smax = max_abs(smax, run);
        });
        self.beyond(|r, c| check_fill(buf[r * ld + c], smax, at(r, c)));
        *scale = smax;
    }
}

/// The larger of `m` and the largest magnitude in `xs` — `set`'s
/// `if |x| > scale` high-water over a run, NaN ignored as there — on
/// four independent lanes: a maximum is exact in any order, and one
/// running maximum is a compare chain as long as the run.
fn max_abs(m: f64, xs: &[f64]) -> f64 {
    let raise = |m: f64, x: f64| if x > m { x } else { m };
    let mut lanes = [m; 4];
    let mut chunks = xs.chunks_exact(4);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = raise(*lane, x.abs());
        }
    }
    let m = lanes.into_iter().fold(m, raise);
    chunks.remainder().iter().fold(m, |m, &x| raise(m, x.abs()))
}

/// Zero-copy banded chase: operate on the band storage directly, never
/// materializing the dense symmetric window, and move and multiply only
/// what the band's structure leaves non-zero. Only the `nr × h` QR block
/// and the update strip `P = B[I_up.cs, I_qr.rs]` are gathered (into
/// arena buffers); the rank-2k update runs on the strip and each
/// symmetric pair is written back exactly once, from the orientation
/// whose floating-point accumulation order matches the cell the
/// reference path's `set_window` persists (the globally *lower* one) —
/// see DESIGN.md §6c, "Zero-copy banded chase", for the case analysis.
///
/// **The trimmed strip.** Of the plan's `nc` strip rows only the first
/// `m = min(nc, ov + nr + b)` are gathered, multiplied and written back
/// (`b` the band-width the plan reduces). Strip cell `(r, c)` is global
/// `(up_c0 + r, qr_r0 + c)`, at distance `r − ov − c` from the diagonal,
/// so a row `r ≥ ov + nr + b` lies wholly outside band `b`, where only
/// bulge fill can be non-zero. A chase puts fill only into the columns of
/// its own QR rows, and no further than `b` rows below them: the rows it
/// mixes into those columns are the rows with non-zeros there, which by
/// the same bound end `b` below. So fill past row `qr_rows.1 + b` in
/// this chase's columns can only come from a chase of an earlier sweep
/// whose QR rows reach past this one's — and that sweep's next chase and
/// the sweeps between it and this one eliminate those shared columns,
/// `h` at a time, before this chase runs, in sweep order and in
/// pipeline-phase order alike (their QR blocks cover exactly those rows
/// and write `[R; 0]`, `R` inside band `b`). The skipped rows hold exact
/// zeros, which a debug assertion checks on every chase. Through lines
/// 19–22 a strip row only ever meets itself — row `r` of `W` is row `r`
/// of `P·U·T`, and line 22 adds row `r` of `V` to row `r` of `P` — so a
/// zero row would stay zero and skipping it changes no other cell. The
/// plan, and its `nc`, stay as they are: the distributed stages charge
/// from them.
///
/// **The products** skip their structural zeros ([`gemm_view_tri`]): `U`
/// is unit lower-trapezoidal and `T` upper triangular, so `P·U`, `BU·T`,
/// `Uᵀ·W`, `Tᵀ·(…)`, `U·(…)` and `V·Uᵀ` cut their inner dimension to
/// where both factors can be non-zero, and lines 21–22 compute only the
/// lower triangle of the diagonal square, the half that is written back.
/// By GEMM's cell contract every persisted cell keeps its bits.
///
/// The kernel is split at its factor step: `at_factor` sees the gathered
/// QR block and either returns `None` — the kernel factors it in the
/// arena with [`qr_inplace`], bitwise identical to
/// [`execute_chase_reference`] — or the block's `(U, T, R)` from a
/// factorization of its own (band→band's distributed line 16).
fn chase_banded_fast(
    bmat: &mut BandedSym,
    op: &ChaseOp,
    ws: &mut Workspace,
    at_factor: impl FnOnce(&MatrixView) -> Option<QrFactors>,
    record: bool,
) -> Option<(Matrix, Matrix)> {
    CHASE_WINDOWS.add(1);
    let nr = op.nr();
    let h = op.h();
    let ov = op.ov;
    let qr_r0 = op.qr_rows.0;
    let qr_c0 = op.qr_cols.0;
    let up_c0 = op.up_cols.0;
    let kk = nr.min(h);
    let b = bmat.bandwidth();
    debug_assert!(
        op.j == 1 || ov + h == b,
        "op {op:?} is not of a plan for band-width {b}"
    );
    let m = op.nc().min(ov + nr + b);
    let cap = bmat.capacity();
    let bw = cap + 1;

    // Line 16: gather the QR block from the band (0.0 beyond capacity —
    // exactly the window materialization values) and factor it in the
    // arena. Every block cell is globally lower (qr_rows.0 ≥
    // qr_cols.0 + h), so block column j runs down stored column
    // qr_c0 + j from its diagonal offset d = qr_r0 − qr_c0 − j.
    let block = Runs {
        ld: h,
        cols: h,
        rows: nr,
        run: |j: usize| {
            let d = qr_r0 - qr_c0 - j;
            (0, nr.min(bw.saturating_sub(d)), (qr_c0 + j) * bw + d)
        },
    };
    let mut blk = ws.take_scratch(nr * h);
    block.gather(bmat.bands(), &mut blk);
    let mut u = ws.take_scratch(nr * kk);
    let mut t = ws.take_scratch(kk * kk);
    match at_factor(&MatrixView::from_slice(&blk, nr, h)) {
        None => {
            qr_inplace(
                &mut MatrixViewMut::from_slice(&mut blk, nr, h),
                &mut MatrixViewMut::from_slice(&mut u, nr, kk),
                &mut MatrixViewMut::from_slice(&mut t, kk, kk),
                ws,
            );
            // The block holds R above the diagonal and the reflector
            // tails below it: keep R.
            for i in 1..kk {
                blk[i * h..i * h + i].fill(0.0);
            }
        }
        Some(f) => {
            assert_eq!(
                [f.u.rows(), f.u.cols(), f.t.rows(), f.t.cols(), f.r.rows(), f.r.cols()],
                [nr, kk, kk, kk, kk, h],
                "factors do not fit the chase's QR block"
            );
            u.copy_from_slice(f.u.data());
            t.copy_from_slice(f.t.data());
            blk[..kk * h].copy_from_slice(f.r.data());
        }
    }

    // Line 17: write [R; 0] back, R as the factor step left it, through
    // the same runs (globally lower, so this covers the mirror too).
    blk[kk * h..].fill(0.0);
    {
        let (slab, scale) = bmat.bands_mut_scale();
        block.scatter(&blk, slab, scale, |i, j| (qr_r0 + i, qr_c0 + j));
    }

    // Gather the update strip P = B[I_up.cs, I_qr.rs] (disjoint from the
    // QR block in band storage, so gathering after the R write is safe),
    // its first m rows. Strip cell (r, c) is global (up_c0+r, qr_r0+c);
    // globally-upper cells (r < ov + c) sit mirror-contiguous along each
    // strip row and are copied row by row, lower cells run down each
    // stored column and are copied by `Runs`. Cells beyond the capacity
    // are stored as 0.0 — the value `get` returns. A row stride that is
    // a multiple of 512 bytes gets a cache line of padding: at nr = 256
    // rows 2 KB apart put a tile's rows in two L1 sets (the products
    // read P through its stride, so the padding cannot reach a bit).
    let ld = if nr.is_multiple_of(64) { nr + 8 } else { nr };
    let lower = Runs {
        ld,
        cols: nr,
        rows: m,
        run: |c: usize| {
            let r0 = ov + c;
            (r0, m.min(r0 + bw), (qr_r0 + c) * bw)
        },
    };
    let mut p1 = ws.take_scratch(m * ld);
    {
        let slab = bmat.bands();
        for r in 0..m.min(ov + nr) {
            let c0 = (r + 1).saturating_sub(ov).min(nr);
            let c1 = nr.min((cap + r + 1).saturating_sub(ov)).max(c0);
            if c0 < c1 {
                let base = (up_c0 + r) * bw + (ov + c0 - r);
                p1[r * ld + c0..r * ld + c1].copy_from_slice(&slab[base..base + (c1 - c0)]);
            }
            p1[r * ld + c1..r * ld + nr].fill(0.0);
        }
        lower.gather(slab, &mut p1);
        debug_assert!(
            (0..nr).all(|c| {
                let col = &slab[(qr_r0 + c) * bw..][..bw];
                (m.max(ov + c)..op.nc().min(ov + c + bw)).all(|r| col[r - ov - c] == 0.0)
            }),
            "chase {op:?}: fill in the strip rows past ov + nr + b"
        );
    }

    // Line 19: V = −W = −(P·U)·T, the negation carried by the second
    // product's α: negating is exact, so V is −W bit for bit (a zero
    // may change sign, which no later sum can see).
    let uv = MatrixView::from_slice(&u, nr, kk);
    let tv = MatrixView::from_slice(&t, kk, kk);
    let mut bu = ws.take_scratch(m * kk);
    gemm_view_tri(
        1.0,
        &MatrixView::new(&p1, m, nr, ld),
        Trans::N,
        &uv,
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut bu, m, kk),
        [Tri::Full, Tri::Lower, Tri::Full],
    );
    let mut v = ws.take_scratch(m * kk);
    gemm_view_tri(
        -1.0,
        &MatrixView::from_slice(&bu, m, kk),
        Trans::N,
        &tv,
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut v, m, kk),
        [Tri::Full, Tri::Upper, Tri::Full],
    );

    // Line 20: symmetric correction on V's rows ov..ov+nr, from
    // Uᵀ·W = −(Uᵀ·V) (again bit for bit: every partial sum is the exact
    // negation of the reference's).
    let mut utw = ws.take_scratch(kk * kk);
    gemm_view_tri(
        -1.0,
        &uv,
        Trans::T,
        &MatrixView::from_slice(&v, m, kk).sub(ov, 0, nr, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut utw, kk, kk),
        [Tri::Upper, Tri::Full, Tri::Full],
    );
    let mut ttutw = ws.take_scratch(kk * kk);
    gemm_view_tri(
        1.0,
        &tv,
        Trans::T,
        &MatrixView::from_slice(&utw, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut ttutw, kk, kk),
        [Tri::Lower, Tri::Full, Tri::Full],
    );
    let mut corr = ws.take_scratch(nr * kk);
    gemm_view_tri(
        1.0,
        &uv,
        Trans::N,
        &MatrixView::from_slice(&ttutw, kk, kk),
        Trans::N,
        0.0,
        &mut MatrixViewMut::from_slice(&mut corr, nr, kk),
        [Tri::Lower, Tri::Full, Tri::Full],
    );
    for (vr, cr) in v[ov * kk..(ov + nr) * kk].iter_mut().zip(&corr) {
        *vr += 0.5 * cr;
    }

    // Line 21 restricted to the strip: of B[I_qr.rs, I_up.cs] += U·Vᵀ
    // only the diagonal square (columns ov..ov+nr of the update) lands
    // on pairs the strip holds, and of the square only the lower
    // triangle is written back; accumulate it into P's rows ov..ov+nr
    // *before* line 22, reproducing the reference's per-cell addition
    // order on the persisted orientation.
    let vv = MatrixView::from_slice(&v, m, kk);
    let mut pv = MatrixViewMut::new(&mut p1, m, nr, ld);
    gemm_view_tri(
        1.0,
        &uv,
        Trans::N,
        &vv.sub(ov, 0, nr, kk),
        Trans::T,
        1.0,
        &mut pv.sub_mut(ov, 0, nr, nr),
        [Tri::Lower, Tri::Full, Tri::Lower],
    );
    // Line 22: B[I_up.cs, I_qr.rs] += V·Uᵀ, the strip's own orientation:
    // every cell of the rows above the square, the lower triangle from
    // the square down.
    let (mut above, mut below) = pv.split_rows_mut(ov);
    gemm_view_tri(
        1.0,
        &vv.sub(0, 0, ov, kk),
        Trans::N,
        &uv,
        Trans::T,
        1.0,
        &mut above,
        [Tri::Full, Tri::Upper, Tri::Full],
    );
    gemm_view_tri(
        1.0,
        &vv.sub(ov, 0, m - ov, kk),
        Trans::N,
        &uv,
        Trans::T,
        1.0,
        &mut below,
        [Tri::Full, Tri::Upper, Tri::Lower],
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
        for r in 0..ov.min(m) {
            let c1 = nr.min((cap + r + 1).saturating_sub(ov));
            let base = (up_c0 + r) * bw + (ov - r);
            let row = &p1[r * ld..r * ld + nr];
            slab[base..base + c1].copy_from_slice(&row[..c1]);
            *scale = max_abs(*scale, &row[..c1]);
            for (c, &x) in row.iter().enumerate().skip(c1) {
                check_fill(x, *scale, (up_c0 + r, qr_r0 + c));
            }
        }
        lower.scatter(&p1, slab, scale, |r, c| (up_c0 + r, qr_r0 + c));
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
    with_ws(|ws| chase_banded_fast(bmat, op, ws, |_| None, false));
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
    with_ws(|ws| chase_banded_fast(bmat, op, ws, |_| None, true))
        .expect("recording chase returns factors")
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

/// One recorded block reflector `(row0, U, T)`: `Q = I − U·T·Uᵀ` acting
/// on global rows `row0 .. row0 + U.rows()`.
pub type BlockReflector = (usize, Matrix, Matrix);

/// Sequentially reduce a symmetric banded matrix to the explicit target
/// bandwidth `h` (`1 ≤ h ≤ b`); `h` need not divide the current
/// bandwidth.
pub fn reduce_band_to(bmat: &mut BandedSym, h: usize) {
    let plan = chase_plan_iter(bmat.n(), bmat.bandwidth(), h);
    let no_record = None::<&mut Vec<BlockReflector>>;
    with_ws(|ws| reduce_band_pass(bmat, plan, |_, _| None, no_record, ws));
    bmat.set_bandwidth(h);
}

/// The one walk over a chase plan: apply `ops` — operations of
/// [`chase_plan_iter`] for `bmat`'s order and band-width, in any
/// dependency-respecting order (sweep order, or pipeline-phase order
/// with ties by ascending `i`: the two give bitwise the same band) — to
/// `bmat` in place through the banded kernel, on the arena `ws`. The
/// caller sets the target band-width when its plan is done.
///
/// `at_factor` runs once per chase, at the kernel's factor step, with the
/// operation and the gathered `nr × h` QR block. It is where a
/// distributed stage charges its cost model for the chase, live and in
/// walk order; returning `Some((U, T, R))` hands the kernel a
/// factorization of that block made elsewhere (Algorithm IV.2's line 16
/// on `p·h/n` processors) instead of the local one `None` asks for.
///
/// With `record`, every chase's `(row0, U, T)` is appended in walk order,
/// as whatever record type the caller keeps.
pub fn reduce_band_pass<R: From<BlockReflector>>(
    bmat: &mut BandedSym,
    ops: impl IntoIterator<Item = impl Borrow<ChaseOp>>,
    mut at_factor: impl FnMut(&ChaseOp, &MatrixView) -> Option<QrFactors>,
    mut record: Option<&mut Vec<R>>,
    ws: &mut Workspace,
) {
    let n = bmat.n();
    let b = bmat.bandwidth();
    assert!(
        bmat.capacity() >= (2 * b).min(n.saturating_sub(1)),
        "capacity {} too small for bulge fill of band {}",
        bmat.capacity(),
        b
    );
    for op in ops {
        let op = op.borrow();
        let factors =
            chase_banded_fast(bmat, op, ws, |block| at_factor(op, block), record.is_some());
        if let (Some(out), Some((u, t))) = (record.as_deref_mut(), factors) {
            out.push((op.qr_rows.0, u, t).into());
        }
    }
}

/// Reduce a symmetric banded matrix straight to tridiagonal form with
/// the **fused rank-1 sweep**: the same `h = 1` chase geometry as
/// `reduce_band_to(bmat, 1)` (the operations of [`chase_plan_iter`], the
/// same fill pattern), but with the per-chase work — Householder
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
/// **The sum contract.** Per chase (`fused_op`), with `fma(a, b, c)`
/// one correctly rounded `a·b + c` and `dot` the eight-lane fixed-tree
/// sum of [`crate::qr`]:
///
/// ```text
/// (u, τ, β)  = house_gen_in_place(column)         σ² = dot(tail, tail)
/// pu[r]      = dot(mirror row r of P, u)           rows with an upper part
/// pu[r]      = fma(u[c], P[r][c], pu[r])           stored columns, c ascending
/// v[r]       = −τ·pu[r];  v[ov+i] = fma(½τ²·dot(u, pu[ov..]), u[i], v[ov+i])
/// P[r][c]    = fma(v[r], u[c], P[r][c])            every cell once
/// P[r][c]    = fma(u[r−ov], v[ov+c], ·)            then, in the symmetric square
/// ```
///
/// Every order is in the source and no sum is shared between cells, so
/// the band's bits are a function of the input alone — not of the
/// instantiation (the loop is compiled for AVX2 + FMA behind `gemm`'s
/// one detection token and, from the same source, portably, where
/// `f64::mul_add` is the C library's `fma`), of threads, core budget or
/// host. Unlike the zero-copy/reference engine pair the kernel is not
/// bitwise-matched to `reduce_band_to`: this module's tests hold it to
/// that engine op by op at `1e-12·‖A‖`, and `tests/sweep_props.rs` the
/// two instantiations to each other bit for bit.
///
/// **Recording.** With `record`, the sweep's reflectors are appended as
/// compact-WY blocks rather than one by one. Reflector `H(i, j)` (sweep
/// `i`, chase position `j`) acts on rows `[i + (j−1)b, i + jb)`. A group
/// of `g =` [`sweep_group`]`(b)` consecutive sweeps `i₀ .. i₀ + g` emits
/// one block per position — `U` the `(b + g − 1) × g` trapezoid whose
/// column `s` is `H(i₀ + s, j)`'s vector shifted down `s` rows, `T` by
/// `larft`'s forward recurrence, `row0 = i₀ + (j−1)b` — **`j`
/// descending**, groups ascending. That is a reordering of the sweep's
/// own `(i, j)`-lexicographic product, and a legal one: the pairs whose
/// relative order changes are `H(i, j)`, `H(i′, j′)` with `i = i′`, or
/// with `i < i′` in one group and `j′ > j`; the first act on rows
/// `b` apart, the second on `[·, i + jb)` and `[i′ + jb, ·)` — disjoint
/// either way, so they commute. (`j` ascending would not do: `H(i, j+1)`
/// and `H(i′, j)`, `i < i′`, overlap and must keep their order.) An
/// identity chase (`σ² = 0`) leaves a zero column in `U` and `T`; a block
/// of nothing but those is not emitted. Recording does not touch the
/// band's arithmetic.
pub fn sweep_to_tridiagonal(bmat: &mut BandedSym, record: Option<&mut Vec<BlockReflector>>) {
    with_ws(|ws| sweep(bmat, record, ws, Fma::detect()));
}

/// [`sweep_to_tridiagonal`] through the portable instantiation whatever
/// the host supports: the oracle the SIMD instantiation is held to, bit
/// for bit, by `tests/sweep_props.rs`. Not a runtime leg — nothing
/// outside tests calls it.
#[doc(hidden)]
pub fn sweep_to_tridiagonal_portable(
    bmat: &mut BandedSym,
    record: Option<&mut Vec<BlockReflector>>,
) {
    with_ws(|ws| sweep(bmat, record, ws, None));
}

/// Sweeps per recorded block for a band of width `b`: `⌈b/2⌉`, at most
/// 32 — and 1 below a band-width of 32 (`BLOCK_MIN_BAND`), where the record stays one
/// reflector per chase (`U` a single column, `T = [τ]`).
///
/// A block of `g` reflectors of length `b` is applied as three products
/// with inner dimensions `b + g − 1`, `g`, `g` over a trapezoid that is
/// `(g − 1)/(b + g − 1)` zeros: wide enough to leave the BLAS-2 regime,
/// narrow enough that `T` and the zeros stay a fraction of the work and
/// of the record. Measured on the reference host at n = 768
/// (back-transformation of the sweep's records alone, one thread):
/// b = 64, g = 8 / 16 / 32 / 64 → 75 / 62 / 63 / 79 ms and 2.9 / 3.5 /
/// 4.8 / 7.2 MB of record; b = 192, g = 16 / 32 / 48 / 64 / 96 → 50 /
/// 45 / 44 / 45 / 70 ms.
pub fn sweep_group(b: usize) -> usize {
    if b < BLOCK_MIN_BAND {
        1
    } else {
        b.div_ceil(2).min(GROUP_MAX)
    }
}

/// Cap of [`sweep_group`] (and the length of the recorder's stack
/// buffer for one column of `T`).
const GROUP_MAX: usize = 32;

/// Band-width below which the sweep records rank-1 reflectors: the
/// widths whose blocks would be narrower than 16 columns, the plateau of
/// the measurements above. Blocks do not lose there — at (n, b) =
/// (96, 24), `g = 12`, a whole vectors solve read 1.87 → 1.75 ms — but
/// that is a few per cent of a job the size of `service_mix`'s, and
/// that workload's closed loop (FIFO queue, small jobs coalesced behind
/// the large ones) turns a 6 % shorter largest job into a 19 % longer
/// *median* job latency: the measurement, and why the rank-1 leg is kept
/// for narrow bands, are in `results/pr17_benchmark_pairs.md`. A rule on
/// the band-width, which the code observes; wide bands are
/// `vectors_p4`'s side of it, narrow ones `service_mix`'s.
const BLOCK_MIN_BAND: usize = 32;

/// [`sweep_to_tridiagonal`] on the caller's arena, in the instantiation
/// `fma` selects.
pub(crate) fn sweep(
    bmat: &mut BandedSym,
    record: Option<&mut Vec<BlockReflector>>,
    ws: &mut Workspace,
    fma: Option<Fma>,
) {
    let n = bmat.n();
    let b = bmat.bandwidth();
    let cap = bmat.capacity();
    assert!(
        cap >= (2 * b).min(n.saturating_sub(1)),
        "capacity {cap} too small for bulge fill of band {b}"
    );
    if b <= 1 {
        return;
    }
    // The chase's three vectors — u (b), pu and v (1 + 3b each) — in one
    // lent buffer.
    let mut scratch = ws.take_scratch(b + 2 * (1 + 3 * b));
    let mut blocks = record.map(|out| Blocks::new(out, n, b, ws));
    {
        let (slab, scale) = bmat.bands_mut_scale();
        let fro = sweep_dispatch(fma, slab, (n, b, cap), &mut scratch, blocks.as_mut());
        // ‖A‖_F bounds every entry of every orthogonal similarity of A:
        // one high-water raise covers the whole sweep.
        if fro > *scale {
            *scale = fro;
        }
    }
    if let Some(blocks) = blocks {
        ws.put(blocks.taus);
        ws.put(blocks.stage);
    }
    ws.put(scratch);
    bmat.set_bandwidth(1);
}

/// Run [`sweep_body`] in the instantiation `fma` selects.
fn sweep_dispatch(
    fma: Option<Fma>,
    slab: &mut [f64],
    shape: (usize, usize, usize),
    scratch: &mut [f64],
    blocks: Option<&mut Blocks>,
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if fma.is_some() {
        // SAFETY: an `Fma` exists only if `Fma::detect` found AVX2 and
        // FMA on this host.
        return unsafe { sweep_fma(slab, shape, scratch, blocks) };
    }
    let _ = fma;
    sweep_body(slab, shape, scratch, blocks)
}

/// [`sweep_body`] compiled for AVX2 + FMA: the same source, so the same
/// chain of operations on every cell; `f64::mul_add` becomes one
/// `vfmadd` lane instead of a call.
///
/// # Safety
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sweep_fma(
    slab: &mut [f64],
    shape: (usize, usize, usize),
    scratch: &mut [f64],
    blocks: Option<&mut Blocks>,
) -> f64 {
    sweep_body(slab, shape, scratch, blocks)
}

/// The whole `h = 1` plan over the raw slab of an `(n, b, cap)` band,
/// `scratch` holding `b + 2·(1 + 3b)` words; returns `‖A‖_F`.
#[inline(always)]
fn sweep_body(
    slab: &mut [f64],
    (n, b, cap): (usize, usize, usize),
    scratch: &mut [f64],
    mut blocks: Option<&mut Blocks>,
) -> f64 {
    let mut fro2 = 0.0f64;
    for col in slab.chunks_exact(cap + 1) {
        fro2 += col[0] * col[0] + 2.0 * dot(&col[1..], &col[1..]);
    }
    let (u, rest) = scratch.split_at_mut(b);
    let (pu, v) = rest.split_at_mut(1 + 3 * b);
    for op in chase_plan_iter(n, b, 1) {
        let tau = fused_op(slab, cap, &op, u, pu, v);
        if let Some(blocks) = blocks.as_deref_mut() {
            blocks.stage_reflector(&op, &u[..op.nr()], tau);
        }
    }
    if let Some(blocks) = blocks {
        blocks.flush();
    }
    fro2.sqrt()
}

/// One fused rank-1 chase on the raw band slab (`cap + 1` stored
/// diagonals per column), to the sum contract of
/// [`sweep_to_tridiagonal`]. Returns the reflector's `τ` with the vector
/// left in `u[..op.nr()]`, or `0.0` — and an untouched band — when the
/// column was already eliminated. `u`/`pu`/`v` are caller-provided
/// scratch of lengths ≥ `b`, `1 + 3b`, `1 + 3b`.
#[inline(always)]
fn fused_op(
    slab: &mut [f64],
    cap: usize,
    op: &ChaseOp,
    u: &mut [f64],
    pu: &mut [f64],
    v: &mut [f64],
) -> f64 {
    let bw = cap + 1;
    let (nr, nc, ov) = (op.nr(), op.nc(), op.ov);
    let (qr_r0, qr_c0, up_c0) = (op.qr_rows.0, op.qr_cols.0, op.up_cols.0);
    let (u, pu, v) = (&mut u[..nr], &mut pu[..nc], &mut v[..nc]);

    // Householder annihilating the length-nr column at (qr_r0, qr_c0) —
    // contiguous in the slab.
    let cbase = qr_c0 * bw + (qr_r0 - qr_c0);
    u.copy_from_slice(&slab[cbase..cbase + nr]);
    let (tau, beta) = house_gen_in_place(u);
    if tau == 0.0 {
        return 0.0; // already eliminated; reflector is identity
    }
    slab[cbase] = beta;
    slab[cbase + 1..cbase + nr].fill(0.0);

    // P·u over the strip P = B[I_up.cs, I_qr.rs], streaming the slab's
    // two contiguous layouts: strip cell (r, c), global
    // (up_c0 + r, qr_r0 + c), lives mirror-contiguous in row up_c0 + r
    // when globally upper (r < ov + c) and contiguous in stored column
    // qr_r0 + c when lower. Cells beyond the capacity are the
    // (negligible, dropped) fill the generic engine also discards.
    for (r, pur) in pu.iter_mut().enumerate() {
        let c0 = (r + 1).saturating_sub(ov).min(nr);
        let c1 = nr.min((cap + r + 1).saturating_sub(ov));
        *pur = if c0 < c1 {
            let base = (up_c0 + r) * bw + (ov + c0 - r);
            dot(&slab[base..base + (c1 - c0)], &u[c0..c1])
        } else {
            0.0
        };
    }
    for (c, &uc) in u.iter().enumerate() {
        let r0 = ov + c;
        if r0 >= nc {
            break;
        }
        let r1 = nc.min(r0 + bw);
        let base = (qr_r0 + c) * bw;
        for (&s, pur) in slab[base..base + (r1 - r0)].iter().zip(&mut pu[r0..r1]) {
            *pur = uc.mul_add(s, *pur);
        }
    }

    // v = −τ·P·u + ½τ²(uᵀ(P·u)_sym)·u on the symmetric rows: the rank-1
    // specialization of lines 19–20.
    for (vr, &pur) in v.iter_mut().zip(pu.iter()) {
        *vr = -tau * pur;
    }
    let half = 0.5 * tau * tau * dot(u, &pu[ov..ov + nr]);
    for (vr, &uc) in v[ov..ov + nr].iter_mut().zip(u.iter()) {
        *vr = half.mul_add(uc, *vr);
    }

    // ΔP(r, c) = v[r]·u[c] + (ov ≤ r < ov + nr) u[r−ov]·v[ov+c]
    // (lines 21–22 restricted to the strip), written through the same
    // two slab layouts as the gather — with one difference from the
    // gather: strip rows ov..ov+nr and columns 0..nr form the symmetric
    // square, whose upper-triangle strip cells alias the lower-triangle
    // ones in band storage (strip (r, c) and (ov + c, r − ov) are the
    // same stored cell). The delta there is symmetric, so apply it once
    // through the lower orientation: the mirror-row pass covers only
    // rows r < ov, which have no aliased partner in the strip.
    for (r, &vr) in v[..ov.min(nc)].iter().enumerate() {
        let c1 = nr.min((cap + r + 1).saturating_sub(ov));
        let base = (up_c0 + r) * bw + (ov - r);
        for (s, &uc) in slab[base..base + c1].iter_mut().zip(u.iter()) {
            *s = vr.mul_add(uc, *s);
        }
    }
    for (c, &uc) in u.iter().enumerate() {
        let r0 = ov + c;
        if r0 >= nc {
            break;
        }
        let r1 = nc.min(r0 + bw);
        let base = (qr_r0 + c) * bw;
        let sym = (ov + nr).min(r1) - r0;
        let vc = v[r0];
        let (square, below) = slab[base..base + (r1 - r0)].split_at_mut(sym);
        for ((s, &vr), &ur) in square.iter_mut().zip(&v[r0..r0 + sym]).zip(&u[c..c + sym]) {
            *s = ur.mul_add(vc, vr.mul_add(uc, *s));
        }
        for (s, &vr) in below.iter_mut().zip(&v[r0 + sym..r1]) {
            *s = vr.mul_add(uc, *s);
        }
    }
    tau
}

/// The recording half of the sweep: the open group's reflectors staged
/// column-major per chase position in arena buffers, emitted as
/// `(row0, U, T)` blocks when the group closes (see
/// [`sweep_to_tridiagonal`] for the order and why it is legal).
struct Blocks<'a> {
    out: &'a mut Vec<BlockReflector>,
    n: usize,
    b: usize,
    /// Sweeps per group, [`sweep_group`]`(b)`.
    g: usize,
    /// Rows of a staged trapezoid, `b + g − 1`: position `j`'s column
    /// `s` is `stage[((j − 1)·g + s)·ld ..][.. ld]`, its reflector at
    /// rows `s ..`, zeros elsewhere.
    ld: usize,
    stage: Vec<f64>,
    /// `taus[(j − 1)·g + s]`: `τ` of sweep `i₀ + s` at position `j`.
    taus: Vec<f64>,
    /// First sweep of the open group (1-based; the plan's `i`).
    i0: usize,
}

impl<'a> Blocks<'a> {
    fn new(out: &'a mut Vec<BlockReflector>, n: usize, b: usize, ws: &mut Workspace) -> Self {
        let g = sweep_group(b);
        let ld = b + g - 1;
        // Sweep 1 has the most chase positions: ⌊(n − 3)/b⌋ + 1.
        let positions = (n - 3) / b + 1;
        Self {
            out,
            n,
            b,
            g,
            ld,
            stage: ws.take(positions * g * ld),
            taus: ws.take(positions * g),
            i0: 1,
        }
    }

    /// Stage the reflector `(u, τ)` of `op`, closing the open group
    /// first if `op` starts the next one.
    #[inline(always)]
    fn stage_reflector(&mut self, op: &ChaseOp, u: &[f64], tau: f64) {
        if op.i >= self.i0 + self.g {
            self.flush();
            self.i0 = op.i;
        }
        if tau != 0.0 {
            let s = op.i - self.i0;
            let col = ((op.j - 1) * self.g + s) * self.ld;
            self.stage[col + s..col + s + u.len()].copy_from_slice(u);
            self.taus[(op.j - 1) * self.g + s] = tau;
        }
    }

    /// Emit the open group's blocks, `j` descending, and clear the
    /// staging for the next group.
    #[inline(always)]
    fn flush(&mut self) {
        let (n, b, g, ld, i0) = (self.n, self.b, self.g, self.ld, self.i0);
        // Sweep i chases at position j iff its QR block starts at or
        // above row n − 2: i + (j − 1)·b ≤ n − 2.
        let positions = (n - 2 - i0) / b + 1;
        for j in (1..=positions).rev() {
            let row0 = i0 + (j - 1) * b;
            let cols = g.min(n - 1 - row0);
            let rows = (cols - 1 + b).min(n - row0);
            let stage = &mut self.stage[(j - 1) * g * ld..][..g * ld];
            let taus = &mut self.taus[(j - 1) * g..][..g];
            if taus.iter().any(|&tau| tau != 0.0) {
                let mut u = Matrix::zeros(rows, cols);
                let mut t = Matrix::zeros(cols, cols);
                for s in 0..cols {
                    for (r, &x) in stage[s * ld..][..rows].iter().enumerate().skip(s) {
                        u.set(r, s, x);
                    }
                    // larft, forward and column-wise:
                    // T[..s, s] = −τ·T[..s, ..s]·(U[:, ..s]ᵀ·u_s).
                    let tau = taus[s];
                    t.set(s, s, tau);
                    if tau == 0.0 {
                        continue;
                    }
                    let us = &stage[s * ld + s..][..rows - s];
                    let mut z = [0.0f64; GROUP_MAX];
                    for c in 0..s {
                        z[c] = -tau * dot(&stage[c * ld + s..][..rows - s], us);
                    }
                    for r in 0..s {
                        let mut acc = 0.0;
                        for c in r..s {
                            acc += t.get(r, c) * z[c];
                        }
                        t.set(r, s, acc);
                    }
                }
                self.out.push((row0, u, t));
            }
            stage.fill(0.0);
            taus.fill(0.0);
        }
    }
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
    fn handed_factors_continue_like_the_local_factorization() {
        // The factor-step split: a walk whose hook factors every gathered
        // block itself (`qr_factor`, the same recursion on a copy) and
        // hands (U, T, R) back must leave bitwise the band and the record
        // of the walk that lets the kernel factor. Ragged shapes reach
        // wide blocks (nr < h) at the matrix end.
        for (n, b, h, seed) in [(40usize, 8usize, 4usize, 56u64), (33, 7, 4, 57), (29, 9, 5, 58)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let dense = gen::random_banded(&mut rng, n, b);
            let mut local = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));
            let mut handed = local.clone();
            let mut rec_local: Vec<BlockReflector> = Vec::new();
            let mut rec_handed: Vec<BlockReflector> = Vec::new();
            let mut ws = Workspace::new();
            let plan = chase_plan_to(n, b, h);
            reduce_band_pass(&mut local, &plan, |_, _| None, Some(&mut rec_local), &mut ws);
            let mut seen = 0;
            reduce_band_pass(
                &mut handed,
                &plan,
                |op, block| {
                    assert_eq!((block.rows(), block.cols()), (op.nr(), op.h()));
                    seen += 1;
                    Some(qr_factor(&block.to_matrix(), usize::MAX))
                },
                Some(&mut rec_handed),
                &mut ws,
            );
            assert_eq!(seen, plan.len(), "the hook runs once per chase");
            assert_eq!(local, handed, "n={n} b={b} h={h}: bands differ");
            assert_eq!(rec_local, rec_handed, "n={n} b={b} h={h}: records differ");
        }
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
        // Ragged shapes: n not a multiple of b, capacity exactly
        // min(2b, n − 1), b across dot's lane count and its tail.
        for (n, b) in [
            (18usize, 3usize),
            (11, 2),
            (23, 7),
            (37, 8),
            (40, 9),
            (50, 15),
            (53, 16),
            (60, 17),
            (24, 17),
            (75, 33),
            (131, 64),
        ] {
            let mut rng = StdRng::seed_from_u64(67 + n as u64);
            let dense = gen::random_banded(&mut rng, n, b);
            let cap = (2 * b).min(n - 1);
            let mut fused = BandedSym::from_dense(&dense, b, cap);
            let mut generic = BandedSym::from_dense(&dense, b, cap);
            let scale = dense.norm_fro().max(1.0);
            let (mut u, mut pu, mut v) = (vec![0.0; b], vec![0.0; 1 + 3 * b], vec![0.0; 1 + 3 * b]);
            for (idx, op) in chase_plan_iter(n, b, 1).enumerate() {
                execute_chase(&mut generic, &op);
                {
                    let (slab, _) = fused.bands_mut_scale();
                    fused_op(slab, cap, &op, &mut u, &mut pu, &mut v);
                }
                let diff = fused.to_dense().max_diff(&generic.to_dense());
                assert!(
                    diff < 1e-12 * scale,
                    "n={n} b={b} op {idx} ({op:?}): fused diverged from generic by {diff}"
                );
            }
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
            sweep_to_tridiagonal(&mut fused, None);
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
        sweep_to_tridiagonal(&mut bm, None);
        let (t1, f1, m1) = moments(&bm.to_dense());
        let scale = f0.max(1.0);
        assert!((t0 - t1).abs() < 1e-9 * scale);
        assert!((f0 - f1).abs() < 1e-9 * scale);
        assert!((m0 - m1).abs() < 1e-7 * scale.powi(3));
    }

    #[test]
    fn fused_sweep_recording_reconstructs_similarity() {
        // Accumulate the recorded blocks into dense Q, in recorded
        // order, and verify Qᵀ·A·Q equals the tridiagonal result: the
        // record is exactly the transform the sweep applied. (The block
        // order, `T` and the ragged shapes are taken apart in
        // `tests/sweep_props.rs`.)
        let (n, b) = (26usize, 5usize);
        let mut rng = StdRng::seed_from_u64(65);
        let dense = gen::random_banded(&mut rng, n, b);
        let mut bm = BandedSym::from_dense(&dense, b, 2 * b);
        let mut blocks = Vec::new();
        sweep_to_tridiagonal(&mut bm, Some(&mut blocks));
        assert!(!blocks.is_empty());
        // Q = Q₁·Q₂·…  (application order: Qᵢᵀ…Q₁ᵀ·A·Q₁…Qᵢ).
        let mut q = Matrix::identity(n);
        for (row0, u, t) in &blocks {
            assert!(u.cols() <= sweep_group(b) && u.rows() < b + sweep_group(b));
            let mut cols = q.block(0, *row0, n, u.rows());
            crate::qr::apply_q_right(u, t, &mut cols);
            q.set_block(0, *row0, &cols);
        }
        let qtaq = matmul(&matmul(&q, Trans::T, &dense, Trans::N), Trans::N, &q, Trans::N);
        let diff = qtaq.max_diff(&bm.to_dense());
        assert!(diff < 1e-9 * dense.norm_fro().max(1.0), "QᵀAQ ≠ T: {diff}");
        // And the recording run equals the plain run bitwise.
        let mut plain = BandedSym::from_dense(&dense, b, 2 * b);
        sweep_to_tridiagonal(&mut plain, None);
        assert_eq!(plain, bm);
    }

    #[test]
    fn fused_sweep_noop_on_tridiagonal_input() {
        let mut rng = StdRng::seed_from_u64(66);
        let dense = gen::random_banded(&mut rng, 12, 1);
        let mut bm = BandedSym::from_dense(&dense, 1, 4);
        let before = bm.clone();
        let mut blocks = Vec::new();
        sweep_to_tridiagonal(&mut bm, Some(&mut blocks));
        assert!(blocks.is_empty());
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
