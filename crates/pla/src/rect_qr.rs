//! rect-QR: communication-efficient QR of arbitrary rectangular matrices
//! with Householder output (Algorithm III.2 / Theorem III.6 +
//! Corollary III.7).
//!
//! The paper's Algorithm III.2 uses a binary *row*-reduction tree with a
//! square QR at each node; it also notes (§III.B) that "alternate
//! communication-efficient formulations of a rectangular QR algorithm
//! are also possible (for instance by combining column-recursion \[30\]
//! with communication-efficient matrix multiplication, see \[31\])". We
//! implement that sanctioned variant, which reaches the same cost shape
//! with far simpler machinery on the virtual machine:
//!
//! * tall base cases (`n ≤ max(n₀, m/g)`) use the TSQR row tree — which
//!   *is* Algorithm III.2's recursion shape for `m ≫ n` — followed by
//!   Householder reconstruction (Corollary III.7);
//! * wider panels recurse on column halves, applying the left factor to
//!   the right half with the recursive rectangular multiply of
//!   Lemma III.2, so the update communication matches the
//!   `O(mᵟn²⁻ᵟ/pᵟ)` term of Theorem III.6.
//!
//! `n₀` (`BASE_COLS`) is the only width in the algorithm: a panel at
//! most `m/g` wide is already a TSQR, so `n₀` matters only where `m/g`
//! is smaller still, and [`rect_qr_with_base`] lowers it for one reason —
//! to force the column recursion at sizes a test can afford.
//!
//! The output is the aggregated compact-WY pair `(U, T)` plus `R` — the
//! exact interface Algorithms IV.1/IV.2 consume.
//!
//! **Numerics on views, charges on the layout.** The recursion computes
//! on one assembled `U`, `T` and `R`: every node writes its factors into
//! sub-views of its parent's, transposed operands are read in place
//! through the multiply's `op(·)`, and `[0; U₂]` is a column block of
//! the assembled `U`, which leaves as the buffer of [`PanelQr::u`]. What
//! the ledger sees is the distributed algorithm all the same — each
//! redistribution, realignment, multiply and stored factor is charged and
//! recorded for the 1D row layout over the node's group, where and as the
//! distributed code would create it.

use crate::carma::carma_spread_into;
use crate::dist::DistMatrix;
use crate::grid::Grid;
use crate::kern;
use crate::reconstruct;
use crate::tsqr;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::Matrix;

/// Result of a distributed panel QR: `A = (I − U·T·Uᵀ)·[R; 0]`.
#[derive(Debug, Clone)]
pub struct PanelQr {
    /// 1D group the factorization ran on.
    pub group: Grid,
    /// `m × k` Householder vectors, 1D row layout: unit
    /// lower-trapezoidal only to rounding where the reconstruction made
    /// them ([`reconstruct::Reconstruction::u`]), so no product may skip
    /// their upper triangle or assume a unit diagonal without changing
    /// bits.
    pub u: DistMatrix,
    /// `k × k` upper-triangular aggregated `T` (assembled numerically;
    /// storage and operations charged as distributed).
    pub t: Matrix,
    /// `k × n` upper-triangular/trapezoidal factor.
    pub r: Matrix,
}

/// Default base-case panel width.
const BASE_COLS: usize = 32;

/// Distributed QR of `a` (1D row layout, `m ≥ n`): returns the
/// Householder representation per Corollary III.7.
pub fn rect_qr(machine: &Machine, a: &DistMatrix) -> PanelQr {
    rect_qr_with_base(machine, a, BASE_COLS)
}

/// [`rect_qr`] with the base-case width `n₀` given. Panels of at most
/// `max(base, m/g)` columns take the TSQR path, so a small `base` is how
/// a test reaches the column recursion on a matrix of a few dozen rows;
/// nothing else varies it.
pub fn rect_qr_with_base(machine: &Machine, a: &DistMatrix, base: usize) -> PanelQr {
    let group = a.grid().clone();
    let (mrows, n) = a.shape();
    assert!(mrows >= n, "rect_qr requires m ≥ n (got {mrows} × {n})");
    // The assembled factors, zero where no node writes: U above its
    // diagonal blocks, T and R below theirs.
    let mut u = Matrix::zeros(mrows, n);
    let mut t = Matrix::zeros(n, n);
    let mut r = Matrix::zeros(n, n);
    rect_qr_node(
        machine,
        a,
        base,
        &mut u.view_mut(),
        &mut t.view_mut(),
        &mut r.view_mut(),
    );
    let u = DistMatrix::wrap(&group, u);
    PanelQr { group, u, t, r }
}

/// `op(A)·B` by Lemma III.2 on `group` (operands already spread), into a
/// fresh matrix.
fn mm(machine: &Machine, group: &Grid, a: &MatrixView, ta: Trans, b: &MatrixView) -> Matrix {
    let rows = match ta {
        Trans::N => a.rows(),
        Trans::T => a.cols(),
    };
    let mut out = Matrix::zeros(rows, b.cols());
    carma_spread_into(machine, group, a, ta, b, Trans::N, 1, &mut out.view_mut());
    out
}

/// `U·(op(T)·(Uᵀ·C))`, what `I − U·op(T)·Uᵀ` takes away from `C`: three
/// Lemma III.2 multiplies, the transposes read in place.
fn wy_correction(
    machine: &Machine,
    group: &Grid,
    u: &MatrixView,
    t: &MatrixView,
    tt: Trans,
    c: &MatrixView,
) -> Matrix {
    let utc = mm(machine, group, u, Trans::T, c);
    let s = mm(machine, group, t, tt, &utc.view());
    mm(machine, group, u, Trans::N, &s.view())
}

/// One node of the recursion: factor `a` on its group and write `U`
/// (`m × n`), `T` and `R` (`n × n`) into the given views, which arrive
/// zeroed. `U`'s distributed storage is recorded here, at the point the
/// distributed algorithm creates it; the caller owns that record.
fn rect_qr_node(
    machine: &Machine,
    a: &DistMatrix,
    base: usize,
    u: &mut MatrixViewMut,
    t: &mut MatrixViewMut,
    r: &mut MatrixViewMut,
) {
    let group = a.grid();
    let (mrows, n) = a.shape();
    let g = group.len();

    // Base case: single processor — local QR gives (U, T, R) directly.
    if g == 1 {
        let f = kern::local_qr(machine, group.proc(0), a.block(0).to_matrix());
        DistMatrix::record_alloc(machine, group, mrows, n);
        u.copy_from(&f.u.view());
        t.copy_from(&f.t.view());
        r.copy_from(&f.r.view());
        return;
    }

    // Base case: tall panel — TSQR + reconstruction.
    if n <= base.max(mrows.div_ceil(g)) {
        let ts = {
            let _span = ca_obs::kernel_span("rq.tsqr");
            tsqr::tsqr(machine, a)
        };
        // The tree goes once `Q` is formed; only its `R` is kept.
        let mut q = DistMatrix::zeros(machine, group, mrows, n);
        let ts_r = {
            let _span = ca_obs::kernel_span("rq.explicit_q");
            tsqr::explicit_q(machine, ts, &mut q)
        };
        let _span = ca_obs::kernel_span("rq.reconstruct");
        let s = reconstruct::reconstruct_into(machine, &mut q, u, t);
        reconstruct::fix_r_into(&s, &ts_r, r);
        q.release(machine);
        return;
    }

    // Column recursion.
    let n1 = n / 2;
    let n2 = n - n1;

    let left = {
        let _span = ca_obs::kernel_span("rq.split");
        a.block_redist(machine, 0, 0, mrows, n1, group)
    };
    rect_qr_node(
        machine,
        &left,
        base,
        &mut u.sub_mut(0, 0, mrows, n1),
        &mut t.sub_mut(0, 0, n1, n1),
        &mut r.sub_mut(0, 0, n1, n1),
    );
    left.release(machine);

    // Apply Q₁ᵀ to the right half: C ← C − U₁·(T₁ᵀ·(U₁ᵀ·C)). R₁₂ is the
    // top n1 rows of the result; the right recursion runs on the rows
    // below.
    let tail = {
        let _span = ca_obs::kernel_span("rq.update");
        let mut c = a.dense().block(0, n1, mrows, n2);
        let upd = wy_correction(
            machine,
            group,
            &u.sub(0, 0, mrows, n1),
            &t.sub(0, 0, n1, n1),
            Trans::T,
            &c.view(),
        );
        c.axpy(-1.0, &upd);
        for &pid in group.procs() {
            machine.charge_flops(pid, (mrows * n2) as u64 / g as u64);
        }
        r.sub_mut(0, n1, n1, n2).copy_from(&c.subview(0, 0, n1, n2));
        DistMatrix::resident(machine, group, c.block(n1, 0, mrows - n1, n2))
    };
    rect_qr_node(
        machine,
        &tail,
        base,
        &mut u.sub_mut(n1, n1, mrows - n1, n2),
        &mut t.sub_mut(n1, n1, n2, n2),
        &mut r.sub_mut(n1, n1, n2, n2),
    );
    tail.release(machine);

    let _span = ca_obs::kernel_span("rq.merge");
    // U = [U₁ | [0; U₂]] is in place already; the distributed algorithm
    // pays one realignment exchange and stores the result.
    for &pid in group.procs() {
        machine.charge_comm(pid, (mrows * n) as u64 / (2 * g as u64));
    }
    machine.step(group.procs(), 1);
    DistMatrix::record_alloc(machine, group, mrows, n);

    // T₁₂ = −T₁·(U₁ᵀ·Û₂)·T₂ with Û₂ = [0; U₂], U's right column block.
    let u1t_u2 = mm(
        machine,
        group,
        &u.sub(0, 0, mrows, n1),
        Trans::T,
        &u.sub(0, n1, mrows, n2),
    );
    let t1_u = mm(
        machine,
        group,
        &t.sub(0, 0, n1, n1),
        Trans::N,
        &u1t_u2.view(),
    );
    let (mut t_top, t_bot) = t.split_rows_mut(n1);
    let mut t12 = t_top.sub_mut(0, n1, n1, n2);
    carma_spread_into(
        machine,
        group,
        &t1_u.view(),
        Trans::N,
        &t_bot.sub(0, n1, n2, n2),
        Trans::N,
        1,
        &mut t12,
    );
    t12.scale(-1.0);

    // The halves' own copies of U₁ and U₂ go.
    DistMatrix::record_free(machine, group, mrows, n1);
    DistMatrix::record_free(machine, group, mrows - n1, n2);
}

/// **Algorithm III.2 verbatim**: the binary *row*-reduction-tree QR.
///
/// This is the paper's pseudocode as written (complementing the
/// column-recursive [`rect_qr`], see module docs): partition the rows
/// into `r = min(p, ⌈m/2n⌉)` chunks, factor each on `p/r` processors
/// (line 6 — disjoint groups, concurrent), recurse on the stacked `R`
/// factors with all `p` processors (line 7), then rebuild the explicit
/// orthogonal factor as `Qᵢ = Wᵢ·Zᵢ` (line 11, Lemma III.2 multiplies).
/// `q_max` caps the processors used by (nearly) square base cases, as
/// in Theorem III.6's proof.
///
/// Returns the explicit `m×n` `Q` (1D row layout) and `R`; apply
/// Corollary III.7 ([`crate::reconstruct`]) for the Householder form.
pub fn rect_qr_tree(machine: &Machine, a: &DistMatrix, q_max: usize) -> (DistMatrix, Matrix) {
    let group = a.grid().clone();
    let (mrows, n) = a.shape();
    assert!(mrows >= n, "rect_qr_tree requires m ≥ n");
    let p = group.len();

    // Line 1: sequential base case.
    if p == 1 {
        let f = kern::local_qr(machine, group.proc(0), a.block(0).to_matrix());
        let q = ca_dla::qr::explicit_q(&f.u, &f.t, n);
        let mut r = Matrix::zeros(n.min(mrows), n);
        r.set_block(0, 0, &f.r);
        return (DistMatrix::resident(machine, &group, q), r);
    }

    // Line 2: (nearly) square base case on min(p, q_max) processors.
    if mrows <= 2 * n {
        let used = p.min(q_max).max(1);
        let sub = group.prefix(used);
        let da = a.block_redist(machine, 0, 0, mrows, n, &sub);
        let f = rect_qr_with_base(machine, &da, BASE_COLS);
        da.release(machine);
        let q_sub = explicit_q(machine, &f);
        let q = q_sub.redistribute(machine, &group);
        q_sub.release(machine);
        f.u.release(machine);
        return (q, f.r);
    }

    // Line 3: partition A into r row chunks.
    let r_chunks = p.min(mrows.div_ceil(2 * n)).max(2).min(p);
    let row_splits = crate::dist::splits(mrows, r_chunks);
    let groups = if p.is_multiple_of(r_chunks) {
        group.split(r_chunks)
    } else {
        // Uneven processor split: ⌊p/r⌋ each, +1 for the remainder.
        let base = p / r_chunks;
        let extra = p % r_chunks;
        let mut out = Vec::new();
        let mut at = 0;
        for i in 0..r_chunks {
            let len = base + usize::from(i < extra);
            out.push(Grid::new_1d(group.procs()[at..at + len].to_vec()));
            at += len;
        }
        out
    };

    // Lines 4–6: concurrent recursion per chunk (disjoint groups).
    let mut ws: Vec<DistMatrix> = Vec::with_capacity(r_chunks);
    let mut rs: Vec<Matrix> = Vec::with_capacity(r_chunks);
    for (i, sub) in groups.iter().enumerate() {
        let (r0, r1) = (row_splits[i], row_splits[i + 1]);
        let chunk = a.block_redist(machine, r0, 0, r1 - r0, n, sub);
        let (w_i, r_i) = rect_qr_tree(machine, &chunk, q_max);
        chunk.release(machine);
        ws.push(w_i);
        let mut r_pad = Matrix::zeros(n, n);
        r_pad.set_block(0, 0, &r_i.block(0, 0, r_i.rows().min(n), n));
        rs.push(r_pad);
    }

    // Line 7: QR of the stacked Rs with all p processors.
    let stacked_refs: Vec<&Matrix> = rs.iter().collect();
    let stacked = Matrix::vstack(&stacked_refs);
    let dstacked = DistMatrix::from_dense(machine, &group, stacked);
    let (z, r_final) = rect_qr_tree(machine, &dstacked, q_max);
    dstacked.release(machine);

    // Lines 8–11: Qᵢ = Wᵢ·Zᵢ per chunk (Lemma III.2 multiplies on the
    // chunk's group).
    let z = z.release(machine);
    let mut q = Matrix::zeros(mrows, n);
    for (i, w) in ws.iter().enumerate() {
        let (r0, r1) = (row_splits[i], row_splits[i + 1]);
        carma_spread_into(
            machine,
            &groups[i],
            &w.dense().view(),
            Trans::N,
            &z.subview(i * n, 0, n, n),
            Trans::N,
            1,
            &mut q.subview_mut(r0, 0, r1 - r0, n),
        );
    }
    for w in ws {
        w.release(machine);
    }
    machine.fence();
    (DistMatrix::resident(machine, &group, q), r_final)
}

/// Apply `Qᵀ` from a [`PanelQr`] to a distributed matrix (same row
/// space): `C ← C − U·(Tᵀ·(Uᵀ·C))` via Lemma III.2 multiplies.
pub fn apply_qt(machine: &Machine, f: &PanelQr, c: &mut DistMatrix) {
    let group = &f.group;
    let (rows, cols) = c.shape();
    let upd = wy_correction(
        machine,
        group,
        &f.u.dense().view(),
        &f.t.view(),
        Trans::T,
        &c.dense().view(),
    );
    for r in 0..c.grid().len() {
        let (r0, c0, nr, nc) = c.owned_range(r);
        c.block_mut(r)
            .add_scaled(-1.0, &upd.subview(r0, c0, nr, nc));
    }
    for &pid in group.procs() {
        machine.charge_flops(pid, ((rows * cols) as u64).div_ceil(group.len() as u64));
    }
    // The update is stored afresh on C's owners and C's old storage stays
    // on the memory ledger (the building-block pins record this `M`).
    DistMatrix::record_alloc(machine, c.grid(), rows, cols);
}

/// Explicit `m × k` orthonormal factor of a [`PanelQr`]
/// (`Q = (I − U·T·Uᵀ)·[I; 0]`), distributed in the panel's row layout.
pub fn explicit_q(machine: &Machine, f: &PanelQr) -> DistMatrix {
    let (mrows, k) = f.u.shape();
    let group = &f.group;
    let mut eye = Matrix::zeros(mrows, k);
    for i in 0..k {
        eye.set(i, i, 1.0);
    }
    // Uᵀ·[I;0] = U₁ᵀ — cheap (triangular read), still charged.
    let upd = wy_correction(
        machine,
        group,
        &f.u.dense().view(),
        &f.t.view(),
        Trans::N,
        &eye.view(),
    );
    eye.axpy(-1.0, &upd);
    DistMatrix::resident(machine, group, eye)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::{matmul, Trans};
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn check_rect_qr(mrows: usize, n: usize, g: usize, base: usize, seed: u64) {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let f = rect_qr_with_base(&m, &da, base);
        // A = (I − U·T·Uᵀ)·[R; 0].
        let u = f.u.dense();
        let mut stack = Matrix::zeros(mrows, n);
        stack.set_block(0, 0, &f.r);
        let ut = matmul(u, Trans::T, &stack, Trans::N);
        let tut = matmul(&f.t, Trans::N, &ut, Trans::N);
        let corr = matmul(u, Trans::N, &tut, Trans::N);
        stack.axpy(-1.0, &corr);
        assert!(
            stack.max_diff(&a) < 1e-8,
            "m={mrows} n={n} g={g} base={base}: A deviates by {}",
            stack.max_diff(&a)
        );
        // R upper-triangular; U unit-lower-trapezoidal.
        for i in 0..n {
            for j in 0..i {
                assert!(f.r.get(i, j).abs() < 1e-9);
            }
            assert!((u.get(i, i) - 1.0).abs() < 1e-9);
            for j in i + 1..n {
                assert!(u.get(i, j).abs() < 1e-9);
            }
        }
        // Orthogonality of the implied Q.
        let q = explicit_q(&m, &f);
        let qd = q.dense();
        let qtq = matmul(qd, Trans::T, qd, Trans::N);
        assert!(
            qtq.max_diff(&Matrix::identity(n)) < 1e-8,
            "QᵀQ deviates by {}",
            qtq.max_diff(&Matrix::identity(n))
        );
    }

    #[test]
    fn tall_panel_tsqr_path() {
        check_rect_qr(48, 6, 4, 8, 140);
    }

    #[test]
    fn square_matrix_column_recursion() {
        check_rect_qr(16, 16, 4, 4, 141);
    }

    #[test]
    fn nearly_square_2n_by_n() {
        check_rect_qr(24, 12, 4, 4, 142);
    }

    #[test]
    fn single_processor() {
        check_rect_qr(20, 10, 1, 4, 143);
    }

    #[test]
    fn wide_group_tall_matrix() {
        check_rect_qr(64, 10, 8, 4, 144);
    }

    #[test]
    fn apply_qt_matches_explicit() {
        let g = 4;
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(145);
        let a = gen::random_matrix(&mut rng, 20, 8);
        let c0 = gen::random_matrix(&mut rng, 20, 5);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let f = rect_qr_with_base(&m, &da, 4);
        let q = explicit_q(&m, &f).release(&m);
        // Full m×m Q action: Qᵀ·C where Q = I − U T Uᵀ.
        let u = f.u.dense();
        let utc = matmul(u, Trans::T, &c0, Trans::N);
        let ttutc = matmul(&f.t.transpose(), Trans::N, &utc, Trans::N);
        let mut want = c0.clone();
        want.axpy(-1.0, &matmul(u, Trans::N, &ttutc, Trans::N));
        let mut dc = DistMatrix::from_dense(&m, &grid, &c0);
        apply_qt(&m, &f, &mut dc);
        assert!(dc.dense().max_diff(&want) < 1e-9);
        // And QᵀA has R on top.
        let qta = matmul(&q, Trans::T, &a, Trans::N);
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    (qta.get(i, j) - f.r.get(i, j)).abs() < 1e-8,
                    "R mismatch at ({i},{j})"
                );
            }
        }
    }

    fn check_tree(mrows: usize, n: usize, g: usize, q_max: usize, seed: u64) {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, r) = rect_qr_tree(&m, &da, q_max);
        let qd = q.dense();
        // Q orthonormal, QR = A, R upper-triangular.
        let qtq = matmul(qd, Trans::T, qd, Trans::N);
        assert!(
            qtq.max_diff(&Matrix::identity(n)) < 1e-8,
            "m={mrows} n={n} g={g}: QᵀQ deviates by {}",
            qtq.max_diff(&Matrix::identity(n))
        );
        let qr = matmul(qd, Trans::N, &r.block(0, 0, n.min(r.rows()), n), Trans::N);
        assert!(
            qr.max_diff(&a) < 1e-8 * (1.0 + a.norm_max()),
            "m={mrows} n={n} g={g}: QR ≠ A ({})",
            qr.max_diff(&a)
        );
        for i in 0..r.rows().min(n) {
            for j in 0..i {
                assert!(r.get(i, j).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tree_variant_tall_matrix() {
        check_tree(128, 8, 4, 4, 160);
    }

    #[test]
    fn tree_variant_very_tall_more_chunks_than_procs() {
        check_tree(256, 4, 2, 2, 161);
    }

    #[test]
    fn tree_variant_square_base_case() {
        check_tree(24, 12, 4, 2, 162);
    }

    #[test]
    fn tree_variant_uneven_processor_split() {
        // p = 3 processors over r = 2+ chunks exercises the remainder
        // path.
        check_tree(96, 8, 3, 2, 163);
    }

    #[test]
    fn tree_variant_matches_column_recursive_r() {
        // Both variants factor the same matrix; |R| must agree up to
        // row signs (QR uniqueness).
        let g = 4;
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(164);
        let a = gen::random_matrix(&mut rng, 64, 8);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (_, r_tree) = rect_qr_tree(&m, &da, g);
        let f = rect_qr_with_base(&m, &da, 4);
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    (r_tree.get(i, j).abs() - f.r.get(i, j).abs()).abs() < 1e-8,
                    "R mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn communication_improves_with_group_size_for_square() {
        let n = 64;
        let mut w = Vec::new();
        for g in [4usize, 16] {
            let m = machine(g);
            let grid = Grid::new_2d((0..g).collect(), g, 1);
            let mut rng = StdRng::seed_from_u64(146);
            let a = gen::random_matrix(&mut rng, n, n);
            let da = DistMatrix::from_dense(&m, &grid, &a);
            let snap = m.snapshot();
            let _ = rect_qr_with_base(&m, &da, 8);
            m.fence();
            w.push(m.costs_since(&snap).horizontal_words as f64);
        }
        // Per-proc W should not grow when p grows.
        assert!(w[1] <= w[0] * 1.2, "rect_qr W grew with p: {w:?}");
    }
}
