//! Transform logging and eigenvector back-transformation — the paper's
//! §IV.C extension ("a disadvantage of this multi-stage approach arises
//! when eigenvectors are required … the cost of the back-transformations
//! scales linearly with the number of band-reduction stages").
//!
//! Every reduction stage is a product of two-sided Householder
//! similarities `B ← QᵀBQ` with `Q = I − U·T·Uᵀ` acting on a
//! contiguous row range. Recording each `(row₀, U, T)` lets us recover
//! the dense matrix's eigenvectors from the tridiagonal ones:
//! `A = (Q₁Q₂⋯Q_m)·B·(⋯)ᵀ`, so `V_A = Q₁Q₂⋯Q_m·Z` — the reflectors are
//! applied to `Z` in *reverse* recording order.
//!
//! The back-transformation is charged per the paper's observation:
//! `O(n³)` work per intermediate band-width (each stage's reflectors
//! total `O(n·b)` rows×columns and are applied to all `n` eigenvector
//! columns), parallelized trivially over eigenvector columns
//! (`n/p` columns per processor; each reflector's `(U, T)` broadcast).

use ca_bsp::Machine;
use ca_dla::bulge::BlockReflector;
use ca_dla::workspace::with_ws;
use ca_dla::{Matrix, Workspace};
use ca_pla::grid::Grid;
use rayon::prelude::*;

/// The ordered record of every similarity applied during a reduction,
/// one group per stage: application order is the flat concatenation,
/// and [`back_transform`] closes a superstep after each group.
#[derive(Debug, Default)]
pub(crate) struct TransformLog {
    stages: Vec<Vec<BlockReflector>>,
}

impl TransformLog {
    /// Open a new stage and return a handle to push its reflectors into.
    pub(crate) fn stage(&mut self) -> &mut Vec<BlockReflector> {
        self.stages.push(Vec::new());
        self.stages.last_mut().expect("just pushed")
    }

    /// True if nothing was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.stages.iter().all(Vec::is_empty)
    }
}

/// Column-panel width of the parallel application. Narrow enough that
/// a full eigenvector matrix splits across every worker, wide enough
/// that the compact-WY GEMMs stay in their blocked regime.
const PANEL: usize = 64;

/// Back-transform tridiagonal eigenvectors `z` (columns) through the
/// recorded reductions: returns `V = Q₁Q₂⋯Q_m·Z`, the eigenvectors of
/// the original dense matrix.
///
/// Charged as a column-parallel application on `grid`: each processor
/// owns `n/p` eigenvector columns; every reflector's `(U, T)` is
/// broadcast (two-phase) and applied locally. The execution mirrors the
/// charge model: the columns split into [`PANEL`]-wide panels, each
/// panel running the full reverse reflector chain independently as a
/// piece of one fork (a core budget of 1 runs the same panels in order —
/// the per-panel arithmetic is identical, so both orders are
/// bit-identical).
pub(crate) fn back_transform(
    machine: &Machine,
    grid: &Grid,
    log: &TransformLog,
    z: &Matrix,
) -> Matrix {
    let _span = ca_obs::kernel_span("driver.back_transform");
    let n = z.rows();
    let p = grid.len() as u64;
    let ncols = z.cols();

    // Charging pass: the ledger is identical whatever the worker count.
    for stage in log.stages.iter().rev() {
        for refl in stage.iter().rev() {
            let rows = refl.u.rows();
            let k = refl.u.cols();
            assert!(refl.row0 + rows <= n, "reflector out of range");
            let words = (refl.u.len() + refl.t.len()) as u64;
            ca_pla::coll::bcast(machine, grid, 0, words);
            for &pid in grid.procs() {
                machine.charge_flops(
                    pid,
                    ca_dla::costs::apply_q_flops(rows, k, ncols).div_ceil(p),
                );
                machine.charge_vert(pid, ((rows * ncols) as u64).div_ceil(p) + words);
            }
        }
        machine.fence();
    }
    if log.is_empty() || ncols == 0 {
        return z.clone();
    }

    // Numeric pass, panel-parallel over columns.
    let starts: Vec<usize> = (0..ncols).step_by(PANEL).collect();
    let mut panels: Vec<Matrix> = starts
        .iter()
        .map(|&c0| z.block(0, c0, n, PANEL.min(ncols - c0)))
        .collect();
    let run = |xp: &mut Matrix| {
        with_ws(|ws| {
            for stage in log.stages.iter().rev() {
                for refl in stage.iter().rev() {
                    apply_reflector(refl, xp, ws);
                }
            }
        })
    };
    panels.par_iter_mut().for_each(run);
    let mut x = Matrix::zeros(n, ncols);
    for (&c0, xp) in starts.iter().zip(&panels) {
        x.set_block(0, c0, xp);
    }
    x
}

/// `X[rows] ← (I − U·T·Uᵀ)·X[rows]` on one column panel, in place. A
/// block takes three products straight on the panel's row window
/// (`qr::apply_q_view`), the two `k × w` intermediates lent by `ws`; a
/// single reflector (the finale's records on a band too narrow for
/// blocks, `ca_dla::bulge::sweep_group`) two row-major passes,
/// `x ← x − τ·u·(uᵀx)`, over one lent row.
fn apply_reflector(refl: &BlockReflector, xp: &mut Matrix, ws: &mut Workspace) {
    let rows = refl.u.rows();
    let k = refl.u.cols();
    let w = xp.cols();
    if k == 1 {
        let tau = refl.t.get(0, 0);
        let mut s = ws.take(w);
        for r in 0..rows {
            let ur = refl.u.get(r, 0);
            for (sc, &x) in s.iter_mut().zip(xp.row(refl.row0 + r)) {
                *sc += ur * x;
            }
        }
        for r in 0..rows {
            let h = tau * refl.u.get(r, 0);
            for (x, &sc) in xp.row_mut(refl.row0 + r).iter_mut().zip(s.iter()) {
                *x -= h * sc;
            }
        }
        ws.put(s);
        return;
    }
    ca_dla::qr::apply_q_view(
        &refl.u.view(),
        &refl.t.view(),
        &mut xp.subview_mut(refl.row0, 0, rows, w),
        ws,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::bulge::{chase_plan_iter, execute_chase_recording};
    use ca_dla::gemm::{matmul, Trans};
    use ca_dla::tridiag::try_tridiag_eigen;
    use ca_dla::{gen, BandedSym};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Reduce a banded matrix to tridiagonal with recording, solve, back
    /// transform, and verify the full eigen decomposition of the input.
    #[test]
    fn banded_eigen_decomposition_via_back_transform() {
        let (n, b) = (24usize, 4usize);
        let mut rng = StdRng::seed_from_u64(600);
        let dense = gen::random_banded(&mut rng, n, b);
        let mut bm = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));

        let mut log = TransformLog::default();
        let stage = log.stage();
        for op in chase_plan_iter(n, b, 1) {
            let row0 = op.qr_rows.0;
            let (u, t) = execute_chase_recording(&mut bm, &op);
            stage.push(BlockReflector { row0, u, t });
        }
        assert!(bm.measured_bandwidth(1e-9) <= 1);

        let (d, e) = bm.tridiagonal();
        let (lam, z) = try_tridiag_eigen(&d, &e).unwrap();

        let machine = Machine::new(MachineParams::new(4));
        let v = back_transform(&machine, &Grid::all(4), &log, &z);

        // VᵀV = I.
        let vtv = matmul(&v, Trans::T, &v, Trans::N);
        assert!(
            vtv.max_diff(&Matrix::identity(n)) < 1e-9,
            "V not orthonormal: {}",
            vtv.max_diff(&Matrix::identity(n))
        );
        // A·V = V·Λ.
        let av = matmul(&dense, Trans::N, &v, Trans::N);
        let mut vl = v.clone();
        for i in 0..n {
            for j in 0..n {
                vl.set(i, j, v.get(i, j) * lam[j]);
            }
        }
        assert!(
            av.max_diff(&vl) < 1e-8 * n as f64,
            "A·V ≠ V·Λ: {}",
            av.max_diff(&vl)
        );
        // And V·Λ·Vᵀ reconstructs A.
        let recon = matmul(&vl, Trans::N, &v, Trans::T);
        assert!(recon.max_diff(&dense) < 1e-8 * n as f64);
    }

    #[test]
    fn empty_log_is_identity() {
        let machine = Machine::new(MachineParams::new(2));
        let z = Matrix::identity(5);
        let log = TransformLog::default();
        let v = back_transform(&machine, &Grid::all(2), &log, &z);
        assert!(v.max_diff(&z) < 1e-15);
        assert!(log.is_empty());
    }

    #[test]
    fn back_transform_charges_costs() {
        let (n, b) = (16usize, 2usize);
        let mut rng = StdRng::seed_from_u64(601);
        let dense = gen::random_banded(&mut rng, n, b);
        let mut bm = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));
        let mut log = TransformLog::default();
        let stage = log.stage();
        for op in chase_plan_iter(n, b, 1) {
            let row0 = op.qr_rows.0;
            let (u, t) = execute_chase_recording(&mut bm, &op);
            stage.push(BlockReflector { row0, u, t });
        }
        let machine = Machine::new(MachineParams::new(4));
        let z = Matrix::identity(n);
        let _ = back_transform(&machine, &Grid::all(4), &log, &z);
        let c = machine.report();
        assert!(c.flops > 0);
        assert!(
            c.horizontal_words > 0,
            "reflector broadcasts must be charged"
        );
    }
}
