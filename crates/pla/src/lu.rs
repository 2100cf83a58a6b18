//! Distributed non-pivoted LU and triangular inversion on 2D grids.
//!
//! This substitutes for Tiskin's BSP LU \[32\] in Corollary III.7's
//! Householder reconstruction (DESIGN.md §2): a right-looking blocked LU
//! with one block per processor on a `q × q` grid. Per-superstep maxima:
//! `F = O(n³/p)`, `W = O(n²/√p)`, `S = O(√p)` — the costs the corollary
//! needs on the `b × b` matrices reconstruction is invoked on. Like the
//! paper's usage, pivoting is omitted because the reconstruction matrix
//! `Q₁ − S` is diagonally dominant.

use crate::coll;
use crate::dist::DistMatrix;
use crate::kern;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::lu::{tri_inverse_view, Diag, Triangle};
use ca_dla::workspace::with_ws;
use ca_dla::Matrix;

/// Distributed non-pivoted LU with on-the-fly diagonal sign subtraction
/// (Householder reconstruction, Corollary III.7 / \[26\]): factors
/// `A − diag(s) = L·U` with `L` unit lower-triangular and
/// `sᵢ = −sgn(pivotᵢ)`. Returns `(L, U, s)`.
///
/// `a` must be square on a square 2D grid.
pub fn dist_lu_signed(m: &Machine, a: &DistMatrix) -> (DistMatrix, DistMatrix, Vec<f64>) {
    let (n, n2) = a.shape();
    assert_eq!(n, n2, "dist_lu_signed requires a square matrix");
    let grid = a.grid().clone();
    let (q, q2, _) = grid.shape();
    assert_eq!(q, q2, "dist_lu_signed requires a square grid");

    // Per-rank working blocks, the factorization in flight; each holds
    // its part of the packed factors (`L` strictly below the diagonal,
    // `U` on and above).
    let mut w: Vec<Matrix> = (0..grid.len()).map(|r| a.block(r).to_matrix()).collect();
    // A block leaves the array while a kernel reads its neighbours.
    let take = |w: &mut Vec<Matrix>, r: usize| std::mem::replace(&mut w[r], Matrix::zeros(0, 0));

    let mut signs = vec![0.0; n];
    for k in 0..q {
        let diag_rank = grid.rank(k, k, 0);
        // Local LU of the diagonal block.
        let mut wkk = take(&mut w, diag_rank);
        m.charge_flops(grid.proc(diag_rank), ca_dla::costs::lu_flops(wkk.rows()));
        let row0 = a.owned_range(diag_rank).0;
        let s = &mut signs[row0..row0 + wkk.rows()];
        with_ws(|ws| ca_dla::lu::lu_inplace(&mut wkk.view_mut(), Some(s), ws));

        // Broadcast U_kk down grid column k; L_kk along grid row k.
        let col_group = grid.dim0_group(k, 0);
        coll::bcast(m, &col_group, k, wkk.len() as u64);
        let row_group = grid.dim1_group(k, 0);
        coll::bcast(m, &row_group, k, wkk.len() as u64);

        // Panel solves, each reading its triangle of the packed block.
        for i in k + 1..q {
            let r = grid.rank(i, k, 0);
            kern::local_trsm_right(
                m,
                grid.proc(r),
                &wkk.view(),
                Triangle::Upper,
                Diag::NonUnit,
                false,
                &mut w[r].view_mut(),
            );
        }
        for j in k + 1..q {
            let r = grid.rank(k, j, 0);
            kern::local_trsm_left(
                m,
                grid.proc(r),
                &wkk.view(),
                Triangle::Lower,
                Diag::Unit,
                false,
                &mut w[r].view_mut(),
            );
        }
        w[diag_rank] = wkk;
        m.step(grid.procs(), 1);

        // Trailing update: broadcast panel blocks and GEMM.
        for i in k + 1..q {
            let src = grid.rank(i, k, 0);
            let row_i = grid.dim1_group(i, 0);
            coll::bcast(m, &row_i, k, w[src].len() as u64);
        }
        for j in k + 1..q {
            let src = grid.rank(k, j, 0);
            let col_j = grid.dim0_group(j, 0);
            coll::bcast(m, &col_j, k, w[src].len() as u64);
        }
        for i in k + 1..q {
            for j in k + 1..q {
                let r = grid.rank(i, j, 0);
                let mut acc = take(&mut w, r);
                let (aik, akj) = (w[grid.rank(i, k, 0)].view(), w[grid.rank(k, j, 0)].view());
                kern::local_gemm(
                    m,
                    grid.proc(r),
                    -1.0,
                    &aik,
                    Trans::N,
                    &akj,
                    Trans::N,
                    1.0,
                    &mut acc.view_mut(),
                );
                w[r] = acc;
            }
        }
        m.step(grid.procs(), 1);
    }

    // Split the working blocks into the L and U distributed factors.
    let mut l = DistMatrix::zeros(m, &grid, n, n);
    let mut u = DistMatrix::zeros(m, &grid, n, n);
    for (r, blk) in w.iter().enumerate() {
        let (i, j, _) = grid.coords(r);
        match i.cmp(&j) {
            std::cmp::Ordering::Greater => l.block_mut(r).copy_from(&blk.view()),
            std::cmp::Ordering::Less => u.block_mut(r).copy_from(&blk.view()),
            std::cmp::Ordering::Equal => {
                let (lb, ub) = ca_dla::lu::unpack_lu(blk);
                l.block_mut(r).copy_from(&lb.view());
                u.block_mut(r).copy_from(&ub.view());
            }
        }
    }
    // Sign choices live with the diagonal-block owners; share them with
    // the group (n words).
    coll::allgather(m, &grid, n.div_ceil(grid.len()) as u64);
    (l, u, signs)
}

/// Distributed inverse of a triangular matrix on a square 2D grid
/// (block back-substitution).
pub fn dist_tri_inverse(m: &Machine, t: &DistMatrix, tri: Triangle, diag: Diag) -> DistMatrix {
    match tri {
        Triangle::Upper => dist_tri_inverse_upper(m, t, diag),
        Triangle::Lower => {
            // inv(L) = inv(Lᵀ)ᵀ with Lᵀ upper.
            let tt = t.transpose(m);
            let inv_t = dist_tri_inverse_upper(m, &tt, diag);
            inv_t.transpose(m)
        }
    }
}

fn dist_tri_inverse_upper(m: &Machine, t: &DistMatrix, diag: Diag) -> DistMatrix {
    let (n, n2) = t.shape();
    assert_eq!(n, n2);
    let grid = t.grid().clone();
    let (q, q2, _) = grid.shape();
    assert_eq!(q, q2, "dist_tri_inverse requires a square grid");

    let mut x = DistMatrix::zeros(m, &grid, n, n);
    // X_ii = T_ii⁻¹: local inverses of the diagonal blocks first.
    for i in 0..q {
        let r = grid.rank(i, i, 0);
        let tii = t.block(r);
        m.charge_flops(grid.proc(r), (tii.rows() as u64).pow(3) / 3);
        with_ws(|ws| tri_inverse_view(&tii, Triangle::Upper, diag, &mut x.block_mut(r), ws));
    }
    m.step(grid.procs(), 1);

    // Column-block back-substitution, bottom-up over row blocks.
    for i in (0..q).rev() {
        let rii = grid.rank(i, i, 0);
        // Broadcast T_ii⁻¹ along grid row i for the off-diagonal solves.
        let row_i = grid.dim1_group(i, 0);
        coll::bcast(m, &row_i, i, x.words_on(rii));

        for j in i + 1..q {
            // S = Σ_{k>i} T_ik · X_kj, partials computed at (i,k),
            // reduced at (i,j).
            let rij = grid.rank(i, j, 0);
            let (_, _, nri, ncj) = x.owned_range(rij);
            let mut s = Matrix::zeros(nri, ncj);
            for k in i + 1..q {
                let rkj = grid.rank(k, j, 0);
                let rik = grid.rank(i, k, 0);
                // Ship X_kj to (i,k), multiply, ship partial to (i,j).
                coll::p2p(m, grid.proc(rkj), grid.proc(rik), x.words_on(rkj));
                let partial = kern::local_matmul(
                    m,
                    grid.proc(rik),
                    &t.block(rik),
                    Trans::N,
                    &x.block(rkj),
                    Trans::N,
                );
                coll::p2p(m, grid.proc(rik), grid.proc(rij), partial.len() as u64);
                s.axpy(1.0, &partial);
                m.charge_flops(grid.proc(rij), partial.len() as u64);
            }
            // X_ij = −T_ii⁻¹ · S at (i,j).
            let mut xij = kern::local_matmul(
                m,
                grid.proc(rij),
                &x.block(rii),
                Trans::N,
                &s.view(),
                Trans::N,
            );
            xij.scale(-1.0);
            x.block_mut(rij).copy_from(&xij.view());
        }
        m.step(grid.procs(), 1);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::matmul;
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn diag_dominant(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = gen::random_matrix(&mut rng, n, n);
        for i in 0..n {
            a.set(i, i, n as f64 + a.get(i, i));
        }
        a
    }

    #[test]
    fn dist_lu_matches_product() {
        for (n, q) in [(12usize, 2usize), (16, 4), (9, 3)] {
            let p = q * q;
            let m = machine(p);
            let g = Grid::new_2d((0..p).collect(), q, q);
            let a = diag_dominant(n, 100 + n as u64);
            let da = DistMatrix::from_dense(&m, &g, &a);
            let (l, u, s) = dist_lu_signed(&m, &da);
            let ld = l.dense();
            let ud = u.dense();
            let prod = matmul(ld, Trans::N, ud, Trans::N);
            let mut want = a.clone();
            for (i, si) in s.iter().enumerate() {
                want.add_to(i, i, -si);
            }
            let diff = prod.max_diff(&want);
            assert!(diff < 1e-9, "n={n} q={q}: LU ≠ A − S ({diff})");
            // Structure checks.
            for i in 0..n {
                assert!((ld.get(i, i) - 1.0).abs() < 1e-12);
                for j in i + 1..n {
                    assert_eq!(ld.get(i, j), 0.0);
                    assert_eq!(ud.get(j, i), 0.0);
                }
            }
        }
    }

    #[test]
    fn dist_lu_agrees_with_sequential() {
        let n = 8;
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let a = diag_dominant(n, 104);
        let da = DistMatrix::from_dense(&m, &g, &a);
        let (l, u, s) = dist_lu_signed(&m, &da);
        let (ls, us, ss) = ca_dla::lu::lu_nopivot_signed(&a);
        assert_eq!(s, ss);
        assert!(l.dense().max_diff(&ls) < 1e-9);
        assert!(u.dense().max_diff(&us) < 1e-9);
    }

    #[test]
    fn tri_inverse_upper() {
        let n = 12;
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let (_, u) = ca_dla::lu::lu_nopivot(&diag_dominant(n, 105));
        let du = DistMatrix::from_dense(&m, &g, &u);
        let inv = dist_tri_inverse(&m, &du, Triangle::Upper, Diag::NonUnit);
        let prod = matmul(&u, Trans::N, inv.dense(), Trans::N);
        assert!(prod.max_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn tri_inverse_lower_unit() {
        let n = 10;
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let (l, _) = ca_dla::lu::lu_nopivot(&diag_dominant(n, 106));
        let dl = DistMatrix::from_dense(&m, &g, &l);
        let inv = dist_tri_inverse(&m, &dl, Triangle::Lower, Diag::Unit);
        let prod = matmul(&l, Trans::N, inv.dense(), Trans::N);
        assert!(prod.max_diff(&Matrix::identity(n)) < 1e-9);
    }

    #[test]
    fn lu_flops_are_distributed() {
        let n = 32;
        let m = machine(16);
        let g = Grid::new_2d((0..16).collect(), 4, 4);
        let a = diag_dominant(n, 107);
        let da = DistMatrix::from_dense(&m, &g, &a);
        let _ = dist_lu_signed(&m, &da);
        m.fence();
        let total: u64 = m.flops_per_proc().iter().sum();
        let maxp = *m.flops_per_proc().iter().max().unwrap();
        // No single processor does more than ~a third of the work.
        assert!((maxp as f64) < 0.4 * total as f64, "max {maxp} of {total}");
    }
}
