//! Householder reconstruction (Corollary III.7; Ballard et al. \[26\]).
//!
//! Converts an explicit `m × n` orthonormal factor `Q` (e.g. from a TSQR
//! down-sweep) into the compact-WY pair `(U, T)` with
//! `Q = (I − U·T·Uᵀ)·[S; 0]` for a diagonal sign matrix `S`:
//!
//! 1. `(U₁, W₁, S) = LU(Q₁ − S)` — distributed non-pivoted LU with
//!    on-the-fly sign subtraction (diagonally dominant by construction),
//! 2. `U = (Q − [S; 0])·W₁⁻¹` — distributed triangular inversion plus a
//!    communication-optimal rectangular multiply (Lemma III.2),
//! 3. `T = −W₁·S·U₁⁻ᵀ`.
//!
//! Consumers that want `A = Q·R` with the reconstructed Householder `Q`
//! must flip the rows of their `R` by `S` (see [`Reconstruction::fix_r`]).

use crate::carma::carma_spread_into;
use crate::coll;
use crate::dist::DistMatrix;
use crate::lu::{dist_lu_signed, dist_tri_inverse};
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::lu::{Diag, Triangle};
use ca_dla::view::MatrixViewMut;
use ca_dla::Matrix;

/// The compact-WY representation recovered from an explicit `Q`.
#[derive(Debug, Clone)]
pub struct Reconstruction {
    /// `m × n` unit-lower-trapezoidal Householder vectors, distributed
    /// in the 1D row layout of the input `Q`.
    pub u: DistMatrix,
    /// `n × n` upper-triangular `T` (numerically assembled; its storage
    /// and all operations on it are charged as distributed).
    pub t: Matrix,
    /// Diagonal signs: `Q = (I − U·T·Uᵀ)·[S; 0]`.
    pub s: Vec<f64>,
}

impl Reconstruction {
    /// Adjust an upper-triangular `R` (from the QR that produced `Q`) so
    /// that `A = (I − U·T·Uᵀ)·[R'; 0]`: `R' = S·R` (row sign flips).
    pub fn fix_r(&self, r: &Matrix) -> Matrix {
        let mut out = r.clone();
        fix_r_into(&self.s, r, &mut out.view_mut());
        out
    }
}

/// `out ← S·R` on the rows `S` covers (see [`Reconstruction::fix_r`]);
/// rows of `out` beyond them are left as they are.
pub(crate) fn fix_r_into(s: &[f64], r: &Matrix, out: &mut MatrixViewMut) {
    for (i, si) in s.iter().enumerate().take(r.rows()) {
        for (d, &x) in out.row_mut(i).iter_mut().zip(r.row(i)) {
            *d = si * x;
        }
    }
}

/// Reconstruct `(U, T, S)` from a distributed explicit `Q` (1D row
/// layout over its group).
pub fn reconstruct(machine: &Machine, q: &DistMatrix) -> Reconstruction {
    let (mrows, n) = q.shape();
    let mut u = Matrix::zeros(mrows, n);
    let mut t = Matrix::zeros(n, n);
    let s = reconstruct_into(machine, q, &mut u.view_mut(), &mut t.view_mut());
    Reconstruction {
        u: DistMatrix::from_dense_recorded(q.grid(), &u.view()),
        t,
        s,
    }
}

/// [`reconstruct`] writing `U` (`m × n`) and `T` (`n × n`) into views of
/// the caller's buffers and returning `S`. `U`'s distributed storage (1D
/// row layout over `q`'s group) is recorded with the memory tracker here,
/// where the corollary creates it; the caller owns that record.
pub(crate) fn reconstruct_into(
    machine: &Machine,
    q: &DistMatrix,
    u_out: &mut MatrixViewMut,
    t_out: &mut MatrixViewMut,
) -> Vec<f64> {
    let group = q.grid();
    let g = group.len();
    let (mrows, n) = q.shape();
    assert!(mrows >= n, "reconstruction requires m ≥ n");

    // Square subgrid for the n×n triangular work.
    let qq = (g as f64).sqrt().floor() as usize;
    let sub = group.prefix((qq * qq).max(1)).as_2d(qq.max(1), qq.max(1));

    // 1. Redistribute Q₁ (top n×n) onto the subgrid and LU it with sign
    //    subtraction.
    let q1 = q.block_redist(machine, 0, 0, n, n, &sub);
    let (u1, w1, s) = {
        let _span = ca_obs::kernel_span("rc.lu");
        dist_lu_signed(machine, &q1)
    };

    // 2. W₁⁻¹ and U₁⁻ᵀ by distributed triangular inversion.
    let (w1_inv, u1_inv) = {
        let _span = ca_obs::kernel_span("rc.triinv");
        (
            dist_tri_inverse(machine, &w1, Triangle::Upper, Diag::NonUnit),
            dist_tri_inverse(machine, &u1, Triangle::Lower, Diag::Unit),
        )
    };

    // 3. U = (Q − Ŝ)·W₁⁻¹ via the recursive rectangular multiply on the
    //    full group (Lemma III.2 is exactly the cost Corollary III.7
    //    invokes for these products).
    {
        let _span = ca_obs::kernel_span("rc.u");
        let mut q_minus_s = q.assemble_unchecked();
        for (i, si) in s.iter().enumerate() {
            q_minus_s.add_to(i, i, -si);
        }
        carma_spread_into(
            machine,
            group,
            &q_minus_s.view(),
            Trans::N,
            &w1_inv.assemble_unchecked().view(),
            Trans::N,
            1,
            u_out,
        );
        DistMatrix::record_alloc(machine, group, mrows, n);
    }

    // 4. T = −W₁·S·U₁⁻ᵀ on the subgrid's processors; the transpose is
    //    read in place (its shuffle on the subgrid is charged).
    {
        let _span = ca_obs::kernel_span("rc.t");
        let mut w1s = w1.assemble_unchecked();
        for i in 0..n {
            for (x, sj) in w1s.row_mut(i).iter_mut().zip(&s) {
                *x *= sj;
            }
        }
        coll::allgather(machine, &sub, ((n * n) / sub.len().max(1)) as u64);
        carma_spread_into(
            machine,
            &sub,
            &w1s.view(),
            Trans::N,
            &u1_inv.assemble_unchecked().view(),
            Trans::T,
            1,
            t_out,
        );
        t_out.scale(-1.0);
    }

    // Release the temporaries' storage.
    q1.release(machine);
    u1.release(machine);
    w1.release(machine);
    w1_inv.release(machine);
    u1_inv.release(machine);

    s
}

/// Sequential reconstruction (single processor), used at recursion base
/// cases and in tests.
pub fn reconstruct_local(q: &Matrix) -> (Matrix, Matrix, Vec<f64>) {
    let n = q.cols();
    let q1 = q.block(0, 0, n, n);
    let (u1, w1, s) = ca_dla::lu::lu_nopivot_signed(&q1);
    let mut q_minus_s = q.clone();
    for (i, si) in s.iter().enumerate() {
        q_minus_s.add_to(i, i, -si);
    }
    // U = (Q − Ŝ)·W₁⁻¹ via a right triangular solve.
    let mut u = q_minus_s;
    ca_dla::lu::trsm_right(&w1, Triangle::Upper, Diag::NonUnit, false, &mut u);
    // T = −W₁·S·U₁⁻ᵀ: T·U₁ᵀ = −W₁·S  ⇔  right-solve with U₁ᵀ.
    let mut t = w1.clone();
    for i in 0..n {
        for (x, sj) in t.row_mut(i).iter_mut().zip(&s) {
            *x = -*x * sj;
        }
    }
    ca_dla::lu::trsm_right(&u1, Triangle::Lower, Diag::Unit, true, &mut t);
    (u, t, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::tsqr;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::{matmul, Trans};
    use ca_dla::gen;
    use ca_dla::qr::{explicit_q as wy_explicit_q, qr_factor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn check_wy(q: &Matrix, u: &Matrix, t: &Matrix, s: &[f64], tol: f64) {
        // (I − U·T·Uᵀ)·[S;0] ≈ Q.
        let (mrows, n) = (q.rows(), q.cols());
        let mut shat = Matrix::zeros(mrows, n);
        for i in 0..n {
            shat.set(i, i, s[i]);
        }
        let mut rebuilt = shat.clone();
        // rebuilt −= U·(T·(Uᵀ·Ŝ))
        let uts = matmul(u, Trans::T, &shat, Trans::N);
        let tuts = matmul(t, Trans::N, &uts, Trans::N);
        let corr = matmul(u, Trans::N, &tuts, Trans::N);
        rebuilt.axpy(-1.0, &corr);
        assert!(
            rebuilt.max_diff(q) < tol,
            "reconstructed Q deviates by {}",
            rebuilt.max_diff(q)
        );
        // U unit lower-trapezoidal.
        for i in 0..n {
            assert!((u.get(i, i) - 1.0).abs() < tol, "U diagonal");
            for j in i + 1..n {
                assert!(u.get(i, j).abs() < tol, "U upper part");
            }
        }
    }

    #[test]
    fn local_reconstruction_roundtrip() {
        let mut rng = StdRng::seed_from_u64(120);
        for (mrows, n) in [(12usize, 4usize), (8, 8), (20, 5)] {
            let a = gen::random_matrix(&mut rng, mrows, n);
            let f = qr_factor(&a, 4);
            let q = wy_explicit_q(&f.u, &f.t, n);
            let (u, t, s) = reconstruct_local(&q);
            check_wy(&q, &u, &t, &s, 1e-9);
        }
    }

    #[test]
    fn distributed_reconstruction_matches_wy_identity() {
        for g in [4usize, 8] {
            let m = machine(g);
            let grid = Grid::new_2d((0..g).collect(), g, 1);
            let mut rng = StdRng::seed_from_u64(121 + g as u64);
            let a = gen::random_matrix(&mut rng, 8 * g, 6);
            let da = DistMatrix::from_dense(&m, &grid, &a);
            let (q, _r) = tsqr::tsqr_explicit(&m, &da);
            let rec = reconstruct(&m, &q);
            check_wy(
                &q.assemble_unchecked(),
                &rec.u.assemble_unchecked(),
                &rec.t,
                &rec.s,
                1e-9,
            );
        }
    }

    #[test]
    fn fix_r_restores_factorization() {
        let g = 4;
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(130);
        let a = gen::random_matrix(&mut rng, 24, 5);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, r) = tsqr::tsqr_explicit(&m, &da);
        let rec = reconstruct(&m, &q);
        let r_fixed = rec.fix_r(&r);
        // A = (I − U T Uᵀ)·[R'; 0].
        let mut stack = Matrix::zeros(24, 5);
        stack.set_block(0, 0, &r_fixed);
        let u = rec.u.assemble_unchecked();
        let ut_stack = matmul(&u, Trans::T, &stack, Trans::N);
        let t_ut = matmul(&rec.t, Trans::N, &ut_stack, Trans::N);
        let corr = matmul(&u, Trans::N, &t_ut, Trans::N);
        stack.axpy(-1.0, &corr);
        assert!(stack.max_diff(&a) < 1e-9, "A ≠ (I−UTUᵀ)[R';0]: {}", stack.max_diff(&a));
    }

    #[test]
    fn reconstruction_on_singletonish_groups() {
        // g = 2: square subgrid degenerates to 1×1.
        let m = machine(2);
        let grid = Grid::new_2d(vec![0, 1], 2, 1);
        let mut rng = StdRng::seed_from_u64(131);
        let a = gen::random_matrix(&mut rng, 10, 3);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, _) = tsqr::tsqr_explicit(&m, &da);
        let rec = reconstruct(&m, &q);
        check_wy(
            &q.assemble_unchecked(),
            &rec.u.assemble_unchecked(),
            &rec.t,
            &rec.s,
            1e-9,
        );
    }
}
