//! Cost-charged wrappers around the sequential kernels of `ca-dla`.
//!
//! Whenever an algorithm runs a local kernel on a virtual processor, it
//! calls these wrappers so the flops (`F`) and vertical traffic (`Q`)
//! enter the ledger with the formulas of Lemmas III.1/III.4.

use ca_bsp::{Machine, ProcId};
use ca_dla::costs;
use ca_dla::gemm::{gemm, gemm_view, Trans};
use ca_dla::lu::{lu_inplace, trsm_left, trsm_right, Diag, Triangle};
use ca_dla::qr::{qr_factor, QrFactors};
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::Matrix;

/// Charged local GEMM: `C ← α·op(A)·op(B) + β·C` on processor `j`.
#[allow(clippy::too_many_arguments)] // mirrors BLAS dgemm's signature
pub fn local_gemm(
    m: &Machine,
    j: ProcId,
    alpha: f64,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    beta: f64,
    c: &mut Matrix,
) {
    let (mm, kk) = match ta {
        Trans::N => (a.rows(), a.cols()),
        Trans::T => (a.cols(), a.rows()),
    };
    let nn = match tb {
        Trans::N => b.cols(),
        Trans::T => b.rows(),
    };
    m.charge_flops(j, costs::gemm_flops(mm, kk, nn));
    m.charge_vert(j, costs::gemm_vert(mm, kk, nn, m.cache_words()));
    gemm(alpha, a, ta, b, tb, beta, c);
}

/// Charged local GEMM returning a fresh output matrix.
pub fn local_matmul(
    m: &Machine,
    j: ProcId,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
) -> Matrix {
    let mm = match ta {
        Trans::N => a.rows(),
        Trans::T => a.cols(),
    };
    let nn = match tb {
        Trans::N => b.cols(),
        Trans::T => b.rows(),
    };
    let mut c = Matrix::zeros(mm, nn);
    local_gemm(m, j, 1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

/// Charged local GEMM writing `op(A)·op(B)` into a strided output view
/// (`beta = 0`). Charges are the same shape-derived formulas as
/// [`local_matmul`], and because the GEMM entry pre-scales the output
/// before accumulating, the stored bits equal a fresh-matrix product
/// copied into place — the leaf of [`crate::carma::carma_spread_into`].
pub fn local_matmul_into(
    m: &Machine,
    j: ProcId,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    out: &mut MatrixViewMut,
) {
    let (mm, kk) = match ta {
        Trans::N => (a.rows(), a.cols()),
        Trans::T => (a.cols(), a.rows()),
    };
    let nn = match tb {
        Trans::N => b.cols(),
        Trans::T => b.rows(),
    };
    m.charge_flops(j, costs::gemm_flops(mm, kk, nn));
    m.charge_vert(j, costs::gemm_vert(mm, kk, nn, m.cache_words()));
    gemm_view(1.0, a, ta, b, tb, 0.0, out);
}

/// Charged local Householder QR on processor `j`.
pub fn local_qr(m: &Machine, j: ProcId, a: &Matrix) -> QrFactors {
    m.charge_flops(j, costs::qr_flops(a.rows(), a.cols()));
    m.charge_vert(j, costs::qr_vert(a.rows(), a.cols(), m.cache_words()));
    qr_factor(a, usize::MAX)
}

/// Charged local non-pivoted LU on processor `j`, in place and packed
/// (`L` strictly below the diagonal, `U` on and above it).
pub fn local_lu(m: &Machine, j: ProcId, a: &mut Matrix) {
    m.charge_flops(j, costs::lu_flops(a.rows()));
    m.charge_vert(j, (a.rows() * a.cols()) as u64);
    ca_dla::workspace::with_ws(|ws| lu_inplace(&mut a.view_mut(), None, ws));
}

/// Charged left triangular solve on processor `j`.
pub fn local_trsm_left(
    m: &Machine,
    j: ProcId,
    t: &Matrix,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut Matrix,
) {
    m.charge_flops(j, costs::trsm_flops(t.rows(), b.cols()));
    m.charge_vert(j, (t.rows() * t.cols() + b.rows() * b.cols()) as u64);
    trsm_left(t, tri, diag, transposed, b);
}

/// Charged right triangular solve on processor `j`.
pub fn local_trsm_right(
    m: &Machine,
    j: ProcId,
    t: &Matrix,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut Matrix,
) {
    m.charge_flops(j, costs::trsm_flops(t.rows(), b.rows()));
    m.charge_vert(j, (t.rows() * t.cols() + b.rows() * b.cols()) as u64);
    trsm_right(t, tri, diag, transposed, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;

    #[test]
    fn gemm_charges_2mnk() {
        let m = Machine::new(MachineParams::new(2));
        let a = Matrix::identity(4);
        let b = Matrix::identity(4);
        let _ = local_matmul(&m, 1, &a, Trans::N, &b, Trans::N);
        m.fence();
        assert_eq!(m.report().flops, 2 * 4 * 4 * 4);
        assert_eq!(m.flops_per_proc()[0], 0);
    }

    #[test]
    fn qr_charges_to_named_proc() {
        let m = Machine::new(MachineParams::new(3));
        let a = Matrix::from_fn(6, 3, |i, j| (i + j) as f64 + 1.0);
        let _ = local_qr(&m, 2, &a);
        let f = m.flops_per_proc();
        assert!(f[2] > 0);
        assert_eq!(f[0] + f[1], 0);
    }
}
