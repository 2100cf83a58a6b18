//! Cost-charged wrappers around the sequential kernels of `ca-dla`.
//!
//! Whenever an algorithm runs a local kernel on a virtual processor, it
//! calls these wrappers so the flops (`F`) and vertical traffic (`Q`)
//! enter the ledger with the formulas of Lemmas III.1/III.4.

use ca_bsp::{Machine, ProcId};
use ca_dla::costs;
use ca_dla::gemm::{gemm_view, Trans};
use ca_dla::lu::{trsm_left_view, trsm_right_view, Diag, Triangle};
use ca_dla::qr::{qr_factor_owned, QrFactors};
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::workspace::with_ws;
use ca_dla::Matrix;

/// Charged local GEMM: `C ← α·op(A)·op(B) + β·C` on processor `j`, on
/// (strided) views — a rank's block of a distributed operand is one.
/// The GEMM pre-scales `C` before accumulating, so `β = 0` into any view
/// stores the bits of a product into a fresh matrix.
#[allow(clippy::too_many_arguments)] // mirrors BLAS dgemm's signature
pub fn local_gemm(
    m: &Machine,
    j: ProcId,
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
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
    gemm_view(alpha, a, ta, b, tb, beta, c);
}

/// Charged local GEMM returning `op(A)·op(B)` as a fresh matrix.
pub fn local_matmul(
    m: &Machine,
    j: ProcId,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
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
    local_gemm(m, j, 1.0, a, ta, b, tb, 0.0, &mut c.view_mut());
    c
}

/// Charged local Householder QR on processor `j`, factored in `a`'s own
/// buffer: a caller that factors a block of an operand it keeps passes
/// a copy (`block(r).to_matrix()`), one that has no further use for `a`
/// passes it whole.
pub fn local_qr(m: &Machine, j: ProcId, a: Matrix) -> QrFactors {
    m.charge_flops(j, costs::qr_flops(a.rows(), a.cols()));
    m.charge_vert(j, costs::qr_vert(a.rows(), a.cols(), m.cache_words()));
    qr_factor_owned(a)
}

/// Charged left triangular solve on processor `j`.
pub fn local_trsm_left(
    m: &Machine,
    j: ProcId,
    t: &MatrixView,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut MatrixViewMut,
) {
    m.charge_flops(j, costs::trsm_flops(t.rows(), b.cols()));
    m.charge_vert(j, (t.rows() * t.cols() + b.rows() * b.cols()) as u64);
    trsm_left_view(t, tri, diag, transposed, b);
}

/// Charged right triangular solve on processor `j`.
pub fn local_trsm_right(
    m: &Machine,
    j: ProcId,
    t: &MatrixView,
    tri: Triangle,
    diag: Diag,
    transposed: bool,
    b: &mut MatrixViewMut,
) {
    m.charge_flops(j, costs::trsm_flops(t.rows(), b.rows()));
    m.charge_vert(j, (t.rows() * t.cols() + b.rows() * b.cols()) as u64);
    with_ws(|ws| trsm_right_view(t, tri, diag, transposed, b, ws));
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
        let _ = local_matmul(&m, 1, &a.view(), Trans::N, &b.view(), Trans::N);
        m.fence();
        assert_eq!(m.report().flops, 2 * 4 * 4 * 4);
        assert_eq!(m.flops_per_proc()[0], 0);
    }

    #[test]
    fn qr_charges_to_named_proc() {
        let m = Machine::new(MachineParams::new(3));
        let a = Matrix::from_fn(6, 3, |i, j| (i + j) as f64 + 1.0);
        let _ = local_qr(&m, 2, a);
        let f = m.flops_per_proc();
        assert!(f[2] > 0);
        assert_eq!(f[0] + f[1], 0);
    }
}
