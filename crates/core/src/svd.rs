//! Singular values via the symmetric eigensolver — the application
//! direction the paper's conclusion points at ("our innovations should
//! pave the path for practical improvements in scalability of
//! applications computing singular values or eigenvalues of matrices",
//! §V).
//!
//! We use the Jordan–Wielandt embedding: for `A ∈ ℝ^{m×n}` the
//! symmetric matrix
//!
//! ```text
//!        ⎡ 0   Aᵀ ⎤
//!  J  =  ⎢        ⎥   ∈ ℝ^{(m+n)×(m+n)}
//!        ⎣ A   0  ⎦
//! ```
//!
//! has eigenvalues `±σᵢ(A)` (plus `|m−n|` zeros), and its eigenvectors
//! stack the right/left singular vectors as `(vᵢ, uᵢ)/√2`. Building `J`
//! and running the communication-avoiding eigensolver therefore computes
//! the SVD with the paper's communication profile — no new reduction
//! machinery, exact singular values (no `AᵀA` squaring of the condition
//! number).

use crate::error::EigenError;
use crate::params::EigenParams;
use crate::solver::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, StageCosts};
use ca_bsp::Machine;
use ca_dla::Matrix;

/// The singular value decomposition `A = U·diag(σ)·Vᵀ` (thin form).
#[derive(Debug, Clone)]
pub struct Svd {
    /// Singular values, descending.
    pub sigma: Vec<f64>,
    /// `m × k` left singular vectors (columns), `k = min(m, n)`.
    pub u: Matrix,
    /// `n × k` right singular vectors (columns).
    pub v: Matrix,
}

/// Build the Jordan–Wielandt matrix `[0, Aᵀ; A, 0]` at its exact order
/// `m + n` — the solver accepts arbitrary dimensions, so no
/// power-of-two padding (which inflated the embedded problem by up to
/// ~8× in work) is needed.
fn jordan_wielandt(a: &Matrix) -> (Matrix, usize) {
    let (m, n) = (a.rows(), a.cols());
    let dim = m + n;
    let mut j = Matrix::zeros(dim, dim);
    for i in 0..m {
        for c in 0..n {
            j.set(n + i, c, a.get(i, c));
            j.set(c, n + i, a.get(i, c));
        }
    }
    (j, dim)
}

/// Singular values of `a` (descending), computed with the 2.5D
/// eigensolver on the embedded symmetric matrix. Requests are validated
/// as by [`crate::solver::try_symm_eigen_25d`].
pub fn try_singular_values(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<(Vec<f64>, StageCosts), EigenError> {
    let k = a.rows().min(a.cols());
    let (j, _) = jordan_wielandt(a);
    let (ev, costs) = try_symm_eigen_25d(machine, params, &j)?;
    // The top-k eigenvalues are +σ, descending once reversed.
    let mut sigma: Vec<f64> = ev.iter().rev().take(k).map(|l| l.max(0.0)).collect();
    // Guard against −0.0 noise on rank-deficient inputs.
    for s in &mut sigma {
        if *s < 0.0 {
            *s = 0.0;
        }
    }
    Ok((sigma, costs))
}

/// Full thin SVD via the eigenvector extension: the top-`k`
/// eigenvectors of the embedding are `(vᵢ, uᵢ)/√2`. Requests are
/// validated as by [`crate::solver::try_symm_eigen_25d`].
pub fn try_svd(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
) -> Result<(Svd, StageCosts), EigenError> {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let (j, dim) = jordan_wielandt(a);
    let (ev, vecs, costs) = try_symm_eigen_25d_vectors(machine, params, &j)?;

    let mut sigma = Vec::with_capacity(k);
    let mut u = Matrix::zeros(m, k);
    let mut v = Matrix::zeros(n, k);
    let s2 = 2f64.sqrt();
    for idx in 0..k {
        let col = dim - 1 - idx; // largest eigenvalues last (ascending order)
        sigma.push(ev[col].max(0.0));
        for r in 0..n {
            v.set(r, idx, vecs.get(r, col) * s2);
        }
        for r in 0..m {
            u.set(r, idx, vecs.get(n + r, col) * s2);
        }
    }
    // Zero-σ directions: the embedding's null-space eigenvectors need
    // not split into paired (v, u)/√2 halves, so those columns are not
    // automatically unit vectors. Re-orthonormalize them against the
    // earlier (well-defined) columns so UᵀU = VᵀV = I always holds.
    let tol = sigma.first().copied().unwrap_or(0.0) * 1e-12 + f64::MIN_POSITIVE;
    for idx in 0..k {
        if sigma[idx] > tol {
            continue;
        }
        orthonormalize_column(&mut u, idx);
        orthonormalize_column(&mut v, idx);
    }
    Ok((Svd { sigma, u, v }, costs))
}

/// Modified Gram–Schmidt of column `idx` against columns `0..idx`,
/// falling back to a fresh basis direction when the residual vanishes.
fn orthonormalize_column(m: &mut Matrix, idx: usize) {
    let rows = m.rows();
    for pass in 0..=rows {
        // Project out earlier columns.
        for j in 0..idx {
            let dot: f64 = (0..rows).map(|r| m.get(r, idx) * m.get(r, j)).sum();
            for r in 0..rows {
                m.add_to(r, idx, -dot * m.get(r, j));
            }
        }
        let norm: f64 = (0..rows).map(|r| m.get(r, idx).powi(2)).sum::<f64>().sqrt();
        if norm > 1e-8 {
            for r in 0..rows {
                m.set(r, idx, m.get(r, idx) / norm);
            }
            return;
        }
        // Residual vanished: seed with the `pass`-th basis vector and retry.
        for r in 0..rows {
            m.set(r, idx, if r == pass.min(rows - 1) { 1.0 } else { 0.0 });
        }
    }
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

    #[test]
    fn singular_values_of_diagonal_matrix() {
        let a = Matrix::from_fn(4, 4, |i, j| if i == j { (4 - i) as f64 } else { 0.0 });
        let m = machine(4);
        let (sigma, _) = try_singular_values(&m, &EigenParams::new(4, 1), &a).unwrap();
        for (i, s) in sigma.iter().enumerate() {
            assert!((s - (4 - i) as f64).abs() < 1e-8, "σ_{i} = {s}");
        }
    }

    #[test]
    fn singular_values_match_gram_spectrum() {
        // σ(A)² are the eigenvalues of AᵀA.
        let mut rng = StdRng::seed_from_u64(900);
        let a = gen::random_matrix(&mut rng, 12, 8);
        let m = machine(4);
        let (sigma, _) = try_singular_values(&m, &EigenParams::new(4, 1), &a).unwrap();
        let gram = matmul(&a, Trans::T, &a, Trans::N);
        let gram_band = ca_dla::BandedSym::from_dense(&gram, 7, 7);
        let mut gram_ev = ca_dla::tridiag::try_banded_eigenvalues(&gram_band).unwrap();
        gram_ev.reverse();
        for (s, g) in sigma.iter().zip(&gram_ev) {
            assert!(
                (s * s - g).abs() < 1e-7 * (1.0 + g.abs()),
                "σ²={} vs λ={}",
                s * s,
                g
            );
        }
    }

    #[test]
    fn thin_svd_reconstructs_matrix() {
        let mut rng = StdRng::seed_from_u64(901);
        for (mrows, ncols) in [(10usize, 6usize), (6, 10), (8, 8)] {
            let a = gen::random_matrix(&mut rng, mrows, ncols);
            let m = machine(4);
            let (f, _) = try_svd(&m, &EigenParams::new(4, 1), &a).unwrap();
            // A = U·Σ·Vᵀ.
            let mut us = f.u.clone();
            for i in 0..mrows {
                for j in 0..f.sigma.len() {
                    us.set(i, j, f.u.get(i, j) * f.sigma[j]);
                }
            }
            let recon = matmul(&us, Trans::N, &f.v, Trans::T);
            assert!(
                recon.max_diff(&a) < 1e-7 * (mrows + ncols) as f64,
                "{mrows}×{ncols}: ‖UΣVᵀ − A‖ = {}",
                recon.max_diff(&a)
            );
            // Orthonormal columns.
            let utu = matmul(&f.u, Trans::T, &f.u, Trans::N);
            let vtv = matmul(&f.v, Trans::T, &f.v, Trans::N);
            let k = f.sigma.len();
            assert!(utu.max_diff(&Matrix::identity(k)) < 1e-7);
            assert!(vtv.max_diff(&Matrix::identity(k)) < 1e-7);
            // Descending σ ≥ 0.
            for w in f.sigma.windows(2) {
                assert!(w[0] >= w[1] - 1e-10);
            }
            assert!(f.sigma.iter().all(|s| *s >= 0.0));
        }
    }

    #[test]
    fn rank_deficient_svd_keeps_orthonormal_factors() {
        // Zero-σ columns come from the embedding's null space and are
        // re-orthonormalized: UᵀU = VᵀV = I must hold even below rank.
        let x = Matrix::from_fn(6, 1, |i, _| (i + 1) as f64);
        let y = Matrix::from_fn(1, 5, |_, j| (j + 1) as f64);
        let a = matmul(&x, Trans::N, &y, Trans::N); // rank 1
        let m = machine(4);
        let (f, _) = try_svd(&m, &EigenParams::new(4, 1), &a).unwrap();
        let k = f.sigma.len();
        let utu = matmul(&f.u, Trans::T, &f.u, Trans::N);
        let vtv = matmul(&f.v, Trans::T, &f.v, Trans::N);
        assert!(
            utu.max_diff(&Matrix::identity(k)) < 1e-7,
            "UᵀU deviates by {}",
            utu.max_diff(&Matrix::identity(k))
        );
        assert!(
            vtv.max_diff(&Matrix::identity(k)) < 1e-7,
            "VᵀV deviates by {}",
            vtv.max_diff(&Matrix::identity(k))
        );
        // Reconstruction still exact (zero σ annihilate those columns).
        let mut us = f.u.clone();
        for i in 0..6 {
            for j in 0..k {
                us.set(i, j, f.u.get(i, j) * f.sigma[j]);
            }
        }
        let recon = matmul(&us, Trans::N, &f.v, Trans::T);
        assert!(recon.max_diff(&a) < 1e-7 * 11.0);
    }

    #[test]
    fn rank_deficient_matrix_has_zero_sigmas() {
        // Rank-1 outer product.
        let x = Matrix::from_fn(6, 1, |i, _| (i + 1) as f64);
        let y = Matrix::from_fn(1, 5, |_, j| (j + 1) as f64);
        let a = matmul(&x, Trans::N, &y, Trans::N);
        let m = machine(4);
        let (sigma, _) = try_singular_values(&m, &EigenParams::new(4, 1), &a).unwrap();
        assert!(sigma[0] > 1.0);
        for s in &sigma[1..] {
            assert!(s.abs() < 1e-7, "trailing σ = {s}");
        }
    }
}
