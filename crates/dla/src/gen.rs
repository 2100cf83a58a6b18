//! Reproducible matrix generators.
//!
//! The evaluation strategy (DESIGN.md §2) replaces the paper's production
//! workloads by synthetic symmetric matrices with *prescribed spectra*:
//! `A = Q·diag(λ)·Qᵀ` for a random orthogonal `Q`, which makes every
//! reduction stage of the eigensolver verifiable (the eigenvalues must be
//! preserved exactly, up to rounding, by each orthogonal similarity).

use crate::gemm::{matmul, Trans};
use crate::matrix::Matrix;
use crate::qr::{explicit_q, qr_factor};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Dense `m × n` matrix with i.i.d. entries in `[-1, 1)`.
pub fn random_matrix<R: Rng>(rng: &mut R, m: usize, n: usize) -> Matrix {
    let dist = Uniform::new(-1.0f64, 1.0);
    Matrix::from_fn(m, n, |_, _| dist.sample(rng))
}

/// Random `n × n` orthogonal matrix: the explicit `Q` factor of the QR
/// factorization of a random Gaussian-ish matrix.
pub fn random_orthogonal<R: Rng>(rng: &mut R, n: usize) -> Matrix {
    let a = random_matrix(rng, n, n);
    let f = qr_factor(&a, usize::MAX);
    explicit_q(&f.u, &f.t, n)
}

/// Symmetric matrix with the prescribed spectrum: `A = Q·diag(λ)·Qᵀ`.
pub fn symmetric_with_spectrum<R: Rng>(rng: &mut R, eigenvalues: &[f64]) -> Matrix {
    let n = eigenvalues.len();
    let q = random_orthogonal(rng, n);
    let mut qd = q.clone();
    for i in 0..n {
        for j in 0..n {
            qd.set(i, j, q.get(i, j) * eigenvalues[j]);
        }
    }
    let mut a = matmul(&qd, Trans::N, &q, Trans::T);
    a.symmetrize();
    a
}

/// Random dense symmetric matrix with entries in `[-1, 1)`.
pub fn random_symmetric<R: Rng>(rng: &mut R, n: usize) -> Matrix {
    let mut a = random_matrix(rng, n, n);
    a.symmetrize();
    a
}

/// Random symmetric matrix of bandwidth exactly `b` (dense storage).
pub fn random_banded<R: Rng>(rng: &mut R, n: usize, b: usize) -> Matrix {
    let dist = Uniform::new(-1.0f64, 1.0);
    let mut a = Matrix::from_fn(n, n, |i, j| {
        if i.abs_diff(j) <= b {
            dist.sample(rng)
        } else {
            0.0
        }
    });
    a.symmetrize();
    // Make the band edge structurally nonzero so bandwidth(b) is exact.
    if b > 0 && n > b {
        for i in b..n {
            a.set(i, i - b, 1.0);
            a.set(i - b, i, 1.0);
        }
    }
    a
}

/// A linearly spaced spectrum in `[lo, hi]`, a convenient well-separated
/// test spectrum.
pub fn linspace_spectrum(n: usize, lo: f64, hi: f64) -> Vec<f64> {
    if n == 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Geometrically graded spectrum: `λᵢ = largest·decayⁱ` (descending in
/// magnitude, spanning `decay^{n−1}` orders of magnitude). Graded
/// spectra stress the small-eigenvalue end of the solver: relative
/// accuracy of the tiny eigenvalues is lost first when a reduction
/// stage leaks error.
pub fn graded_spectrum(n: usize, largest: f64, decay: f64) -> Vec<f64> {
    assert!(decay > 0.0, "decay must be positive");
    let mut lambda = Vec::with_capacity(n);
    let mut v = largest;
    for _ in 0..n {
        lambda.push(v);
        v *= decay;
    }
    lambda.reverse(); // ascending, matching the solver's output order
    lambda
}

/// Spectrum of `clusters` tight groups spread over `[lo, hi]`: each
/// cluster's eigenvalues sit within `±spread` of its center — the
/// near-multiple-eigenvalue stress case (tridiagonal QL and bisection
/// both slow down or mis-order without careful deflation).
pub fn clustered_spectrum(n: usize, clusters: usize, lo: f64, hi: f64, spread: f64) -> Vec<f64> {
    assert!(clusters >= 1 && clusters <= n.max(1), "need 1 ≤ clusters ≤ n");
    let mut lambda = Vec::with_capacity(n);
    for i in 0..n {
        let k = i * clusters / n.max(1); // cluster index, balanced sizes
        let center = if clusters == 1 {
            (lo + hi) / 2.0
        } else {
            lo + (hi - lo) * k as f64 / (clusters - 1) as f64
        };
        // Deterministic offset inside the cluster, symmetric about the
        // center, strictly inside ±spread.
        let j = (i * clusters) % n.max(1);
        let frac = (j as f64 / n.max(1) as f64) - 0.5;
        lambda.push(center + 2.0 * spread * frac);
    }
    lambda.sort_by(|a, b| a.partial_cmp(b).unwrap());
    lambda
}

/// Random symmetric strictly diagonally dominant matrix: off-diagonal
/// entries i.i.d. in `[-1, 1)`, each diagonal set to `dominance` times
/// the row's off-diagonal absolute sum (`dominance > 1` ⇒ positive
/// definite by Gershgorin). Diagonally dominant inputs are the
/// best-conditioned extreme of the gallery — a solver failing here
/// fails everywhere.
pub fn diagonally_dominant<R: Rng>(rng: &mut R, n: usize, dominance: f64) -> Matrix {
    assert!(dominance >= 1.0, "dominance must be ≥ 1");
    let mut a = random_matrix(rng, n, n);
    a.symmetrize();
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
        a.set(i, i, dominance * off.max(1.0));
    }
    a
}

/// Deterministic fingerprint of a matrix's exact bit pattern, for
/// pinning generators against drift: any change to a generator's
/// sampling order, arithmetic, or the underlying RNG stream changes the
/// fingerprint, which golden-cost and conformance baselines depend on.
pub fn fingerprint(a: &Matrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            h ^= a.get(i, j).to_bits();
            h = h.wrapping_mul(0x1000_0000_01b3); // FNV prime
        }
    }
    h
}

/// 1D tight-binding ring Hamiltonian with on-site disorder: a real
/// symmetric matrix with hopping `t` between nearest neighbours on a ring
/// of `n` sites and random on-site energies in `[-w/2, w/2]` (the Anderson
/// model). This is the kind of electronic-structure matrix the paper's
/// introduction motivates (Hartree–Fock etc. compute eigenvalues of a
/// sequence of such symmetric operators).
pub fn tight_binding_ring<R: Rng>(rng: &mut R, n: usize, t: f64, disorder: f64) -> Matrix {
    let dist = Uniform::new(-0.5f64, 0.5);
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a.set(i, i, disorder * dist.sample(rng));
        let j = (i + 1) % n;
        a.set(i, j, -t);
        a.set(j, i, -t);
    }
    a
}

/// Wilkinson's `W_n⁺` matrix: tridiagonal with `d_i = |i − (n−1)/2|`,
/// `e_i = 1` — the classic stress test with pathologically close
/// eigenvalue pairs.
pub fn wilkinson(n: usize) -> Matrix {
    let mid = (n as f64 - 1.0) / 2.0;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a.set(i, i, (i as f64 - mid).abs());
        if i + 1 < n {
            a.set(i, i + 1, 1.0);
            a.set(i + 1, i, 1.0);
        }
    }
    a
}

/// The Clement (Kac–Sylvester) matrix, symmetrized: tridiagonal with
/// zero diagonal and `e_i = √((i+1)(n−1−i))`; its spectrum is exactly
/// `{−(n−1), −(n−3), …, n−3, n−1}` — an analytic whole-spectrum check.
pub fn clement(n: usize) -> Matrix {
    let mut a = Matrix::zeros(n, n);
    for i in 0..n.saturating_sub(1) {
        let e = (((i + 1) * (n - 1 - i)) as f64).sqrt();
        a.set(i, i + 1, e);
        a.set(i + 1, i, e);
    }
    a
}

/// Symmetric banded Toeplitz matrix: constant `coeffs[d]` on diagonal
/// `d` (`coeffs[0]` on the main diagonal). Bandwidth `coeffs.len() − 1`.
pub fn toeplitz_band(n: usize, coeffs: &[f64]) -> Matrix {
    assert!(!coeffs.is_empty());
    Matrix::from_fn(n, n, |i, j| {
        let d = i.abs_diff(j);
        if d < coeffs.len() {
            coeffs[d]
        } else {
            0.0
        }
    })
}

/// 2D Laplacian on an `nx × ny` grid with Dirichlet boundaries
/// (a banded symmetric positive definite matrix of bandwidth `nx`).
pub fn laplacian_2d(nx: usize, ny: usize) -> Matrix {
    let n = nx * ny;
    let mut a = Matrix::zeros(n, n);
    for y in 0..ny {
        for x in 0..nx {
            let i = y * nx + x;
            a.set(i, i, 4.0);
            if x + 1 < nx {
                a.set(i, i + 1, -1.0);
                a.set(i + 1, i, -1.0);
            }
            if y + 1 < ny {
                a.set(i, i + nx, -1.0);
                a.set(i + nx, i, -1.0);
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn orthogonal_is_orthogonal() {
        let mut rng = StdRng::seed_from_u64(10);
        let q = random_orthogonal(&mut rng, 12);
        let qtq = matmul(&q, Trans::T, &q, Trans::N);
        assert!(qtq.max_diff(&Matrix::identity(12)) < 1e-11);
    }

    #[test]
    fn prescribed_spectrum_has_right_trace() {
        let mut rng = StdRng::seed_from_u64(11);
        let lambda = linspace_spectrum(9, -4.0, 4.0);
        let a = symmetric_with_spectrum(&mut rng, &lambda);
        let trace: f64 = (0..9).map(|i| a.get(i, i)).sum();
        let sum: f64 = lambda.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn prescribed_spectrum_frobenius_matches() {
        let mut rng = StdRng::seed_from_u64(12);
        let lambda = vec![1.0, 2.0, 3.0, 4.0];
        let a = symmetric_with_spectrum(&mut rng, &lambda);
        // ‖A‖_F² = Σ λᵢ² for symmetric A.
        let want: f64 = lambda.iter().map(|l| l * l).sum::<f64>().sqrt();
        assert!((a.norm_fro() - want).abs() < 1e-10);
    }

    #[test]
    fn banded_has_exact_bandwidth() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_banded(&mut rng, 20, 3);
        assert_eq!(a.bandwidth(1e-14), 3);
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn tight_binding_is_symmetric_banded_on_ring() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = tight_binding_ring(&mut rng, 16, 1.0, 2.0);
        assert_eq!(a.asymmetry(), 0.0);
        // Ring wrap makes bandwidth n−1 in dense index space.
        assert_eq!(a.bandwidth(1e-14), 15);
    }

    #[test]
    fn clement_spectrum_is_arithmetic() {
        use crate::tridiag::banded_eigenvalues;
        use crate::BandedSym;
        let n = 12;
        let a = clement(n);
        let b = BandedSym::from_dense(&a, 1, 2);
        let ev = banded_eigenvalues(&b);
        for (k, lam) in ev.iter().enumerate() {
            let want = -(n as f64 - 1.0) + 2.0 * k as f64;
            assert!((lam - want).abs() < 1e-9, "λ_{k} = {lam}, want {want}");
        }
    }

    #[test]
    fn wilkinson_has_close_pairs() {
        use crate::tridiag::tridiag_eigenvalues;
        let a = wilkinson(21);
        let d: Vec<f64> = (0..21).map(|i| a.get(i, i)).collect();
        let e: Vec<f64> = (0..20).map(|i| a.get(i + 1, i)).collect();
        let ev = tridiag_eigenvalues(&d, &e);
        // The two largest eigenvalues agree to ~1e-6 but not exactly.
        let gap = ev[20] - ev[19];
        assert!(gap > 0.0 && gap < 1e-5);
    }

    #[test]
    fn toeplitz_band_structure() {
        let a = toeplitz_band(10, &[2.0, -1.0, 0.25]);
        assert_eq!(a.bandwidth(1e-14), 2);
        assert_eq!(a.asymmetry(), 0.0);
        assert_eq!(a.get(5, 5), 2.0);
        assert_eq!(a.get(5, 4), -1.0);
        assert_eq!(a.get(5, 3), 0.25);
        assert_eq!(a.get(5, 2), 0.0);
    }

    #[test]
    fn graded_spectrum_is_geometric_and_ascending() {
        let lambda = graded_spectrum(8, 1.0, 0.1);
        assert_eq!(lambda.len(), 8);
        for w in lambda.windows(2) {
            assert!(w[0] < w[1]);
            assert!((w[1] / w[0] - 10.0).abs() < 1e-9);
        }
        assert!((lambda[7] - 1.0).abs() < 1e-15);
        assert!((lambda[0] - 1e-7).abs() < 1e-15);
    }

    #[test]
    fn clustered_spectrum_has_tight_groups() {
        let spread = 1e-6;
        let lambda = clustered_spectrum(12, 3, -3.0, 3.0, spread);
        assert_eq!(lambda.len(), 12);
        for w in lambda.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Every eigenvalue is within spread of one of the 3 centers.
        for l in &lambda {
            let near = [-3.0f64, 0.0, 3.0]
                .iter()
                .any(|c| (l - c).abs() <= spread + 1e-12);
            assert!(near, "λ = {l} not near any cluster center");
        }
        // Each cluster holds a near-multiple group: gaps inside a
        // cluster are ≤ 2·spread, gaps between clusters are ~3.
        let big_gaps = lambda.windows(2).filter(|w| w[1] - w[0] > 1.0).count();
        assert_eq!(big_gaps, 2);
    }

    #[test]
    fn diagonally_dominant_is_gershgorin_definite() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = diagonally_dominant(&mut rng, 16, 1.5);
        assert_eq!(a.asymmetry(), 0.0);
        for i in 0..16 {
            let off: f64 = (0..16).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i) > off, "row {i} not strictly dominant");
        }
    }

    /// Pinned fingerprints: the gallery matrices behind golden costs and
    /// the conformance baselines. A generator change (sampling order,
    /// arithmetic, RNG stream) flips the fingerprint and must be a
    /// deliberate re-pin, not silent drift. Re-pin by running with
    /// `UPDATE_GOLDEN=1 cargo test -p ca-dla generator_fingerprints -- --nocapture`.
    #[test]
    fn generator_fingerprints_are_pinned() {
        let fps: Vec<(&str, u64)> = vec![
            ("wilkinson(21)", fingerprint(&wilkinson(21))),
            ("clement(16)", fingerprint(&clement(16))),
            ("graded(16)", {
                let mut rng = StdRng::seed_from_u64(1000);
                let lambda = graded_spectrum(16, 4.0, 0.5);
                fingerprint(&symmetric_with_spectrum(&mut rng, &lambda))
            }),
            ("clustered(16)", {
                let mut rng = StdRng::seed_from_u64(1001);
                let lambda = clustered_spectrum(16, 4, -2.0, 2.0, 1e-7);
                fingerprint(&symmetric_with_spectrum(&mut rng, &lambda))
            }),
            ("diag_dominant(16)", {
                let mut rng = StdRng::seed_from_u64(1002);
                fingerprint(&diagonally_dominant(&mut rng, 16, 2.0))
            }),
            ("tight_binding(16)", {
                let mut rng = StdRng::seed_from_u64(1003);
                fingerprint(&tight_binding_ring(&mut rng, 16, 1.0, 2.0))
            }),
        ];
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            for (name, fp) in &fps {
                println!("(\"{name}\", 0x{fp:016x}),");
            }
            return;
        }
        let pinned: &[(&str, u64)] = &[
            ("wilkinson(21)", 0xa5ba201c58447aff),
            ("clement(16)", 0xad4be3e461c68559),
            ("graded(16)", 0xeaed8a581de80b8c),
            ("clustered(16)", 0xe4eb6c2e10c3b63a),
            ("diag_dominant(16)", 0x4c19aae1202cabed),
            ("tight_binding(16)", 0xb98e6561e35bc9e1),
        ];
        for ((name, got), (_, want)) in fps.iter().zip(pinned) {
            assert_eq!(got, want, "{name}: generator fingerprint drifted");
        }
    }

    #[test]
    fn laplacian_is_spd_like() {
        let a = laplacian_2d(4, 3);
        assert_eq!(a.asymmetry(), 0.0);
        assert_eq!(a.bandwidth(1e-14), 4);
        // Diagonally dominant ⇒ positive definite.
        for i in 0..12 {
            let off: f64 = (0..12).filter(|&j| j != i).map(|j| a.get(i, j).abs()).sum();
            assert!(a.get(i, i) >= off);
        }
    }
}
