//! Property sweeps for the divide-and-conquer tridiagonal eigensolver
//! against the repo's independent oracles — implicit-shift QL and
//! Sturm-sequence bisection — over the spectra that stress its two
//! hard paths:
//!
//! * **clustered** spectra (tight eigenvalue groups, spread down to
//!   1e-12) drive the deflation machinery: nearly every pole pair
//!   rotates out and the secular systems collapse;
//! * **graded** spectra (geometric decay over many orders of
//!   magnitude) stress the secular root finder's relative accuracy at
//!   poles of wildly different scale.
//!
//! Sizes sample the awkward cases: the minimal `n ∈ {2, 3}`, primes
//! (recursion splits are never balanced), and `2^k ± 1` straddling the
//! power-of-two splits. Each case checks eigenvalue agreement with QL
//! and Sturm, eigenvector orthogonality, the `T·Z = Z·Λ` residual, and
//! exact equality of the value-only and full drivers.

use ca_dla::bulge::reduce_band_to;
use ca_dla::gemm::{matmul, Trans};
use ca_dla::tridiag::spectrum_distance;
use ca_dla::{dnc, gen, sturm, BandedSym, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Awkward problem sizes: minimal, primes, `2^k ± 1`.
const SIZES: [usize; 12] = [2, 3, 5, 7, 13, 17, 31, 33, 47, 63, 65, 97];

/// Reduce a dense symmetric matrix with a prescribed spectrum to
/// tridiagonal form (orthogonal similarity preserves the spectrum).
fn tridiag_with_spectrum(seed: u64, spectrum: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = spectrum.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::symmetric_with_spectrum(&mut rng, spectrum);
    if n == 1 {
        return (vec![a.get(0, 0)], vec![]);
    }
    let mut band = BandedSym::from_dense(&a, n - 1, n - 1);
    reduce_band_to(&mut band, 1);
    band.tridiagonal()
}

/// All oracle checks for one `(d, e)` instance.
fn check_against_oracles(d: &[f64], e: &[f64], want: &[f64], tol: f64) {
    let n = d.len();
    let (lam, z) = dnc::dnc_eigen(d, e).expect("dnc converges");
    let vals = dnc::dnc_eigenvalues(d, e).expect("dnc converges");
    assert_eq!(vals, lam, "value-only and full drivers disagree");

    // Eigenvalues vs the prescribed spectrum, QL, and Sturm bisection.
    assert!(
        spectrum_distance(&lam, want) < tol,
        "n={n}: spectrum drift {} vs prescribed",
        spectrum_distance(&lam, want)
    );
    let ql = ca_dla::tridiag::try_tridiag_eigenvalues(d, e).unwrap();
    assert!(
        spectrum_distance(&lam, &ql) < tol,
        "n={n}: drift {} vs QL",
        spectrum_distance(&lam, &ql)
    );
    let bis = sturm::bisection_eigenvalues(d, e, 1e-12);
    assert!(
        spectrum_distance(&lam, &bis) < tol.max(1e-10),
        "n={n}: drift {} vs Sturm bisection",
        spectrum_distance(&lam, &bis)
    );

    // Z orthonormal.
    let ztz = matmul(&z, Trans::T, &z, Trans::N);
    let orth = ztz.max_diff(&Matrix::identity(n));
    assert!(orth < tol, "n={n}: ZᵀZ deviates by {orth}");

    // T·Z = Z·Λ.
    let mut resid = 0.0f64;
    for (j, &lam_j) in lam.iter().enumerate() {
        for i in 0..n {
            let mut tz = d[i] * z.get(i, j);
            if i > 0 {
                tz += e[i - 1] * z.get(i - 1, j);
            }
            if i + 1 < n {
                tz += e[i] * z.get(i + 1, j);
            }
            resid = resid.max((tz - lam_j * z.get(i, j)).abs());
        }
    }
    let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    assert!(resid < tol * scale, "n={n}: residual {resid}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn clustered_spectra_heavy_deflation(
        size_ix in 0usize..SIZES.len(),
        clusters in 1usize..5,
        spread_exp in 3u32..12,
        seed in 0u64..1u64 << 48,
    ) {
        let n = SIZES[size_ix];
        let spread = 10f64.powi(-(spread_exp as i32));
        let spectrum = gen::clustered_spectrum(n, clusters.min(n), -2.0, 2.0, spread);
        let (d, e) = tridiag_with_spectrum(seed, &spectrum);
        check_against_oracles(&d, &e, &spectrum, 1e-8);
    }

    #[test]
    fn graded_spectra_secular_accuracy(
        size_ix in 0usize..SIZES.len(),
        decay in 0.2f64..0.9,
        seed in 0u64..1u64 << 48,
    ) {
        let n = SIZES[size_ix];
        let spectrum = gen::graded_spectrum(n, 10.0, decay);
        let (d, e) = tridiag_with_spectrum(seed, &spectrum);
        check_against_oracles(&d, &e, &spectrum, 1e-8);
    }
}
