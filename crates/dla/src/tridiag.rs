//! The sequential finale of Algorithm IV.3, and the implicit-shift QL
//! tridiagonal solvers.
//!
//! After the band has been reduced to width `n/p` and gathered on one
//! processor, stage 4 is two steps, both here:
//!
//! * [`band_to_tridiagonal`] — band → tridiagonal, the one function the
//!   values path ([`try_banded_eigenvalues`]) and the solver's vectors
//!   path both call: at most one block-reflector pass down to a
//!   cache-sized band, then the fused rank-1 sweep of [`crate::bulge`],
//!   optionally recording every transform as a compact-WY block;
//! * the tridiagonal spectrum — divide-and-conquer ([`crate::dnc`])
//!   above its leaf size, with the QL solvers of this module
//!   ([`try_tridiag_eigenvalues`], [`try_tridiag_eigen`]: EISPACK
//!   `tql1` / `tql2` shapes) as its leaf and as the oracle of the
//!   property sweeps.
//!
//! The paper cites MRRR for the second step; any correct `O(n²)`-ish
//! sequential tridiagonal solver exercises the same code path
//! (DESIGN.md §2), and the independent Sturm-sequence bisection solver
//! in [`crate::sturm`] cross-checks it.

use crate::band::BandedSym;
use crate::bulge::{self, BlockReflector};
use crate::dnc;
use crate::gemm::Fma;
use crate::workspace::with_ws;

/// Maximum implicit-QL iterations per eigenvalue before the solver
/// reports [`NoConvergence`] (EISPACK used 30; 64 is generous — on
/// finite input the shift strategy converges cubically).
const MAX_QL_ITERS: usize = 64;

/// Bandwidth above which [`band_to_tridiagonal`] runs one
/// block-reflector pass (down to [`SWEEP_BAND`]) before the fused sweep;
/// at or below it the sweep runs directly. The sweep's working window is
/// `≈ 3b` columns of `2b + 1` stored diagonals — 1.8 MB at `b = 192`,
/// 3.2 MB at 256 against the reference host's 2 MB L2 — and the
/// measurements under [`SWEEP_BAND`] put the crossover where the window
/// leaves that cache.
const HALVE_FLOOR: usize = 192;

/// Bandwidth the pass above [`HALVE_FLOOR`] reduces to: a band whose
/// sweep window (200 KB) sits well inside the L2 cache and whose sweep
/// is a third of the pass that produces it. Ballard–Demmel–Dumitriu's
/// argument (PAPERS.md): a band stage meets its communication bound by
/// reducing *once*, with matrix–matrix work, to a band that fits the
/// fast memory and finishing there — not by repeated halving, each of
/// which streams the whole band again for a constant factor.
///
/// Measured on the reference host (2 vCPU Sapphire Rapids @ 2.1 GHz
/// under KVM, one thread; minimum over four alternating rounds of 5–7
/// runs, the host's speed drifts by tens of per cent between rounds).
/// `cargo bench -p ca-bench --bench kernels` prints the legs (groups
/// `band_sweep`, `band_pass`).
///
/// The fused sweep alone, n = 1024, band → tridiagonal, ms:
///
/// | b | 16 | 32 | 64 | 128 | 256 |
/// |---|---|---|---|---|---|
/// | SSE2 loops, serial sums (PR 16) | 24.1 | 34.2 | 65.2 | 114.6 | 219.1 |
/// | FMA loops, 8-lane sums (this kernel) | 23.6 | 29.0 | 49.3 | 75.7 | 129.8 |
///
/// Schedules on this kernel, pass legs + sweep (each sweep on a slab
/// re-housed to its own fill capacity — swept on the pass's wide slab,
/// column stride 4 104 bytes, b = 64 read 87 instead of 46 ms), ms:
///
/// | (n, bw) | sweep directly | one pass to 64, sweep | other |
/// |---|---|---|---|
/// | (512, 128) | **16.8** | 10.3 + 11.3 = 21.6 | |
/// | (640, 160) | **30.2** | 17.2 + 16.9 = 34.1 | |
/// | (768, 192) | **50.1** | 31.3 + 26.3 = 57.6 | halve to 96, sweep: 29.2 + 33.9 = 63.1; PR 16 (that schedule, its kernel): 77.5 |
/// | (1024, 160) | **88.1** | 53.5 + 46.3 = 99.8 | |
/// | (1024, 192) | 105.0 | 62.1 + 46.0 = 108.1 | |
/// | (1024, 224) | 123.0 | **62.4 + 46.3 = 108.7** | |
/// | (1024, 256) | 130.6 | **73.2 + 45.9 = 119.1** | halve to 128, sweep: 71.8 + 78.3 = 150.1; halve twice, sweep: 67.9 + 52.5 + 46.4 = 166.8; one pass to 96 / 48 / 32: 131.2 / 116.1 / 122.9; PR 16 (halve to 128, its kernel): 194.5 |
/// | (1536, 192) | 284.3 | **154.3 + 108.2 = 262.5** | |
/// | (1536, 256) | 381.3 | **193.6 + 107.8 = 301.4** | |
///
/// Against this kernel every halving schedule loses to both one pass and
/// no pass; the pass wins from `b ≈ 200` up and by more as `n` grows;
/// its target is flat between 48 and 64. Not knobs: both constants are
/// crossovers of this kernel pair on a cache hierarchy, to be re-measured
/// when either kernel changes.
///
/// Re-measured when the pass kernel stopped moving and multiplying the
/// strip's zero rows and its factors' zero triangles (same host, another
/// day — the sweep reads ≈ 10 % slower than above for the same code, so
/// compare within this table; one thread, minimum over four alternating
/// rounds of three, ms):
///
/// | (n, bw) | sweep directly | pass to 64, sweep (previous pass) | pass to 64, sweep | pass to 48 / 32, sweep |
/// |---|---|---|---|---|
/// | (512, 128) | **18.4** | 11.7 + 12.8 = 24.4 | 8.4 + 12.7 = 21.1 | |
/// | (640, 160) | **33.9** | 19.5 + 19.9 = 39.7 | 15.2 + 19.8 = 34.9 | |
/// | (768, 192) | 56.9 | 33.5 + 28.9 = 62.3 | **24.9 + 28.6 = 53.7** | 48.2 / 46.7 |
/// | (1024, 160) | 99.0 | 61.0 + 51.7 = 112.8 | **44.2 + 51.5 = 96.0** | |
/// | (1024, 192) | 112.8 | 67.1 + 51.5 = 118.7 | **48.6 + 51.5 = 100.1** | |
/// | (1024, 224) | 129.5 | 70.7 + 51.6 = 122.2 | **52.9 + 52.4 = 105.7** | |
/// | (1024, 256) | 144.8 | 81.3 + 51.4 = 132.7 | **57.4 + 51.7 = 109.2** | 100.3 / 100.3 |
/// | (1536, 192) | 297.3 | 170.1 + 117.4 = 287.6 | **119.3 + 117.5 = 237.8** | |
/// | (1536, 256) | 394.0 | 215.6 + 117.7 = 333.4 | **147.1 + 117.0 = 265.2** | |
///
/// For eigenvalues the crossover moved from `b ≈ 200` to `≈ 160` and the
/// target towards 32–48 (the default pool reads the same within 3 ms).
/// Neither constant moved with it. Below 192, `vectors_p4`'s band
/// (n = 768, bw = 192) would take the pass: its output bits would change,
/// and the back-transformation would apply the pass's reflectors on top
/// of the sweep's for a 3 ms gain in the reduction. A lower target changes
/// which reflectors reduce `values_p4`'s band, so its output bits too,
/// for ≈ 9 ms of a ≈ 110 ms finale. Both wait for a change that re-pins
/// the outputs and measures the vectors path end to end.
const SWEEP_BAND: usize = 64;

/// A tridiagonal eigensolver failed to converge within its iteration
/// budget. On finite input this does not occur (the Wilkinson shift
/// strategy is globally convergent); non-finite input (NaN/∞ reaching
/// the solver) is the practical trigger. Carried through the `try_*`
/// entry points so distributed callers can surface a typed error
/// instead of poisoning the run with a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoConvergence {
    /// The solver that gave up (e.g. `"tridiag_eigenvalues"`).
    pub solver: &'static str,
    /// The eigenvalue index being iterated when the budget ran out.
    pub index: usize,
}

impl std::fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: QL iteration did not converge within {} iterations (eigenvalue index {})",
            self.solver, MAX_QL_ITERS, self.index
        )
    }
}

impl std::error::Error for NoConvergence {}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
/// sub-diagonal `e` (`e.len() == d.len() − 1`), in ascending order.
///
/// Implicit-shift QL with Wilkinson-style shifts (EISPACK `tql1` shape).
/// Panics on non-convergence; [`try_tridiag_eigenvalues`] reports it as
/// a typed error instead.
pub fn tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Vec<f64> {
    try_tridiag_eigenvalues(d, e).unwrap_or_else(|err| panic!("{err}"))
}

/// [`tridiag_eigenvalues`] with non-convergence reported as
/// [`NoConvergence`] instead of a panic.
pub fn try_tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>, NoConvergence> {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n - 1, "sub-diagonal must have n−1 entries");
    if n == 1 {
        return Ok(vec![d[0]]);
    }
    let mut d = d.to_vec();
    // Working copy of the off-diagonal with a trailing sentinel zero.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find the first negligible off-diagonal at or after l.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(NoConvergence { solver: "tridiag_eigenvalues", index: l });
            }

            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c, mut p) = (1.0f64, 1.0f64, 0.0f64);

            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: skip the transformation.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are finite"));
    Ok(d)
}

/// Eigenvalues *and eigenvectors* of the symmetric tridiagonal matrix
/// `(d, e)`: implicit-shift QL with accumulation of the rotations
/// (EISPACK `tql2` shape). Returns `(λ ascending, Z)` with the columns
/// of `Z` the orthonormal eigenvectors (`T·Z = Z·diag(λ)`).
///
/// This powers the eigenvector extension (the paper's §IV.C future
/// work): the band-reduction stages' Householder transforms are
/// back-applied to `Z` to recover the dense matrix's eigenvectors.
/// Panics on non-convergence; [`try_tridiag_eigen`] reports it as a
/// typed error instead.
pub fn tridiag_eigen(d: &[f64], e: &[f64]) -> (Vec<f64>, crate::Matrix) {
    try_tridiag_eigen(d, e).unwrap_or_else(|err| panic!("{err}"))
}

/// [`tridiag_eigen`] with non-convergence reported as [`NoConvergence`]
/// instead of a panic. Also the QL leaf solver of [`crate::dnc`].
pub fn try_tridiag_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, crate::Matrix), NoConvergence> {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n - 1, "sub-diagonal must have n−1 entries");
    let mut d = d.to_vec();
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
    let mut z = crate::Matrix::identity(n);

    for l in 0..n {
        let mut iter = 0;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(NoConvergence { solver: "tridiag_eigen", index: l });
            }

            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c, mut p) = (1.0f64, 1.0f64, 0.0f64);

            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into Z (columns i, i+1).
                for k in 0..n {
                    let zf = z.get(k, i + 1);
                    let zi = z.get(k, i);
                    z.set(k, i + 1, s * zi + c * zf);
                    z.set(k, i, c * zi - s * zf);
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort eigenpairs ascending (selection sort, swapping columns).
    for i in 0..n {
        let mut k = i;
        for j in i + 1..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            for r in 0..n {
                let tmp = z.get(r, i);
                z.set(r, i, z.get(r, k));
                z.set(r, k, tmp);
            }
        }
    }
    Ok((d, z))
}

/// Eigenvalues of a symmetric banded matrix, computed sequentially.
/// Panicking wrapper around [`try_banded_eigenvalues`].
pub fn banded_eigenvalues(b: &BandedSym) -> Vec<f64> {
    try_banded_eigenvalues(b).unwrap_or_else(|err| panic!("{err}"))
}

/// Eigenvalues of a symmetric banded matrix, computed sequentially,
/// with non-convergence reported as [`NoConvergence`]:
/// [`band_to_tridiagonal`], then [`crate::dnc`] (implicit QL at or below
/// its leaf size).
pub fn try_banded_eigenvalues(b: &BandedSym) -> Result<Vec<f64>, NoConvergence> {
    let (d, e) = band_to_tridiagonal(b, None);
    let _span = ca_obs::kernel_span("finale.dnc");
    if d.len() > dnc::LEAF {
        dnc::dnc_eigenvalues(&d, &e)
    } else {
        try_tridiag_eigenvalues(&d, &e)
    }
}

/// Reduce a symmetric banded matrix to tridiagonal form, sequentially:
/// returns the diagonal and sub-diagonal of `T = QᵀBQ`. The band-width
/// reduced is the larger of the declared and the measured one. A band
/// wider than `HALVE_FLOOR` first takes one pass of fat block reflectors
/// (Algorithm IV.2 on one processor, matrix–matrix rates) down to
/// `SWEEP_BAND`; the fused rank-1 sweep
/// ([`bulge::sweep_to_tridiagonal`]) finishes, on a slab re-housed to
/// the narrow band's fill capacity. The working slabs are lent by the
/// thread's arena: a warmed call allocates its two results and nothing
/// else.
///
/// With `record`, every transform applied is appended as a block
/// reflector `(row0, U, T)` — `Q = Q₁Q₂⋯` in append order, each
/// `Qₖ = I − U·T·Uᵀ` on rows `row0 .. row0 + U.rows()`: the pass's
/// chases as they come, the sweep's grouped as
/// [`bulge::sweep_to_tridiagonal`] describes. Recording does not change
/// a bit of `(d, e)`.
///
/// Opens the `finale.halve (b→b′)` and `finale.sweep (b)` kernel spans.
pub fn band_to_tridiagonal(
    band: &BandedSym,
    mut record: Option<&mut Vec<BlockReflector>>,
) -> (Vec<f64>, Vec<f64>) {
    let n = band.n();
    let bw = band.bandwidth().max(band.measured_bandwidth(0.0));
    if bw <= 1 {
        return band.tridiagonal();
    }
    with_ws(|ws| {
        // The sweep's slab is lent by the arena. The pass's — up to n²
        // words, twice anything else this thread's arena holds — is a
        // plain allocation freed before the sweep: an arena never gives
        // memory back, and keeping that slab resident raised
        // `values_p4`'s peak heap by 2.1 MB over freeing it.
        let fill = |b: usize| (2 * b).min(n - 1);
        let mut work = if bw > HALVE_FLOOR {
            let mut wide = band.rehoused(bw, fill(bw), |len| vec![0.0; len]);
            let _span = leg_span(format_args!("finale.halve ({bw}→{SWEEP_BAND})"));
            let plan = bulge::chase_plan_iter(n, bw, SWEEP_BAND);
            bulge::reduce_band_pass(&mut wide, plan, |_, _| None, record.as_deref_mut(), ws);
            wide.rehoused(SWEEP_BAND, fill(SWEEP_BAND), |len| ws.take(len))
        } else {
            band.rehoused(bw, fill(bw), |len| ws.take(len))
        };
        {
            let _span = leg_span(format_args!("finale.sweep ({})", work.bandwidth()));
            bulge::sweep(&mut work, record, ws, Fma::detect());
        }
        let de = work.tridiagonal();
        ws.put(work.into_slab());
        de
    })
}

/// A kernel span whose name is formatted only when it will be recorded
/// (the finale's legs carry their band-widths; an untraced solve must
/// not allocate for them).
fn leg_span(name: std::fmt::Arguments) -> ca_obs::SpanGuard {
    if ca_obs::level() >= 2 {
        ca_obs::kernel_span(&name.to_string())
    } else {
        ca_obs::kernel_span("")
    }
}

/// Compare two ascending spectra; returns the largest absolute
/// difference.
pub fn spectrum_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .fold(0.0f64, |worst, (x, y)| worst.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_by_two_analytic() {
        // [[a, b], [b, c]] has eigenvalues (a+c)/2 ± √(((a−c)/2)² + b²).
        let (a, b, c) = (2.0, 1.5, -1.0);
        let mid = (a + c) / 2.0;
        let rad = (((a - c) / 2.0f64).powi(2) + b * b).sqrt();
        let ev = tridiag_eigenvalues(&[a, c], &[b]);
        assert!((ev[0] - (mid - rad)).abs() < 1e-12);
        assert!((ev[1] - (mid + rad)).abs() < 1e-12);
    }

    #[test]
    fn laplacian_1d_analytic_spectrum() {
        // Tridiagonal (−1, 2, −1) of order n has eigenvalues
        // 2 − 2cos(kπ/(n+1)).
        let n = 21;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let ev = tridiag_eigenvalues(&d, &e);
        for (idx, lam) in ev.iter().enumerate() {
            let k = (idx + 1) as f64;
            let want = 2.0 - 2.0 * (k * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((lam - want).abs() < 1e-10, "λ_{idx} = {lam}, want {want}");
        }
    }

    #[test]
    fn diagonal_matrix_returns_sorted_diagonal() {
        let d = vec![3.0, -1.0, 2.0, 0.5];
        let e = vec![0.0; 3];
        let ev = tridiag_eigenvalues(&d, &e);
        assert_eq!(ev, vec![-1.0, 0.5, 2.0, 3.0]);
    }

    #[test]
    fn single_element() {
        assert_eq!(tridiag_eigenvalues(&[42.0], &[]), vec![42.0]);
    }

    #[test]
    fn trace_and_square_sum_preserved() {
        let mut rng = StdRng::seed_from_u64(50);
        let a = gen::random_banded(&mut rng, 40, 1);
        let b = BandedSym::from_dense(&a, 1, 1);
        let (d, e) = b.tridiagonal();
        let ev = tridiag_eigenvalues(&d, &e);
        let tr: f64 = d.iter().sum();
        let ev_sum: f64 = ev.iter().sum();
        assert!((tr - ev_sum).abs() < 1e-10);
        let fro2: f64 = a.norm_fro().powi(2);
        let ev_sq: f64 = ev.iter().map(|l| l * l).sum();
        assert!((fro2 - ev_sq).abs() < 1e-8);
    }

    #[test]
    fn banded_solver_recovers_prescribed_spectrum_via_dense_reduction() {
        // Build a banded matrix, compute its spectrum two ways:
        // banded_eigenvalues vs QL on an independently generated dense
        // reduction path (moments already tested in bulge.rs).
        let mut rng = StdRng::seed_from_u64(51);
        let dense = gen::random_banded(&mut rng, 24, 5);
        let b = BandedSym::from_dense(&dense, 5, 10);
        let ev = banded_eigenvalues(&b);
        // Independent check: Sturm bisection (crate::sturm) on the
        // tridiagonalized matrix would be circular here; instead verify
        // the moment identities which pin the spectrum's first moments.
        let tr: f64 = (0..24).map(|i| dense.get(i, i)).sum();
        assert!((ev.iter().sum::<f64>() - tr).abs() < 1e-9);
        let fro2 = dense.norm_fro().powi(2);
        assert!((ev.iter().map(|l| l * l).sum::<f64>() - fro2).abs() < 1e-8);
        // And sortedness.
        for w in ev.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn banded_solver_matches_spectrum_of_similarity_construction() {
        // A = Q D Qᵀ restricted to be banded is not possible in general,
        // so instead: take a tridiagonal with known eigenvalues
        // (1D Laplacian), embed it as a BandedSym with larger capacity,
        // and check the banded path reproduces the analytic spectrum.
        let n = 16;
        let lap = gen::laplacian_2d(n, 1);
        let b = BandedSym::from_dense(&lap, 1, 4);
        let ev = banded_eigenvalues(&b);
        for (idx, lam) in ev.iter().enumerate() {
            let k = (idx + 1) as f64;
            let want = 4.0 - 2.0 * (k * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((lam - want).abs() < 1e-9);
        }
    }

    #[test]
    fn clustered_eigenvalues_converge() {
        // Nearly-degenerate spectrum stresses the QL shift strategy.
        let n = 30;
        let d: Vec<f64> = (0..n).map(|i| 1.0 + 1e-10 * i as f64).collect();
        let e = vec![1e-12; n - 1];
        let ev = tridiag_eigenvalues(&d, &e);
        assert_eq!(ev.len(), n);
        for lam in &ev {
            assert!((lam - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn spectrum_distance_works() {
        assert_eq!(spectrum_distance(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
    }

    #[test]
    fn non_finite_input_yields_typed_error() {
        // NaN never satisfies the deflation test, so the QL loop runs
        // out of budget — the typed error, not a panic or a NaN result.
        let d = vec![1.0, f64::NAN, 2.0, 0.5];
        let e = vec![0.3, 0.2, 0.1];
        let err = try_tridiag_eigenvalues(&d, &e).unwrap_err();
        assert_eq!(err.solver, "tridiag_eigenvalues");
        assert!(err.to_string().contains("did not converge"));
        let err = try_tridiag_eigen(&d, &e).unwrap_err();
        assert_eq!(err.solver, "tridiag_eigen");
    }

    #[test]
    fn banded_engines_agree_on_spectrum() {
        // Same matrix through the generic-chase + QL schedule (built
        // here from its public pieces) and the fused sweep + D&C one.
        let mut rng = StdRng::seed_from_u64(54);
        let dense = gen::random_banded(&mut rng, 60, 7);
        let b = BandedSym::from_dense(&dense, 7, 14);
        let tuned = banded_eigenvalues(&b);
        let mut w = b.clone();
        bulge::reduce_band_to(&mut w, 1);
        let (d, e) = w.tridiagonal();
        let legacy = try_tridiag_eigenvalues(&d, &e).unwrap();
        let dist = spectrum_distance(&tuned, &legacy);
        assert!(dist < 1e-9 * dense.norm_fro().max(1.0), "engines differ by {dist}");
    }

    fn check_tridiag_eigen(d: &[f64], e: &[f64], tol: f64) {
        use crate::gemm::{matmul, Trans};
        let n = d.len();
        let (lam, z) = tridiag_eigen(d, e);
        // Matches the eigenvalue-only path.
        let lam_only = tridiag_eigenvalues(d, e);
        assert!(spectrum_distance(&lam, &lam_only) < tol);
        // Z orthonormal.
        let ztz = matmul(&z, Trans::T, &z, Trans::N);
        assert!(ztz.max_diff(&Matrix::identity(n)) < tol, "ZᵀZ ≠ I");
        // T·Z = Z·Λ.
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t.set(i, i, d[i]);
            if i + 1 < n {
                t.set(i, i + 1, e[i]);
                t.set(i + 1, i, e[i]);
            }
        }
        let tz = matmul(&t, Trans::N, &z, Trans::N);
        let mut zl = z.clone();
        for i in 0..n {
            for j in 0..n {
                zl.set(i, j, z.get(i, j) * lam[j]);
            }
        }
        assert!(tz.max_diff(&zl) < tol * (1.0 + t.norm_max()), "T·Z ≠ Z·Λ");
    }

    #[test]
    fn eigenvectors_of_laplacian() {
        let n = 15;
        check_tridiag_eigen(&vec![2.0; n], &vec![-1.0; n - 1], 1e-10);
    }

    #[test]
    fn eigenvectors_of_random_tridiagonals() {
        let mut rng = StdRng::seed_from_u64(53);
        use rand::Rng;
        for trial in 0..4 {
            let n = 6 + 5 * trial;
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_tridiag_eigen(&d, &e, 1e-9);
        }
    }

    #[test]
    fn eigenvectors_of_diagonal_are_permutation() {
        let (lam, z) = tridiag_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(lam, vec![1.0, 2.0, 3.0]);
        // Column j of Z is the standard basis vector of the source index.
        assert_eq!(z.get(1, 0), 1.0);
        assert_eq!(z.get(2, 1), 1.0);
        assert_eq!(z.get(0, 2), 1.0);
    }

    #[test]
    fn wilkinson_matrix_regression() {
        // W21+ Wilkinson matrix: d = |i − 10|, e = 1. Its two largest
        // eigenvalues are famously close; reference value from the
        // literature: λ_max ≈ 10.746194182903393.
        let n = 21;
        let d: Vec<f64> = (0..n).map(|i| (i as f64 - 10.0).abs()).collect();
        let e = vec![1.0; n - 1];
        let ev = tridiag_eigenvalues(&d, &e);
        assert!((ev[n - 1] - 10.746194182903393).abs() < 1e-9);
        assert!((ev[n - 1] - ev[n - 2]) < 1e-5); // near-degenerate pair
    }

    #[test]
    fn matrix_free_cross_check_against_characteristic_poly_roots() {
        // 3×3 tridiagonal with known characteristic polynomial roots.
        let ev = tridiag_eigenvalues(&[0.0, 0.0, 0.0], &[1.0, 1.0]);
        let s2 = 2.0f64.sqrt();
        assert!((ev[0] + s2).abs() < 1e-12);
        assert!(ev[1].abs() < 1e-12);
        assert!((ev[2] - s2).abs() < 1e-12);
    }

    #[test]
    fn dense_bandwidth_one_agrees_with_banded_path() {
        // Two routes that share no code past the band storage: reduce to
        // tridiagonal and solve, against Sturm counts on the band itself.
        let mut rng = StdRng::seed_from_u64(52);
        let a = gen::random_banded(&mut rng, 18, 3);
        let b3 = BandedSym::from_dense(&a, 3, 6);
        let ev_banded = banded_eigenvalues(&b3);
        let ev_sturm = crate::sturm::banded_bisection_eigenvalues(&b3, 1e-12);
        let dist = spectrum_distance(&ev_banded, &ev_sturm);
        assert!(dist < 1e-9 * a.norm_fro().max(1.0), "paths differ by {dist}");
    }
}
