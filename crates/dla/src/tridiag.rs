//! The sequential finale of Algorithm IV.3, and the tridiagonal
//! eigensolvers.
//!
//! After the band has been reduced to width `n/p` and gathered on one
//! processor, stage 4 is two steps, both here:
//!
//! * [`band_to_tridiagonal`] — band → tridiagonal, the one function the
//!   values path ([`try_banded_eigenvalues`]) and the solver's vectors
//!   path both call: at most one block-reflector pass down to a
//!   cache-sized band, then the fused rank-1 sweep of [`crate::bulge`],
//!   optionally recording every transform as a compact-WY block;
//! * the tridiagonal spectrum, by one QL driver in `dsterf`'s shape (one
//!   split rule, one per-block scaling, one iteration cap, one direction
//!   rule: a block whose bottom is the smaller end runs QL reversed,
//!   which is QR) with two kernels. For eigenvalues alone it runs the
//!   root-free kernel, a port of LAPACK `dsterf`
//!   ([`try_tridiag_eigenvalues`], and through it
//!   [`try_banded_eigenvalues`]), which is what LAPACK's `dstedc` runs for
//!   a values-only request too; it is also the ScaLAPACK baseline's
//!   solver. With eigenvectors the finale is divide-and-conquer
//!   ([`crate::dnc`]), whose leaves, like [`try_tridiag_eigen`], run the
//!   kernel with rotations into rows of `Zᵀ` (EISPACK `tql2`'s sweep).
//!
//! The paper cites MRRR for the second step; any correct `O(n²)`-ish
//! sequential tridiagonal solver exercises the same code path
//! (DESIGN.md §2), and the independent Sturm-sequence bisection solver
//! in [`crate::sturm`] cross-checks it.
//!
//! Why root-free QL for values: the step is lower-order `O(n²)` work
//! against the band reduction, and D&C's merges (a secular system per
//! merge, QL leaves) cost more than the rotations they avoid unless
//! the spectrum deflates heavily. Measured on the reference host (2 vCPU
//! Sapphire Rapids @ 2.1 GHz under KVM), one thread, minimum over three
//! rounds, ms; the tridiagonals are `symmetric_with_spectrum` reduced to
//! tridiagonal, the clustered one four clusters of spread 1e-10 in
//! `[−1, 1]`; the last column is the largest difference between the two
//! spectra. The `tql1` column is a solver since deleted (EISPACK's
//! implicit QL without vectors, chasing from the bottom only, which
//! stalled on graded input), kept as measured:
//!
//! | n | spectrum | root-free QL | D&C, values only | `tql1` | difference |
//! |---|---|---|---|---|---|
//! | 48 | linspace | 0.051 | 0.101 | 0.102 | 1.8e-15 |
//! | 48 | clustered | 0.030 | 0.088 | 0.068 | 1.3e-15 |
//! | 96 | linspace | 0.188 | 0.369 | 0.411 | 1.9e-15 |
//! | 96 | clustered | 0.114 | 0.341 | 0.239 | 8.9e-16 |
//! | 256 | linspace | 1.249 | 2.631 | 2.753 | 5.4e-15 |
//! | 256 | clustered | 0.712 | 2.357 | 1.564 | 1.9e-15 |
//! | 1024 | linspace | 18.2 | 32.7 | 38.7 | 1.2e-14 |
//! | 1024 | clustered | 10.4 | 33.3 | 24.0 | 5.0e-15 |
//!
//! D&C still wins where it deflates wholesale. At n = 1024 with the
//! diagonal cycling through 1, 2, 3, 4 and every `eᵢ = 1e-3`, D&C values
//! took 7.8 ms against 9.7 ms (`tql1` 22.6 ms). On a tridiagonal with
//! independent uniform entries in `[−1, 1]`, whose eigenvectors are
//! localized, it took 5.8 ms against 19.1 ms (at n = 256, 1.6 against
//! 1.4 ms). LAPACK accepts the same trade. The solver's values finale
//! reduces a dense matrix, whose tridiagonal is not of that kind: on the
//! tridiagonal of a random band of width 256 at n = 1024 root-free QL
//! took 18.6 ms against D&C's 32.3 ms.

use crate::band::BandedSym;
use crate::bulge::{self, BlockReflector};
use crate::gemm::Fma;
use crate::workspace::with_ws;

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
/// runs, the host's speed drifts by tens of per cent between rounds),
/// with a kernels bench since removed (groups `band_sweep`,
/// `band_pass`); the benchmark's `dla.band_finale_ms` times the whole
/// schedule.
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
///
/// Re-measured when the pass's GEMM gained the 6×32 AVX-512 tile (same
/// host, another day; one thread, minimum over two alternating rounds of
/// four × three runs, sweep on a slab re-housed to its own fill, ms; the
/// sweep runs no GEMM):
///
/// | (n, bw) | sweep directly | pass to 64, sweep (6×8 tile) | pass to 64, sweep (6×32 tile) |
/// |---|---|---|---|
/// | (768, 192) | 52.0 / 51.6 | 22.1 + 25.3 = 47.4 | **17.2 + 25.2 = 42.4** |
/// | (1024, 160) | 90.1 / 88.8 | 38.8 + 45.2 = 84.0 | **30.0 + 45.5 = 75.5** |
/// | (1024, 192) | 101.2 / 102.9 | 42.0 + 44.5 = 86.5 | **33.6 + 44.9 = 78.5** |
/// | (1024, 256) | 134.0 / 132.2 | 50.0 + 45.5 = 95.5 | **36.8 + 45.3 = 82.1** |
///
/// The pass runs 20–26 % faster and the sweep level; the pass now wins
/// at (768, 192) by 9 ms and at (1024, 160) by 13 ms, so the crossover
/// sits further below 192 than it did. The constants stay, for the
/// reason above: moving either changes output bits and waits for a
/// change that re-pins them.
const SWEEP_BAND: usize = 64;

/// A tridiagonal eigensolver failed to converge within its iteration
/// budget. Non-finite input (NaN/∞ reaching the solver) is the trigger;
/// on finite input the driver has not been seen to reach its cap — the
/// tests sweep graded (1 down to 1e-300, either end small), clustered,
/// glued and random tridiagonals up to n = 1024.
/// Returned by every solver of this module so distributed callers can
/// surface a typed error instead of poisoning the run with a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoConvergence {
    /// The kernel that gave up: `"tridiag_eigenvalues"` for the
    /// root-free QL ([`try_tridiag_eigenvalues`],
    /// [`try_banded_eigenvalues`]), `"tridiag_eigen"` for the QL with
    /// rotations ([`try_tridiag_eigen`] and the leaves of
    /// [`crate::dnc`]).
    pub solver: &'static str,
    /// The index of the first non-finite input entry, or, when the
    /// iteration cap ran out, the first row of the unreduced block being
    /// iterated whose off-diagonal was not yet zero.
    pub index: usize,
}

impl std::fmt::Display for NoConvergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: QL iteration did not converge within its iteration budget (eigenvalue index {})",
            self.solver, self.index
        )
    }
}

impl std::error::Error for NoConvergence {}

/// Eigenvalues of the symmetric tridiagonal matrix with diagonal `d` and
/// sub-diagonal `e` (`e.len() == d.len() − 1`), in ascending order: the
/// QL driver with the root-free kernel, a port of LAPACK `dsterf`, the
/// values-only solver LAPACK's `dstedc` picks over divide-and-conquer.
/// It works on `eᵢ²` and needs no square root per rotation, so it is the
/// values finale of [`try_banded_eigenvalues`] at every `n`.
pub fn try_tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>, NoConvergence> {
    let mut d = d.to_vec();
    ql(&mut d, e, None).map_err(|index| NoConvergence {
        solver: "tridiag_eigenvalues",
        index,
    })?;
    d.sort_by(|a, b| a.partial_cmp(b).expect("eigenvalues are finite"));
    Ok(d)
}

/// Eigenvalues *and eigenvectors* of the symmetric tridiagonal matrix
/// `(d, e)`: the QL driver with the rotation kernel (LAPACK `dsteqr`'s
/// shape, EISPACK `tql2`'s sweep). Returns `(λ ascending, Z)` with the
/// columns of `Z` the orthonormal eigenvectors (`T·Z = Z·diag(λ)`).
///
/// This powers the eigenvector extension (the paper's §IV.C future
/// work): the band-reduction stages' Householder transforms are
/// back-applied to `Z` to recover the dense matrix's eigenvectors. The
/// same driver and kernel are the leaf solver of [`crate::dnc`].
pub fn try_tridiag_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, crate::Matrix), NoConvergence> {
    let rows: Vec<usize> = (0..d.len()).collect();
    tridiag_eigen_rows(d, e, &rows)
}

/// [`try_tridiag_eigen`] keeping only the listed rows of `Z`: returns
/// `(λ ascending, Z[rows, ..])`, a `rows.len() × n` matrix. The rotations
/// act on the rows of `Yᵀ` (`n × rows.len()`, row `j` the wanted entries
/// of eigenvector `j`), each one on two contiguous rows; the sort swaps
/// rows and `Yᵀ` is transposed once at the end. Every entry goes through
/// the same expressions as in the full `Z`, so the kept rows are its
/// rows bit for bit.
pub(crate) fn tridiag_eigen_rows(
    d: &[f64],
    e: &[f64],
    rows: &[usize],
) -> Result<(Vec<f64>, crate::Matrix), NoConvergence> {
    let n = d.len();
    let w = rows.len();
    let mut yt = crate::Matrix::zeros(n, w);
    for (k, &r) in rows.iter().enumerate() {
        yt.set(r, k, 1.0);
    }
    let mut d = d.to_vec();
    ql(&mut d, e, Some((yt.data_mut(), w))).map_err(|index| NoConvergence {
        solver: "tridiag_eigen",
        index,
    })?;

    // Sort eigenpairs ascending (selection sort, swapping rows of Yᵀ).
    for i in 0..n {
        let mut k = i;
        for j in i + 1..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            swap_rows(yt.data_mut(), w, i, k);
        }
    }
    if w != n {
        return Ok((d, yt.transpose()));
    }
    // The whole of `Zᵀ`: transpose in place, holding one n × n buffer.
    for i in 0..n {
        for j in i + 1..n {
            let (a, b) = (yt.get(i, j), yt.get(j, i));
            yt.set(i, j, b);
            yt.set(j, i, a);
        }
    }
    Ok((d, yt))
}

/// LAPACK's unit roundoff `dlamch('E')`, 2⁻⁵³, and its square, the
/// deflation tolerance of both kernels.
const EPS: f64 = f64::EPSILON / 2.0;
const EPS2: f64 = EPS * EPS;

/// The tridiagonal QL driver, `dsterf`'s shape: overwrites `d` with the
/// eigenvalues of `(d, e)`, unsorted. Without `yt` each block runs the
/// root-free kernel ([`ql_root_free`]); with `yt = (Yᵀ, w)`, the rows of
/// an `n × w` row-major matrix, the rotation kernel ([`ql_rotations`]),
/// which applies every rotation to two contiguous rows of `Yᵀ`.
///
/// * A NaN or ∞ anywhere is an error at its index, checked first: NaN
///   would never deflate, and a 2 × 2 block would return it.
/// * The matrix splits into unreduced blocks where
///   `|eᵢ| ≤ ε·√|dᵢ|·√|dᵢ₊₁|`.
/// * A block whose largest entry lies outside `[ssfmin, ssfmax] =
///   [√safmin/ε², √safmax/3]` is scaled by the power of two that lands it
///   just inside, so that `eᵢ²` neither underflows nor overflows and
///   scaling and unscaling are exact (`dlascl` multiplies by
///   `ssfmax/‖·‖`); eigenvectors need no unscaling.
/// * A block whose last diagonal is smaller in magnitude than its first
///   is reversed (`d`, `e` and its rows of `Yᵀ`), run through QL and
///   reversed back: QL chases towards the top and deflates there, so the
///   small end must be the top. This is `dsterf`'s QR sweep, bit for bit.
/// * Sweeps over the whole matrix are capped at `30·n` (`NMAXIT`); past
///   it the error is the first row of the block whose off-diagonal is
///   not yet zero.
fn ql(d: &mut [f64], e: &[f64], mut yt: Option<(&mut [f64], usize)>) -> Result<(), usize> {
    let n = d.len();
    assert!(n > 0);
    assert_eq!(e.len(), n - 1, "sub-diagonal must have n−1 entries");
    if let Some(i) = d.iter().chain(e).position(|x| !x.is_finite()) {
        return Err(if i < n { i } else { i - n });
    }
    let mut e = e.to_vec();
    let ssfmax = (1.0 / f64::MIN_POSITIVE).sqrt() / 3.0;
    let ssfmin = f64::MIN_POSITIVE.sqrt() / EPS2;
    let mut budget = 30 * n;

    let mut l0 = 0;
    while l0 < n {
        // The next unreduced block is `l0..=m`.
        let mut m = l0;
        while m + 1 < n && e[m].abs() > (d[m].abs().sqrt() * d[m + 1].abs().sqrt()) * EPS {
            m += 1;
        }
        let (db, eb) = (&mut d[l0..=m], &mut e[l0..m]);
        let rows = l0..m + 1;
        l0 = m + 1;
        let anorm = db.iter().chain(&*eb).fold(0.0f64, |a, x| a.max(x.abs()));
        if db.len() == 1 || anorm == 0.0 {
            continue;
        }
        let scale = if anorm > ssfmax {
            Some(binary_exponent(ssfmax) - binary_exponent(anorm) - 1)
        } else if anorm < ssfmin {
            Some(binary_exponent(ssfmin) - binary_exponent(anorm) + 1)
        } else {
            None
        };
        if let Some(k) = scale {
            scale_pow2(db, k);
            scale_pow2(eb, k);
        }
        let mut yb = yt
            .as_mut()
            .map(|(yt, w)| (&mut yt[rows.start * *w..rows.end * *w], *w));
        let flip = db[db.len() - 1].abs() < db[0].abs();
        if flip {
            mirror(db, eb, &mut yb);
        }
        let converged = match yb.as_mut() {
            None => {
                for x in eb.iter_mut() {
                    *x *= *x;
                }
                ql_root_free(db, eb, &mut budget)
            }
            Some((yb, w)) => ql_rotations(db, eb, yb, *w, &mut budget),
        };
        if flip {
            mirror(db, eb, &mut yb);
        }
        if let Some(k) = scale {
            scale_pow2(db, -k);
        }
        if !converged {
            return Err(rows.start + eb.iter().position(|&x| x != 0.0).unwrap_or(0));
        }
    }
    Ok(())
}

/// Reverse a block: its diagonal, its off-diagonals and its rows of
/// `Yᵀ`, the permutation `P·T·P` with `P` the block's exchange matrix.
fn mirror(d: &mut [f64], e: &mut [f64], yt: &mut Option<(&mut [f64], usize)>) {
    d.reverse();
    e.reverse();
    if let Some((yt, w)) = yt {
        for i in 0..d.len() / 2 {
            swap_rows(yt, *w, i, d.len() - 1 - i);
        }
    }
}

/// Swap rows `i < k` of the row-major, `w`-wide `rows`.
fn swap_rows(rows: &mut [f64], w: usize, i: usize, k: usize) {
    let (lo, hi) = rows.split_at_mut(k * w);
    lo[i * w..(i + 1) * w].swap_with_slice(&mut hi[..w]);
}

/// The deflation test of both kernels: `eᵢ² ≤ ε²·|dᵢ·dᵢ₊₁|`, given `eᵢ²`.
fn negligible(e2: f64, di: f64, dj: f64) -> bool {
    e2.abs() <= EPS2 * (di * dj).abs()
}

/// `dsterf`'s QL sweep over one unreduced block `(d, e²)` of the driver,
/// finishing a 2 × 2 by `dlae2`: `false` when the driver's budget runs
/// out first.
fn ql_root_free(d: &mut [f64], e: &mut [f64], budget: &mut usize) -> bool {
    let lend = d.len() - 1;
    let mut l = 0;
    loop {
        // Look for a small sub-diagonal element.
        let mut m = l;
        while m < lend && !negligible(e[m], d[m], d[m + 1]) {
            m += 1;
        }
        if m < lend {
            e[m] = 0.0;
        }
        if m == l {
            // Eigenvalue found.
            l += 1;
            if l > lend {
                return true;
            }
            continue;
        }
        if m == l + 1 {
            let (rt1, rt2) = dlae2(d[l], e[l].sqrt(), d[l + 1]);
            d[l] = rt1;
            d[l + 1] = rt2;
            e[l] = 0.0;
            l += 2;
            if l > lend {
                return true;
            }
            continue;
        }
        if *budget == 0 {
            return false;
        }
        *budget -= 1;

        // Form the shift.
        let p = d[l];
        let rte = e[l].sqrt();
        let sigma = (d[l + 1] - p) / (2.0 * rte);
        let r = sigma.hypot(1.0);
        let sigma = p - rte / (sigma + r.copysign(sigma));
        let (mut c, mut s) = (1.0f64, 0.0f64);
        let mut gamma = d[m] - sigma;
        let mut p = gamma * gamma;
        for i in (l..m).rev() {
            let bb = e[i];
            let r = p + bb;
            if i != m - 1 {
                e[i + 1] = s * r;
            }
            let oldc = c;
            c = p / r;
            s = bb / r;
            let oldgam = gamma;
            let alpha = d[i];
            gamma = c * (alpha - sigma) - s * oldgam;
            d[i + 1] = oldgam + (alpha - gamma);
            p = if c != 0.0 {
                (gamma * gamma) / c
            } else {
                oldc * bb
            };
        }
        e[l] = s * p;
        d[l] = sigma + gamma;
    }
}

/// The implicit-shift QL sweep with Wilkinson's shift over one unreduced
/// block `(d, e)` of the driver (EISPACK `tql2`'s), accumulating every
/// rotation into two contiguous rows of `yt` (`w` wide): `false` when
/// the driver's budget runs out first. The iteration reads nothing back
/// from `yt`.
fn ql_rotations(
    d: &mut [f64],
    e: &mut [f64],
    yt: &mut [f64],
    w: usize,
    budget: &mut usize,
) -> bool {
    let lend = d.len() - 1;
    let mut l = 0;
    'sweep: loop {
        let mut m = l;
        while m < lend && !negligible(e[m] * e[m], d[m], d[m + 1]) {
            m += 1;
        }
        if m < lend {
            e[m] = 0.0;
        }
        if m == l {
            l += 1;
            if l > lend {
                return true;
            }
            continue;
        }
        if *budget == 0 {
            return false;
        }
        *budget -= 1;

        let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        let mut r = g.hypot(1.0);
        g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
        let (mut s, mut c, mut p) = (1.0f64, 1.0f64, 0.0f64);
        for i in (l..m).rev() {
            let f = s * e[i];
            let b = c * e[i];
            r = f.hypot(g);
            if i + 1 < m {
                e[i + 1] = r;
            }
            if r == 0.0 {
                // Recover from underflow: `e[i + 1]` is now zero, so the
                // block splits there; skip the rest of the sweep.
                d[i + 1] -= p;
                continue 'sweep;
            }
            s = f / r;
            c = g / r;
            g = d[i + 1] - p;
            r = (d[i] - g) * s + 2.0 * c * b;
            p = s * r;
            d[i + 1] = g + p;
            g = c * r - b;
            // Columns i, i+1 of Z: rows i, i+1 of Yᵀ.
            let (lo, hi) = yt.split_at_mut((i + 1) * w);
            for (zi, zf) in lo[i * w..].iter_mut().zip(&mut hi[..w]) {
                let (a, b) = (*zi, *zf);
                *zf = s * a + c * b;
                *zi = c * a - s * b;
            }
        }
        d[l] -= p;
        e[l] = g;
    }
}

/// LAPACK `dlae2`: the eigenvalues `(rt1, rt2)` of `[[a, b], [b, c]]`,
/// `|rt1| ≥ |rt2|`, the smaller one formed from the determinant so it
/// keeps its relative accuracy.
fn dlae2(a: f64, b: f64, c: f64) -> (f64, f64) {
    let sm = a + c;
    let adf = (a - c).abs();
    let ab = (b + b).abs();
    let (acmx, acmn) = if a.abs() > c.abs() { (a, c) } else { (c, a) };
    let rt = if adf > ab {
        adf * (1.0 + (ab / adf).powi(2)).sqrt()
    } else if adf < ab {
        ab * (1.0 + (adf / ab).powi(2)).sqrt()
    } else {
        ab * std::f64::consts::SQRT_2
    };
    if sm == 0.0 {
        return (0.5 * rt, -0.5 * rt);
    }
    let rt1 = if sm < 0.0 {
        0.5 * (sm - rt)
    } else {
        0.5 * (sm + rt)
    };
    (rt1, (acmx / rt1) * acmn - (b / rt1) * b)
}

/// LAPACK `dsyev`'s safe range for a symmetric matrix's largest entry
/// `amax`: inside `[√(MIN_POSITIVE/ε), its reciprocal]` (≈ `[1e-146,
/// 1e146]`) the reductions and divide-and-conquer neither underflow nor
/// overflow; outside it they return silently wrong eigenvalues (the QL
/// driver scales each of its blocks itself). For a finite nonzero `amax` outside
/// the range this is the `k` with `2^k·amax ∈ [½, 1)`: solve `2^k·A`
/// instead and scale its eigenvalues back with [`scale_pow2`]`(·, −k)` —
/// both scalings are exact, and eigenvectors need no unscaling. `None`:
/// solve `A` as it is.
pub fn safe_range_exponent(amax: f64) -> Option<i32> {
    let rmin = (f64::MIN_POSITIVE / f64::EPSILON).sqrt();
    if amax == 0.0 || !amax.is_finite() || (rmin..=1.0 / rmin).contains(&amax) {
        return None;
    }
    Some(-binary_exponent(amax))
}

/// Multiply every entry by `2^k`, in two power-of-two steps: `|k|` can
/// reach 1074, past the largest finite power of two.
pub fn scale_pow2(xs: &mut [f64], k: i32) {
    let (lo, hi) = (2f64.powi(k / 2), 2f64.powi(k - k / 2));
    for x in xs {
        *x = *x * lo * hi;
    }
}

/// The exponent `e` of a finite `x > 0` written as `m·2^e`, `m ∈ [½, 1)`.
fn binary_exponent(x: f64) -> i32 {
    match ((x.to_bits() >> 52) & 0x7ff) as i32 {
        0 => binary_exponent(x * 2f64.powi(64)) - 64, // subnormal
        biased => biased - 1022,
    }
}

/// Eigenvalues of a symmetric banded matrix, computed sequentially,
/// with non-convergence reported as [`NoConvergence`]:
/// [`band_to_tridiagonal`], then the root-free QL of `dsterf` (the
/// `finale.tridiag` kernel span).
///
/// A band whose largest entry lies outside LAPACK `dsyev`'s safe range
/// ([`safe_range_exponent`]) is solved as the exactly scaled `2^k·B`,
/// its eigenvalues scaled back by `2^−k`; an in-range band is solved as
/// it is.
pub fn try_banded_eigenvalues(b: &BandedSym) -> Result<Vec<f64>, NoConvergence> {
    let amax = b.bands().iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let Some(k) = safe_range_exponent(amax) else {
        return banded_eigenvalues_in_range(b);
    };
    let mut scaled = b.clone();
    let (bands, scale) = scaled.bands_mut_scale();
    scale_pow2(bands, k);
    scale_pow2(std::slice::from_mut(scale), k);
    let mut ev = banded_eigenvalues_in_range(&scaled)?;
    scale_pow2(&mut ev, -k);
    Ok(ev)
}

fn banded_eigenvalues_in_range(b: &BandedSym) -> Result<Vec<f64>, NoConvergence> {
    let (d, e) = band_to_tridiagonal(b, None);
    let _span = ca_obs::kernel_span("finale.tridiag");
    try_tridiag_eigenvalues(&d, &e)
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
            // The leg spans the pass's whole life: the copy into it and
            // the slab's release are the leg's work too.
            let _span = leg_span(format_args!("finale.halve ({bw}→{SWEEP_BAND})"));
            let mut wide = band.rehoused(bw, fill(bw), |len| vec![0.0; len]);
            let plan = bulge::chase_plan_iter(n, bw, SWEEP_BAND);
            bulge::reduce_band_pass(&mut wide, plan, |_, _| None, record.as_deref_mut(), ws);
            let narrow = wide.rehoused(SWEEP_BAND, fill(SWEEP_BAND), |len| ws.take(len));
            drop(wide);
            narrow
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

    /// A band scaled far outside LAPACK `dsyev`'s safe range comes back
    /// as `s` times the unit-scale eigenvalues, not as underflowed values
    /// or a convergence failure on finite input.
    #[test]
    fn banded_eigenvalues_of_badly_scaled_bands() {
        let (n, b) = (64, 8);
        let mut rng = StdRng::seed_from_u64(91);
        let dense = gen::random_banded(&mut rng, n, b);
        let unit = try_banded_eigenvalues(&BandedSym::from_dense(&dense, b, b)).unwrap();
        let lmax = unit.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol = 100.0 * n as f64 * f64::EPSILON * lmax;
        for s in [1e-200, 1e-150, 1e150, 1e160] {
            let mut scaled = dense.clone();
            scaled.scale(s);
            let band = BandedSym::from_dense(&scaled, b, b);
            let ev = try_banded_eigenvalues(&band).unwrap_or_else(|e| panic!("s = {s:e}: {e}"));
            for (i, (x, u)) in ev.iter().zip(&unit).enumerate() {
                assert!(
                    (x / s - u).abs() <= tol,
                    "s = {s:e}: λ_{i} / s = {:e}, unit scale {u:e}",
                    x / s
                );
            }
        }
    }

    #[test]
    fn two_by_two_analytic() {
        // [[a, b], [b, c]] has eigenvalues (a+c)/2 ± √(((a−c)/2)² + b²).
        let (a, b, c) = (2.0, 1.5, -1.0);
        let mid = (a + c) / 2.0;
        let rad = (((a - c) / 2.0f64).powi(2) + b * b).sqrt();
        let ev = try_tridiag_eigenvalues(&[a, c], &[b]).unwrap();
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
        let ev = try_tridiag_eigenvalues(&d, &e).unwrap();
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
        let ev = try_tridiag_eigenvalues(&d, &e).unwrap();
        assert_eq!(ev, vec![-1.0, 0.5, 2.0, 3.0]);
    }

    #[test]
    fn single_element() {
        assert_eq!(try_tridiag_eigenvalues(&[42.0], &[]).unwrap(), vec![42.0]);
    }

    #[test]
    fn trace_and_square_sum_preserved() {
        let mut rng = StdRng::seed_from_u64(50);
        let a = gen::random_banded(&mut rng, 40, 1);
        let b = BandedSym::from_dense(&a, 1, 1);
        let (d, e) = b.tridiagonal();
        let ev = try_tridiag_eigenvalues(&d, &e).unwrap();
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
        // try_banded_eigenvalues vs QL on an independently generated dense
        // reduction path (moments already tested in bulge.rs).
        let mut rng = StdRng::seed_from_u64(51);
        let dense = gen::random_banded(&mut rng, 24, 5);
        let b = BandedSym::from_dense(&dense, 5, 10);
        let ev = try_banded_eigenvalues(&b).unwrap();
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
        let ev = try_banded_eigenvalues(&b).unwrap();
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
        let ev = try_tridiag_eigenvalues(&d, &e).unwrap();
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
        // The driver checks first: a NaN or ∞ anywhere is the typed error
        // at its index, also where a 2 × 2 block would return it — not a
        // panic, a NaN result or a budget run out.
        let d = vec![1.0, f64::NAN, 2.0, 0.5];
        let e = vec![0.3, 0.2, 0.1];
        let err = try_tridiag_eigenvalues(&d, &e).unwrap_err();
        assert_eq!(
            err,
            NoConvergence {
                solver: "tridiag_eigenvalues",
                index: 1
            }
        );
        assert!(err.to_string().contains("did not converge"));
        assert_eq!(
            try_tridiag_eigen(&d, &e).unwrap_err(),
            NoConvergence {
                solver: "tridiag_eigen",
                index: 1
            }
        );
        assert_eq!(
            try_tridiag_eigenvalues(&[1.0, 2.0], &[f64::INFINITY]),
            Err(NoConvergence {
                solver: "tridiag_eigenvalues",
                index: 0
            })
        );
        assert_eq!(
            try_tridiag_eigenvalues(&[f64::NAN], &[]).unwrap_err().index,
            0
        );
        let mut band = BandedSym::zeros(4, 1, 1);
        for (i, (&x, &y)) in d.iter().zip(e.iter().chain([&0.0])).enumerate() {
            band.set(i, i, x);
            if i + 1 < 4 {
                band.set(i + 1, i, y);
            }
        }
        let err = try_banded_eigenvalues(&band).unwrap_err();
        assert_eq!(err.solver, "tridiag_eigenvalues");
    }

    /// The test matrices of the QL driver's sweeps, each at order `n`:
    /// `(name, d, e)`.
    fn gallery(n: usize, rng: &mut StdRng) -> Vec<(&'static str, Vec<f64>, Vec<f64>)> {
        use rand::Rng;
        // `gen::wilkinson(n)` and `gen::clement(n)`'s entries.
        let mid = (n as f64 - 1.0) / 2.0;
        let wd: Vec<f64> = (0..n).map(|i| (i as f64 - mid).abs()).collect();
        let ce: Vec<f64> = (0..n - 1)
            .map(|i| (((i + 1) * (n - 1 - i)) as f64).sqrt())
            .collect();
        // W₂₁⁺ blocks glued by 1e-10, cut to order n.
        let glued_d: Vec<f64> = (0..n).map(|i| ((i % 21) as f64 - 10.0).abs()).collect();
        let glued_e: Vec<f64> = (1..n)
            .map(|i| if i % 21 == 0 { 1e-10 } else { 1.0 })
            .collect();
        // Graded: entries decay geometrically from 1 to 1e-300.
        let grade = |t: f64| 10f64.powf(-300.0 * t / n.max(2) as f64);
        let graded_d: Vec<f64> = (0..n).map(|i| grade(i as f64)).collect();
        let graded_e: Vec<f64> = (1..n).map(|i| 0.5 * grade(i as f64 - 0.5)).collect();
        // Four tight clusters, weakly coupled.
        let clustered_d: Vec<f64> = (0..n).map(|i| (i % 4) as f64 + 1e-10 * i as f64).collect();
        let clustered_e = vec![1e-9; n - 1];
        let random_d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let random_e: Vec<f64> = (1..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        vec![
            ("Wilkinson", wd, vec![1.0; n - 1]),
            ("glued Wilkinson", glued_d, glued_e),
            ("Clement", vec![0.0; n], ce),
            ("1-D Laplacian", vec![2.0; n], vec![-1.0; n - 1]),
            ("graded", graded_d, graded_e),
            ("clustered", clustered_d, clustered_e),
            ("random", random_d, random_e),
        ]
    }

    /// `‖T‖`, the largest absolute row sum of the tridiagonal `(d, e)`.
    fn row_sum_norm(d: &[f64], e: &[f64]) -> f64 {
        (0..d.len()).fold(0.0f64, |m, i| {
            let left = if i > 0 { e[i - 1].abs() } else { 0.0 };
            let right = if i + 1 < d.len() { e[i].abs() } else { 0.0 };
            m.max(d[i].abs() + left + right)
        })
    }

    /// Both kernels against Sturm bisection, within `8·n·ε·‖T‖`, on the
    /// gallery at orders from 1 to 1024, Wilkinson's `W₂₁⁺` and the
    /// graded matrix (small end at the bottom, so every block runs
    /// mirrored) among them; the rotation kernel up to n = 128.
    #[test]
    fn sterf_matches_bisection() {
        let mut rng = StdRng::seed_from_u64(57);
        for n in [1usize, 2, 3, 7, 21, 40, 41, 97, 128, 1024] {
            for (name, d, e) in gallery(n, &mut rng) {
                let norm = row_sum_norm(&d, &e);
                let tol = 8.0 * n as f64 * f64::EPSILON * norm;
                let bis = crate::sturm::bisection_eigenvalues(&d, &e, f64::EPSILON * norm);
                let ev = try_tridiag_eigenvalues(&d, &e)
                    .unwrap_or_else(|err| panic!("{name}, n = {n}: {err}"));
                assert!(
                    ev.windows(2).all(|w| w[0] <= w[1]),
                    "{name}, n = {n}: unsorted"
                );
                let dist = spectrum_distance(&ev, &bis);
                assert!(
                    dist <= tol,
                    "{name}, n = {n}: {dist:e} from bisection (tol {tol:e})"
                );
                if n <= 128 {
                    let (ev, _) = try_tridiag_eigen(&d, &e)
                        .unwrap_or_else(|err| panic!("{name}, n = {n}, vectors: {err}"));
                    let dist = spectrum_distance(&ev, &bis);
                    assert!(
                        dist <= tol,
                        "{name}, n = {n}, vectors: {dist:e} from bisection (tol {tol:e})"
                    );
                }
            }
        }
    }

    /// The driver runs QR as QL on the reversed block, so the eigenvalues
    /// of `(d, e)` and of its reversal are the same bits wherever the
    /// block's ends differ in magnitude (with equal ends both run QL, in
    /// opposite directions): on the gallery and on random tridiagonals.
    #[test]
    fn mirrored_input_returns_the_same_bits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(58);
        let mut cases = Vec::new();
        for n in [2usize, 3, 7, 21, 40, 41, 97, 128, 1024] {
            cases.extend(gallery(n, &mut rng));
        }
        for _ in 0..200 {
            let n = rng.gen_range(2..100);
            let scale = 10f64.powi(rng.gen_range(-3..4));
            let d = (0..n).map(|_| scale * rng.gen_range(-2.0..2.0)).collect();
            let e = (1..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            cases.push(("random", d, e));
        }
        let mut checked = 0;
        for (name, d, e) in cases {
            let n = d.len();
            if d[0].abs() == d[n - 1].abs() {
                continue;
            }
            let rev = |x: &[f64]| x.iter().rev().copied().collect::<Vec<_>>();
            let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let fwd = try_tridiag_eigenvalues(&d, &e).unwrap();
            let bwd = try_tridiag_eigenvalues(&rev(&d), &rev(&e)).unwrap();
            assert_eq!(bits(fwd), bits(bwd), "{name}, n = {n}");
            checked += 1;
        }
        assert!(checked > 200, "only {checked} cases had unequal ends");
    }

    #[test]
    fn sterf_analytic_spectra() {
        // 2 × 2 blocks go through dlae2, the smaller root from the
        // determinant: [[1, 1e-9], [1e-9, 1e-20]] has λ₋ ≈ 1e-20 − 1e-18.
        let ev = try_tridiag_eigenvalues(&[1.0, 1e-20], &[1e-9]).unwrap();
        let small = 1e-20 - 1e-18 / (1.0 - 1e-20);
        assert!(
            ((ev[0] - small) / small).abs() < 4.0 * f64::EPSILON,
            "{ev:?}"
        );
        // Clement's spectrum is {−(n−1), −(n−3), …, n−1}.
        let n = 50;
        let (d, e) = BandedSym::from_dense(&gen::clement(n), 1, 1).tridiagonal();
        for (k, lam) in try_tridiag_eigenvalues(&d, &e).unwrap().iter().enumerate() {
            let want = 2.0 * k as f64 - (n as f64 - 1.0);
            assert!(
                (lam - want).abs() < 1e-12 * n as f64,
                "λ_{k} = {lam}, want {want}"
            );
        }
        // A split matrix and a zero block: each block on its own.
        let ev = try_tridiag_eigenvalues(&[3.0, 0.0, 0.0, -1.0], &[0.0, 0.0, 0.0]).unwrap();
        assert_eq!(ev, vec![-1.0, 0.0, 0.0, 3.0]);
        assert_eq!(try_tridiag_eigen(&[42.0], &[]).unwrap().0, vec![42.0]);
    }

    #[test]
    fn banded_engines_agree_on_spectrum() {
        // Same matrix through the finale's schedule and through the
        // generic chase (built here from its public pieces), whose
        // tridiagonal Sturm bisection solves.
        let mut rng = StdRng::seed_from_u64(54);
        let dense = gen::random_banded(&mut rng, 60, 7);
        let b = BandedSym::from_dense(&dense, 7, 14);
        let tuned = try_banded_eigenvalues(&b).unwrap();
        let mut w = b.clone();
        bulge::reduce_band_to(&mut w, 1);
        let (d, e) = w.tridiagonal();
        let legacy = crate::sturm::bisection_eigenvalues(&d, &e, f64::EPSILON);
        let dist = spectrum_distance(&tuned, &legacy);
        assert!(
            dist < 1e-9 * dense.norm_fro().max(1.0),
            "engines differ by {dist}"
        );
    }

    fn check_tridiag_eigen(d: &[f64], e: &[f64], tol: f64) {
        use crate::gemm::{matmul, Trans};
        let n = d.len();
        let (lam, z) = try_tridiag_eigen(d, e).unwrap();
        // Matches Sturm bisection.
        let bis = crate::sturm::bisection_eigenvalues(d, e, f64::EPSILON);
        assert!(spectrum_distance(&lam, &bis) < tol);
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
        let (lam, z) = try_tridiag_eigen(&[3.0, 1.0, 2.0], &[0.0, 0.0]).unwrap();
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
        let ev = try_tridiag_eigenvalues(&d, &e).unwrap();
        assert!((ev[n - 1] - 10.746194182903393).abs() < 1e-9);
        assert!((ev[n - 1] - ev[n - 2]) < 1e-5); // near-degenerate pair
    }

    #[test]
    fn matrix_free_cross_check_against_characteristic_poly_roots() {
        // 3×3 tridiagonal with known characteristic polynomial roots.
        let ev = try_tridiag_eigenvalues(&[0.0, 0.0, 0.0], &[1.0, 1.0]).unwrap();
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
        let ev_banded = try_banded_eigenvalues(&b3).unwrap();
        let ev_sturm = crate::sturm::banded_bisection_eigenvalues(&b3, 1e-12);
        let dist = spectrum_distance(&ev_banded, &ev_sturm);
        assert!(
            dist < 1e-9 * a.norm_fro().max(1.0),
            "paths differ by {dist}"
        );
    }
}
