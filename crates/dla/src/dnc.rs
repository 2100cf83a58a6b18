//! Cuppen-style divide-and-conquer symmetric tridiagonal eigensolver.
//!
//! The final sequential stage of Algorithm IV.3 hands one processor a
//! tridiagonal matrix. The QL driver in [`crate::tridiag`] solves it
//! with `O(n²)` dependent scalar rotations — correct, but with
//! eigenvectors the one kernel in the pipeline that can never reach
//! matrix–matrix flop rates. This module implements the standard
//! production answer (LAPACK `dstedc` / ELPA lineage): tear the matrix
//! in half with a rank-one update, solve the halves independently (in
//! parallel — the subproblems share nothing), and stitch the spectra
//! back together through the **secular equation**, expressing the
//! eigenvector merge as GEMM products so the dominant cost runs at
//! blocked-kernel rates.
//!
//! Pipeline per merge, following Gu & Eisenstat's stable formulation:
//!
//! 1. **Tear**: `T = diag(T₁ − ρ·e_k e_kᵀ, T₂ − ρ·e₁e₁ᵀ) + ρ·v vᵀ` with
//!    `ρ = |β|` (β the cut off-diagonal) and `v = (e_k; sign(β)·e₁)`,
//!    so the rank-one weight is always non-negative.
//! 2. **Deflation** (`dlaed2` shape): with `z` normalised and
//!    `ρ ← ρ‖z‖²`, any `ρ|z_i| ≤ 8ε·max(max|d|, ρ)` deflates outright
//!    (its eigenpair passes through); close pole pairs are rotated so
//!    one of the pair deflates, the Givens rotation applied to the
//!    carried eigenvector columns. Clustered spectra collapse to a few
//!    secular roots — deflation is the algorithm's fast path, tested by
//!    the heavy-deflation generators in [`crate::gen`].
//! 3. **Secular roots**: for each undeflated interval
//!    `(d_j, d_{j+1})`, solve `1 + ρΣᵢ z_i²/(d_i − λ) = 0` with Li's
//!    "middle way" rational iteration (the `dlaed4` scheme): split the
//!    sum at the interval, model each side with a single pole matching
//!    value *and* derivative, and take the root of the resulting
//!    two-pole surrogate — quadratically convergent even when
//!    neighbouring poles crowd the interval. The origin is shifted to
//!    the nearer pole so `μ` carries full relative accuracy, and a
//!    maintained sign bracket with bisection fallback makes
//!    convergence unconditional.
//! 4. **Gu/Eisenstat ẑ**: recompute `ẑᵢ² = Πⱼ(λⱼ−dᵢ)/Πⱼ≠ᵢ(dⱼ−dᵢ)` from
//!    the computed roots, which restores numerical orthogonality of the
//!    secular eigenvectors without extended precision.
//! 5. **GEMM merge on row halves**: the undeflated eigenvectors of the
//!    merged system are `Q·Û` with `Q = [Q₁ 0; 0 Q₂]`, products through
//!    the blocked [`crate::gemm`] kernels; deflated columns pass through
//!    untouched. `Q` is never formed: rows `0..k` (from `Q₁`) and rows
//!    `k..n` (from `Q₂`) are multiplied apart, each only by the rows of
//!    `Û` whose kept columns can be non-zero in it — a column a deflating
//!    rotation mixed across the tear counts in both — so a merge with
//!    nothing across the tear does half the dense product's flops. The
//!    halves run as the two sides of one `rayon::join`. **Chunk rule:**
//!    GEMM sums each cell in `KC` = 256-wide chunks of the inner (kept)
//!    index, so a half runs one product per chunk over that chunk's
//!    columns it holds, in ascending kept order, `β = 0` first and
//!    `β = 1` after; the dropped columns are exact zeros inside a chunk,
//!    so every bit is the dense product's (`oracle::dnc_eigen_reference`).
//!    **Memory:** beside `Û` and the output, a merge holds `O(n·KC)`
//!    scratch — no `n × n` carrier, gathered copy or product buffer.
//!
//! **Determinism**: subproblems are independent, every merge is a
//! deterministic function of its inputs, and secular roots are solved
//! independently per interval, so forked and inline orders (a core
//! budget of 1, `RAYON_NUM_THREADS=1`) produce **bit-identical** results.
//!
//! The eigenvalue-only variant ([`dnc_eigenvalues`]) carries just the
//! first and last rows of each subproblem's eigenvector matrix — all a
//! parent merge ever reads, and all its QL leaves rotate — turning the
//! `O(n³)` vector algebra into `O(n²)` while following the identical
//! deflation/secular path. The values finale does not run it: for
//! eigenvalues alone `dsterf`'s root-free QL (`crate::tridiag`) is faster
//! unless the spectrum deflates wholesale.

use crate::gemm::{gemm_view, Trans, KC, PAR_FLOPS};
use crate::matrix::Matrix;
use crate::tridiag::{safe_range_exponent, scale_pow2, tridiag_eigen_rows, NoConvergence};
use crate::view::{MatrixView, MatrixViewMut};
use rayon::prelude::*;
use std::ops::Range;

// Secular-equation work counters (live only when `CA_TRACE ≥ 1`).
static SECULAR_ROOTS: ca_obs::Counter = ca_obs::Counter::new("dnc.secular_roots");
static SECULAR_ITERS: ca_obs::Counter = ca_obs::Counter::new("dnc.secular_iters");

const EPS: f64 = f64::EPSILON;
/// Secular systems at least this large solve their roots over rayon
/// workers (same threshold flavour as `sturm::PAR_EIGS`).
const PAR_ROOTS: usize = 64;
/// Subproblem size at or below which the recursion's leaf is the QL
/// driver of [`crate::tridiag`] with its rotation kernel (the driver of
/// [`crate::tridiag::try_tridiag_eigen`], keeping the rows of `Z` the
/// recursion carries), whose `O(n²)` rotations beat the merge
/// machinery's constant factors there.
const LEAF: usize = 40;

/// Eigenvalues and orthonormal eigenvectors of the symmetric
/// tridiagonal matrix `(d, e)` by divide-and-conquer: returns
/// `(λ ascending, Z)` with `T·Z = Z·diag(λ)`, like
/// [`crate::tridiag::try_tridiag_eigen`]. Subproblems of size
/// ≤ 40 are solved by that QL driver, whose convergence failure (on
/// non-finite input; not seen on finite input) is the only error path.
///
/// A matrix whose largest entry lies outside LAPACK `dsyev`'s safe range
/// ([`crate::tridiag::safe_range_exponent`]) is solved as the exactly
/// scaled `2^k·T` — the deflation test and the secular equation square
/// its entries — and its eigenvalues scaled back; an in-range one is
/// solved as it is.
pub fn dnc_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    in_safe_range(d, e, |d, e| solve(d, e, LEAF, merge, Rows::All))
}

/// Eigenvalues only, in ascending order. Same recursion, merge
/// arithmetic and scaling guard as [`dnc_eigen`] but carrying a `2 × n`
/// row pair (first and last eigenvector rows) instead of the full `Z`.
/// No solve calls it — the values finale is `dsterf`'s root-free QL
/// (`crate::tridiag`), which beats it unless the spectrum deflates
/// heavily — but it is D&C's values-only form, timed on its own.
pub fn dnc_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>, NoConvergence> {
    let (lam, _) = in_safe_range(d, e, |d, e| solve(d, e, LEAF, merge, Rows::Ends))?;
    Ok(lam)
}

/// Run the recursion `solve` on `(d, e)` — or, when `max(|d|, |e|)`
/// lies outside the safe range ([`safe_range_exponent`]), on
/// `2^k·(d, e)`, its eigenvalues scaled back by `2^−k`. Both scalings are
/// exact and eigenvectors need none, so an in-range input keeps every
/// bit. The deflation test and the secular equation square the entries:
/// without it the recursion loses digits below ≈ 1e-150. (Its QL leaves
/// scale each of their blocks themselves.)
fn in_safe_range<Z>(
    d: &[f64],
    e: &[f64],
    solve: impl FnOnce(&[f64], &[f64]) -> Result<(Vec<f64>, Z), NoConvergence>,
) -> Result<(Vec<f64>, Z), NoConvergence> {
    assert!(!d.is_empty());
    assert_eq!(e.len(), d.len() - 1, "sub-diagonal must have n−1 entries");
    let amax = d.iter().chain(e).fold(0.0f64, |m, x| m.max(x.abs()));
    let Some(k) = safe_range_exponent(amax) else {
        return solve(d, e);
    };
    let (mut ds, mut es) = (d.to_vec(), e.to_vec());
    scale_pow2(&mut ds, k);
    scale_pow2(&mut es, k);
    let (mut lam, z) = solve(&ds, &es)?;
    scale_pow2(&mut lam, -k);
    Ok((lam, z))
}

/// How a merge turns the halves' carried rows into the merged system's:
/// `merge(plan, q₁, q₂)` with `q₁` the left half's rows over pre-merge
/// columns `0..k` and `q₂` the right half's over `k..n` returns the
/// merged eigenvalues and their `(r₁ + r₂) × n` rows of the merged
/// eigenvector matrix. The solver passes [`merge`]; the tests pass the
/// dense oracle.
pub(crate) type Merge = fn(MergePlan, Matrix, Matrix) -> (Vec<f64>, Matrix);

/// Which rows of a subproblem's eigenvector matrix `Z` the recursion
/// carries.
#[derive(Clone, Copy)]
pub(crate) enum Rows {
    /// All of `Z`.
    All,
    /// Its first and last row, as a `2 × n` matrix: all a parent merge
    /// reads of a subproblem that carries no more.
    Ends,
}

/// The recursion: returns `(λ ascending, R)` with `R` the `rows` of `Z`.
/// Both forms run the same tear, leaves and merge arithmetic, so they
/// return the same eigenvalues bit for bit.
pub(crate) fn solve(
    d: &[f64],
    e: &[f64],
    leaf: usize,
    merge: Merge,
    rows: Rows,
) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    let n = d.len();
    if n <= leaf {
        let keep: Vec<usize> = match rows {
            Rows::All => (0..n).collect(),
            Rows::Ends => vec![0, n - 1],
        };
        return tridiag_eigen_rows(d, e, &keep);
    }
    let k = n / 2;
    let (d1, d2, rho, s) = tear(d, e, k);
    let (left, right) = rayon::join(
        || solve(&d1, &e[..k - 1], leaf, merge, rows),
        || solve(&d2, &e[k..], leaf, merge, rows),
    );
    let (lam1, q1) = left?;
    let (lam2, q2) = right?;

    let (dm, z) = merge_inputs(&lam1, &lam2, q1.row(q1.rows() - 1), q2.row(0), s);
    let plan = merge_plan(&dm, &z, rho);
    Ok(match rows {
        Rows::All => merge(plan, q1, q2),
        // The rows a parent reads: the first of the left half, the last
        // of the right.
        Rows::Ends => {
            let first = Matrix::from_vec(1, k, q1.row(0).to_vec());
            let last = Matrix::from_vec(1, n - k, q2.row(1).to_vec());
            merge(plan, first, last)
        }
    })
}

/// Split `(d, e)` at `k`: returns the two corrected diagonals, the
/// rank-one weight `ρ = |e[k−1]| ≥ 0` and the sign `s` multiplying the
/// right half of the tear vector.
fn tear(d: &[f64], e: &[f64], k: usize) -> (Vec<f64>, Vec<f64>, f64, f64) {
    let beta = e[k - 1];
    let rho = beta.abs();
    let s = if beta >= 0.0 { 1.0 } else { -1.0 };
    let mut d1 = d[..k].to_vec();
    let mut d2 = d[k..].to_vec();
    d1[k - 1] -= rho;
    d2[0] -= rho;
    (d1, d2, rho, s)
}

/// Concatenate the halves' spectra and build the tear vector
/// `z = (last row of Q₁, s·first row of Q₂)`.
fn merge_inputs(
    lam1: &[f64],
    lam2: &[f64],
    q1_last: &[f64],
    q2_first: &[f64],
    s: f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut dm = Vec::with_capacity(lam1.len() + lam2.len());
    dm.extend_from_slice(lam1);
    dm.extend_from_slice(lam2);
    let mut z = Vec::with_capacity(dm.len());
    z.extend_from_slice(q1_last);
    z.extend(q2_first.iter().map(|v| s * v));
    (dm, z)
}

/// Where an output column of a merge comes from.
pub(crate) enum ColSrc {
    /// Column `j` of the secular eigenvector set `Q·Û`.
    Secular(usize),
    /// The (rotation-updated) pre-merge column with this index.
    Deflated(usize),
}

/// Everything a merge decides *before* touching the carried
/// eigenvector columns. Computing the plan first keeps the column
/// algebra identical between the full-`Z` and row-pair drivers.
pub(crate) struct MergePlan {
    /// Merged eigenvalues, ascending.
    pub(crate) lam: Vec<f64>,
    /// Provenance of each output column, parallel to `lam`.
    pub(crate) src: Vec<ColSrc>,
    /// Deflating Givens rotations `(col_i, col_j, c, s)`, applied in
    /// order to the pre-merge eigenvector columns: `qᵢ ← c·qᵢ − s·qⱼ`,
    /// `qⱼ ← s·qᵢ + c·qⱼ`.
    pub(crate) rots: Vec<(usize, usize, f64, f64)>,
    /// Pre-merge column index of each undeflated (kept) slot.
    pub(crate) kept_cols: Vec<usize>,
    /// `m × m` secular eigenvector coefficients: column `j` holds the
    /// normalised `ûᵢ = ẑᵢ/(dᵢ − λⱼ)` over the kept slots.
    pub(crate) ucoef: Matrix,
}

/// Deflation scan + secular solve for the merged system
/// `diag(d) + ρ·z zᵀ` (`ρ ≥ 0`).
fn merge_plan(d: &[f64], z: &[f64], rho: f64) -> MergePlan {
    let n = d.len();
    // Sort slots by pole value; stable index tie-break keeps the plan
    // (and with it the whole solve) deterministic under exact ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]).then(a.cmp(&b)));
    let mut ds: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut zs: Vec<f64> = order.iter().map(|&i| z[i]).collect();

    // Normalise z and fold its norm into ρ: D + ρzzᵀ = D + ρ‖z‖²·ẑẑᵀ.
    let znorm2: f64 = zs.iter().map(|v| v * v).sum();
    let rho_eff = rho * znorm2;
    if znorm2 > 0.0 {
        let inv = 1.0 / znorm2.sqrt();
        for v in &mut zs {
            *v *= inv;
        }
    }
    let dmax = ds.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let tol = 8.0 * EPS * dmax.max(rho_eff);

    // Deflation scan over the sorted slots (dlaed2 shape): tiny z
    // components deflate outright; a kept pole too close to the next
    // kept candidate is rotated away and deflates with its updated d.
    let mut rots = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    let mut defl: Vec<usize> = Vec::new();
    for t in 0..n {
        if rho_eff * zs[t].abs() <= tol {
            defl.push(t);
            continue;
        }
        if let Some(&prev) = kept.last() {
            let (zi, zj) = (zs[prev], zs[t]);
            let tau = zi.hypot(zj);
            let (c, s) = (zj / tau, zi / tau);
            // Off-diagonal the rotation would leave behind.
            if (c * s * (ds[prev] - ds[t])).abs() <= tol {
                rots.push((order[prev], order[t], c, s));
                let (di, dj) = (ds[prev], ds[t]);
                ds[prev] = c * c * di + s * s * dj;
                ds[t] = s * s * di + c * c * dj;
                zs[prev] = 0.0;
                zs[t] = tau;
                kept.pop();
                defl.push(prev);
            }
        }
        kept.push(t);
    }

    let m = kept.len();
    let dk: Vec<f64> = kept.iter().map(|&t| ds[t]).collect();
    let zk: Vec<f64> = kept.iter().map(|&t| zs[t]).collect();
    let (roots, ucoef) = if m > 0 {
        secular_system(&dk, &zk, rho_eff)
    } else {
        (Vec::new(), Matrix::zeros(0, 0))
    };

    // Interleave secular roots and deflated poles into ascending order;
    // total_cmp + provenance tie-break keeps the order deterministic.
    let mut items: Vec<(f64, ColSrc)> = defl
        .iter()
        .map(|&t| (ds[t], ColSrc::Deflated(order[t])))
        .collect();
    items.extend(
        roots
            .iter()
            .enumerate()
            .map(|(j, r)| (dk[r.origin] + r.mu, ColSrc::Secular(j))),
    );
    items.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| src_key(&a.1).cmp(&src_key(&b.1)))
    });
    let (lam, src): (Vec<f64>, Vec<ColSrc>) = items.into_iter().unzip();

    MergePlan {
        lam,
        src,
        rots,
        kept_cols: kept.iter().map(|&t| order[t]).collect(),
        ucoef,
    }
}

fn src_key(s: &ColSrc) -> (u8, usize) {
    match s {
        ColSrc::Secular(j) => (0, *j),
        ColSrc::Deflated(c) => (1, *c),
    }
}

/// One secular root `λ = dk[origin] + μ`, origin the nearer pole.
struct Root {
    origin: usize,
    mu: f64,
}

/// Solve all `m` secular roots and build the `m × m` eigenvector
/// coefficient matrix via the Gu/Eisenstat ẑ recomputation.
fn secular_system(dk: &[f64], zk: &[f64], rho: f64) -> (Vec<Root>, Matrix) {
    let m = dk.len();
    let roots: Vec<Root> = if m >= PAR_ROOTS {
        (0..m)
            .into_par_iter()
            .map(|j| secular_root(dk, zk, rho, j))
            .collect()
    } else {
        (0..m).map(|j| secular_root(dk, zk, rho, j)).collect()
    };

    // Gu/Eisenstat: ẑᵢ² = Πⱼ(λⱼ − dᵢ) / Πⱼ≠ᵢ(dⱼ − dᵢ), every difference
    // λⱼ − dᵢ formed as (d[origin] − dᵢ) + μ to keep full relative
    // accuracy near the poles. Interlacing makes every ratio positive;
    // the sign is inherited from the computed z.
    let mut zhat = vec![0.0f64; m];
    for i in 0..m {
        let mut prod = 1.0f64;
        for (j, r) in roots.iter().enumerate() {
            let num = (dk[r.origin] - dk[i]) + r.mu;
            if j == i {
                prod *= num;
            } else {
                prod *= num / (dk[j] - dk[i]);
            }
        }
        zhat[i] = prod.abs().sqrt().copysign(zk[i]);
    }

    // Column j of Û: ûᵢ = ẑᵢ / (dᵢ − λⱼ), normalised. A denominator of
    // exactly zero means λⱼ sits on the pole: the eigenvector is eᵢ.
    // Û is row-major, so it is filled a row at a time — every column's
    // quotient for row i, each column's ‖·‖² accumulated in the same
    // i-ascending order as a walk down that column — then scaled in one
    // more pass; an on-pole column (whose sum is meaningless) is
    // overwritten afterwards.
    let pole: Vec<f64> = roots.iter().map(|r| dk[r.origin]).collect();
    let mut ucoef = Matrix::zeros(m, m);
    let mut nrm2 = vec![0.0f64; m];
    let mut on_pole: Vec<(usize, usize)> = Vec::new();
    for i in 0..m {
        let (di, zi) = (dk[i], zhat[i]);
        let row = ucoef.row_mut(i);
        for j in 0..m {
            let den = (di - pole[j]) - roots[j].mu;
            if den == 0.0 && !on_pole.iter().any(|&(_, col)| col == j) {
                on_pole.push((i, j));
            }
            let u = zi / den;
            row[j] = u;
            nrm2[j] += u * u;
        }
    }
    for inv in nrm2.iter_mut() {
        *inv = 1.0 / inv.sqrt();
    }
    for i in 0..m {
        for (u, inv) in ucoef.row_mut(i).iter_mut().zip(&nrm2) {
            *u *= inv;
        }
    }
    for (i, j) in on_pole {
        for k in 0..m {
            ucoef.set(k, j, if k == i { 1.0 } else { 0.0 });
        }
    }
    (roots, ucoef)
}

/// One evaluation of the shifted secular function, split at pole index
/// `split` into the left sum `ψ(μ) = Σ_{i<split} ρzᵢ²/(δᵢ−μ)` and right
/// sum `φ(μ) = Σ_{i≥split} ρzᵢ²/(δᵢ−μ)`, together with their
/// derivatives and the absolute-term scale. `g = 1 + ψ + φ`; the
/// derivatives feed Li's "middle way" rational interpolation.
struct SecularEval {
    g: f64,
    psi: f64,
    dpsi: f64,
    phi: f64,
    dphi: f64,
    scale: f64,
}

fn eval_g(delta: &[f64], zk: &[f64], rho: f64, mu: f64, split: usize) -> SecularEval {
    let (mut psi, mut dpsi) = (0.0f64, 0.0f64);
    let (mut phi, mut dphi) = (0.0f64, 0.0f64);
    let mut scale = 1.0f64;
    for i in 0..split {
        let inv = 1.0 / (delta[i] - mu);
        let t = rho * zk[i] * zk[i] * inv;
        psi += t;
        dpsi += t * inv;
        scale += t.abs();
    }
    for i in split..delta.len() {
        let inv = 1.0 / (delta[i] - mu);
        let t = rho * zk[i] * zk[i] * inv;
        phi += t;
        dphi += t * inv;
        scale += t.abs();
    }
    SecularEval {
        g: 1.0 + psi + phi,
        psi,
        dpsi,
        phi,
        dphi,
        scale,
    }
}

/// Root `j` of the secular equation: guarded two-pole rational
/// iteration (dlaed4's "middle way" shape) on a maintained sign
/// bracket, with bisection whenever the rational candidate leaves the
/// bracket — convergence is unconditional.
fn secular_root(dk: &[f64], zk: &[f64], rho: f64, j: usize) -> Root {
    SECULAR_ROOTS.add(1);
    let m = dk.len();
    if m == 1 {
        // 1 + ρz²/(d − λ) = 0 ⇒ λ = d + ρz² (z is unit so z² = 1, but
        // keep the computed value).
        return Root {
            origin: 0,
            mu: rho * zk[0] * zk[0],
        };
    }
    let last = j == m - 1;
    // Right end of the root's interval; for the last root the bound
    // λ ≤ d_max + ρ‖ẑ‖² = d_max + ρ.
    let width = if last { rho } else { dk[j + 1] - dk[j] };

    // Choose the origin pole by the secular sign at the midpoint,
    // evaluated in coordinates relative to dk[j] for accuracy.
    let (origin, mut lo, mut hi);
    if last {
        origin = j;
        lo = 0.0;
        hi = width;
    } else {
        let half = 0.5 * width;
        let mut gmid = 1.0f64;
        for i in 0..m {
            gmid += rho * zk[i] * zk[i] / ((dk[i] - dk[j]) - half);
        }
        if gmid >= 0.0 {
            // Root in the left half: origin at the left pole.
            origin = j;
            lo = 0.0;
            hi = half;
        } else {
            origin = j + 1;
            lo = -half;
            hi = 0.0;
        }
    }
    let delta: Vec<f64> = dk.iter().map(|v| v - dk[origin]).collect();
    // Two nearest poles bracketing the root (in delta coordinates).
    let (p1, p2) = if last { (m - 2, m - 1) } else { (j, j + 1) };

    let mut mu = 0.5 * (lo + hi);
    let (e1, e2) = (delta[p1], delta[p2]);
    for _iter in 0..80 {
        SECULAR_ITERS.add(1);
        let ev = eval_g(&delta, zk, rho, mu, p2);
        if !ev.g.is_finite() {
            // Landed exactly on a pole: retreat to the bracket midpoint
            // (differs from mu because the bracket has since shrunk).
            mu = 0.5 * (lo + hi);
            if mu == lo || mu == hi {
                break;
            }
            continue;
        }
        if ev.g.abs() <= 8.0 * EPS * ev.scale {
            break;
        }
        if ev.g > 0.0 {
            hi = mu;
        } else {
            lo = mu;
        }
        if (hi - lo).abs() <= 2.0 * EPS * lo.abs().max(hi.abs()) {
            mu = 0.5 * (lo + hi);
            break;
        }
        // Li's "middle way" rational interpolant (the dlaed4 scheme):
        // replace each side-sum by a single pole at the bracketing
        // eigenvalue, matching BOTH value and slope at the iterate —
        //   ψ(x) ≈ S + s/(δ₁−x),  s = ψ'(δ₁−μ)², S = ψ − ψ'(δ₁−μ)
        //   φ(x) ≈ R + r/(δ₂−x),  r = φ'(δ₂−μ)², R = φ − φ'(δ₂−μ)
        // so the model agrees with g to second order and the update is
        // quadratically convergent; the fixed-weight variant (freeze
        // a₁ = ρz₁²) is only linear when neighbouring poles crowd in.
        let (w1, w2) = (e1 - mu, e2 - mu);
        let s = ev.dpsi * w1 * w1;
        let r = ev.dphi * w2 * w2;
        let c = 1.0 + (ev.psi - ev.dpsi * w1) + (ev.phi - ev.dphi * w2);
        // Solve c + s/(e1−x) + r/(e2−x) = 0:
        let qa = c;
        let qb = -(c * (e1 + e2) + s + r);
        let qc = c * e1 * e2 + s * e2 + r * e1;
        let mut cand = f64::NAN;
        if qa == 0.0 {
            if qb != 0.0 {
                cand = -qc / qb;
            }
        } else {
            let disc = qb * qb - 4.0 * qa * qc;
            if disc >= 0.0 {
                let q = -0.5 * (qb + disc.sqrt().copysign(qb));
                let (x1, x2) = (q / qa, if q != 0.0 { qc / q } else { f64::NAN });
                cand = if x1 > lo && x1 < hi {
                    x1
                } else if x2 > lo && x2 < hi {
                    x2
                } else {
                    f64::NAN
                };
            }
        }
        let next = if cand.is_finite() && cand > lo && cand < hi {
            cand
        } else {
            0.5 * (lo + hi)
        };
        // A step below one ulp of μ means the iterate is as close to
        // the root as the arithmetic can express: μ is done even if the
        // cancellation-limited residual sits above the g-tolerance.
        if (next - mu).abs() <= EPS * mu.abs() {
            mu = next;
            break;
        }
        mu = next;
    }
    Root { origin, mu }
}

/// The merge, one row half at a time. Rows `0..r₁` of the merged
/// eigenvector matrix are `q₁`'s and can be non-zero only in the left
/// half's pre-merge columns `0..k`, or in a column a deflating rotation
/// mixed across the tear; rows `r₁..` likewise hold `q₂` over `k..n`.
/// Each half rotates the columns it holds, multiplies its rows by the
/// rows of `Û` its kept columns meet, and puts its rows into ascending-λ
/// order. The halves share nothing but the plan, so a merge worth a fork
/// runs them as the two sides of one `rayon::join` (inline under a core
/// budget of 1 or below GEMM's fork size, with the same bits).
///
/// **Bits.** The dense product `[q₁ 0; 0 q₂]·Û` over the kept columns
/// sums, per output cell, one `KC`-chunk accumulator of the kept index
/// after another (the cell contract of [`crate::gemm`]). A kept column a
/// half does not hold adds exact zeros to that half's accumulators, so
/// the half runs one product per chunk over the chunk's columns it
/// holds, in ascending kept order, `β = 0` on its first product and
/// `β = 1` after: every accumulator, and so every output bit, is the
/// dense product's (`oracle::dnc_eigen_reference` is that product). One
/// product over the compacted columns would move the chunk boundaries
/// and change bits.
///
/// **Memory.** Besides `Û` and the output, a half holds one chunk's
/// gathered operands (`r × KC` of its rows, `KC × KC` of `Û` at a time),
/// `O(n)` vectors and the columns rotated in from the other half.
fn merge(plan: MergePlan, q1: Matrix, q2: Matrix) -> (Vec<f64>, Matrix) {
    let (r1, k) = (q1.rows(), q1.cols());
    let (r2, n) = (q2.rows(), k + q2.cols());
    let m = plan.kept_cols.len();
    let mut out = Matrix::zeros(r1 + r2, n);
    let mut whole = out.view_mut();
    let (top, bottom) = whole.split_rows_mut(r1);
    let left = || Half::new(&plan, q1, 0..k).write(&plan, top);
    let right = || Half::new(&plan, q2, k..n).write(&plan, bottom);
    // Fork where GEMM would fork the dense product: a row-pair merge
    // (r₁ + r₂ = 2) stays inline up to m = 1448.
    if 2 * (r1 + r2) * m * m >= PAR_FLOPS {
        rayon::join(left, right);
    } else {
        left();
        right();
    }
    (plan.lam, out)
}

/// Where one row half keeps a pre-merge column's entries.
#[derive(Clone, Copy)]
enum Slot {
    /// Column `c` of the half's own eigenvectors.
    Own(usize),
    /// Column `x` of the columns rotations mixed in from the other half.
    Mixed(usize),
    /// Not held: every entry in these rows is this zero (`−0` where the
    /// dense merge's rotations of two zero columns leave one).
    Zero(f64),
}

/// One row half of a merge: its pre-merge eigenvector rows and the
/// columns the deflating rotations mixed into them.
struct Half {
    q: Matrix,
    /// Columns of the other half, one after another, this half's rows
    /// each.
    mixed: Vec<f64>,
    /// The slot of every pre-merge column.
    slot: Vec<Slot>,
}

impl Half {
    /// Take over `q`, the rows of pre-merge columns `own`, and apply the
    /// plan's rotations with the dense merge's expressions, the zero
    /// operand of a column not held included.
    fn new(plan: &MergePlan, q: Matrix, own: Range<usize>) -> Self {
        let slot = (0..plan.lam.len())
            .map(|c| {
                if own.contains(&c) {
                    Slot::Own(c - own.start)
                } else {
                    Slot::Zero(0.0)
                }
            })
            .collect();
        let mut h = Half {
            q,
            mixed: Vec::new(),
            slot,
        };
        for &(i, j, c, s) in &plan.rots {
            if let (Slot::Zero(a), Slot::Zero(b)) = (h.slot[i], h.slot[j]) {
                h.slot[i] = Slot::Zero(c * a - s * b);
                h.slot[j] = Slot::Zero(s * a + c * b);
                continue;
            }
            for col in [i, j] {
                if let Slot::Zero(v) = h.slot[col] {
                    let rows = h.q.rows();
                    h.slot[col] = Slot::Mixed(h.mixed.len() / rows);
                    h.mixed.resize(h.mixed.len() + rows, v);
                }
            }
            for r in 0..h.q.rows() {
                let (a, b) = (h.get(r, i), h.get(r, j));
                h.set(r, i, c * a - s * b);
                h.set(r, j, s * a + c * b);
            }
        }
        h
    }

    fn holds(&self, col: usize) -> bool {
        !matches!(self.slot[col], Slot::Zero(_))
    }

    fn get(&self, r: usize, col: usize) -> f64 {
        match self.slot[col] {
            Slot::Own(c) => self.q.get(r, c),
            Slot::Mixed(x) => self.mixed[x * self.q.rows() + r],
            Slot::Zero(v) => v,
        }
    }

    fn set(&mut self, r: usize, col: usize, v: f64) {
        match self.slot[col] {
            Slot::Own(c) => self.q.set(r, c, v),
            Slot::Mixed(x) => self.mixed[x * self.q.rows() + r] = v,
            Slot::Zero(_) => unreachable!("rotations write held columns only"),
        }
    }

    /// This half's rows of the merged eigenvector matrix into `out`
    /// (`r × n`, zero on entry): the secular product into its leading
    /// `m` columns, one product per `KC`-chunk of the kept index (in
    /// `KC`-wide column blocks, so that `Û`'s rows are gathered a block
    /// at a time), then each row through one `n`-long buffer into
    /// ascending-λ order.
    fn write(self, plan: &MergePlan, mut out: MatrixViewMut) {
        let (rows, m) = (out.rows(), plan.kept_cols.len());
        let width = m.min(KC);
        let mut a = Vec::with_capacity(rows * width);
        let mut b = Vec::with_capacity(width * width);
        let mut held = Vec::with_capacity(width);
        let mut beta = 0.0;
        for p in (0..m).step_by(KC) {
            held.clear();
            held.extend((p..m.min(p + KC)).filter(|&t| self.holds(plan.kept_cols[t])));
            if held.is_empty() {
                continue;
            }
            let w = held.len();
            a.clear();
            for r in 0..rows {
                a.extend(held.iter().map(|&t| self.get(r, plan.kept_cols[t])));
            }
            for j0 in (0..m).step_by(KC) {
                let jb = KC.min(m - j0);
                b.clear();
                for &t in &held {
                    b.extend_from_slice(&plan.ucoef.row(t)[j0..j0 + jb]);
                }
                gemm_view(
                    1.0,
                    &MatrixView::from_slice(&a, rows, w),
                    Trans::N,
                    &MatrixView::from_slice(&b, w, jb),
                    Trans::N,
                    beta,
                    &mut out.sub_mut(0, j0, rows, jb),
                );
            }
            beta = 1.0;
        }
        let mut buf = vec![0.0; plan.src.len()];
        for r in 0..rows {
            let row = out.row_mut(r);
            for (x, src) in buf.iter_mut().zip(&plan.src) {
                *x = match *src {
                    ColSrc::Secular(j) => row[j],
                    ColSrc::Deflated(c) => self.get(r, c),
                };
            }
            row.copy_from_slice(&buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::gen;
    use crate::sturm;
    use crate::tridiag::{spectrum_distance, try_tridiag_eigenvalues};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// All oracle checks for one `(d, e)` instance, recursing down to
    /// subproblems of size `leaf`; returns the eigenvalues.
    fn check_eigen(d: &[f64], e: &[f64], tol: f64, leaf: usize) -> Vec<f64> {
        let n = d.len();
        let (lam, z) = solve(d, e, leaf, merge, Rows::All).expect("converges");
        // Ascending.
        for w in lam.windows(2) {
            assert!(w[0] <= w[1], "eigenvalues not sorted");
        }
        // Against the QL oracle.
        let ql = try_tridiag_eigenvalues(d, e).unwrap();
        let scale = 1.0 + ql.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(
            spectrum_distance(&lam, &ql) <= tol * scale,
            "D&C spectrum drifted {} from QL",
            spectrum_distance(&lam, &ql)
        );
        // Orthogonality.
        let ztz = matmul(&z, Trans::T, &z, Trans::N);
        let dev = ztz.max_diff(&Matrix::identity(n));
        assert!(dev < tol * n as f64, "ZᵀZ deviates by {dev}");
        // Residual T·Z − Z·Λ.
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
        assert!(
            tz.max_diff(&zl) < tol * n as f64 * scale,
            "T·Z ≠ Z·Λ by {}",
            tz.max_diff(&zl)
        );
        // Values-only variant agrees exactly.
        let (vals, _) = solve(d, e, leaf, merge, Rows::Ends).expect("converges");
        assert_eq!(vals, lam, "row-pair recursion diverged from full recursion");
        lam
    }

    #[test]
    fn laplacian_matches_analytic() {
        let n = 33;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let (lam, _) = solve(&d, &e, 8, merge, Rows::All).unwrap();
        for (idx, l) in lam.iter().enumerate() {
            let want =
                2.0 - 2.0 * ((idx + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - want).abs() < 1e-12, "λ_{idx} = {l}, want {want}");
        }
    }

    #[test]
    fn small_and_awkward_sizes() {
        let mut rng = StdRng::seed_from_u64(700);
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 13, 17, 31, 33, 64, 65] {
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n.saturating_sub(1))
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            check_eigen(&d, &e, 1e-11, LEAF);
        }
    }

    #[test]
    fn forced_deep_recursion() {
        // Leaf 2 exercises every merge size down to the base case.
        let mut rng = StdRng::seed_from_u64(701);
        for n in [6usize, 11, 24, 37] {
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.0..1.0)).collect();
            check_eigen(&d, &e, 1e-11, 2);
        }
    }

    #[test]
    fn zero_coupling_splits_cleanly() {
        // e[k−1] = 0 at the cut: ρ = 0, everything deflates.
        let d = vec![3.0, -1.0, 2.0, 0.5, 4.0, -2.0, 1.5, 0.25];
        let mut e = vec![0.4; 7];
        e[3] = 0.0;
        check_eigen(&d, &e, 1e-12, LEAF);
    }

    #[test]
    fn heavy_deflation_clustered_spectrum() {
        // Tight clusters force the close-pole Givens deflation path.
        let mut rng = StdRng::seed_from_u64(702);
        let spectrum = gen::clustered_spectrum(48, 3, -1.0, 1.0, 1e-11);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        // Tridiagonalise via the banded path to get (d, e).
        let b = crate::BandedSym::from_dense(&a, 47, 47);
        let mut work = b;
        crate::bulge::reduce_band_to(&mut work, 1);
        let (d, e) = work.tridiagonal();
        let (lam, z) = dnc_eigen(&d, &e).unwrap();
        assert!(spectrum_distance(&lam, &spectrum) < 1e-8);
        let ztz = matmul(&z, Trans::T, &z, Trans::N);
        assert!(ztz.max_diff(&Matrix::identity(48)) < 1e-10);
    }

    #[test]
    fn wilkinson_near_degenerate_pair() {
        let n = 21;
        let d: Vec<f64> = (0..n).map(|i| (i as f64 - 10.0).abs()).collect();
        let e = vec![1.0; n - 1];
        check_eigen(&d, &e, 1e-11, LEAF);
        let (lam, _) = dnc_eigen(&d, &e).unwrap();
        assert!((lam[n - 1] - 10.746194182903393).abs() < 1e-9);
    }

    #[test]
    fn graded_spectrum_against_bisection() {
        let mut rng = StdRng::seed_from_u64(703);
        let n = 50;
        let d: Vec<f64> = (0..n)
            .map(|i| 10.0f64.powi(-(i % 12)) * rng.gen_range(0.5..2.0))
            .collect();
        let e: Vec<f64> = (0..n - 1).map(|i| 10.0f64.powi(-(i % 12)) * 0.3).collect();
        let (lam, _) = dnc_eigen(&d, &e).unwrap();
        let bis = sturm::bisection_eigenvalues(&d, &e, 1e-13);
        assert!(spectrum_distance(&lam, &bis) < 1e-10);
    }

    #[test]
    fn identical_poles_deflate_without_nans() {
        // All-equal diagonal with uniform coupling: maximal pole ties.
        let n = 32;
        let d = vec![1.0; n];
        let e = vec![0.5; n - 1];
        check_eigen(&d, &e, 1e-11, LEAF);
    }

    #[test]
    fn values_match_full_driver_on_random_sweep() {
        let mut rng = StdRng::seed_from_u64(704);
        for _ in 0..8 {
            let n = rng.gen_range(2..70);
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let vals = dnc_eigenvalues(&d, &e).unwrap();
            let (full, _) = dnc_eigen(&d, &e).unwrap();
            assert_eq!(vals, full);
        }
    }

    /// The top merge's plan for `(d, e)` and its tear index.
    fn top_plan(d: &[f64], e: &[f64]) -> (MergePlan, usize) {
        let k = d.len() / 2;
        let (d1, d2, rho, s) = tear(d, e, k);
        let (lam1, r1) = solve(&d1, &e[..k - 1], LEAF, merge, Rows::Ends).unwrap();
        let (lam2, r2) = solve(&d2, &e[k..], LEAF, merge, Rows::Ends).unwrap();
        let (dm, z) = merge_inputs(&lam1, &lam2, r1.row(1), r2.row(0), s);
        (merge_plan(&dm, &z, rho), k)
    }

    /// What a case's top merge must look like: `kept` secular columns,
    /// and whether rotations pair poles within a half and across the
    /// tear.
    struct TopMerge {
        kept: usize,
        within: bool,
        across: bool,
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: entry {i} is {g:e}, the dense merge's {w:e}"
            );
        }
    }

    /// Check that `(d, e)`'s top merge has the shape `top`, then hold
    /// both drivers to the dense merge (`oracle::dnc_eigen_reference`)
    /// bit for bit — eigenvalues, eigenvectors and the value driver's row
    /// pair — inline (a core budget of 1) and forked.
    fn assert_merge_matches_dense(what: &str, d: &[f64], e: &[f64], top: TopMerge) {
        let what = format!("{what} n={}", d.len());
        let (plan, k) = top_plan(d, e);
        assert_eq!(plan.kept_cols.len(), top.kept, "{what}: kept columns");
        let across = plan.rots.iter().filter(|r| (r.0 < k) != (r.1 < k)).count();
        assert_eq!(across > 0, top.across, "{what}: rotations across the tear");
        let within = plan.rots.len() > across;
        assert_eq!(within, top.within, "{what}: rotations within a half");
        for budget in [1, 4] {
            rayon::with_budget(budget, || {
                let at = |part: &str| format!("{what}, budget {budget}: {part}");
                let (lam, z) = dnc_eigen(d, e).unwrap();
                let (lam_ref, z_ref) = crate::oracle::dnc_eigen_reference(d, e, LEAF).unwrap();
                assert_same_bits(&lam, &lam_ref, &at("λ"));
                assert_same_bits(z.data(), z_ref.data(), &at("Z"));
                let (vals, rows) = solve(d, e, LEAF, merge, Rows::Ends).unwrap();
                let (vals_ref, rows_ref) =
                    crate::oracle::dnc_eigenvalues_reference(d, e, LEAF).unwrap();
                assert_same_bits(&vals, &vals_ref, &at("values"));
                assert_same_bits(rows.data(), rows_ref.data(), &at("row pair"));
                assert_same_bits(&dnc_eigenvalues(d, e).unwrap(), &lam, &at("values vs λ"));
            });
        }
    }

    /// A nearly uniform chain whose halves sit 0.0123 apart: nothing
    /// deflates, so the top merge keeps all `n` columns.
    fn undeflated_chain(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = (0..n)
            .map(|i| rng.gen_range(-1e-3..1e-3) + if i < n / 2 { 0.0 } else { 0.0123 })
            .collect();
        let e = (0..n - 1)
            .map(|_| 1.0 + rng.gen_range(-1e-3..1e-3))
            .collect();
        (d, e)
    }

    #[test]
    fn merge_bits_without_deflation_around_one_chunk() {
        for n in [255usize, 256, 257] {
            let (d, e) = undeflated_chain(n, 705);
            let top = TopMerge {
                kept: n,
                within: false,
                across: false,
            };
            assert_merge_matches_dense("no deflation", &d, &e, top);
        }
    }

    #[test]
    fn merge_bits_without_deflation_past_two_chunks() {
        let (d, e) = undeflated_chain(520, 706);
        let top = TopMerge {
            kept: 520,
            within: false,
            across: false,
        };
        assert_merge_matches_dense("no deflation", &d, &e, top);
    }

    #[test]
    fn merge_bits_under_heavy_deflation() {
        // By z: the outer quarters are decoupled 6-blocks whose
        // eigenvectors never reach the tear.
        let n = 600;
        const PAT: [f64; 6] = [0.3, -0.7, 1.1, 0.2, -0.4, 0.9];
        let d: Vec<f64> = (0..n).map(|i| PAT[i % 6]).collect();
        let e: Vec<f64> = (0..n - 1)
            .map(|i| match i % 6 == 5 && (i < n / 4 || i >= 3 * n / 4) {
                true => 1e-20,
                false => 0.5 + 0.1 * ((i * 7) % 5) as f64,
            })
            .collect();
        let top = TopMerge {
            kept: 303,
            within: false,
            across: false,
        };
        assert_merge_matches_dense("decoupled blocks", &d, &e, top);
        // By rotation: 25 Wilkinson W₂₁ blocks glued by 1e-12 give
        // clusters of 25 poles, paired within each half and across it.
        let n = 21 * 25;
        let d: Vec<f64> = (0..n).map(|i| ((i % 21) as f64 - 10.0).abs()).collect();
        let e: Vec<f64> = (0..n - 1)
            .map(|i| if i % 21 == 20 { 1e-12 } else { 1.0 })
            .collect();
        let top = TopMerge {
            kept: 43,
            within: true,
            across: true,
        };
        assert_merge_matches_dense("glued Wilkinson", &d, &e, top);
    }

    #[test]
    fn merge_bits_with_every_kept_column_rotated_across_the_tear() {
        // The tear of the 1-D Laplacian leaves two halves with the same
        // spectrum: every kept column is a pair rotated across the tear,
        // and 257 of them straddle a chunk boundary.
        let n = 514;
        let (d, e) = (vec![2.0; n], vec![-1.0; n - 1]);
        let top = TopMerge {
            kept: 257,
            within: false,
            across: true,
        };
        assert_merge_matches_dense("mirror halves", &d, &e, top);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Raw random `(d, e)` over the awkward sizes (minimal, primes,
        /// `2^k ± 1`) with leaf 2, so the recursion tree is as deep as
        /// the size permits; oracles are QL (in `check_eigen`) and Sturm
        /// bisection on the same data.
        #[test]
        fn random_tridiagonals_forced_deep_recursion(
            size_ix in 0usize..12,
            seed in 0u64..1u64 << 48,
        ) {
            let n = [2usize, 3, 5, 7, 13, 17, 31, 33, 47, 63, 65, 97][size_ix];
            let mut rng = StdRng::seed_from_u64(seed);
            let dense = gen::random_banded(&mut rng, n, 1);
            let d: Vec<f64> = (0..n).map(|i| dense.get(i, i)).collect();
            let e: Vec<f64> = (0..n - 1).map(|i| dense.get(i + 1, i)).collect();
            let lam = check_eigen(&d, &e, 1e-9, 2);
            let bis = sturm::bisection_eigenvalues(&d, &e, 1e-12);
            proptest::prop_assert!(spectrum_distance(&lam, &bis) < 1e-9);
        }
    }
}
