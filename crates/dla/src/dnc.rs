//! Cuppen-style divide-and-conquer symmetric tridiagonal eigensolver.
//!
//! The final sequential stage of Algorithm IV.3 hands one processor a
//! tridiagonal matrix. The implicit-QL solver in [`crate::tridiag`]
//! processes it with `O(n²)` dependent scalar rotations — correct, but
//! the one kernel in the pipeline that can never reach matrix–matrix
//! flop rates. This module implements the standard production answer
//! (LAPACK `dstedc` / ELPA lineage): tear the matrix in half with a
//! rank-one update, solve the halves independently (in parallel — the
//! subproblems share nothing), and stitch the spectra back together
//! through the **secular equation**, expressing the eigenvector merge
//! as a dense GEMM so the dominant cost runs at blocked-kernel rates.
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
//! 5. **GEMM merge**: the undeflated eigenvectors of the merged system
//!    are `Q·Û` — one dense `n × m × m` product through the blocked
//!    [`crate::gemm`] kernels; deflated columns pass through untouched.
//!
//! **Determinism**: subproblems are independent, every merge is a
//! deterministic function of its inputs, and secular roots are solved
//! independently per interval, so forked and inline orders (a core
//! budget of 1, `RAYON_NUM_THREADS=1`) produce **bit-identical** results.
//!
//! The eigenvalue-only variant ([`dnc_eigenvalues`]) carries just the
//! first and last rows of each subproblem's eigenvector matrix — all a
//! parent merge ever reads — turning the `O(n³)` vector algebra into
//! `O(n²)` while following the identical deflation/secular path.

use crate::gemm::{matmul, Trans};
use crate::matrix::Matrix;
use crate::tridiag::{try_tridiag_eigen, NoConvergence};
use rayon::prelude::*;

// Secular-equation work counters (live only when `CA_TRACE ≥ 1`).
static SECULAR_ROOTS: ca_obs::Counter = ca_obs::Counter::new("dnc.secular_roots");
static SECULAR_ITERS: ca_obs::Counter = ca_obs::Counter::new("dnc.secular_iters");

const EPS: f64 = f64::EPSILON;
/// Secular systems at least this large solve their roots over rayon
/// workers (same threshold flavour as `sturm::PAR_EIGS`).
const PAR_ROOTS: usize = 64;
/// Subproblem size at or below which the recursion falls back to the
/// implicit-shift QL solver, whose `O(n²)` rotations beat the merge
/// machinery's constant factors there.
pub(crate) const LEAF: usize = 40;

/// Eigenvalues and orthonormal eigenvectors of the symmetric
/// tridiagonal matrix `(d, e)` by divide-and-conquer: returns
/// `(λ ascending, Z)` with `T·Z = Z·diag(λ)`, like
/// [`crate::tridiag::tridiag_eigen`]. Subproblems of size
/// ≤ 40 fall back to the QL solver, whose convergence
/// failure (never observed on finite input) is the only error path.
pub fn dnc_eigen(d: &[f64], e: &[f64]) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    check_shape(d, e);
    solve_full(d, e, LEAF)
}

/// Eigenvalues only, in ascending order. Same recursion and merge
/// arithmetic as [`dnc_eigen`] but carrying a `2 × n` row pair (first
/// and last eigenvector rows) instead of the full `Z`.
pub fn dnc_eigenvalues(d: &[f64], e: &[f64]) -> Result<Vec<f64>, NoConvergence> {
    check_shape(d, e);
    let (lam, _) = solve_rows(d, e, LEAF)?;
    Ok(lam)
}

fn check_shape(d: &[f64], e: &[f64]) {
    assert!(!d.is_empty());
    assert_eq!(e.len(), d.len() - 1, "sub-diagonal must have n−1 entries");
}

fn solve_full(d: &[f64], e: &[f64], leaf: usize) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    let n = d.len();
    if n <= leaf {
        return try_tridiag_eigen(d, e);
    }
    let k = n / 2;
    let (d1, d2, rho, s) = tear(d, e, k);
    let (left, right) = rayon::join(
        || solve_full(&d1, &e[..k - 1], leaf),
        || solve_full(&d2, &e[k..], leaf),
    );
    let (lam1, q1) = left?;
    let (lam2, q2) = right?;

    let (dm, z) = merge_inputs(&lam1, &lam2, q1.row(k - 1), q2.row(0), s);
    let plan = merge_plan(&dm, &z, rho);

    // Carrier: block-diagonal pre-merge eigenvector basis.
    let mut c = Matrix::zeros(n, n);
    c.set_block(0, 0, &q1);
    c.set_block(k, k, &q2);
    Ok(apply_merge(&plan, c))
}

/// Row-pair recursion: returns `(λ, R)` with `R` `2 × n`, row 0 the
/// first and row 1 the last row of the (never materialised) `Z`.
fn solve_rows(d: &[f64], e: &[f64], leaf: usize) -> Result<(Vec<f64>, Matrix), NoConvergence> {
    let n = d.len();
    if n <= leaf {
        let (lam, z) = try_tridiag_eigen(d, e)?;
        let mut r = Matrix::zeros(2, n);
        r.row_mut(0).copy_from_slice(z.row(0));
        r.row_mut(1).copy_from_slice(z.row(n - 1));
        return Ok((lam, r));
    }
    let k = n / 2;
    let (d1, d2, rho, s) = tear(d, e, k);
    let (left, right) = rayon::join(
        || solve_rows(&d1, &e[..k - 1], leaf),
        || solve_rows(&d2, &e[k..], leaf),
    );
    let (lam1, r1) = left?;
    let (lam2, r2) = right?;

    let (dm, z) = merge_inputs(&lam1, &lam2, r1.row(1), r2.row(0), s);
    let plan = merge_plan(&dm, &z, rho);

    // Carrier: first row of the left block, last row of the right.
    let mut c = Matrix::zeros(2, n);
    c.row_mut(0)[..k].copy_from_slice(r1.row(0));
    c.row_mut(1)[k..].copy_from_slice(r2.row(1));
    Ok(apply_merge(&plan, c))
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
enum ColSrc {
    /// Column `j` of the secular eigenvector set `Q·Û`.
    Secular(usize),
    /// The (rotation-updated) pre-merge column with this index.
    Deflated(usize),
}

/// Everything a merge decides *before* touching the carried
/// eigenvector columns. Computing the plan first keeps the column
/// algebra identical between the full-`Z` and row-pair drivers.
struct MergePlan {
    /// Merged eigenvalues, ascending.
    lam: Vec<f64>,
    /// Provenance of each output column, parallel to `lam`.
    src: Vec<ColSrc>,
    /// Deflating Givens rotations `(col_i, col_j, c, s)`, applied in
    /// order to the carrier: `qᵢ ← c·qᵢ − s·qⱼ`, `qⱼ ← s·qᵢ + c·qⱼ`.
    rots: Vec<(usize, usize, f64, f64)>,
    /// Pre-merge column index of each undeflated (kept) slot.
    kept_cols: Vec<usize>,
    /// `m × m` secular eigenvector coefficients: column `j` holds the
    /// normalised `ûᵢ = ẑᵢ/(dᵢ − λⱼ)` over the kept slots.
    ucoef: Matrix,
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
        a.0.total_cmp(&b.0).then_with(|| src_key(&a.1).cmp(&src_key(&b.1)))
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
    SecularEval { g: 1.0 + psi + phi, psi, dpsi, phi, dphi, scale }
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
        return Root { origin: 0, mu: rho * zk[0] * zk[0] };
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

/// Apply a merge plan to the carried eigenvector columns (`cmat` is
/// `n × n` for the full driver, `2 × n` for the row-pair driver):
/// deflating rotations, then the secular GEMM `W = Q[:, kept]·Û`, then
/// column assembly in ascending eigenvalue order.
fn apply_merge(plan: &MergePlan, mut cmat: Matrix) -> (Vec<f64>, Matrix) {
    let nr = cmat.rows();
    let n = plan.lam.len();
    for &(i, j, c, s) in &plan.rots {
        for r in 0..nr {
            let a = cmat.get(r, i);
            let b = cmat.get(r, j);
            cmat.set(r, i, c * a - s * b);
            cmat.set(r, j, s * a + c * b);
        }
    }
    let m = plan.kept_cols.len();
    let mut out = Matrix::zeros(nr, n);
    if m > 0 {
        // Gather the kept columns and run the one dense merge GEMM.
        let mut q_kept = Matrix::zeros(nr, m);
        for r in 0..nr {
            let row = cmat.row(r);
            let dst = q_kept.row_mut(r);
            for (t, &c) in plan.kept_cols.iter().enumerate() {
                dst[t] = row[c];
            }
        }
        let w = matmul(&q_kept, Trans::N, &plan.ucoef, Trans::N);
        for r in 0..nr {
            let wrow = w.row(r);
            let crow = cmat.row(r);
            let orow = out.row_mut(r);
            for (oc, src) in plan.src.iter().enumerate() {
                orow[oc] = match src {
                    ColSrc::Secular(jj) => wrow[*jj],
                    ColSrc::Deflated(cc) => crow[*cc],
                };
            }
        }
    } else {
        for r in 0..nr {
            let crow = cmat.row(r);
            let orow = out.row_mut(r);
            for (oc, src) in plan.src.iter().enumerate() {
                if let ColSrc::Deflated(cc) = src {
                    orow[oc] = crow[*cc];
                }
            }
        }
    }
    (plan.lam.clone(), out)
}

/// Benchmark hooks: `#[doc(hidden)]` wrappers over internal merge
/// stages so the micro-bench harness can time them in isolation
/// (deflation + secular solve without the column algebra).
#[doc(hidden)]
pub mod bench_hooks {
    /// Eigenvalues of the rank-one update `diag(d) + ρ·zzᵀ` via the
    /// full deflation scan and secular root solve.
    pub fn secular_merge_values(d: &[f64], z: &[f64], rho: f64) -> Vec<f64> {
        super::merge_plan(d, z, rho).lam
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::sturm;
    use crate::tridiag::{spectrum_distance, tridiag_eigenvalues};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// All oracle checks for one `(d, e)` instance, recursing down to
    /// subproblems of size `leaf`; returns the eigenvalues.
    fn check_eigen(d: &[f64], e: &[f64], tol: f64, leaf: usize) -> Vec<f64> {
        let n = d.len();
        let (lam, z) = solve_full(d, e, leaf).expect("converges");
        // Ascending.
        for w in lam.windows(2) {
            assert!(w[0] <= w[1], "eigenvalues not sorted");
        }
        // Against the QL oracle.
        let ql = tridiag_eigenvalues(d, e);
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
        let (vals, _) = solve_rows(d, e, leaf).expect("converges");
        assert_eq!(vals, lam, "row-pair recursion diverged from full recursion");
        lam
    }

    #[test]
    fn laplacian_matches_analytic() {
        let n = 33;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let (lam, _) = solve_full(&d, &e, 8).unwrap();
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
            let e: Vec<f64> = (0..n.saturating_sub(1)).map(|_| rng.gen_range(-1.0..1.0)).collect();
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
        let d: Vec<f64> = (0..n).map(|i| 10.0f64.powi(-(i % 12)) * rng.gen_range(0.5..2.0)).collect();
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
