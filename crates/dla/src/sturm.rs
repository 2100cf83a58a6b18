//! Sturm-sequence bisection for symmetric tridiagonal eigenvalues.
//!
//! An independent eigensolver used to cross-check the implicit-QL solver
//! in [`crate::tridiag`] (DESIGN.md §7): the number of sign agreements in
//! the Sturm sequence of `T − x·I` counts eigenvalues below `x`, which
//! both validates individual eigenvalues and allows verifying that a band
//! reduction preserved the *entire* spectrum (not just its moments).
//!
//! Bisection is embarrassingly parallel over eigenvalue indices — each
//! `k`-th eigenvalue's probe sequence depends only on `(d, e, k)` — so
//! [`bisection_eigenvalues`] and [`banded_bisection_eigenvalues`] fan
//! the indices out over rayon workers. Results are **bit-deterministic**
//! and identical to the sequential loop regardless of thread count: no
//! floating-point operation crosses an index boundary.

use rayon::prelude::*;

/// Below this many eigenvalues the thread fan-out costs more than it
/// saves; run the plain sequential loop.
const PAR_EIGS: usize = 32;

/// Number of eigenvalues of the tridiagonal `(d, e)` strictly less
/// than `x`.
pub fn count_below(d: &[f64], e: &[f64], x: f64) -> usize {
    let n = d.len();
    assert_eq!(e.len(), n.saturating_sub(1));
    let mut count = 0;
    let mut q = 1.0f64;
    for i in 0..n {
        let e2 = if i == 0 { 0.0 } else { e[i - 1] * e[i - 1] };
        q = d[i]
            - x
            - if q != 0.0 {
                e2 / q
            } else {
                e2 / f64::MIN_POSITIVE.sqrt()
            };
        if q < 0.0 {
            count += 1;
        }
        if q == 0.0 {
            // Treat exact zero as a tiny negative perturbation to keep
            // the recurrence moving (standard safeguard).
            q = -f64::EPSILON * (d[i].abs() + if i + 1 < n { e[i].abs() } else { 0.0 }).max(1.0);
            count += 1;
        }
    }
    count
}

/// Gershgorin interval enclosing the whole spectrum of `(d, e)`.
fn gershgorin_bounds(d: &[f64], e: &[f64]) -> (f64, f64) {
    let n = d.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let r =
            (if i > 0 { e[i - 1].abs() } else { 0.0 }) + (if i + 1 < n { e[i].abs() } else { 0.0 });
        lo = lo.min(d[i] - r);
        hi = hi.max(d[i] + r);
    }
    (lo, hi)
}

/// The `k`-th smallest eigenvalue (0-based) via bisection to absolute
/// tolerance `tol`.
pub fn kth_eigenvalue(d: &[f64], e: &[f64], k: usize, tol: f64) -> f64 {
    let n = d.len();
    assert!(k < n);
    let (mut lo, mut hi) = gershgorin_bounds(d, e);
    // Widen marginally so the endpoints strictly bracket.
    let pad = 1e-12 * (hi - lo).abs().max(1.0);
    lo -= pad;
    hi += pad;
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // floating-point resolution reached
        }
        if count_below(d, e, mid) > k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// All eigenvalues in ascending order via bisection, parallel over
/// eigenvalue indices (bit-identical to the sequential per-`k` loop).
pub fn bisection_eigenvalues(d: &[f64], e: &[f64], tol: f64) -> Vec<f64> {
    let n = d.len();
    if n < PAR_EIGS {
        (0..n).map(|k| kth_eigenvalue(d, e, k, tol)).collect()
    } else {
        (0..n)
            .into_par_iter()
            .map(|k| kth_eigenvalue(d, e, k, tol))
            .collect()
    }
}

/// Number of eigenvalues of a symmetric *banded* matrix strictly less
/// than `x`, via the inertia of the banded `LDLᵀ` factorization of
/// `B − x·I` (Sylvester's law; `O(n·b²)` work, no tridiagonalization).
///
/// This gives an eigensolver-independent check of every banded
/// intermediate the reduction ladder produces.
pub fn count_below_banded(b: &crate::BandedSym, x: f64) -> usize {
    let n = b.n();
    let bw = b.bandwidth().max(b.measured_bandwidth(0.0));
    if bw == 0 {
        return (0..n).filter(|&i| b.get(i, i) < x).count();
    }
    let scale = b.norm_fro().max(1.0);
    let mut work = vec![0.0f64; n * (bw + 1)];
    count_below_banded_into(b, x, bw, scale, &mut work)
}

/// [`count_below_banded`] with the bandwidth, pivot scale, and the
/// `n·(bw+1)` scratch buffer supplied by the caller — so a bisection
/// loop probes `O(log 1/tol)` shifts with one allocation instead of one
/// per probe. Arithmetic is identical to the per-probe path.
fn count_below_banded_into(
    b: &crate::BandedSym,
    x: f64,
    bw: usize,
    scale: f64,
    work: &mut [f64],
) -> usize {
    let n = b.n();
    let w = bw + 1;
    debug_assert_eq!(work.len(), n * w);
    // Banded LDLᵀ without pivoting, with a tiny-pivot safeguard (the
    // bisection caller only needs the negative count to be right within
    // the probe tolerance). Column-major lower storage, flattened:
    // entry (i, j) with j ≤ i ≤ j + bw lives at work[j·(bw+1) + (i−j)].
    for j in 0..n {
        let reach = n.min(j + w);
        let col = &mut work[j * w..j * w + w];
        for i in j..reach {
            col[i - j] = b.get(i, j);
        }
        for i in reach..j + w {
            col[i - j] = 0.0;
        }
        col[0] -= x;
    }
    let mut negatives = 0;
    for k in 0..n {
        let mut dk = work[k * w];
        if dk == 0.0 {
            dk = -f64::EPSILON * scale;
        }
        if dk < 0.0 {
            negatives += 1;
        }
        // Eliminate column k from the trailing band.
        let reach = n.min(k + w);
        for i in k + 1..reach {
            let lik = work[k * w + (i - k)] / dk;
            if lik == 0.0 {
                continue;
            }
            for j2 in i..reach {
                work[i * w + (j2 - i)] -= lik * work[k * w + (j2 - k)];
            }
        }
    }
    negatives
}

/// All eigenvalues of a symmetric banded matrix via bisection on the
/// banded inertia count (no tridiagonalization).
pub fn banded_bisection_eigenvalues(b: &crate::BandedSym, tol: f64) -> Vec<f64> {
    let n = b.n();
    let (glo, ghi) = banded_gershgorin_bounds(b);
    // Hoisted per-probe invariants: bandwidth, pivot scale (value-
    // identical — the matrix does not change between probes).
    let bw = b.bandwidth().max(b.measured_bandwidth(0.0));
    let scale = b.norm_fro().max(1.0);
    let one = |k: usize| banded_kth_in_bounds(b, k, tol, glo, ghi, bw, scale);
    if n < PAR_EIGS {
        (0..n).map(one).collect()
    } else {
        (0..n).into_par_iter().map(one).collect()
    }
}

/// Padded Gershgorin-style spectrum bounds from row sums of the band.
fn banded_gershgorin_bounds(b: &crate::BandedSym) -> (f64, f64) {
    let n = b.n();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..n {
        let mut r = 0.0;
        for j in 0..n {
            if i != j && i.abs_diff(j) <= b.capacity() {
                r += b.get(i, j).abs();
            }
        }
        lo = lo.min(b.get(i, i) - r);
        hi = hi.max(b.get(i, i) + r);
    }
    let pad = 1e-12 * (hi - lo).abs().max(1.0);
    (lo - pad, hi + pad)
}

/// Bisect for the `k`-th eigenvalue inside precomputed bounds, reusing
/// one scratch buffer for every probe.
fn banded_kth_in_bounds(
    b: &crate::BandedSym,
    k: usize,
    tol: f64,
    glo: f64,
    ghi: f64,
    bw: usize,
    scale: f64,
) -> f64 {
    let n = b.n();
    if bw == 0 {
        // Diagonal shortcut matches count_below_banded's.
        let (mut lo, mut hi) = (glo, ghi);
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if (0..n).filter(|&i| b.get(i, i) < mid).count() > k {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        return 0.5 * (lo + hi);
    }
    let mut work = vec![0.0f64; n * (bw + 1)];
    let (mut lo, mut hi) = (glo, ghi);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if count_below_banded_into(b, mid, bw, scale, &mut work) > k {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tridiag::try_tridiag_eigenvalues;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn counts_are_monotone_and_bounded() {
        let d = vec![2.0; 10];
        let e = vec![-1.0; 9];
        let (lo, hi) = gershgorin_bounds(&d, &e);
        assert_eq!(count_below(&d, &e, lo - 1.0), 0);
        assert_eq!(count_below(&d, &e, hi + 1.0), 10);
        let mut prev = 0;
        let mut x = lo;
        while x <= hi {
            let c = count_below(&d, &e, x);
            assert!(c >= prev);
            prev = c;
            x += 0.25;
        }
    }

    #[test]
    fn bisection_matches_ql_on_laplacian() {
        let n = 17;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let ql = try_tridiag_eigenvalues(&d, &e).unwrap();
        let bi = bisection_eigenvalues(&d, &e, 1e-12);
        for (a, b) in ql.iter().zip(&bi) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn bisection_matches_ql_on_random_tridiagonals() {
        let mut rng = StdRng::seed_from_u64(60);
        for trial in 0..5 {
            let n = 8 + trial * 7;
            let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let ql = try_tridiag_eigenvalues(&d, &e).unwrap();
            let bi = bisection_eigenvalues(&d, &e, 1e-11);
            for (a, b) in ql.iter().zip(&bi) {
                assert!((a - b).abs() < 1e-8, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gershgorin_contains_spectrum() {
        let mut rng = StdRng::seed_from_u64(61);
        let n = 12;
        let d: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let (lo, hi) = gershgorin_bounds(&d, &e);
        for lam in try_tridiag_eigenvalues(&d, &e).unwrap() {
            assert!(lam >= lo - 1e-12 && lam <= hi + 1e-12);
        }
    }

    #[test]
    fn kth_eigenvalue_interlaces() {
        let d = vec![1.0, 2.0, 3.0, 4.0];
        let e = vec![0.5, 0.5, 0.5];
        let evs: Vec<f64> = (0..4).map(|k| kth_eigenvalue(&d, &e, k, 1e-12)).collect();
        for w in evs.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn banded_inertia_matches_tridiagonal_counts() {
        use crate::gen;
        use crate::BandedSym;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(62);
        let n = 20;
        for bw in [1usize, 3, 5] {
            let dense = gen::random_banded(&mut rng, n, bw);
            let b = BandedSym::from_dense(&dense, bw, bw);
            let reference = crate::tridiag::try_banded_eigenvalues(&b).unwrap();
            for probe in [-2.0, -0.7, 0.0, 0.4, 1.8] {
                let count = count_below_banded(&b, probe);
                let expected = reference.iter().filter(|l| **l < probe).count();
                assert_eq!(count, expected, "bw={bw}, probe={probe}");
            }
        }
    }

    #[test]
    fn banded_bisection_matches_ql_path() {
        use crate::gen;
        use crate::BandedSym;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(63);
        let n = 16;
        let dense = gen::random_banded(&mut rng, n, 4);
        let b = BandedSym::from_dense(&dense, 4, 4);
        let ql = crate::tridiag::try_banded_eigenvalues(&b).unwrap();
        let bi = banded_bisection_eigenvalues(&b, 1e-11);
        for (x, y) in ql.iter().zip(&bi) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn banded_inertia_on_diagonal_matrix() {
        use crate::BandedSym;
        let mut b = BandedSym::zeros(5, 1, 1);
        for (i, v) in [3.0, -1.0, 0.5, -2.0, 4.0].iter().enumerate() {
            b.set(i, i, *v);
        }
        assert_eq!(count_below_banded(&b, 0.0), 2);
        assert_eq!(count_below_banded(&b, 10.0), 5);
        assert_eq!(count_below_banded(&b, -10.0), 0);
    }

    #[test]
    fn zero_offdiagonal_gives_diagonal() {
        let d = vec![5.0, -3.0, 1.0];
        let e = vec![0.0, 0.0];
        let bi = bisection_eigenvalues(&d, &e, 1e-12);
        assert!((bi[0] + 3.0).abs() < 1e-10);
        assert!((bi[1] - 1.0).abs() < 1e-10);
        assert!((bi[2] - 5.0).abs() < 1e-10);
    }
}
