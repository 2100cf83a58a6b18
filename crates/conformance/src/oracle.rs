//! Numerical oracle suite: the harness's answer to "the costs scale,
//! but are the numbers right?".
//!
//! A seeded matrix gallery (built on `ca_dla::gen`) is solved with the
//! 2.5D eigensolver and checked four ways:
//!
//! 1. **Residual** `‖AV − VΛ‖_max / (n‖A‖_max)` — the computed pairs
//!    actually diagonalize `A`;
//! 2. **Orthogonality** `‖VᵀV − I‖_max` — the basis did not drift;
//! 3. **Reference spectrum** — eigenvalues against either the known
//!    construction spectrum (`symmetric_with_spectrum` galleries) or an
//!    independent Sturm-bisection reference (tridiagonal galleries
//!    directly; dense galleries through a *sequential* bulge-chasing
//!    tridiagonalization, a different code path from the parallel
//!    pipeline under test);
//! 4. **Metamorphic invariances** — `λ(A + σI) = λ(A) + σ`,
//!    `λ(sA) = s·λ(A)`, and `λ(QAQᵀ) = λ(A)` for a seeded orthogonal
//!    `Q`; these need no reference at all and catch silent scaling or
//!    similarity bugs.

use crate::report::OracleOut;
use ca_bsp::{Machine, MachineParams};
use ca_dla::gemm::{matmul, Trans};
use ca_dla::sturm::bisection_eigenvalues;
use ca_dla::{bulge, gen, BandedSym, Matrix};
use ca_eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Where a gallery entry's reference eigenvalues come from.
enum RefSpec {
    /// The spectrum the matrix was constructed from.
    Known(Vec<f64>),
    /// Independent Sturm bisection on the tridiagonal form.
    Sturm,
}

impl RefSpec {
    fn label(&self) -> &'static str {
        match self {
            RefSpec::Known(_) => "construction spectrum",
            RefSpec::Sturm => "Sturm bisection",
        }
    }
}

struct GalleryEntry {
    name: &'static str,
    a: Matrix,
    reference: RefSpec,
}

/// The seeded gallery at dimension `n`. Every entry is deterministic.
fn gallery(n: usize) -> Vec<GalleryEntry> {
    let mut rng = StdRng::seed_from_u64(0x0AC1E);
    let linspace = gen::linspace_spectrum(n, -1.0, 1.0);
    let graded = gen::graded_spectrum(n, 4.0, 0.75);
    let clustered = gen::clustered_spectrum(n, 4, -2.0, 2.0, 1e-9);
    vec![
        GalleryEntry {
            name: "linspace",
            a: gen::symmetric_with_spectrum(&mut rng, &linspace),
            reference: RefSpec::Known(linspace),
        },
        GalleryEntry {
            name: "graded",
            a: gen::symmetric_with_spectrum(&mut rng, &graded),
            reference: RefSpec::Known(graded),
        },
        GalleryEntry {
            name: "clustered",
            a: gen::symmetric_with_spectrum(&mut rng, &clustered),
            reference: RefSpec::Known(clustered),
        },
        GalleryEntry {
            name: "diag-dominant",
            a: gen::diagonally_dominant(&mut rng, n, 4.0),
            reference: RefSpec::Sturm,
        },
        GalleryEntry {
            name: "wilkinson",
            a: gen::wilkinson(n | 1), // Wilkinson matrices are odd-sized
            reference: RefSpec::Sturm,
        },
        GalleryEntry {
            name: "clement",
            a: gen::clement(n),
            reference: RefSpec::Sturm,
        },
        GalleryEntry {
            name: "tight-binding",
            a: gen::tight_binding_ring(&mut rng, n, 1.0, 0.3),
            reference: RefSpec::Sturm,
        },
    ]
}

/// Independent reference spectrum by sequential bulge-chasing
/// tridiagonalization + Sturm bisection — no parallel pipeline code.
fn sturm_spectrum(a: &Matrix) -> Vec<f64> {
    let n = a.rows();
    let bw = measured_dense_bandwidth(a);
    if bw <= 1 {
        let (d, e) = tridiag_of(a);
        return bisection_eigenvalues(&d, &e, 1e-12);
    }
    let cap = (2 * bw).min(n - 1);
    let mut bm = BandedSym::from_dense(a, bw, cap);
    bulge::reduce_band_to(&mut bm, 1); // straight to tridiagonal
    let (d, e) = bm.tridiagonal();
    bisection_eigenvalues(&d, &e, 1e-12)
}

fn measured_dense_bandwidth(a: &Matrix) -> usize {
    let n = a.rows();
    let mut bw = 0;
    for i in 0..n {
        for j in 0..i {
            if a.get(i, j) != 0.0 {
                bw = bw.max(i - j);
            }
        }
    }
    bw
}

fn tridiag_of(a: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    let d = (0..n).map(|i| a.get(i, i)).collect();
    let e = (0..n - 1).map(|i| a.get(i + 1, i)).collect();
    (d, e)
}

fn solve_values(p: usize, c: usize, a: &Matrix) -> Vec<f64> {
    let m = Machine::new(MachineParams::new(p));
    let params = EigenParams::try_new_unchecked(p, c).unwrap();
    try_symm_eigen_25d(&m, &params, a).unwrap().0
}

fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Scaled eigenpair residual `‖AV − VΛ‖_max / (n‖A‖_max)` — oracle #1.
///
/// Public so downstream property tests (e.g. the service batch sweep in
/// the umbrella crate) apply *the same* acceptance metric as the
/// conformance gallery rather than reinventing a near-miss of it.
pub fn residual_defect(a: &Matrix, eigenvalues: &[f64], v: &Matrix) -> f64 {
    let n = a.rows();
    let scale = a.norm_max().max(1.0);
    let av = matmul(a, Trans::N, v, Trans::N);
    let mut vl = v.clone();
    for (j, lambda) in eigenvalues.iter().enumerate() {
        for i in 0..n {
            vl.set(i, j, vl.get(i, j) * lambda);
        }
    }
    av.max_diff(&vl) / (n as f64 * scale)
}

/// Basis-drift defect `‖VᵀV − I‖_max` — oracle #2. See
/// [`residual_defect`] for why this is public.
pub fn orthogonality_defect(v: &Matrix) -> f64 {
    let vtv = matmul(v, Trans::T, v, Trans::N);
    vtv.max_diff(&Matrix::identity(v.rows()))
}

/// Run the full oracle battery for one gallery entry at `(p, c)`.
fn check_entry(entry: &GalleryEntry, p: usize, c: usize, tol: f64) -> OracleOut {
    let a = &entry.a;
    let n = a.rows();
    let scale = a.norm_max().max(1.0);

    // Eigenpairs: residual + orthogonality.
    let m = Machine::new(MachineParams::new(p));
    let params = EigenParams::try_new_unchecked(p, c).unwrap();
    let (ev, v, _) = try_symm_eigen_25d_vectors(&m, &params, a).unwrap();
    let residual = residual_defect(a, &ev, &v);
    let orthogonality = orthogonality_defect(&v);

    // Reference spectrum.
    let reference = match &entry.reference {
        RefSpec::Known(s) => s.clone(),
        RefSpec::Sturm => sturm_spectrum(a),
    };
    let eigenvalue_error = max_abs_diff(&ev, &reference) / scale;

    // Metamorphic invariances (eigenvalues only).
    let sigma = 1.25;
    let mut shifted = a.clone();
    for i in 0..n {
        shifted.set(i, i, shifted.get(i, i) + sigma);
    }
    let ev_shift = solve_values(p, c, &shifted);
    let want_shift: Vec<f64> = ev.iter().map(|l| l + sigma).collect();
    let shift_defect = max_abs_diff(&ev_shift, &want_shift) / scale;

    let s = 3.0;
    let mut scaled = a.clone();
    scaled.scale(s);
    let ev_scale = solve_values(p, c, &scaled);
    let want_scale: Vec<f64> = ev.iter().map(|l| s * l).collect();
    let scale_defect = max_abs_diff(&ev_scale, &want_scale) / (s * scale);

    let mut rng = StdRng::seed_from_u64(0x51u64 + n as u64);
    let q = gen::random_orthogonal(&mut rng, n);
    let qa = matmul(&q, Trans::N, a, Trans::N);
    let mut sim = matmul(&qa, Trans::N, &q, Trans::T);
    sim.symmetrize(); // roundoff-level asymmetry from the two products
    let ev_sim = solve_values(p, c, &sim);
    let similarity_defect = max_abs_diff(&ev_sim, &ev) / scale;

    let pass = residual < tol
        && orthogonality < tol
        && eigenvalue_error < tol
        && shift_defect < tol
        && scale_defect < tol
        && similarity_defect < tol;
    OracleOut {
        matrix: entry.name.to_string(),
        n: n as u64,
        p: p as u64,
        c: c as u64,
        residual,
        orthogonality,
        eigenvalue_error,
        reference: entry.reference.label().to_string(),
        shift_defect,
        scale_defect,
        similarity_defect,
        tolerance: tol,
        pass,
    }
}

/// Run the oracle gallery. `quick` solves at `n = 32` on `p = 4`
/// processors only; the full run adds `n = 48` and a replicated
/// `(p = 8, c = 2)` configuration for the spectrum-construction
/// galleries.
///
/// The tolerance `5e-9·n` on every scaled defect was calibrated at
/// ~10× the worst observed defect (clustered spectra and the
/// back-transformation accumulate the most roundoff).
pub fn run_gallery(quick: bool) -> Vec<OracleOut> {
    let mut out = Vec::new();
    let tol_at = |n: usize| 5e-9 * n as f64;
    for e in gallery(32) {
        out.push(check_entry(&e, 4, 1, tol_at(32)));
    }
    if !quick {
        for e in gallery(48) {
            out.push(check_entry(&e, 4, 1, tol_at(48)));
        }
        // Replication must not change the numbers, only the words.
        for e in gallery(32).into_iter().take(3) {
            out.push(check_entry(&e, 8, 2, tol_at(32)));
        }
    }
    out
}
