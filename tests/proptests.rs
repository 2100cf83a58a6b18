#![allow(clippy::needless_range_loop)]
//! Property-based tests (proptest) on the core invariants:
//! orthogonality and reconstruction of every QR path, eigenvalue
//! preservation of every reduction, Sturm-count verification of whole
//! spectra, and distribution round-trips.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::qr::{explicit_q, qr_factor};
use ca_symm_eig::dla::sturm;
use ca_symm_eig::dla::tridiag::try_banded_eigenvalues;
use ca_symm_eig::dla::{bulge, BandedSym, Matrix};
use ca_symm_eig::pla::dist::DistMatrix;
use ca_symm_eig::pla::grid::Grid;
use ca_symm_eig::pla::tsqr::tsqr_explicit;
use proptest::prelude::*;

/// Strategy: a dense matrix with entries in [-1, 1].
fn matrix_strategy(max_m: usize, max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_m, 1..=max_n).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-1.0f64..1.0, m * n)
            .prop_map(move |data| Matrix::from_vec(m, n, data))
    })
}

/// Strategy: a symmetric banded matrix (n, b, dense storage).
fn banded_strategy() -> impl Strategy<Value = (Matrix, usize)> {
    (8usize..=40, 1usize..=3).prop_flat_map(|(n, half)| {
        // Even band-widths so a k = 2 halving always divides.
        let b = (2 * half).min(n - 2).max(2);
        proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
            let mut a = Matrix::from_vec(n, n, data);
            for i in 0..n {
                for j in 0..n {
                    if i.abs_diff(j) > b {
                        a.set(i, j, 0.0);
                    }
                }
            }
            a.symmetrize();
            (a, b)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qr_orthogonality_and_reconstruction(a in matrix_strategy(24, 12)) {
        prop_assume!(a.rows() >= a.cols());
        let f = qr_factor(&a, 4);
        let k = f.k();
        let q = explicit_q(&f.u, &f.t, k);
        let qtq = matmul(&q, Trans::T, &q, Trans::N);
        prop_assert!(qtq.max_diff(&Matrix::identity(k)) < 1e-9);
        let qr = matmul(&q, Trans::N, &f.r, Trans::N);
        prop_assert!(qr.max_diff(&a) < 1e-9 * (a.norm_max() + 1.0));
        // R upper-triangular.
        for i in 0..k {
            for j in 0..i.min(f.r.cols()) {
                prop_assert!(f.r.get(i, j).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn tsqr_matches_local_qr_invariants(a in matrix_strategy(48, 6), g in 1usize..=4) {
        prop_assume!(a.rows() >= a.cols() * g.max(1));
        let m = Machine::new(MachineParams::new(g));
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, r) = tsqr_explicit(&m, &da);
        let qd = q.dense().clone();
        let qtq = matmul(&qd, Trans::T, &qd, Trans::N);
        prop_assert!(qtq.max_diff(&Matrix::identity(a.cols())) < 1e-9);
        let qr = matmul(&qd, Trans::N, &r, Trans::N);
        prop_assert!(qr.max_diff(&a) < 1e-9 * (a.norm_max() + 1.0));
    }

    #[test]
    fn band_reduction_preserves_whole_spectrum((a, b) in banded_strategy()) {
        prop_assume!(b >= 2);
        let n = a.rows();
        let before = BandedSym::from_dense(&a, b, b);
        let reference = try_banded_eigenvalues(&before).unwrap();

        let mut bm = BandedSym::from_dense(&a, b, (2 * b).min(n - 1));
        bulge::reduce_band_to(&mut bm, b.div_ceil(2));
        prop_assert!(bm.measured_bandwidth(1e-9) <= b / 2 + b % 2 + (b / 2 == 0) as usize);

        let after = try_banded_eigenvalues(&bm).unwrap();
        for (x, y) in reference.iter().zip(&after) {
            prop_assert!((x - y).abs() < 1e-8 * n as f64, "{x} vs {y}");
        }
        // Sturm cross-check: counts below a few probes agree between the
        // QL spectrum and the reduced matrix's tridiagonal form.
        let mut work = BandedSym::from_dense(&a, b, (2 * b).min(n - 1));
        bulge::reduce_band_to(&mut work, 1); // straight to tridiagonal
        let (d, e) = work.tridiagonal();
        for probe in [-2.0, -0.5, 0.0, 0.5, 2.0] {
            let count = sturm::count_below(&d, &e, probe);
            let expected = reference.iter().filter(|l| **l < probe).count();
            prop_assert!(
                count.abs_diff(expected) <= 1,
                "Sturm count {count} vs spectrum count {expected} at {probe}"
            );
        }
    }

    #[test]
    fn dist_matrix_roundtrips(a in matrix_strategy(20, 20), pr in 1usize..=3, pc in 1usize..=3) {
        let p = pr * pc;
        let m = Machine::new(MachineParams::new(p));
        let grid = Grid::new_2d((0..p).collect(), pr, pc);
        let d = DistMatrix::from_dense(&m, &grid, &a);
        prop_assert!(d.dense().max_diff(&a) < 1e-15);
        let gathered = d.gather(&m, 0);
        prop_assert!(gathered.max_diff(&a) < 1e-15);
        // Redistribution to a different shape preserves content.
        let grid2 = Grid::new_2d((0..p).collect(), pc, pr);
        let d2 = d.redistribute(&m, &grid2);
        prop_assert!(d2.dense().max_diff(&a) < 1e-15);
    }

    #[test]
    fn carma_matches_sequential(a in matrix_strategy(16, 12), n in 1usize..=10, g in 1usize..=6) {
        let k = a.cols();
        let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let m = Machine::new(MachineParams::new(g));
        let c = ca_symm_eig::pla::carma::carma(&m, &Grid::all(g), &a, &b, 1);
        let want = matmul(&a, Trans::N, &b, Trans::N);
        prop_assert!(c.max_diff(&want) < 1e-10 * (k as f64 + 1.0));
    }

    #[test]
    fn numroc_partitions_and_roundtrips(
        n in 1usize..200,
        block in 1usize..9,
        nprocs in 1usize..7,
    ) {
        use ca_symm_eig::pla::cyclic::{global_to_local, local_to_global, numroc};
        let total: usize = (0..nprocs).map(|c| numroc(n, block, c, nprocs)).sum();
        prop_assert_eq!(total, n);
        for g in 0..n {
            let (owner, l) = global_to_local(g, block, nprocs);
            prop_assert!(owner < nprocs);
            prop_assert!(l < numroc(n, block, owner, nprocs));
            prop_assert_eq!(local_to_global(owner, l, block, nprocs), g);
        }
    }

    #[test]
    fn tridiag_ql_matches_sturm_bisection(
        d in proptest::collection::vec(-3.0f64..3.0, 4..24),
        scale in 0.1f64..2.0,
    ) {
        let n = d.len();
        let e: Vec<f64> = (0..n - 1).map(|i| scale * (((i * 13) % 7) as f64 / 7.0 - 0.4)).collect();
        let ql = ca_symm_eig::dla::tridiag::try_tridiag_eigenvalues(&d, &e).unwrap();
        let bi = sturm::bisection_eigenvalues(&d, &e, 1e-11);
        for (x, y) in ql.iter().zip(&bi) {
            prop_assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }
}

/// Strategy: one random service-batch composition. Each job spec is
/// `(n, want_vectors, seed)`.
fn batch_strategy() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((4usize..=40, 0usize..2, 0u64..100_000), 3..=8)
}

proptest! {
    // Each case spins up a service and solves a whole batch; fewer cases
    // than the kernel-level properties above keep the suite CI-fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random batch compositions (mixed sizes, values/vectors)
    /// served concurrently must preserve the conformance gallery's
    /// per-job numerical oracles: the construction spectrum, the
    /// eigenpair residual, and basis orthogonality — all at the
    /// gallery's own calibrated tolerance (`5e-9·n`) and using the
    /// gallery's own defect functions, not a reimplementation.
    #[test]
    fn service_batches_preserve_conformance_oracles(specs in batch_strategy()) {
        use ca_service::{EigenService, ServiceConfig, SymmEigenJob};
        use ca_symm_eig::dla::gen;
        use conformance::oracle::{orthogonality_defect, residual_defect};
        use rand::{rngs::StdRng, SeedableRng};

        let service = EigenService::new(ServiceConfig {
            workers: 3,
            // A mid-range floor so some jobs coalesce into batched leaf
            // solves while others run singly — both scheduler paths.
            batch_floor: 24,
            ..ServiceConfig::default()
        });

        let jobs: Vec<(Vec<f64>, Matrix, SymmEigenJob)> = specs
            .iter()
            .map(|&(n, vectors, seed)| {
                let mut rng = StdRng::seed_from_u64(0xBA7C4 ^ seed);
                let spectrum = gen::linspace_spectrum(n, -2.0, 2.0);
                let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
                let job = if vectors == 1 {
                    SymmEigenJob::with_vectors(a.clone(), 4, 1)
                } else {
                    SymmEigenJob::values(a.clone(), 4, 1)
                };
                (spectrum, a, job)
            })
            .collect();

        let results = service.solve_batch(jobs.iter().map(|(_, _, j)| j.clone()));
        prop_assert_eq!(results.len(), jobs.len());
        for ((spectrum, a, job), res) in jobs.iter().zip(results) {
            let r = res.expect("service must complete every admitted job");
            let n = a.rows();
            let tol = 5e-9 * n as f64; // the gallery's calibrated tolerance
            let scale = a.norm_max().max(1.0);

            // Oracle #3: eigenvalues against the construction spectrum.
            prop_assert_eq!(r.eigenvalues.len(), n);
            for (got, want) in r.eigenvalues.iter().zip(spectrum) {
                prop_assert!(
                    (got - want).abs() / scale < tol,
                    "n={n} eigenvalue {got} vs construction {want}"
                );
            }

            // Oracles #1 and #2 when eigenvectors were requested.
            if job.want_vectors {
                let v = r.vectors.as_ref().expect("vectors were requested");
                let res_defect = residual_defect(a, &r.eigenvalues, v);
                let orth_defect = orthogonality_defect(v);
                prop_assert!(res_defect < tol, "n={n} residual {res_defect:e}");
                prop_assert!(orth_defect < tol, "n={n} orthogonality {orth_defect:e}");
            } else {
                prop_assert!(r.vectors.is_none());
            }
        }
    }
}
