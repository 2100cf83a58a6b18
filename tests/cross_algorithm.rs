#![allow(clippy::needless_range_loop)]
//! Cross-crate integration: all four eigensolvers must agree with each
//! other and with the prescribed spectrum on the same input.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::dla::tridiag::spectrum_distance;
use ca_symm_eig::eigen::baselines::{elpa_two_stage, scalapack::scalapack_eigenvalues};
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenParams};
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn problem(n: usize, seed: u64) -> (Vec<f64>, ca_symm_eig::dla::Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spectrum = gen::linspace_spectrum(n, -6.0, 2.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    (spectrum, a)
}

#[test]
fn all_solvers_agree_on_prescribed_spectrum() {
    let n = 64;
    let p = 16;
    let (spectrum, a) = problem(n, 400);
    let tol = 1e-8 * n as f64;

    let m = Machine::new(MachineParams::new(p));
    let (ev_25d, _) = try_symm_eigen_25d(&m, &EigenParams::new(p, 1), &a).unwrap();
    assert!(spectrum_distance(&ev_25d, &spectrum) < tol, "2.5d");

    let m = Machine::new(MachineParams::new(p));
    let ev_sca = scalapack_eigenvalues(&m, &Grid::all(p).squarest_2d(), &a);
    assert!(spectrum_distance(&ev_sca, &spectrum) < tol, "scalapack");

    let m = Machine::new(MachineParams::new(p));
    let ev_elpa = elpa_two_stage(&m, p, &a);
    assert!(spectrum_distance(&ev_elpa, &spectrum) < tol, "elpa");

    // Pairwise agreement tighter than against the generator.
    assert!(spectrum_distance(&ev_25d, &ev_sca) < tol);
    assert!(spectrum_distance(&ev_25d, &ev_elpa) < tol);
}

#[test]
fn solver_agrees_across_machine_configurations() {
    // The same matrix solved on different (p, c) machines must give the
    // same spectrum: the virtual machine must not affect numerics beyond
    // roundoff-level reordering.
    let n = 64;
    let (spectrum, a) = problem(n, 401);
    let tol = 1e-8 * n as f64;
    for (p, c) in [(1usize, 1usize), (4, 1), (16, 1), (8, 2), (64, 4)] {
        let m = Machine::new(MachineParams::new(p));
        let (ev, _) = try_symm_eigen_25d(&m, &EigenParams::new(p, c), &a).unwrap();
        assert!(
            spectrum_distance(&ev, &spectrum) < tol,
            "p={p} c={c} drifted by {}",
            spectrum_distance(&ev, &spectrum)
        );
    }
}

#[test]
fn degenerate_and_extreme_spectra() {
    let n = 32;
    let p = 4;
    let tol = 1e-8 * n as f64;
    let cases: Vec<Vec<f64>> = vec![
        vec![1.0; n],                                                 // fully degenerate
        (0..n).map(|i| if i < n / 2 { -1.0 } else { 1.0 }).collect(), // two clusters
        (0..n).map(|i| 10f64.powi(-(i as i32) / 8)).collect(),        // wide dynamic range
        gen::linspace_spectrum(n, -1e-6, 1e-6),                       // tiny scale
    ];
    for (idx, spectrum) in cases.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(402 + idx as u64);
        let mut sorted = spectrum.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let a = gen::symmetric_with_spectrum(&mut rng, spectrum);
        let m = Machine::new(MachineParams::new(p));
        let (ev, _) = try_symm_eigen_25d(&m, &EigenParams::new(p, 1), &a).unwrap();
        let scale = sorted.last().unwrap().abs().max(1e-12);
        assert!(
            spectrum_distance(&ev, &sorted) < tol * scale,
            "case {idx}: drift {}",
            spectrum_distance(&ev, &sorted)
        );
    }
}

#[test]
fn banded_intermediates_verified_by_inertia_counts() {
    // Eigensolver-independent verification: every banded intermediate of
    // the reduction ladder must have the same inertia (count of
    // eigenvalues below any probe) as the prescribed spectrum —
    // checked by banded LDLᵀ, with no further reduction involved.
    use ca_symm_eig::dla::sturm::count_below_banded;
    use ca_symm_eig::eigen::{try_band_to_band, try_full_to_band};
    use ca_symm_eig::pla::grid::Grid as PGrid;

    let n = 64;
    let p = 16;
    let (spectrum, a) = problem(n, 410);
    let m = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);
    let band = try_full_to_band(&m, &params, &a, 16, None).unwrap();
    let probes = [-5.0, -3.0, -1.0, 0.0, 1.5];
    for probe in probes {
        let expected = spectrum.iter().filter(|l| **l < probe).count();
        assert_eq!(
            count_below_banded(&band, probe),
            expected,
            "after full→band"
        );
    }
    let half = try_band_to_band(&m, &PGrid::all(p), &band, 8, 1, None).unwrap();
    for probe in probes {
        let expected = spectrum.iter().filter(|l| **l < probe).count();
        assert_eq!(
            count_below_banded(&half, probe),
            expected,
            "after band→band"
        );
    }
}

#[test]
fn eigenvector_decomposition_reconstructs_input() {
    use ca_symm_eig::dla::gemm::{matmul, Trans};
    use ca_symm_eig::eigen::try_symm_eigen_25d_vectors;
    let n = 64;
    let p = 16;
    let (_, a) = problem(n, 411);
    let m = Machine::new(MachineParams::new(p));
    let (ev, v, _) = try_symm_eigen_25d_vectors(&m, &EigenParams::new(p, 1), &a).unwrap();
    // V·Λ·Vᵀ = A.
    let mut vl = v.clone();
    for i in 0..n {
        for j in 0..n {
            vl.set(i, j, v.get(i, j) * ev[j]);
        }
    }
    let recon = matmul(&vl, Trans::N, &v, Trans::T);
    assert!(
        recon.max_diff(&a) < 1e-7 * n as f64,
        "V·Λ·Vᵀ deviates from A by {}",
        recon.max_diff(&a)
    );
}

#[test]
fn physical_matrices_laplacian() {
    // 2D Laplacian: eigenvalues are known analytically:
    // 4 − 2cos(iπ/(nx+1)) − 2cos(jπ/(ny+1)).
    let (nx, ny) = (8, 8);
    let n = nx * ny;
    let a = gen::laplacian_2d(nx, ny);
    let mut expected: Vec<f64> = (1..=nx)
        .flat_map(|i| {
            (1..=ny).map(move |j| {
                4.0 - 2.0 * (i as f64 * std::f64::consts::PI / (nx as f64 + 1.0)).cos()
                    - 2.0 * (j as f64 * std::f64::consts::PI / (ny as f64 + 1.0)).cos()
            })
        })
        .collect();
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let m = Machine::new(MachineParams::new(16));
    let (ev, _) = try_symm_eigen_25d(&m, &EigenParams::new(16, 1), &a).unwrap();
    assert!(spectrum_distance(&ev, &expected) < 1e-9 * n as f64);
}
