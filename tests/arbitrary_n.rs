#![allow(clippy::needless_range_loop)]
//! Arbitrary problem sizes: the solver pipeline accepts any `n ≥ 2` —
//! odd, prime, `2^k ± 1` — at every supported grid, with no internal
//! padding. These tests pin the acceptance matrix for the
//! power-of-two-removal work plus a randomized sweep over awkward
//! shapes.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::gen;
use ca_symm_eig::dla::tridiag::spectrum_distance;
use ca_symm_eig::dla::Matrix;
use ca_symm_eig::eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenError, EigenParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One eigenvalue run against a known spectrum; also checks that the
/// per-stage cost records cover the machine ledger exactly (no phase
/// runs unmetered, none is double-counted).
fn check_eigenvalues(n: usize, p: usize, c: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spectrum = gen::linspace_spectrum(n, -1.0, 1.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let m = Machine::new(MachineParams::new(p));
    let (ev, stages) = try_symm_eigen_25d(&m, &EigenParams::new(p, c), &a).unwrap();
    assert_eq!(ev.len(), n);
    let dist = spectrum_distance(&ev, &spectrum);
    assert!(
        dist < 1e-7 * n as f64,
        "n={n} p={p} c={c}: spectrum distance {dist}"
    );
    let total = stages.total();
    let ledger = m.report();
    assert_eq!(
        total.horizontal_words, ledger.horizontal_words,
        "n={n} p={p} c={c}: stage W does not cover the ledger"
    );
    assert_eq!(
        total.supersteps, ledger.supersteps,
        "n={n} p={p} c={c}: stage S does not cover the ledger"
    );
}

#[test]
fn acceptance_matrix_no_power_of_two_requirement() {
    // The issue's acceptance matrix: even-composite, odd, even-ragged,
    // and 2^k + 1 sizes at three grids. No panic, no internal padding.
    for n in [48usize, 65, 100, 129] {
        for (p, c) in [(4usize, 1usize), (16, 1), (8, 2)] {
            check_eigenvalues(n, p, c, 7000 + n as u64);
        }
    }
}

#[test]
fn tiny_sizes_solve() {
    for n in [2usize, 3, 4, 5] {
        for (p, c) in [(1usize, 1usize), (4, 1)] {
            check_eigenvalues(n, p, c, 7100 + n as u64);
        }
    }
}

#[test]
fn invalid_grids_surface_as_typed_errors_not_panics() {
    // (p, c) pairs with no q × q × c grid or outside the replication
    // regime come back as Err from the try_ constructors…
    assert!(matches!(
        EigenParams::try_new(6, 1),
        Err(EigenError::NonSquareGrid { p: 6, c: 1 })
    ));
    assert!(matches!(
        EigenParams::try_new(12, 5),
        Err(EigenError::ReplicationMismatch { p: 12, c: 5 })
    ));
    assert!(matches!(
        EigenParams::try_new(16, 4),
        Err(EigenError::ReplicationOutOfRegime { p: 16, c: 4 })
    ));
    // …and a hand-rolled inconsistent grid is rejected by the solver
    // itself before any cost is charged.
    let m = Machine::new(MachineParams::new(4));
    let mut bad = EigenParams::new(4, 1);
    bad.p = 6;
    let mut rng = StdRng::seed_from_u64(7300);
    let a = gen::random_symmetric(&mut rng, 8);
    assert!(try_symm_eigen_25d(&m, &bad, &a).is_err());
    assert_eq!(m.report().supersteps, 0);
}

/// Awkward dimensions: odd, prime, and `2^k ± 1` shapes around a base
/// size, never power-of-two-friendly by construction.
fn awkward_n() -> impl Strategy<Value = usize> {
    (3usize..=200, 0usize..4).prop_map(|(base, kind)| match kind {
        // Any size in range.
        0 => base,
        // Odd.
        1 => (base | 1).min(199),
        // Next prime at or above base.
        2 => {
            let is_prime = |x: usize| {
                x >= 2
                    && (2..x)
                        .take_while(|d| d * d <= x)
                        .all(|d| !x.is_multiple_of(d))
            };
            (base..=211).find(|&x| is_prime(x)).unwrap_or(199)
        }
        // Power of two ± 1.
        _ => {
            let pow = base.next_power_of_two().clamp(4, 128);
            if base % 2 == 0 {
                pow - 1
            } else {
                pow + 1
            }
        }
    })
}

fn grid_pair() -> impl Strategy<Value = (usize, usize)> {
    (0usize..5).prop_map(|i| [(1usize, 1usize), (4, 1), (16, 1), (8, 2), (64, 4)][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn eigenvalue_sweep_over_arbitrary_shapes(
        n in awkward_n(),
        (p, c) in grid_pair(),
        seed in 0u64..1000,
    ) {
        check_eigenvalues(n, p, c, seed);
    }

    #[test]
    fn eigenvector_sweep_over_arbitrary_shapes(
        n in (3usize..=56, 0usize..2).prop_map(|(b, k)| if k == 0 { b } else { (b | 1).min(55) }),
        (p, c) in grid_pair(),
        seed in 0u64..1000,
    ) {
        // Smaller sizes: the vectors path is O(n³) per back-transform
        // stage and these run in debug builds.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_symmetric(&mut rng, n);
        let m = Machine::new(MachineParams::new(p));
        let (ev, v, stages) = try_symm_eigen_25d_vectors(&m, &EigenParams::new(p, c), &a).unwrap();
        prop_assert_eq!(ev.len(), n);
        // Columns orthonormal, A·V = V·diag(λ).
        let vtv = matmul(&v, Trans::T, &v, Trans::N);
        prop_assert!(vtv.max_diff(&Matrix::identity(n)) < 1e-7 * n as f64);
        let av = matmul(&a, Trans::N, &v, Trans::N);
        let mut vl = v.clone();
        for i in 0..n {
            for j in 0..n {
                vl.set(i, j, v.get(i, j) * ev[j]);
            }
        }
        prop_assert!(av.max_diff(&vl) < 1e-7 * n as f64);
        // Stage records cover the ledger.
        let total = stages.total();
        let ledger = m.report();
        prop_assert_eq!(total.horizontal_words, ledger.horizontal_words);
        prop_assert_eq!(total.supersteps, ledger.supersteps);
    }
}
