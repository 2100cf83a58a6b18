#![allow(clippy::needless_range_loop)]
//! Failure injection: the guard rails must fire on misuse — wrong
//! shapes, out-of-regime parameters, asymmetric inputs, capacity
//! violations — rather than silently producing wrong costs or numbers.
//!
//! Everything with a `try_*` entry point asserts the *typed*
//! [`EigenError`] (the contract a serving layer programs against);
//! `should_panic` remains only for the low-level invariants that have
//! no typed path (capacity checks, kernel shape asserts).

use ca_symm_eig::bsp::{Costs, Machine, MachineParams};
use ca_symm_eig::dla::{gen, BandedSym, Matrix};
use ca_symm_eig::eigen::{
    try_band_to_band, try_full_to_band, try_singular_values, try_svd, try_symm_eigen_25d,
    try_symm_eigen_25d_vectors, EigenError, EigenParams,
};
use ca_symm_eig::pla::dist::DistMatrix;
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn machine(p: usize) -> Machine {
    Machine::new(MachineParams::new(p))
}

#[test]
fn full_to_band_rejects_asymmetric_input() {
    let m = machine(4);
    let a = Matrix::from_fn(16, 16, |i, j| (i * 16 + j) as f64);
    assert!(matches!(
        try_full_to_band(&m, &EigenParams::new(4, 1), &a, 4, None),
        Err(EigenError::AsymmetricInput { .. })
    ));
    // The recording path validates alike and records nothing.
    let mut rec = Vec::new();
    assert!(matches!(
        try_full_to_band(&m, &EigenParams::new(4, 1), &a, 4, Some(&mut rec)),
        Err(EigenError::AsymmetricInput { .. })
    ));
    assert!(rec.is_empty(), "rejected request recorded transforms");
    let words = m.report().horizontal_words;
    assert_eq!(words, 0, "rejected request charged the ledger");
    assert_eq!(m.report().supersteps, 0);
}

#[test]
fn full_to_band_rejects_overwide_bandwidth() {
    // Non-dividing band-widths are legal now (arbitrary n); b ≥ n is
    // still nonsense.
    let m = machine(4);
    let mut a = Matrix::from_fn(16, 16, |i, j| ((i + j) as f64).sin());
    a.symmetrize();
    let params = EigenParams::new(4, 1);
    let err = try_full_to_band(&m, &params, &a, 16, None).unwrap_err();
    assert_eq!(err, EigenError::InvalidBandwidth { n: 16, b: 16 });
    let msg = err.to_string();
    assert!(msg.contains("1 ≤ b < n"), "unexpected message: {msg}");
    assert!(matches!(
        try_full_to_band(&m, &params, &a, 0, None),
        Err(EigenError::InvalidBandwidth { n: 16, b: 0 })
    ));
    // The recording path takes the same checks — band-width and grid —
    // and records nothing.
    let mut rec = Vec::new();
    for b in [16, 17, 0] {
        assert!(matches!(
            try_full_to_band(&m, &params, &a, b, Some(&mut rec)),
            Err(EigenError::InvalidBandwidth { n: 16, .. })
        ));
    }
    let mut bad = params;
    bad.q = 3;
    assert!(matches!(
        try_full_to_band(&m, &bad, &a, 4, Some(&mut rec)),
        Err(EigenError::NonSquareGrid { .. })
    ));
    assert!(rec.is_empty(), "rejected request recorded transforms");
    let words = m.report().horizontal_words;
    assert_eq!(words, 0, "rejected request charged the ledger");
    assert_eq!(m.report().supersteps, 0);
}

#[test]
fn band_to_band_rejects_bad_k() {
    // The target h need not divide b, but it must lie in 1 ≤ h ≤ b —
    // on the plain and the recording path alike.
    let m = machine(2);
    let b = BandedSym::zeros(16, 6, 6);
    let mut rec = Vec::new();
    for h in [7, 0] {
        assert_eq!(
            try_band_to_band(&m, &Grid::all(2), &b, h, 1, None).unwrap_err(),
            EigenError::InvalidTargetBandwidth { b: 6, h }
        );
        assert_eq!(
            try_band_to_band(&m, &Grid::all(2), &b, h, 1, Some(&mut rec)).unwrap_err(),
            EigenError::InvalidTargetBandwidth { b: 6, h }
        );
    }
    assert!(rec.is_empty(), "rejected request recorded transforms");
    assert_eq!(m.report().horizontal_words, 0);
    assert_eq!(m.report().supersteps, 0);
}

#[test]
fn machine_smaller_than_grid_is_a_typed_error() {
    // A 16-processor request on a 4-processor machine: every entry
    // point refuses it before the first charge to a missing processor.
    let m = machine(4);
    let params = EigenParams::new(16, 1);
    let a = gen::random_symmetric(&mut StdRng::seed_from_u64(34), 64);
    let want = EigenError::MachineMismatch {
        machine_p: 4,
        grid_p: 16,
    };
    assert_eq!(try_symm_eigen_25d(&m, &params, &a).unwrap_err(), want);
    assert_eq!(
        try_symm_eigen_25d_vectors(&m, &params, &a).unwrap_err(),
        want
    );
    let mut rec = Vec::new();
    assert_eq!(
        try_full_to_band(&m, &params, &a, 8, Some(&mut rec)).unwrap_err(),
        want
    );
    let band = BandedSym::from_dense(
        &gen::random_banded(&mut StdRng::seed_from_u64(35), 64, 8),
        8,
        8,
    );
    assert_eq!(
        try_band_to_band(&m, &Grid::all(16), &band, 4, 1, Some(&mut rec)).unwrap_err(),
        want
    );
    assert!(rec.is_empty(), "rejected request recorded transforms");
    assert_eq!(
        m.report(),
        Costs::default(),
        "rejected request charged the ledger"
    );
}

#[test]
fn params_reject_excess_replication() {
    assert_eq!(
        EigenParams::try_new(16, 4), // 4³ = 64 > 16
        Err(EigenError::ReplicationOutOfRegime { p: 16, c: 4 })
    );
}

#[test]
fn params_reject_non_square_layer() {
    assert_eq!(
        EigenParams::try_new(24, 2),
        Err(EigenError::NonSquareGrid { p: 24, c: 2 })
    );
}

#[test]
fn solver_rejects_degenerate_sizes() {
    // Arbitrary n ≥ 2 is supported now (n = 24 solves fine); n < 2 is
    // still rejected.
    let m = machine(4);
    let a = Matrix::from_fn(1, 1, |_, _| 3.0);
    assert!(matches!(
        try_symm_eigen_25d(&m, &EigenParams::new(4, 1), &a),
        Err(EigenError::TooSmall { n: 1 })
    ));
}

#[test]
fn svd_surfaces_embedded_solver_errors() {
    // try_svd / try_singular_values route through the embedded
    // eigensolve, so grid errors surface typed, before any charge.
    let m = machine(4);
    let a = Matrix::from_fn(6, 4, |i, j| ((i * 4 + j) as f64).cos());
    let mut bad = EigenParams::new(4, 1);
    bad.q = 3;
    assert!(matches!(
        try_svd(&m, &bad, &a),
        Err(EigenError::NonSquareGrid { .. })
    ));
    assert!(matches!(
        try_singular_values(&m, &bad, &a),
        Err(EigenError::NonSquareGrid { .. })
    ));
    // Degenerate 0×0 input: the m+n = 0 embedding is below the solver's
    // minimum dimension.
    let empty = Matrix::zeros(0, 0);
    assert!(matches!(
        try_svd(&m, &EigenParams::new(4, 1), &empty),
        Err(EigenError::TooSmall { n: 0 })
    ));
    assert!(matches!(
        try_singular_values(&m, &EigenParams::new(4, 1), &empty),
        Err(EigenError::TooSmall { n: 0 })
    ));
    assert_eq!(m.report().horizontal_words, 0);
    assert_eq!(m.report().supersteps, 0);
}

#[test]
fn solver_surfaces_invalid_inputs_as_typed_errors() {
    use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenError};
    let m = machine(4);
    let params = EigenParams::new(4, 1);
    // Non-square input.
    let rect = Matrix::zeros(4, 6);
    assert!(matches!(
        try_symm_eigen_25d(&m, &params, &rect),
        Err(EigenError::NonSquareInput { rows: 4, cols: 6 })
    ));
    // Asymmetric input.
    let askew = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
    assert!(matches!(
        try_symm_eigen_25d(&m, &params, &askew),
        Err(EigenError::AsymmetricInput { .. })
    ));
    // Inconsistent hand-rolled grid parameters.
    let mut bad = EigenParams::new(4, 1);
    bad.q = 3;
    let mut a = Matrix::from_fn(8, 8, |i, j| ((i + j) as f64).sin());
    a.symmetrize();
    assert!(matches!(
        try_symm_eigen_25d(&m, &bad, &a),
        Err(EigenError::NonSquareGrid { .. })
    ));
    // Nothing was charged to the ledger by a rejected request.
    assert_eq!(m.report().horizontal_words, 0);
    assert_eq!(m.report().supersteps, 0);
}

#[test]
fn solver_rejects_non_finite_input_up_front() {
    // NaN compares false against every tolerance, so without an
    // explicit gate a NaN matrix sails through the symmetry check and
    // defeats every convergence test deep in the reduction. The solver
    // now rejects non-finite entries at validation, naming the first
    // offending coordinate, before anything is charged to the ledger.
    let m = machine(4);
    let params = EigenParams::new(4, 1);
    let mut a = Matrix::from_fn(16, 16, |i, j| ((i + j) as f64).sin());
    a.symmetrize();
    a.set(3, 7, f64::NAN);
    assert!(matches!(
        try_symm_eigen_25d(&m, &params, &a),
        Err(EigenError::NonFiniteInput { row: 3, col: 7 })
    ));
    // Same gate on the eigenvector path, and for infinities.
    a.set(3, 7, f64::NEG_INFINITY);
    assert!(matches!(
        ca_symm_eig::eigen::try_symm_eigen_25d_vectors(&m, &params, &a),
        Err(EigenError::NonFiniteInput { row: 3, col: 7 })
    ));
    // An all-NaN matrix is caught at (0, 0) rather than reaching the
    // sequential finale's iteration budget.
    let nan = Matrix::from_fn(16, 16, |_, _| f64::NAN);
    assert!(matches!(
        try_symm_eigen_25d(&m, &params, &nan),
        Err(EigenError::NonFiniteInput { row: 0, col: 0 })
    ));
    assert_eq!(m.report().horizontal_words, 0, "rejected request charged the ledger");
    assert_eq!(m.report().supersteps, 0);
}

#[test]
#[should_panic(expected = "inner dimensions")]
fn carma_rejects_shape_mismatch() {
    let m = machine(2);
    let a = Matrix::zeros(4, 5);
    let b = Matrix::zeros(4, 4);
    let _ = ca_symm_eig::pla::carma::carma(&m, &Grid::all(2), &a, &b, 1);
}

#[test]
#[should_panic(expected = "block out of range")]
fn dist_matrix_rejects_out_of_range_reads() {
    let m = machine(4);
    let g = Grid::new_2d((0..4).collect(), 2, 2);
    let d = DistMatrix::zeros(&m, &g, 8, 8);
    let _ = d.block_redist(&m, 6, 6, 4, 4, &g);
}

#[test]
#[should_panic(expected = "fill analysis violated")]
fn banded_capacity_violation_is_caught() {
    let mut b = BandedSym::zeros(10, 2, 3);
    b.set(9, 0, 1.0);
}

#[test]
#[should_panic(expected = "capacity")]
fn reduce_band_requires_bulge_capacity() {
    let mut b = BandedSym::zeros(16, 4, 4); // capacity == bandwidth: no bulge room
    ca_symm_eig::dla::bulge::reduce_band_to(&mut b, 2);
}

#[test]
#[should_panic(expected = "requires m ≥ n")]
fn rect_qr_rejects_wide_input() {
    let m = machine(2);
    let g = Grid::new_2d(vec![0, 1], 2, 1);
    let a = Matrix::zeros(4, 8);
    let d = DistMatrix::from_dense(&m, &g, &a);
    let _ = ca_symm_eig::pla::rect_qr::rect_qr(&m, &d);
}

#[test]
fn machine_free_does_not_underflow_in_release() {
    // Memory tracking saturates rather than wrapping.
    let m = machine(1);
    m.alloc(0, 10);
    m.free(0, 10);
    assert_eq!(m.report().peak_memory_words, 10);
}

#[test]
#[should_panic(expected = "zero pivot")]
fn lu_rejects_singular_leading_minor() {
    let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 1.0]);
    let _ = ca_symm_eig::dla::lu::lu_nopivot(&a);
}
