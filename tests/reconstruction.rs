#![allow(clippy::needless_range_loop)]
//! Direct coverage for Householder reconstruction (Corollary III.7):
//! the compact-WY pair `(U, T)` recovered from an explicit orthonormal
//! `Q` through the *non-pivoted LU path* must reproduce the explicitly
//! accumulated `Q` exactly — `Q = (I − U·T·Uᵀ)·[S; 0]` — including the
//! ragged (non-power-of-two) panel shapes the arbitrary-`n` pipeline
//! produces: odd group sizes, row counts the group does not divide, and
//! panel widths that are not powers of two — and at the shapes a
//! benchmark-sized solve hands it, where the LU, the triangular inverses
//! and the solves all run above their recursion's leaf.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::{gen, Matrix};
use ca_symm_eig::pla::dist::DistMatrix;
use ca_symm_eig::pla::exec;
use ca_symm_eig::pla::grid::Grid;
use ca_symm_eig::pla::reconstruct::{reconstruct, reconstruct_local};
use ca_symm_eig::pla::{rect_qr, tsqr};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn machine(p: usize) -> Machine {
    Machine::new(MachineParams::new(p))
}

/// Assert the Corollary III.7 identity `(I − U·T·Uᵀ)·[S; 0] = Q` and
/// the structural invariants of the WY pair.
fn assert_wy_identity(q: &Matrix, u: &Matrix, t: &Matrix, s: &[f64], tol: f64) {
    let (mrows, n) = (q.rows(), q.cols());
    let mut shat = Matrix::zeros(mrows, n);
    for i in 0..n {
        shat.set(i, i, s[i]);
        assert!(
            (s[i].abs() - 1.0).abs() < tol,
            "S must be a sign matrix, got {}",
            s[i]
        );
    }
    let uts = matmul(u, Trans::T, &shat, Trans::N);
    let tuts = matmul(t, Trans::N, &uts, Trans::N);
    let corr = matmul(u, Trans::N, &tuts, Trans::N);
    let mut rebuilt = shat.clone();
    rebuilt.axpy(-1.0, &corr);
    assert!(
        rebuilt.max_diff(q) < tol,
        "(I − U·T·Uᵀ)·[S;0] deviates from Q by {}",
        rebuilt.max_diff(q)
    );
    // U unit lower-trapezoidal, T upper-triangular.
    for i in 0..n {
        assert!((u.get(i, i) - 1.0).abs() < tol, "U diagonal at {i}");
        for j in i + 1..n {
            assert!(u.get(i, j).abs() < tol, "U({i},{j}) above diagonal");
        }
        for j in 0..i {
            assert!(t.get(i, j).abs() < tol, "T({i},{j}) below diagonal");
        }
    }
}

#[test]
fn distributed_reconstruction_matches_explicit_q_on_ragged_shapes() {
    // Non-power-of-two group sizes and row counts the group does not
    // divide: the straggler rank holds a short block.
    let mut rng = StdRng::seed_from_u64(2200);
    for (g, mrows, n) in [
        (3usize, 29usize, 5usize), // odd group, prime rows
        (5, 33, 7),                // 33 = 5·6 + 3 ragged remainder
        (6, 45, 9),                // non-power-of-two everything
        (7, 26, 3),                // more procs than a clean split
    ] {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, _r) = tsqr::tsqr_explicit(&m, &da);
        let q_dense = q.assemble_unchecked();
        // The explicitly accumulated Q is orthonormal…
        let qtq = matmul(&q_dense, Trans::T, &q_dense, Trans::N);
        assert!(
            qtq.max_diff(&Matrix::identity(n)) < 1e-9,
            "g={g}: QᵀQ − I = {}",
            qtq.max_diff(&Matrix::identity(n))
        );
        // …and the LU-path reconstruction reproduces it.
        let rec = reconstruct(&m, &q);
        assert_wy_identity(&q_dense, &rec.u.assemble_unchecked(), &rec.t, &rec.s, 1e-9);
    }
}

#[test]
fn local_and_distributed_reconstructions_agree() {
    // Same explicit Q through both paths: the sequential reference
    // (trsm-based) and the distributed LU path must produce the same
    // factors up to roundoff — S is sign-deterministic, so U and T
    // match directly, not just up to the identity.
    let mut rng = StdRng::seed_from_u64(2201);
    let g = 5;
    let (mrows, n) = (31usize, 6usize);
    let m = machine(g);
    let grid = Grid::new_2d((0..g).collect(), g, 1);
    let a = gen::random_matrix(&mut rng, mrows, n);
    let da = DistMatrix::from_dense(&m, &grid, &a);
    let (q, _) = tsqr::tsqr_explicit(&m, &da);
    let q_dense = q.assemble_unchecked();

    let rec = reconstruct(&m, &q);
    let (u_loc, t_loc, s_loc) = reconstruct_local(&q_dense);

    assert_eq!(rec.s.len(), s_loc.len());
    for (a, b) in rec.s.iter().zip(&s_loc) {
        assert_eq!(a, b, "sign choice diverged between paths");
    }
    assert!(
        rec.u.assemble_unchecked().max_diff(&u_loc) < 1e-9,
        "U diverged: {}",
        rec.u.assemble_unchecked().max_diff(&u_loc)
    );
    assert!(rec.t.max_diff(&t_loc) < 1e-9, "T diverged: {}", rec.t.max_diff(&t_loc));
}

#[test]
fn rect_qr_wy_factors_rebuild_input_on_ragged_panels() {
    // End-to-end through rect_qr (which uses reconstruction internally
    // for tall panels): A = (I − U·T·Uᵀ)·[R; 0] for panel shapes the
    // arbitrary-n full-to-band produces (width not a power of two, rows
    // not divisible by the group).
    let mut rng = StdRng::seed_from_u64(2202);
    for (g, mrows, n) in [(4usize, 37usize, 5usize), (3, 22, 6), (8, 51, 11)] {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let f = rect_qr::rect_qr(&m, &da);

        // Stack [R; 0] and apply I − U·T·Uᵀ.
        let u = f.u.assemble_unchecked();
        let mut stack = Matrix::zeros(mrows, n);
        stack.set_block(0, 0, &f.r);
        let ut = matmul(&u, Trans::T, &stack, Trans::N);
        let tut = matmul(&f.t, Trans::N, &ut, Trans::N);
        let corr = matmul(&u, Trans::N, &tut, Trans::N);
        stack.axpy(-1.0, &corr);
        assert!(
            stack.max_diff(&a) < 1e-9 * (mrows as f64),
            "g={g} {mrows}×{n}: A − (I−UTUᵀ)[R;0] = {}",
            stack.max_diff(&a)
        );
    }
}

#[test]
fn reconstruction_handles_square_panel() {
    // m = n: the trapezoidal part is empty, the LU path must still
    // produce a consistent (U, T, S).
    let mut rng = StdRng::seed_from_u64(2203);
    let g = 3;
    let n = 9;
    let m = machine(g);
    let grid = Grid::new_2d((0..g).collect(), g, 1);
    let a = gen::random_matrix(&mut rng, n, n);
    let da = DistMatrix::from_dense(&m, &grid, &a);
    let (q, _) = tsqr::tsqr_explicit(&m, &da);
    let rec = reconstruct(&m, &q);
    assert_wy_identity(&q.assemble_unchecked(), &rec.u.assemble_unchecked(), &rec.t, &rec.s, 1e-8);
}

#[test]
fn reconstruction_charges_the_ledger() {
    // Corollary III.7's point is that reconstruction costs O(mn/p) words
    // — it must be metered, not free.
    let g = 4;
    let m = machine(g);
    let grid = Grid::new_2d((0..g).collect(), g, 1);
    let mut rng = StdRng::seed_from_u64(2204);
    let a = gen::random_matrix(&mut rng, 30, 6);
    let da = DistMatrix::from_dense(&m, &grid, &a);
    let (q, _) = tsqr::tsqr_explicit(&m, &da);
    let before = m.snapshot();
    let _rec = reconstruct(&m, &q);
    let costs = m.costs_since(&before);
    assert!(costs.flops > 0, "reconstruction did no metered flops");
    assert!(costs.horizontal_words > 0, "reconstruction moved no metered words");
}

#[test]
fn production_shapes_reconstruct_to_working_precision() {
    // What a benchmark-sized solve reconstructs: `values_p4`'s panel QR
    // reaches a 256 × 128 `Q` on two processors (a 1 × 1 subgrid: every
    // triangular kernel local and four recursion levels deep), and the
    // 2.5D workload runs the triangular work on a 5 × 5 subgrid (blocks
    // of 12 and 13: panel solves, broadcasts, the block back-substitution).
    let mut rng = StdRng::seed_from_u64(2205);
    for (g, mrows, n) in [(2usize, 256usize, 128usize), (25, 300, 64)] {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, _) = tsqr::tsqr_explicit(&m, &da);
        let q_dense = q.assemble_unchecked();
        let rec = reconstruct(&m, &q);
        let u = rec.u.assemble_unchecked();
        assert_wy_identity(&q_dense, &u, &rec.t, &rec.s, 1e-12);

        // Kernel pieces inline (budget 1) or pooled: the same bits.
        let inline = exec::with_forced_serial(|| reconstruct(&machine(g), &q));
        assert_eq!(inline.s, rec.s, "g = {g}: signs depend on the budget");
        assert_eq!(inline.t, rec.t, "g = {g}: T's bits depend on the budget");
        assert_eq!(inline.u.assemble_unchecked(), u, "g = {g}: U's bits depend on the budget");

        // The sequential form (right solves instead of inverses) agrees.
        let (u_loc, t_loc, s_loc) = reconstruct_local(&q_dense);
        assert_eq!(s_loc, rec.s);
        assert!(u.max_diff(&u_loc) < 1e-12, "g = {g}: U off the local form by {}", u.max_diff(&u_loc));
        assert!(rec.t.max_diff(&t_loc) < 1e-12, "g = {g}: T off the local form by {}", rec.t.max_diff(&t_loc));
    }
}
