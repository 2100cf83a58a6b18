//! Budget-1 ↔ default equivalence: how much runs side by side must be
//! *invisible*. For a fixed input, a run under
//! `exec::with_forced_serial` (this thread's core budget set to 1:
//! nothing is queued to the pool) and a run with the whole pool must
//! produce bitwise-identical numbers **and** identical cost ledgers
//! (same F, W, Q, S after folding).
//!
//! This holds by construction — the rank bodies of a superstep are a
//! walk in rank order, ledger charges are commutative atomic adds folded
//! only at quiescent fences, and every kernel that forks fixes its
//! arithmetic by the split alone — and these tests pin it down for the
//! two algorithms with the most intricate structure, at shapes that
//! stay under every fork threshold and at one that does not.

use ca_symm_eig::bsp::{Costs, Machine, MachineParams};
use ca_symm_eig::dla::{gen, rt, BandedSym, Matrix};
use ca_symm_eig::eigen::full_to_band::full_to_band;
use ca_symm_eig::eigen::EigenParams;
use ca_symm_eig::pla::dist::DistMatrix;
use ca_symm_eig::pla::exec;
use ca_symm_eig::pla::grid::Grid;
use ca_symm_eig::pla::rect_qr::rect_qr_tree;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_full_to_band(n: usize, p: usize, b: usize, seed: u64) -> (BandedSym, Costs) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::random_symmetric(&mut rng, n);
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);
    let (band, _) = full_to_band(&machine, &params, &a, b);
    (band, machine.report())
}

#[test]
fn full_to_band_ledger_and_numbers_match_serial() {
    let (band_ser, costs_ser) = exec::with_forced_serial(|| run_full_to_band(64, 16, 8, 11));
    let (band_par, costs_par) = run_full_to_band(64, 16, 8, 11);
    assert_eq!(
        band_ser, band_par,
        "full_to_band must be bitwise identical under a budget of 1"
    );
    assert_eq!(
        costs_ser, costs_par,
        "folded F/W/Q/S ledgers must not depend on the core budget"
    );
}

/// A shape whose default run really forks: line 8's first trailing
/// product is `192 × 192 × 128` per rank — `2·192·192·128 ≥ 2²³` flops,
/// GEMM's fork threshold. Under the budget-1 scope not one piece may be
/// queued; by default, on a pool of more than one thread, some are.
/// (`jobs_run` is process-wide: this is the only test of this binary
/// that reaches a fork threshold, so a concurrent sibling cannot move
/// it.)
#[test]
fn budget_one_queues_nothing_where_the_default_forks() {
    let before = rt::stats().jobs_run;
    let (band_ser, costs_ser) = exec::with_forced_serial(|| run_full_to_band(512, 4, 128, 31));
    let after_forced = rt::stats().jobs_run;
    assert_eq!(
        after_forced, before,
        "a piece was queued under a core budget of 1"
    );

    let (band_par, costs_par) = run_full_to_band(512, 4, 128, 31);
    if rt::current_num_threads() > 1 {
        assert!(
            rt::stats().jobs_run > after_forced,
            "the default run was expected to fork at this shape"
        );
    }
    assert_eq!(band_ser, band_par, "forked and inline bits differ");
    assert_eq!(costs_ser, costs_par, "forked and inline ledgers differ");
}

fn run_rect_qr(m: usize, n: usize, p: usize, seed: u64) -> (Matrix, Matrix, Costs) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::random_matrix(&mut rng, m, n);
    let machine = Machine::new(MachineParams::new(p));
    let grid = Grid::new_1d((0..p).collect());
    let ad = DistMatrix::from_dense(&machine, &grid, &a);
    let (q, r) = rect_qr_tree(&machine, &ad, p);
    (q.assemble_unchecked(), r, machine.report())
}

#[test]
fn rect_qr_ledger_and_numbers_match_serial() {
    let (q_ser, r_ser, costs_ser) = exec::with_forced_serial(|| run_rect_qr(96, 48, 8, 23));
    let (q_par, r_par, costs_par) = run_rect_qr(96, 48, 8, 23);
    assert_eq!(q_ser, q_par, "explicit Q must be bitwise identical");
    assert_eq!(r_ser, r_par, "R factor must be bitwise identical");
    assert_eq!(
        costs_ser, costs_par,
        "folded F/W/Q/S ledgers must not depend on the core budget"
    );
}

/// The budget is this thread's again after the scope, also when the
/// scope unwinds.
#[test]
fn forced_serial_scope_restores_parallel_dispatch() {
    let outside = rt::current_budget();
    exec::with_forced_serial(|| assert_eq!(rt::current_budget(), 1));
    assert_eq!(rt::current_budget(), outside);
    let unwound = std::panic::catch_unwind(|| exec::with_forced_serial(|| panic!("unwinding")));
    assert!(unwound.is_err());
    assert_eq!(rt::current_budget(), outside);
}
