//! Integration tests of the paper's cost claims on the virtual machine —
//! the assertions behind Table I and the headline Θ(√c) statement.
//!
//! Each bound lives in one place, as a quick-tier row of
//! `conformance::claims` at this test's shape; the tests here name the
//! row they hold. The load-balance check has no claim form and stays
//! written out.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the quick-tier claim `id` alone and assert it holds.
fn holds(id: &str) {
    let report = conformance::run::run_claims(true, |c| c == id, |_| {});
    let verdicts: Vec<String> = report
        .exponents
        .iter()
        .map(|e| {
            format!(
                "{}: measured {:+.3} vs paper {:+.2} (tol ±{:.2})",
                e.id, e.measured_exponent, e.paper_exponent, e.tolerance
            )
        })
        .chain(report.ratios.iter().map(|r| {
            format!(
                "{}: ×{:.3} in [{:.2}, {:.2}]?",
                r.id, r.measured, r.lo, r.hi
            )
        }))
        .collect();
    assert_eq!(verdicts.len(), 1, "claim {id} is not a quick-tier row");
    assert!(report.pass, "{}", verdicts[0]);
}

#[test]
fn full_to_band_replication_saves_communication() {
    holds("full-to-band.gain.c4.b8");
}

#[test]
fn end_to_end_solver_wins_with_replication_at_scale() {
    holds("solver.gain.c4.n256");
}

#[test]
fn scalapack_vertical_traffic_is_cubic_in_n() {
    holds("scalapack.Q.n");
}

#[test]
fn scalapack_synchronization_is_linear_in_n() {
    holds("scalapack.S.n");
}

#[test]
fn banded_solver_synchronization_sublinear_in_n() {
    holds("solver.S.n128-over-n64");
}

#[test]
fn memory_grows_with_replication() {
    holds("full-to-band.M.c4-over-c1");
}

#[test]
fn solver_communication_decreases_with_p() {
    holds("solver.W.p16-over-p64");
}

#[test]
fn work_is_load_balanced_across_processors() {
    let n = 64;
    let p = 16;
    let mut rng = StdRng::seed_from_u64(507);
    let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let m = Machine::new(MachineParams::new(p));
    let _ = try_symm_eigen_25d(&m, &EigenParams::new(p, 1), &a).unwrap();
    let c = m.report();
    // Per-superstep-max F should be within a small factor of volume/p
    // (perfect balance would make them equal).
    let balance = c.flops as f64 / (c.total_flops as f64 / p as f64);
    assert!(
        balance < 6.0,
        "flop imbalance {balance:.1}× (max-per-superstep vs volume/p)"
    );
}
