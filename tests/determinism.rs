#![allow(clippy::needless_range_loop)]
//! Determinism: the virtual machine is single-threaded by design, so a
//! run is a pure function of (matrix, machine configuration) — same
//! inputs must give bitwise-identical eigenvalues *and* identical cost
//! ledgers. This is what makes the experiment harness's numbers
//! reproducible and the cost-regression tests meaningful.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_once(n: usize, p: usize, c: usize, seed: u64) -> (Vec<f64>, ca_symm_eig::bsp::Costs) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::random_symmetric(&mut rng, n);
    let m = Machine::new(MachineParams::new(p));
    let (ev, _) = try_symm_eigen_25d(&m, &EigenParams::new(p, c), &a).unwrap();
    (ev, m.report())
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    let (ev1, c1) = run_once(64, 16, 1, 42);
    let (ev2, c2) = run_once(64, 16, 1, 42);
    assert_eq!(ev1, ev2, "eigenvalues must be bitwise identical");
    assert_eq!(c1, c2, "cost ledgers must be identical");
}

#[test]
fn generator_is_seed_deterministic() {
    let mut r1 = StdRng::seed_from_u64(7);
    let mut r2 = StdRng::seed_from_u64(7);
    let a1 = gen::symmetric_with_spectrum(&mut r1, &gen::linspace_spectrum(16, -1.0, 1.0));
    let a2 = gen::symmetric_with_spectrum(&mut r2, &gen::linspace_spectrum(16, -1.0, 1.0));
    assert_eq!(a1, a2);
}

#[test]
fn vectors_path_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(43);
    let a = gen::random_symmetric(&mut rng, 32);
    let run = |a: &ca_symm_eig::dla::Matrix| {
        let m = Machine::new(MachineParams::new(4));
        let (ev, v, _) = try_symm_eigen_25d_vectors(&m, &EigenParams::new(4, 1), a).unwrap();
        (ev, v)
    };
    let (ev1, v1) = run(&a);
    let (ev2, v2) = run(&a);
    assert_eq!(ev1, ev2);
    assert_eq!(v1, v2);
}

#[test]
fn cost_ledger_independent_of_matrix_values() {
    // Costs depend only on structure (sizes, configuration) — two
    // different matrices of the same shape must produce the same ledger.
    let (_, c1) = run_once(64, 16, 1, 1);
    let (_, c2) = run_once(64, 16, 1, 2);
    assert_eq!(
        c1.horizontal_words, c2.horizontal_words,
        "W must be data-independent"
    );
    assert_eq!(c1.supersteps, c2.supersteps);
    assert_eq!(c1.flops, c2.flops);
}
