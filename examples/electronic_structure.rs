#![allow(clippy::needless_range_loop)]
//! Electronic-structure workload: the use-case the paper's introduction
//! motivates ("scientific applications such as electronic structure
//! methods, which compute eigenvalue decompositions of a sequence of
//! symmetric matrices (see, e.g. Hartree-Fock method)").
//!
//! We build a sequence of disordered tight-binding Hamiltonians (the
//! Anderson model on a ring), solve each with both the 2.5D
//! communication-avoiding eigensolver and the ScaLAPACK-style direct
//! method, track a physical observable (the spectral gap at the Fermi
//! level), and compare the accumulated communication of the two solvers
//! over the whole sequence — the regime where the asymptotic savings
//! compound.
//!
//! Run with: `cargo run --release --example electronic_structure`

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::dla::tridiag::spectrum_distance;
use ca_symm_eig::eigen::baselines::scalapack::scalapack_eigenvalues;
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenError, EigenParams};
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), EigenError> {
    let n = 256; // sites on the ring
    let p = 16;
    let hopping = 1.0;
    let steps = 4; // SCF-like iterations with varying disorder

    println!("Anderson tight-binding ring: n = {n} sites, {steps} disorder realizations, p = {p}");
    println!();

    let machine_ca = Machine::new(MachineParams::new(p));
    let machine_direct = Machine::new(MachineParams::new(p));
    let params = EigenParams::try_new(p, 1)?;
    let grid2 = Grid::all(p).squarest_2d();

    println!(
        "  {:>4}  {:>9}  {:>12}  {:>12}  {:>9}",
        "step", "disorder", "E_min", "gap@mid", "λ err"
    );
    for step in 0..steps {
        let disorder = 0.5 + step as f64;
        let mut rng = StdRng::seed_from_u64(100 + step as u64);
        let h = gen::tight_binding_ring(&mut rng, n, hopping, disorder);

        let (ev_ca, _) = try_symm_eigen_25d(&machine_ca, &params, &h)?;
        let ev_direct = scalapack_eigenvalues(&machine_direct, &grid2, &h);
        let err = spectrum_distance(&ev_ca, &ev_direct);
        assert!(err < 1e-8, "solvers disagree: {err}");

        // A physical observable: gap between the two states around the
        // band centre (half filling).
        let gap = ev_ca[n / 2] - ev_ca[n / 2 - 1];
        println!(
            "  {:>4}  {:>9.2}  {:>12.6}  {:>12.6}  {:>9.1e}",
            step, disorder, ev_ca[0], gap, err
        );
    }

    let ca = machine_ca.report();
    let direct = machine_direct.report();
    println!();
    println!("accumulated costs over the whole sequence:");
    println!(
        "  {:<18} {:>14} {:>14} {:>10}",
        "solver", "W (words)", "Q (words)", "S"
    );
    println!(
        "  {:<18} {:>14} {:>14} {:>10}",
        "2.5d ca-eigensolver", ca.horizontal_words, ca.vertical_words, ca.supersteps
    );
    println!(
        "  {:<18} {:>14} {:>14} {:>10}",
        "direct (pdsytrd)", direct.horizontal_words, direct.vertical_words, direct.supersteps
    );
    println!();
    let q_ratio = direct.vertical_words as f64 / ca.vertical_words as f64;
    let s_ratio = direct.supersteps as f64 / ca.supersteps as f64;
    println!("direct/banded vertical-traffic ratio: {q_ratio:.2}× (grows ∝ n — the n³/p");
    println!("trailing-matrix matvec traffic that banded reduction avoids);");
    println!("direct/banded synchronization ratio: {s_ratio:.2}× (the direct method");
    println!("synchronizes per column, Θ(n) times per solve).");
    Ok(())
}
