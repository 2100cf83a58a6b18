#![allow(clippy::needless_range_loop)]
//! Quickstart: compute the eigenvalues of a symmetric matrix with the
//! communication-avoiding 2.5D eigensolver on a simulated BSP machine,
//! and inspect what the run cost.
//!
//! Run with: `cargo run --release --example quickstart`

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::dla::tridiag::spectrum_distance;
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenError, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), EigenError> {
    // Problem: a 128×128 symmetric matrix with a known spectrum
    // (A = Q·diag(λ)·Qᵀ for a random orthogonal Q), so we can check the
    // answer exactly.
    let n = 128;
    let mut rng = StdRng::seed_from_u64(2017);
    let spectrum = gen::linspace_spectrum(n, -10.0, 10.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);

    // Machine: 16 virtual processors with c = 1 replication
    // (δ = 1/2, a classic 2D configuration; try p = 64, c = 4 for the
    // full 2.5D regime).
    let p = 16;
    let c = 1;
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::try_new(p, c)?;
    println!(
        "solving n = {n} on p = {p} processors, c = {c} replicas (δ = {:.3})",
        params.delta()
    );

    // Solve. The eigensolver reduces A to successively thinner banded
    // matrices with the same eigenvalues (full → band → … → tridiagonal)
    // and returns the spectrum plus a per-stage cost breakdown.
    let (eigenvalues, stages) = try_symm_eigen_25d(&machine, &params, &a)?;

    let err = spectrum_distance(&eigenvalues, &spectrum);
    println!("largest eigenvalue error vs the prescribed spectrum: {err:.2e}");
    assert!(err < 1e-9 * n as f64);

    println!("\nper-stage costs (the paper's F/W/Q/S quantities):");
    println!(
        "  {:<34} {:>12} {:>10} {:>10} {:>8}",
        "stage", "F (flops)", "W (words)", "Q (words)", "S"
    );
    for s in &stages.stages {
        let c = &s.costs;
        println!(
            "  {:<34} {:>12} {:>10} {:>10} {:>8}",
            s.name, c.flops, c.horizontal_words, c.vertical_words, c.supersteps
        );
    }
    let t = stages.total();
    println!(
        "  {:<34} {:>12} {:>10} {:>10} {:>8}",
        "TOTAL", t.flops, t.horizontal_words, t.vertical_words, t.supersteps
    );

    // The modeled BSP execution time under the machine's α-β-γ-ν
    // parameters.
    let time = machine.report().time(machine.params());
    println!(
        "\nmodeled BSP time: compute {:.2e} + horizontal {:.2e} + vertical {:.2e} + sync {:.2e}",
        time.compute, time.horizontal, time.vertical, time.synchronization
    );
    println!("five smallest eigenvalues: {:?}", &eigenvalues[..5]);
    Ok(())
}
