#![allow(clippy::needless_range_loop)]
//! Successive band reduction, visualized: watch a dense symmetric
//! matrix walk down the band-width ladder (full → b → b/2 → … →
//! tridiagonal) while its eigenvalues stay put — the structural heart of
//! the paper's §IV.
//!
//! Run with: `cargo run --release --example band_reduction_demo`

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::tridiag::{
    spectrum_distance, try_banded_eigenvalues, try_tridiag_eigenvalues,
};
use ca_symm_eig::dla::{gen, BandedSym};
use ca_symm_eig::eigen::{try_band_to_band, try_full_to_band, EigenError, EigenParams};
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), EigenError> {
    let n = 64;
    let b0 = 16;
    let p = 8;
    let mut rng = StdRng::seed_from_u64(31);
    let spectrum = gen::linspace_spectrum(n, 0.0, 8.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);

    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::try_new_unchecked(p, 2)?;
    let grid = Grid::all(p);

    println!("successive band reduction, n = {n}: dense → b = {b0} → … → tridiagonal");
    println!();
    println!("dense input (|entry| > 1e-9):");
    sparsity(&a_to_band(&a), n);

    // Stage 1: full → band.
    let mut band = try_full_to_band(&machine, &params, &a, b0, None)?;
    check(&band, &spectrum, "full→band")?;
    println!("\nafter full-to-band (b = {}):", band.bandwidth());
    sparsity(&band, n);

    // Stage 2: halve repeatedly.
    while band.bandwidth() > 1 {
        let half = band.bandwidth().div_ceil(2);
        band = try_band_to_band(&machine, &grid, &band, half, 1, None)?;
        check(&band, &spectrum, "band-to-band")?;
        println!("\nafter band-to-band (b = {}):", band.bandwidth());
        sparsity(&band, n);
    }

    // Final: tridiagonal eigensolve.
    let (d, e) = band.tridiagonal();
    let ev = try_tridiag_eigenvalues(&d, &e)?;
    let err = spectrum_distance(&ev, &spectrum);
    println!("\ntridiagonal QL eigenvalues vs prescribed spectrum: max error {err:.2e}");
    let total = machine.report();
    println!(
        "whole ladder cost: F = {}, W = {}, S = {}",
        total.flops, total.horizontal_words, total.supersteps
    );
    Ok(())
}

fn a_to_band(a: &ca_symm_eig::dla::Matrix) -> BandedSym {
    BandedSym::from_dense(a, a.rows() - 1, a.rows() - 1)
}

fn check(band: &BandedSym, spectrum: &[f64], stage: &str) -> Result<(), EigenError> {
    let ev = try_banded_eigenvalues(band)?;
    let err = spectrum_distance(&ev, spectrum);
    assert!(
        err < 1e-8 * spectrum.len() as f64,
        "{stage}: spectrum drifted {err}"
    );
    Ok(())
}

fn sparsity(bandm: &BandedSym, n: usize) {
    let step = (n / 32).max(1);
    for i in (0..n).step_by(step) {
        let mut row = String::from("    ");
        for j in (0..n).step_by(step) {
            row.push(if bandm.get(i, j).abs() > 1e-9 {
                '█'
            } else {
                '·'
            });
        }
        println!("{row}");
    }
}
