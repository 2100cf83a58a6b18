#![allow(clippy::needless_range_loop)]
//! Eigenvectors and singular values: the §IV.C extension in action.
//!
//! Computes the vibrational modes of a discrete 1D chain (the
//! tridiagonal Laplacian — whose eigenvectors are exact sine waves we
//! can check against) with `try_symm_eigen_25d_vectors`, then the SVD of a
//! rank-structured rectangular matrix via the Jordan–Wielandt embedding.
//!
//! Run with: `cargo run --release --example modes_and_svd`

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::{try_svd, try_symm_eigen_25d_vectors, EigenError, EigenParams};

fn main() -> Result<(), EigenError> {
    // Part 1: modes of a fixed-end chain of 64 masses.
    let n = 64;
    let a = gen::laplacian_2d(n, 1); // tridiagonal (−1, 4, −1): 1D slice of the 2D stencil
    let p = 8;
    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::try_new_unchecked(p, 2)?;
    let (freqs, modes, costs) = try_symm_eigen_25d_vectors(&machine, &params, &a)?;

    println!("1D chain normal modes (n = {n}, p = {p}, c = 2):");
    println!("  lowest frequencies² and their analytic values 4−2cos(kπ/(n+1)):");
    for k in 0..4 {
        let analytic = 4.0 - 2.0 * ((k + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
        println!(
            "    mode {}: λ = {:.8}  (analytic {:.8})",
            k + 1,
            freqs[k],
            analytic
        );
        assert!((freqs[k] - analytic).abs() < 1e-9);
    }
    // The fundamental mode is a half sine wave: render it.
    println!("  fundamental mode shape (columns of V are the mode shapes):");
    let mut line = String::from("    ");
    for i in (0..n).step_by(2) {
        let v = modes.get(i, 0);
        let level = ((v.abs() * 40.0) as usize).min(8);
        line.push(['·', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'][level]);
    }
    println!("{line}");
    // Residual check.
    let av = matmul(&a, Trans::N, &modes, Trans::N);
    let mut vl = modes.clone();
    for i in 0..n {
        for j in 0..n {
            vl.set(i, j, modes.get(i, j) * freqs[j]);
        }
    }
    println!("  ‖A·V − V·Λ‖_max = {:.2e}", av.max_diff(&vl));
    let bt = costs
        .stages
        .iter()
        .find(|s| s.name.starts_with("back-transformation"))
        .expect("back-transformation stage");
    println!(
        "  back-transformation cost (the §IV.C price): F = {}, W = {}",
        bt.costs.flops, bt.costs.horizontal_words
    );

    // Part 2: SVD of a low-rank-plus-noise matrix.
    println!();
    let (m_rows, n_cols, rank) = (24usize, 16usize, 3usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    use rand::SeedableRng;
    let xs = gen::random_matrix(&mut rng, m_rows, rank);
    let ys = gen::random_matrix(&mut rng, rank, n_cols);
    let mut low_rank = matmul(&xs, Trans::N, &ys, Trans::N);
    low_rank.scale(3.0);
    let noise = gen::random_matrix(&mut rng, m_rows, n_cols);
    let mut mat = low_rank;
    mat.axpy(0.01, &noise);

    let machine = Machine::new(MachineParams::new(4));
    let (f, _) = try_svd(&machine, &EigenParams::try_new(4, 1)?, &mat)?;
    println!("SVD of a rank-{rank} + noise {m_rows}×{n_cols} matrix:");
    println!("  singular values: {:?}", &f.sigma[..6.min(f.sigma.len())]);
    let gap = f.sigma[rank - 1] / f.sigma[rank];
    println!(
        "  spectral gap σ_{rank}/σ_{} = {gap:.1} (rank revealed)",
        rank + 1
    );
    assert!(gap > 10.0);
    // Reconstruction.
    let mut us = f.u.clone();
    for i in 0..m_rows {
        for j in 0..f.sigma.len() {
            us.set(i, j, f.u.get(i, j) * f.sigma[j]);
        }
    }
    let recon = matmul(&us, Trans::N, &f.v, Trans::T);
    println!("  ‖UΣVᵀ − A‖_max = {:.2e}", recon.max_diff(&mat));

    // What the whole SVD cost on the virtual machine.
    let total = machine.report();
    println!(
        "  machine costs: F = {}, W = {}, S = {}",
        total.flops, total.horizontal_words, total.supersteps
    );
    Ok(())
}
