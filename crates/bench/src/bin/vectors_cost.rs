#![allow(clippy::needless_range_loop)]
//! **E-V1 — the §IV.C back-transformation cost**: "A disadvantage of
//! this multi-stage approach arises when eigenvectors are required in
//! addition to eigenvalues. The cost of the back-transformations scales
//! linearly with the number of band-reduction stages (each stage
//! requires O(n²) memory and O(n³) computation)."
//!
//! We run the eigenvector-enabled solver across configurations with
//! different stage counts and report, per configuration: the number of
//! recorded reduction stages, the transform-log memory (the O(n²) per
//! stage), and the back-transformation flops — checking the linear
//! relationship the paper states, and quantifying the eigenvector
//! surcharge over the eigenvalue-only solve.
//!
//! Usage: `cargo run --release -p ca-bench --bin vectors_cost [--n N]`

use ca_bench::{emit_json, flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct VecCostRecord {
    n: usize,
    p: usize,
    c: usize,
    stages: usize,
    backtransform_flops: u64,
    backtransform_total_flops: u64,
    backtransform_words: u64,
    eigenvalue_only_flops: u64,
    vectors_total_flops: u64,
}

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(128);

    println!("E-V1: back-transformation cost vs reduction stages (§IV.C), n = {n}");
    println!();

    let mut rows = Vec::new();
    for (p, c) in [(4usize, 1usize), (16, 1), (64, 1), (64, 4)] {
        let params = EigenParams::new(p, c);
        let mut rng = StdRng::seed_from_u64(55);
        let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);

        // Eigenvalue-only baseline.
        let m0 = Machine::new(MachineParams::new(p));
        let (_, costs0) = try_symm_eigen_25d(&m0, &params, &a).unwrap();
        let f0 = costs0.total().flops;

        // With eigenvectors.
        let m1 = Machine::new(MachineParams::new(p));
        let (ev, v, costs1) = try_symm_eigen_25d_vectors(&m1, &params, &a).unwrap();
        assert!(ca_dla::tridiag::spectrum_distance(&ev, &spectrum) < 1e-7 * n as f64);
        assert_eq!(v.rows(), n);

        let bt = costs1
            .stages
            .iter()
            .find(|s| s.name.starts_with("back-transformation"))
            .expect("back-transformation stage");
        // Reduction stages = everything before the sequential solve.
        let stage_count = costs1.stages.len().saturating_sub(2);

        let rec = VecCostRecord {
            n,
            p,
            c,
            stages: stage_count,
            backtransform_flops: bt.costs.flops,
            backtransform_total_flops: bt.costs.total_flops,
            backtransform_words: bt.costs.horizontal_words,
            eigenvalue_only_flops: f0,
            vectors_total_flops: costs1.total().flops,
        };
        emit_json("vectors_cost", &rec);
        rows.push(vec![
            p.to_string(),
            c.to_string(),
            rec.stages.to_string(),
            rec.backtransform_total_flops.to_string(),
            format!("{:.2e}", rec.backtransform_total_flops as f64 / rec.stages as f64),
            rec.backtransform_flops.to_string(),
            rec.backtransform_words.to_string(),
            format!("{:.2}", rec.vectors_total_flops as f64 / rec.eigenvalue_only_flops as f64),
        ]);
    }
    print_table(
        &["p", "c", "stages", "back-xf F volume", "volume/stage", "F max/proc", "W", "vec/val F"],
        &rows,
    );
    println!();
    println!("§IV.C check: total back-transformation volume per stage stays O(n³)");
    println!("(the volume/stage column), so volume grows linearly with the stage");
    println!("count; per-processor F divides by p (columns split across the machine)");
    println!("while W grows with stages (every stage's reflectors are broadcast) —");
    println!("the trade-off §V's larger-k proposal aims to soften.");
}
