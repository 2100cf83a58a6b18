#![allow(clippy::needless_range_loop)]
//! **E-M1 — analytic-model validation**: compare every measured cost
//! against the paper's closed-form dominant terms (`ca-eigen::model`).
//!
//! A reproduction is only as credible as its accounting: this harness
//! runs each algorithm/lemma and prints measured ÷ model ratios. Unit
//! constants mean ratios of O(1)–O(10·polylog) are expected; what must
//! NOT happen is a ratio that drifts with `n` or `p` (that would mean
//! the implementation has the wrong exponent).
//!
//! Usage: `cargo run --release -p ca-bench --bin model_check`

use ca_bench::print_table;
use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_eigen::{model, symm_eigen_25d, EigenParams};
use ca_pla::grid::Grid;
use ca_pla::streaming::{streaming_mm_dense, Replicated};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("E-M1: measured / model ratios (dominant terms, unit constants)");
    println!();
    let mut rows = Vec::new();

    // Streaming-MM vs Lemma III.3, across c.
    for c in [1usize, 4] {
        let (n, k, q, w) = (256usize, 16usize, 4usize, 1usize);
        let p = q * q * c;
        let m = Machine::new(MachineParams::new(p));
        let g3 = Grid::new_3d((0..p).collect(), q, q, c);
        let mut rng = StdRng::seed_from_u64(1);
        let a = gen::random_matrix(&mut rng, n, n);
        let b = gen::random_matrix(&mut rng, n, k);
        Replicated::replicate(&m, &g3, n, n);
        let snap = m.snapshot();
        let _ = streaming_mm_dense(&m, &g3, &a, (0, 0, n, n), false, &b, w);
        m.fence();
        let meas = m.costs_since(&snap);
        let mdl = model::mm_streaming(n, n, k, q, c, w);
        rows.push(row(
            &format!("streaming-mm (c={c})"),
            meas.horizontal_words as f64 / mdl.horizontal_words,
            meas.flops as f64 / mdl.flops,
            meas.supersteps as f64 / mdl.supersteps,
        ));
    }

    // Full eigensolver vs Theorem IV.4, across (n, p, c).
    for (n, p, c) in [(128usize, 16usize, 1usize), (256, 16, 1), (256, 64, 1), (256, 64, 4)] {
        let m = Machine::new(MachineParams::new(p));
        let params = EigenParams::new(p, c);
        let mut rng = StdRng::seed_from_u64(2);
        let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let (_, _) = symm_eigen_25d(&m, &params, &a);
        let meas = m.report();
        let mdl = model::eigensolver(n, &params);
        rows.push(row(
            &format!("eigensolver (n={n}, p={p}, c={c})"),
            meas.horizontal_words as f64 / mdl.horizontal_words,
            meas.flops as f64 / mdl.flops,
            meas.supersteps as f64 / mdl.supersteps,
        ));
    }

    // Direct baseline vs the Table-I model.
    for (n, p) in [(128usize, 16usize), (256, 16)] {
        let m = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(3);
        let a = gen::random_symmetric(&mut rng, n);
        let _ = ca_eigen::baselines::scalapack::scalapack_tridiag(
            &m,
            &Grid::all(p).squarest_2d(),
            &a,
        );
        let meas = m.report();
        let mdl = model::scalapack_direct(n, p);
        rows.push(row(
            &format!("scalapack-style (n={n}, p={p})"),
            meas.horizontal_words as f64 / mdl.horizontal_words,
            meas.flops as f64 / mdl.flops,
            meas.supersteps as f64 / mdl.supersteps,
        ));
    }

    print_table(&["configuration", "W ratio", "F ratio", "S ratio"], &rows);
    println!();
    println!("Ratios should be stable across rows of the same family (exponent check);");
    println!("absolute levels reflect implementation constants over unit-constant models.");
}

fn row(name: &str, w: f64, f: f64, s: f64) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{w:.2}"),
        format!("{f:.2}"),
        format!("{s:.2}"),
    ]
}
