#![allow(clippy::needless_range_loop)]
//! **E-C1 — the Θ(√c) claim** (abstract / §I): "Given sufficient memory
//! to store c copies of the symmetric matrix, our algorithm requires
//! Θ(√c) less interprocessor communication than previously known
//! algorithms, for any c ≤ p^{1/3}."
//!
//! Sweeps the replication factor `c` at fixed `p` and reports measured
//! `W` (whole solver and full-to-band stage alone), the ratio to `c = 1`
//! against the predicted `√c`, plus memory (the price paid) and
//! supersteps. Values of `c` beyond `p^{1/3}` are included deliberately
//! to show communication rising again once the replication cost
//! overtakes the streaming saving (the reason for the paper's regime
//! bound).
//!
//! Usage: `cargo run --release -p ca-bench --bin c_sweep [--n N] [--p P]`

use ca_bench::{emit_json, flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_eigen::{try_full_to_band, try_symm_eigen_25d, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct CSweepRecord {
    n: usize,
    p: usize,
    c: usize,
    in_regime: bool,
    w_solver: u64,
    w_full_to_band: u64,
    q_solver: u64,
    s_solver: u64,
    peak_memory: u64,
}

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(256);
    let p: usize = flag_value("--p").map(|v| v.parse().unwrap()).unwrap_or(64);

    // All c with p/c a perfect square.
    let cs: Vec<usize> = (0..=p.ilog2())
        .map(|e| 1usize << e)
        .filter(|c| {
            p.is_multiple_of(*c) && {
                let q2 = p / c;
                let q = (q2 as f64).sqrt().round() as usize;
                q * q == q2 && *c <= p / 4 // keep at least a 2×2 layer grid
            }
        })
        .collect();

    println!("E-C1: W vs replication factor c, n = {n}, p = {p}, c ∈ {cs:?}");
    println!("(paper: W drops by √c for c ≤ p^(1/3) = {:.1})", (p as f64).powf(1.0 / 3.0));
    println!();

    let mut rows = Vec::new();
    let mut w1_solver = 0f64;
    let mut w1_ftb = 0f64;
    for &c in &cs {
        let params = EigenParams::try_new_unchecked(p, c).unwrap();
        let in_regime = c * c * c <= p;

        // Whole solver.
        let machine = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(21);
        let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let (ev, _) = try_symm_eigen_25d(&machine, &params, &a).unwrap();
        assert!(ca_dla::tridiag::spectrum_distance(&ev, &spectrum) < 1e-6 * n as f64);
        let total = machine.report();

        // Full-to-band stage alone (where the √c saving concentrates).
        let m2 = Machine::new(MachineParams::new(p));
        let b = params.initial_bandwidth(n);
        let _ = try_full_to_band(&m2, &params, &a, b, None).unwrap();
        let ftb = m2.report();

        if c == 1 {
            w1_solver = total.horizontal_words as f64;
            w1_ftb = ftb.horizontal_words as f64;
        }
        let rec = CSweepRecord {
            n,
            p,
            c,
            in_regime,
            w_solver: total.horizontal_words,
            w_full_to_band: ftb.horizontal_words,
            q_solver: total.vertical_words,
            s_solver: total.supersteps,
            peak_memory: total.peak_memory_words,
        };
        emit_json("c_sweep", &rec);
        rows.push(vec![
            format!("{c}{}", if in_regime { "" } else { " (!)" }),
            rec.w_solver.to_string(),
            format!("{:.2}", w1_solver / rec.w_solver as f64),
            rec.w_full_to_band.to_string(),
            format!("{:.2}", w1_ftb / rec.w_full_to_band as f64),
            format!("{:.2}", (c as f64).sqrt()),
            rec.s_solver.to_string(),
            rec.peak_memory.to_string(),
        ]);
    }
    print_table(
        &["c", "W solver", "gain", "W full→band", "gain", "√c (paper)", "S", "peak M"],
        &rows,
    );
    println!();
    println!("(!) marks c outside the paper's c ≤ p^(1/3) regime.");
}
