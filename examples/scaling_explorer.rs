#![allow(clippy::needless_range_loop)]
//! Scaling explorer: sweep machine configurations (p, c) for a fixed
//! problem and print how the four cost quantities move — a small CLI for
//! exploring the paper's tuning space ("the flexibility offered by the
//! parameter c increases the dimensionality of the tuning space for
//! symmetric eigensolver implementations", §I).
//!
//! Run with: `cargo run --release --example scaling_explorer -- [n]`

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenError, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), EigenError> {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);

    // Every (p, c) with p/c a perfect square and c within (or at the
    // boundary of) the paper's c ≤ p^{1/3} regime.
    let configs: Vec<(usize, usize)> = vec![
        (4, 1),
        (16, 1),
        (36, 1),
        (64, 1),
        (64, 4),
        (144, 1),
        (256, 1),
        (256, 4),
    ];

    println!("2.5D symmetric eigensolver scaling, n = {n}");
    println!();
    println!(
        "  {:>5} {:>3} {:>6}  {:>12} {:>12} {:>12} {:>8} {:>10}  {:>10}",
        "p", "c", "δ", "F max/proc", "W", "Q", "S", "peak M", "model time"
    );

    let mut rng = StdRng::seed_from_u64(9);
    let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);

    for (p, c) in configs {
        if p > n {
            continue; // the paper assumes n ≥ p
        }
        let machine = Machine::new(MachineParams::new(p));
        let params = EigenParams::try_new(p, c)?;
        let (ev, _) = try_symm_eigen_25d(&machine, &params, &a)?;
        assert!(ca_symm_eig::dla::tridiag::spectrum_distance(&ev, &spectrum) < 1e-7 * n as f64);
        let r = machine.report();
        let t = r.time(machine.params());
        println!(
            "  {:>5} {:>3} {:>6.3}  {:>12} {:>12} {:>12} {:>8} {:>10}  {:>10.3e}",
            p,
            c,
            params.delta(),
            r.flops,
            r.horizontal_words,
            r.vertical_words,
            r.supersteps,
            r.peak_memory_words,
            t.total()
        );
    }
    println!();
    println!("Notes: W should fall with p (∝ p^(−δ)) and with c at fixed p (∝ 1/√c");
    println!("within c ≤ p^(1/3)); peak memory grows ∝ c (the price of replication);");
    println!("the modeled time weighs F/W/Q/S by the machine's γ/β/ν/α.");
    Ok(())
}
