#![allow(clippy::needless_range_loop)]
//! Tuning advisor: pick the replication factor `c` for your machine
//! from the paper's cost models, then confirm the choice by measuring.
//!
//! §I: "employing a large c is attractive for bandwidth-constrained
//! problems on massively-parallel architectures" — this example shows
//! the advisor recommending differently for a bandwidth-bound and a
//! latency-bound machine, then validates the bandwidth-bound
//! recommendation against measured W on the simulator.
//!
//! Run with: `cargo run --release --example tuning_advisor`

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::tuning::{best_configuration, rank_configurations};
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenError, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), EigenError> {
    let n = 256;
    let p = 64;

    // Two hypothetical machines with the same processor count.
    let bandwidth_bound = MachineParams::new(p).with_times(1e-6, 1.0, 0.1, 10.0);
    let latency_bound = MachineParams::new(p).with_times(1e-6, 1e-3, 1e-4, 1e6);

    for (name, m) in [
        ("bandwidth-bound", bandwidth_bound),
        ("latency-bound", latency_bound),
    ] {
        println!("{name} machine (β = {}, α = {}):", m.beta, m.alpha);
        println!("  ranked configurations for n = {n}:");
        for choice in rank_configurations(n, &m, None) {
            println!(
                "    c = {} (δ = {:.3}, b₀ = {}): modeled time {:.3e}, memory {:.0} words/proc",
                choice.c, choice.delta, choice.b, choice.modeled_time, choice.memory_words
            );
        }
        let best = best_configuration(n, &m, None).expect("has choices");
        println!("  → advisor picks c = {}\n", best.c);
    }

    // Validate on the simulator: the bandwidth-bound pick (c = 4) must
    // move fewer words than c = 1 end to end.
    println!("measured confirmation (simulated run, n = {n}, p = {p}):");
    let mut measured = Vec::new();
    for c in [1usize, 4] {
        let machine = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(77);
        let spectrum = gen::linspace_spectrum(n, -2.0, 2.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let (ev, _) = try_symm_eigen_25d(&machine, &EigenParams::try_new(p, c)?, &a)?;
        assert!(ca_symm_eig::dla::tridiag::spectrum_distance(&ev, &spectrum) < 1e-7 * n as f64);
        let r = machine.report();
        println!(
            "  c = {c}: W = {}, Q = {}, S = {}, peak M = {}",
            r.horizontal_words, r.vertical_words, r.supersteps, r.peak_memory_words
        );
        measured.push(r.horizontal_words);
    }
    assert!(
        measured[1] < measured[0],
        "the bandwidth-bound recommendation must reduce measured W"
    );
    println!(
        "\nreplication saved {:.0}% of the words moved — the advisor's call, confirmed.",
        100.0 * (1.0 - measured[1] as f64 / measured[0] as f64)
    );
    Ok(())
}
