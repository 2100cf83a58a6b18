#![allow(clippy::needless_range_loop)]
//! **E-B3 — Lemma IV.3 shape check**: 2.5D band-to-band cost versus the
//! reduction ratio `k` and the starting band-width `b`.
//!
//! Lemma IV.3: reducing band `b → b/k` costs
//! `O(γ·n²b/p + β·n^{1+δ}b^{1−δ}/pᵟ + α·kᵟn^{1−δ}pᵟ/b^{1−δ}·log p)`.
//! Larger `k` does more reduction per invocation at higher
//! synchronization; larger `b` means more flops but relatively less
//! communication per unit of band removed.
//!
//! Usage: `cargo run --release -p ca-bench --bin band_sweep [--n N] [--p P]`

use ca_bench::{emit_json, flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::{gen, BandedSym};
use ca_eigen::try_band_to_band;
use ca_pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct BandRecord {
    n: usize,
    b: usize,
    k: usize,
    p: usize,
    flops: u64,
    w: u64,
    s: u64,
}

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(256);
    let p: usize = flag_value("--p").map(|v| v.parse().unwrap()).unwrap_or(16);

    println!("E-B3: band-to-band costs vs k and b, n = {n}, p = {p}");
    println!();

    // Part 1: fixed b, sweep k.
    println!("sweep k at b = 32 (one invocation reducing 32 → 32/k):");
    let mut rows = Vec::new();
    for k in [2usize, 4, 8] {
        let rec = run_one(n, 32, k, p);
        rows.push(vec![
            k.to_string(),
            rec.flops.to_string(),
            rec.w.to_string(),
            rec.s.to_string(),
        ]);
        emit_json("band_sweep", &rec);
    }
    print_table(&["k", "F", "W", "S"], &rows);
    println!();

    // Part 2: fixed k = 2, sweep b.
    println!("sweep b at k = 2 (cost of one halving):");
    let mut rows = Vec::new();
    for b in [8usize, 16, 32, 64] {
        let rec = run_one(n, b, 2, p);
        rows.push(vec![
            b.to_string(),
            rec.flops.to_string(),
            rec.w.to_string(),
            rec.s.to_string(),
            // Lemma IV.3's W term n^{1+δ}b^{1−δ}/pᵟ at δ = 1/2.
            format!(
                "{:.0}",
                (n as f64).powf(1.5) * (b as f64).sqrt() / (p as f64).sqrt()
            ),
        ]);
        emit_json("band_sweep", &rec);
    }
    print_table(&["b", "F", "W", "S", "lemma W term (δ=1/2)"], &rows);
    println!();
    println!("F grows ∝ b at fixed n (γ·n²b/p) and S falls ∝ 1/b (fewer, larger");
    println!("chases — Lemma IV.3's pᵟ/b^(1−δ) factor). Measured W also falls with b");
    println!("at these sizes: the chase count (∝ n²k/b²) dominates per-chase fixed");
    println!("costs before the lemma's asymptotic b^(1−δ) growth takes over.");
}

fn run_one(n: usize, b: usize, k: usize, p: usize) -> BandRecord {
    let machine = Machine::new(MachineParams::new(p));
    let mut rng = StdRng::seed_from_u64(66);
    let dense = gen::random_banded(&mut rng, n, b);
    let bm = BandedSym::from_dense(&dense, b, b);
    let snap = machine.snapshot();
    let (out, _) = try_band_to_band(&machine, &Grid::all(p), &bm, b.div_ceil(k), 1, None).unwrap();
    machine.fence();
    assert!(out.measured_bandwidth(1e-9) <= b / k);
    let c = machine.costs_since(&snap);
    BandRecord {
        n,
        b,
        k,
        p,
        flops: c.flops,
        w: c.horizontal_words,
        s: c.supersteps,
    }
}
