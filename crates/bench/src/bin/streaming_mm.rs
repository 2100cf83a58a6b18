#![allow(clippy::needless_range_loop)]
//! **E-L3 — Lemma III.3 vs Lemma III.2**: multiplying against a
//! *pre-replicated* operand (Algorithm III.1's Streaming-MM) beats
//! general-layout multiplication for the panel-shaped products of
//! Algorithm IV.1.
//!
//! For `C = A·B` with `A` n×n and `B` n×k (k ≪ n), Lemma III.3 gives
//! `W = O((nk + nk)/pᵟ)` once `A` is replicated, versus Lemma III.2's
//! general bound that must also move `A`-sized data when no replication
//! exists. We sweep the replication factor `c` (at fixed `p = q²c`) and
//! the streaming depth `w`.
//!
//! Usage: `cargo run --release -p ca-bench --bin streaming_mm [--n N]`

use ca_bench::{emit_json, flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_pla::carma::carma;
use ca_pla::grid::Grid;
use ca_pla::streaming::{streaming_mm_dense, Replicated};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct StreamRecord {
    n: usize,
    k: usize,
    q: usize,
    c: usize,
    w_depth: usize,
    w_streaming: u64,
    s_streaming: u64,
    w_carma_same_p: u64,
}

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(256);
    let k = n / 16;
    let q = 4;

    println!("E-L3: Streaming-MM (replicated A) vs recursive MM, n = {n}, k = {k}, q = {q}");
    println!();
    let mut rows = Vec::new();
    for c in [1usize, 2, 4, 8] {
        let p = q * q * c;
        let machine = Machine::new(MachineParams::new(p));
        let grid3 = Grid::new_3d((0..p).collect(), q, q, c);
        let mut rng = StdRng::seed_from_u64(44);
        let a = gen::random_matrix(&mut rng, n, n);
        let b = gen::random_matrix(&mut rng, n, k);

        // Replication is a one-time cost; measure the product alone
        // (Algorithm IV.1 reuses the replicated A across all panels).
        Replicated::replicate(&machine, &grid3, n, n);
        for w_depth in [1usize, 2] {
            let snap = machine.snapshot();
            let cmat = streaming_mm_dense(&machine, &grid3, &a, (0, 0, n, n), false, &b, w_depth);
            machine.fence();
            assert_eq!(cmat.rows(), n);
            let w_stream = machine.costs_since(&snap).horizontal_words;
            let s_stream = machine.costs_since(&snap).supersteps;

            // The same product with no replication, same p.
            let m2 = Machine::new(MachineParams::new(p));
            let snap2 = m2.snapshot();
            let _ = carma(&m2, &Grid::all(p), &a, &b, 1);
            m2.fence();
            let w_carma = m2.costs_since(&snap2).horizontal_words;

            let rec = StreamRecord {
                n,
                k,
                q,
                c,
                w_depth,
                w_streaming: w_stream,
                s_streaming: s_stream,
                w_carma_same_p: w_carma,
            };
            emit_json("streaming_mm", &rec);
            rows.push(vec![
                c.to_string(),
                p.to_string(),
                w_depth.to_string(),
                w_stream.to_string(),
                s_stream.to_string(),
                w_carma.to_string(),
                format!("{:.2}", w_carma as f64 / w_stream.max(1) as f64),
            ]);
        }
    }
    print_table(
        &["c", "p", "w", "W streaming", "S streaming", "W recursive", "gain"],
        &rows,
    );
    println!();
    println!("Lemma III.3: streaming W ∝ (mk+nk)/(qc) — rows with larger c should show");
    println!("proportionally less W; the w column trades supersteps for buffer memory.");
}
