#![allow(clippy::needless_range_loop)]
//! **E-F2 — regenerate Figure 2** of the paper: "QR factorizations and
//! updates in iterations (i,j) ∈ {(3,1),(2,3),(1,5)} (left) and
//! (i,j) ∈ {(3,2),(2,4),(1,6)} (right) of [Algorithm IV.2] with k = 2.
//! These two sets of iterations are executed concurrently by processor
//! groups Π̂₁, Π̂₃, Π̂₅ (left) and Π̂₂, Π̂₄, Π̂₆ (right)."
//!
//! We run the real 2.5D band-to-band reduction, group its chase trace by
//! pipeline phase, verify that the paper's two concurrent sets appear as
//! phases `2i+j = 7` and `2i+j = 8`, print every chase's QR/update index
//! ranges, and render band-sparsity snapshots showing the bulges mid
//! flight.
//!
//! Usage: `cargo run --release -p ca-bench --bin figure2 [--n N] [--b B]`

use ca_bench::{flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::bulge::{chase_plan_iter, execute_chase};
use ca_dla::{gen, BandedSym};
use ca_eigen::try_band_to_band;
use ca_pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(64);
    let b: usize = flag_value("--b").map(|v| v.parse().unwrap()).unwrap_or(8);
    let k = 2;
    let p = 8;

    println!("E-F2 / Figure 2: Algorithm IV.2 pipeline, n = {n}, b = {b}, k = {k}, p = {p}");
    println!();

    // Run the real distributed reduction and collect its trace.
    let machine = Machine::new(MachineParams::new(p));
    let mut rng = StdRng::seed_from_u64(11);
    let dense = gen::random_banded(&mut rng, n, b);
    let bm = BandedSym::from_dense(&dense, b, b);
    let (out, trace) = try_band_to_band(&machine, &Grid::all(p), &bm, b / k, 1, None).unwrap();
    assert!(out.measured_bandwidth(1e-9) <= b / k);

    // The paper's two concurrent iteration sets.
    println!("the paper's concurrent sets and their pipeline phases (2i + j):");
    for set in [[(3, 1), (2, 3), (1, 5)], [(3, 2), (2, 4), (1, 6)]] {
        let phases: Vec<usize> = set.iter().map(|(i, j)| 2 * i + j).collect();
        println!("  {set:?}  →  phases {phases:?} (equal ⇒ concurrent)");
        assert!(phases.windows(2).all(|w| w[0] == w[1]));
    }
    println!();

    // Print the executed schedule around those phases.
    println!("executed chases at phases 7 and 8 (QR block and update ranges, 0-based):");
    let mut rows = Vec::new();
    for rec in trace.chases.iter().filter(|r| r.phase == 7 || r.phase == 8) {
        rows.push(vec![
            rec.phase.to_string(),
            format!("({}, {})", rec.op.i, rec.op.j),
            format!("Π̂{}", rec.group_index + 1),
            format!("{:?}", rec.op.qr_rows),
            format!("{:?}", rec.op.qr_cols),
            format!("{:?}", rec.op.up_cols),
            rec.qr_procs.to_string(),
        ]);
    }
    print_table(
        &["phase", "(i, j)", "group", "I_qr rows", "I_qr cols", "I_up cols", "QR procs"],
        &rows,
    );
    println!();

    // Sparsity snapshots: replay the plan sequentially and render the
    // band right after the phase-7 ops have run.
    println!("band sparsity after completing phase 7 (█ band ≤ h, ▒ within old band, ░ bulge):");
    let mut replay = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));
    let mut plan: Vec<_> = chase_plan_iter(n, b, b / k).collect();
    plan.sort_by_key(|op| (op.phase(), op.i));
    for op in plan.iter().filter(|op| op.phase() <= 7) {
        execute_chase(&mut replay, op);
    }
    render_band(&replay, b, b / k);
}

fn render_band(m: &BandedSym, b_old: usize, h: usize) {
    let n = m.n();
    let step = (n / 64).max(1);
    for i in (0..n).step_by(step) {
        let mut row = String::from("    ");
        for j in (0..n).step_by(step) {
            let v = m.get(i, j).abs();
            let d = i.abs_diff(j);
            let ch = if v < 1e-10 {
                ' '
            } else if d <= h {
                '█'
            } else if d <= b_old {
                '▒'
            } else {
                '░' // the bulge
            };
            row.push(ch);
        }
        println!("{row}");
    }
}
