#![allow(clippy::needless_range_loop)]
//! **E-F1 — regenerate Figure 1** of the paper: "A depiction of matrices
//! used in Algorithm IV.1 for two subsequent recursive steps."
//!
//! We run the real 2.5D full-to-band reduction with its structural trace
//! enabled and render, for two consecutive recursive steps (3 and 4, as
//! in the paper's figure), the block roles of the matrix `A` and the
//! aggregated update panels `U⁽⁰⁾`/`V⁽⁰⁾`:
//!
//! * `#` — rows/columns already reduced to the band (output region),
//! * `D` — the current diagonal block `A̅₁₁`,
//! * `P` — the panel `A̅₂₁` about to be QR-factored,
//! * `.` — the trailing matrix `A₂₂` (never updated in place —
//!   left-looking),
//! * `U`/`V` — the aggregated update panels, one column group per
//!   completed panel.
//!
//! Usage: `cargo run --release -p ca-bench --bin figure1 [--n N] [--b B]`

use ca_bench::{flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_eigen::{try_full_to_band, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(32);
    let b: usize = flag_value("--b").map(|v| v.parse().unwrap()).unwrap_or(4);
    let p = 4;

    println!("E-F1 / Figure 1: Algorithm IV.1 structure, n = {n}, b = {b}, p = {p} (c = 1)");
    println!();

    let machine = Machine::new(MachineParams::new(p));
    let params = EigenParams::new(p, 1);
    let mut rng = StdRng::seed_from_u64(7);
    let a = gen::random_symmetric(&mut rng, n);
    let (band, trace) = try_full_to_band(&machine, &params, &a, b, None).unwrap();

    // The paper's figure shows recursive steps 3 and 4 (1-based).
    for step in [2usize, 3] {
        let t = &trace.panels[step.min(trace.panels.len() - 1)];
        println!(
            "recursive step {} (offset {}, trailing {}×{}, aggregates m = {} cols, panel QR on {} procs):",
            step + 1,
            t.offset,
            t.remaining,
            t.remaining,
            t.agg_cols,
            t.qr_procs
        );
        render_step(n, b, t.offset, t.agg_cols);
        println!();
    }

    // Confirm the run did what the figure depicts.
    let mut rows = Vec::new();
    for t in &trace.panels {
        rows.push(vec![
            (t.step + 1).to_string(),
            t.offset.to_string(),
            format!("{}×{}", t.remaining, t.remaining),
            t.agg_cols.to_string(),
            t.qr_procs.to_string(),
        ]);
    }
    println!("panel trace (every recursive step of Algorithm IV.1):");
    print_table(&["step", "offset", "trailing", "agg cols m", "QR procs"], &rows);
    println!();
    println!(
        "final band-width: {} (target {b}); output is the banded matrix of line 13.",
        band.measured_bandwidth(1e-10)
    );
}

/// Render the block structure at one recursive step, at block (b×b)
/// granularity.
fn render_step(n: usize, b: usize, offset: usize, agg_cols: usize) {
    let nb = n / b;
    let ob = offset / b;
    let ab = agg_cols / b;
    // Matrix A (block granularity) and the aggregates next to it.
    println!("        A (block granularity)          U⁽⁰⁾ / V⁽⁰⁾");
    for i in 0..nb {
        let mut row = String::from("    ");
        for j in 0..nb {
            let ch = if i < ob || j < ob {
                // Completed region: band plus zeros.
                if i.abs_diff(j) <= 1 && i.min(j) < ob {
                    '#'
                } else {
                    ' '
                }
            } else if i == ob && j == ob {
                'D'
            } else if j == ob && i > ob {
                'P'
            } else if i == ob && j > ob {
                'p' // symmetric image of the panel
            } else {
                '.'
            };
            row.push(ch);
            row.push(' ');
        }
        // Aggregates: rows aligned with the trailing range [offset, n).
        row.push_str("   ");
        if i >= ob {
            for _ in 0..ab {
                row.push('U');
            }
            row.push(' ');
            for _ in 0..ab {
                row.push('V');
            }
        }
        println!("{row}");
    }
}
