#![allow(clippy::needless_range_loop)]
//! **Timeline diagnostic**: render the per-phase communication profile
//! of an eigensolver run — what the `Σᵢ maxⱼ Wᵢⱼ` sums of §II actually
//! look like phase by phase. The full-to-band panels show as a train of
//! roughly equal bursts; the band-to-band pipeline as many small
//! phases; CA-SBR as a few redistribution spikes.
//!
//! Usage: `cargo run --release -p ca-bench --bin timeline [--n N] [--p P] [--c C]`

use ca_bench::flag_value;
use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_eigen::{try_symm_eigen_25d, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(128);
    let p: usize = flag_value("--p").map(|v| v.parse().unwrap()).unwrap_or(16);
    let c: usize = flag_value("--c").map(|v| v.parse().unwrap()).unwrap_or(1);

    let machine = Machine::new(MachineParams::new(p));
    machine.enable_phase_trace();
    let params = EigenParams::new(p, c);
    let mut rng = StdRng::seed_from_u64(3);
    let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let (ev, _) = try_symm_eigen_25d(&machine, &params, &a).unwrap();
    assert!(ca_dla::tridiag::spectrum_distance(&ev, &spectrum) < 1e-7 * n as f64);

    let trace = machine.phase_trace();
    let total = machine.report();
    println!(
        "phase profile: n = {n}, p = {p}, c = {c} — {} recorded phases, total W = {}",
        trace.len(),
        total.horizontal_words
    );
    println!();

    // Downsample to ≤ 96 buckets and render W per bucket as a bar chart.
    let buckets = 96.min(trace.len().max(1));
    let per = trace.len().div_ceil(buckets).max(1);
    let mut bars: Vec<(u64, usize)> = Vec::new();
    for chunk in trace.chunks(per) {
        let w: u64 = chunk.iter().map(|r| r.horizontal_words).sum();
        let act = chunk.iter().map(|r| r.active_procs).max().unwrap_or(0);
        bars.push((w, act));
    }
    let max_w = bars.iter().map(|(w, _)| *w).max().unwrap_or(1).max(1);
    let height = 12usize;
    for level in (1..=height).rev() {
        let mut line = String::from("  ");
        for (w, _) in &bars {
            let h = ((*w as f64 / max_w as f64) * height as f64).ceil() as usize;
            line.push(if h >= level { '█' } else { ' ' });
        }
        println!("{line}");
    }
    let mut axis = String::from("  ");
    for _ in &bars {
        axis.push('─');
    }
    println!("{axis}");
    let mut activity = String::from("  ");
    for (_, act) in &bars {
        let frac = *act as f64 / p as f64;
        activity.push(match (frac * 4.0).round() as usize {
            0 => '·',
            1 => '▂',
            2 => '▄',
            3 => '▆',
            _ => '█',
        });
    }
    println!("{activity}  ← fraction of processors active");
    println!();
    println!(
        "max phase W = {max_w} words/proc ({} phases per column); the burst train on",
        per
    );
    println!("the left is the full-to-band panel loop, the tail is band reduction.");
}
