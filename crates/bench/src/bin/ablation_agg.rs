#![allow(clippy::needless_range_loop)]
//! **E-A1 — ablation: left-looking aggregation** (§V lists "alternating
//! between left-looking partial updates and complete trailing matrix
//! updates" as a tuning dimension; Algorithm IV.1 is fully left-looking).
//!
//! Compares Algorithm IV.1 (aggregated, left-looking) against an *eager*
//! variant that applies every panel's two-sided update to the (replicated)
//! trailing matrix immediately. With `c` replicated copies the eager
//! variant must apply each update to every copy — redundant flops and
//! `(n/b)·n²/q²` vertical traffic — which is exactly the overhead the
//! paper's aggregation avoids.
//!
//! Usage: `cargo run --release -p ca-bench --bin ablation_agg [--n N]`

use ca_bench::{emit_json, flag_value, print_table};
use ca_bsp::{Machine, MachineParams};
use ca_dla::gemm::{gemm, Trans};
use ca_dla::{gen, BandedSym, Matrix};
use ca_eigen::{try_full_to_band, EigenParams};
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::rect_qr::rect_qr;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct AggRecord {
    variant: String,
    n: usize,
    p: usize,
    c: usize,
    flops: u64,
    total_flops: u64,
    w: u64,
    q: u64,
    s: u64,
}

fn main() {
    let n: usize = flag_value("--n").map(|v| v.parse().unwrap()).unwrap_or(128);
    let p = 16;
    let b = 16;

    println!("E-A1: left-looking aggregation vs eager trailing updates, n = {n}, p = {p}, b = {b}");
    println!();
    let mut rows = Vec::new();
    for c in [1usize, 4] {
        let params = EigenParams::try_new_unchecked(p, c).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let spectrum = gen::linspace_spectrum(n, -3.0, 3.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let reference = {
            let tmp = BandedSym::from_dense(&a, n - 1, n - 1);
            ca_dla::tridiag::try_banded_eigenvalues(&tmp).unwrap()
        };

        for eager in [false, true] {
            let machine = Machine::new(MachineParams::new(p));
            let band = if eager {
                full_to_band_eager(&machine, &params, &a, b)
            } else {
                try_full_to_band(&machine, &params, &a, b, None).unwrap().0
            };
            let ev = ca_dla::tridiag::try_banded_eigenvalues(&band).unwrap();
            let err = ca_dla::tridiag::spectrum_distance(&ev, &reference);
            assert!(err < 1e-7 * n as f64, "eager={eager} err {err}");
            let cst = machine.report();
            let rec = AggRecord {
                variant: if eager { "eager" } else { "aggregated" }.into(),
                n,
                p,
                c,
                flops: cst.flops,
                total_flops: cst.total_flops,
                w: cst.horizontal_words,
                q: cst.vertical_words,
                s: cst.supersteps,
            };
            emit_json("ablation_agg", &rec);
            rows.push(vec![
                rec.variant.clone(),
                c.to_string(),
                rec.flops.to_string(),
                rec.total_flops.to_string(),
                rec.w.to_string(),
                rec.q.to_string(),
                rec.s.to_string(),
            ]);
        }
    }
    print_table(&["variant", "c", "F (max/proc)", "F (total volume)", "W", "Q", "S"], &rows);
    println!();
    println!("Eager reads *and writes* the trailing matrix every panel (2(n/b)·n²/q²");
    println!("vertical words) and, with c replicas, its total flop volume grows ∝ c");
    println!("(every copy applies every update redundantly); the aggregated variant's");
    println!("total work is c-independent, which is what makes replication affordable.");
}

/// The ablation variant: identical panel pipeline, but every panel's
/// two-sided update is applied to the trailing matrix immediately on
/// every replica.
fn full_to_band_eager(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
) -> BandedSym {
    let n = a.rows();
    let q2 = (params.q * params.q) as u64;
    let grid3 = params.grid3();
    let mut work = a.clone();
    let mut out = BandedSym::zeros(n, b, b);

    // Replicate A once (same as the aggregated variant).
    for &pid in grid3.procs() {
        machine.charge_comm(pid, 2 * (n as u64 * n as u64).div_ceil(params.p as u64));
        machine.alloc(pid, (n as u64 * n as u64) / q2);
    }
    machine.step(grid3.procs(), 2);

    let mut o = 0usize;
    while n - o > b {
        let rem = n - o;
        // Diagonal block out, panel QR (same as aggregated).
        let mut a11 = work.block(o, o, b, b);
        a11.symmetrize();
        for j in 0..b {
            for i in j..b {
                out.set(o + i, o + j, a11.get(i, j));
            }
        }
        let qr_procs = params.panel_qr_procs(n, b).min(rem - b).max(1);
        let qr_group = Grid::new_2d((0..qr_procs).collect(), qr_procs, 1);
        let a21 = work.block(o + b, o, rem - b, b);
        let da21 = DistMatrix::from_dense(machine, &qr_group, &a21);
        let f = rect_qr(machine, &da21);
        da21.release(machine);
        for j in 0..b {
            for i in 0..=j {
                out.set(o + b + i, o + j, f.r.get(i, j));
            }
        }
        let u1 = f.u.assemble_unchecked();
        f.u.release(machine);

        // Eager: W = A₂₂U₁ computed per layer from the replicated copy,
        // then the rank-2b update applied to EVERY copy.
        let m_t = rem - b;
        let a22 = work.block(o + b, o + b, m_t, m_t);
        let au = ca_dla::gemm::matmul(&a22, Trans::N, &u1, Trans::N);
        let w = ca_dla::gemm::matmul(&au, Trans::N, &f.t, Trans::N);
        let utw = ca_dla::gemm::matmul(&u1, Trans::T, &w, Trans::N);
        let ttutw = ca_dla::gemm::matmul(&f.t.transpose(), Trans::N, &utw, Trans::N);
        let mut v1 = w.clone();
        v1.scale(-1.0);
        v1.axpy(0.5, &ca_dla::gemm::matmul(&u1, Trans::N, &ttutw, Trans::N));

        // Charges: every layer's processors redundantly compute the
        // product and apply the update to their copy. The trailing
        // matrix is both read and written back each panel (2·m²/q²
        // vertical words), and U₁ must be gathered within each layer for
        // the product (streaming-shaped communication).
        for &pid in grid3.procs() {
            machine.charge_flops(
                pid,
                (2 * m_t as u64 * m_t as u64 * b as u64 + 4 * m_t as u64 * m_t as u64 * b as u64)
                    / q2,
            );
            machine.charge_vert(pid, 2 * (m_t as u64 * m_t as u64) / q2);
            machine.charge_comm(
                pid,
                4 * (m_t * b) as u64 / params.p_delta() as u64
                    + 2 * ((2 * m_t * b) as u64).div_ceil(params.p as u64),
            );
        }
        machine.step(grid3.procs(), 2);
        machine.fence();

        // Apply to the (single numerical) trailing matrix.
        let mut a22_new = a22;
        gemm(1.0, &u1, Trans::N, &v1, Trans::T, 1.0, &mut a22_new);
        gemm(1.0, &v1, Trans::N, &u1, Trans::T, 1.0, &mut a22_new);
        work.set_block(o + b, o + b, &a22_new);

        o += b;
    }
    let mut last = work.block(o, o, n - o, n - o);
    last.symmetrize();
    for j in 0..(n - o) {
        for i in j..(n - o) {
            out.set(o + i, o + j, last.get(i, j));
        }
    }
    machine.fence();
    out
}
