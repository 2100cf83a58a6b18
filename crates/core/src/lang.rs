//! Lang's parallel band→tridiagonal reduction \[36\] — ELPA's second
//! stage ("ELPA employs the parallel banded-to-tridiagonal algorithm
//! introduced by \[36\]", §IV).
//!
//! Structure: `h = 1` bulge chasing (one column eliminated per sweep by
//! a length-`b` Householder reflector, the bulge chased down the band),
//! parallelized over a 1D column layout with owner-computes chases and
//! neighbour hand-offs — the same pipeline skeleton as CA-SBR but with
//! single-column sweeps, giving the `Θ(n)` supersteps of Table I's ELPA
//! row (one pipeline phase per eliminated column) in exchange for no
//! intermediate band-widths.

use ca_bsp::Machine;
use ca_dla::bulge::{chase_plan_iter, reduce_band_pass, BlockReflector, ChaseOp};
use ca_dla::{costs, BandedSym, Workspace};
use ca_pla::grid::Grid;

/// Reduce a symmetric band-`b` matrix to tridiagonal (Lang's algorithm
/// shape). Returns the tridiagonal as a [`BandedSym`] of band-width 1;
/// with `rec`, every chase's transform is recorded.
pub fn lang_band_to_tridiagonal(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    mut rec: Option<&mut Vec<BlockReflector>>,
) -> BandedSym {
    let n = bmat.n();
    let b = bmat.bandwidth();
    if b <= 1 {
        return bmat.clone();
    }
    let p = grid.len();
    let cols_per_proc = n.div_ceil(p);

    // 1D redistribution (O(nb/p) words each).
    for &pid in grid.procs() {
        machine.charge_comm(pid, 2 * ((n * (b + 1)) as u64).div_ceil(p as u64));
    }
    machine.step(grid.procs(), 1);

    let cap = (2 * b).min(n - 1);
    let mut work = bmat.rehoused(b, cap, |len| vec![0.0; len]);

    // h = 1 chase plan, walked in pipeline-phase order: one phase per
    // sweep step, owners charged per chase, neighbour hand-offs when a
    // window crosses a processor boundary.
    let mut plan: Vec<ChaseOp> = chase_plan_iter(n, b, 1).collect();
    plan.sort_by_key(|op| (op.phase(), op.i));

    let charge = |op: &ChaseOp| {
        let (lo, hi) = op.window();
        let owner_idx = (lo / cols_per_proc).min(p - 1);
        let owner = grid.proc(owner_idx);
        let (nr, nc, h) = (op.nr(), op.nc(), op.h());

        machine.charge_flops(
            owner,
            costs::qr_flops(nr, h)
                + costs::gemm_flops(nc, nr, h)
                + 2 * costs::gemm_flops(nr, h, nc),
        );
        machine.charge_vert(owner, ((hi - lo) * (b + 1)) as u64);

        let last_idx = ((hi - 1) / cols_per_proc).min(p - 1);
        if last_idx != owner_idx {
            // Boundary hand-off happens within the phase's superstep
            // (the per-phase fence below accounts for it).
            machine.charge_transfer(owner, grid.proc(last_idx), 2 * (h * (b + 1)) as u64);
        }
    };

    let mut ws = Workspace::new();
    for ops in plan.chunk_by(|a, b| a.phase() == b.phase()) {
        reduce_band_pass(
            &mut work,
            ops,
            |op, _| {
                charge(op);
                None
            },
            rec.as_deref_mut(),
            &mut ws,
        );
        machine.fence();
    }
    work.set_bandwidth(1);
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::{spectrum_distance, try_banded_eigenvalues, try_tridiag_eigenvalues};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reduces_to_tridiagonal_preserving_spectrum() {
        let (n, b, p) = (48usize, 6usize, 4usize);
        let m = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(620);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let reference = try_banded_eigenvalues(&bm).unwrap();
        let tri = lang_band_to_tridiagonal(&m, &Grid::all(p), &bm, None);
        assert!(tri.measured_bandwidth(1e-9) <= 1);
        let (d, e) = tri.tridiagonal();
        let ev = try_tridiag_eigenvalues(&d, &e).unwrap();
        assert!(spectrum_distance(&ev, &reference) < 1e-8 * n as f64);
    }

    #[test]
    fn supersteps_scale_linearly_with_n() {
        let (b, p) = (4usize, 4usize);
        let mut s = Vec::new();
        for n in [32usize, 64] {
            let m = Machine::new(MachineParams::new(p));
            let mut rng = StdRng::seed_from_u64(621);
            let dense = gen::random_banded(&mut rng, n, b);
            let bm = BandedSym::from_dense(&dense, b, b);
            let _ = lang_band_to_tridiagonal(&m, &Grid::all(p), &bm, None);
            s.push(m.report().supersteps as f64);
        }
        let ratio = s[1] / s[0];
        assert!((1.6..2.5).contains(&ratio), "S ratio {ratio} not ~2 (Θ(n) phases)");
    }

    #[test]
    fn recorded_transforms_reconstruct_eigenvectors() {
        use ca_dla::gemm::{matmul, Trans};
        let (n, b, p) = (24usize, 4usize, 2usize);
        let m = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(622);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let mut log = crate::transforms::TransformLog::default();
        let tri = lang_band_to_tridiagonal(&m, &Grid::all(p), &bm, Some(log.stage()));
        let (d, e) = tri.tridiagonal();
        let (lam, z) = ca_dla::tridiag::try_tridiag_eigen(&d, &e).unwrap();
        let v = crate::transforms::back_transform(&m, &Grid::all(p), &log, &z);
        let av = matmul(&dense, Trans::N, &v, Trans::N);
        let mut vl = v.clone();
        for i in 0..n {
            for j in 0..n {
                vl.set(i, j, v.get(i, j) * lam[j]);
            }
        }
        assert!(av.max_diff(&vl) < 1e-8 * n as f64);
    }

    #[test]
    fn tridiagonal_input_is_passthrough() {
        let m = Machine::new(MachineParams::new(2));
        let a = gen::laplacian_2d(8, 1);
        let bm = BandedSym::from_dense(&a, 1, 1);
        let out = lang_band_to_tridiagonal(&m, &Grid::all(2), &bm, None);
        assert!(out.to_dense().max_diff(&a) < 1e-15);
        assert_eq!(m.report().horizontal_words, 0);
    }
}
