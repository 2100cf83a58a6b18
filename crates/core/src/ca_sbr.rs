//! CA-SBR band halving (Lemma IV.2; Ballard–Demmel–Knight \[12\]).
//!
//! For thin bands (`b ≤ n/p`) the matrix is laid out 1D over columns
//! (`O(nb/p)` words per processor) and each processor chases the bulges
//! that live in its column range, exchanging only window boundaries with
//! its neighbour. Work (`F`), horizontal words (`W`) and vertical words
//! (`Q`) are charged physically per chase; the superstep count is
//! charged per the *aggregated* schedule analyzed in \[12\]
//! (`S = O(p)` parallel steps per halving) — our executor runs the
//! chases in dependency order rather than reproducing CA-SBR's exact
//! wavefront, so op-level stepping would overcount `S`
//! (recorded deviation, DESIGN.md §8).

use ca_bsp::Machine;
use ca_dla::bulge::{chase_plan_iter, reduce_band_pass, BlockReflector, ChaseOp};
use ca_dla::{costs, BandedSym, Workspace};
use ca_pla::grid::Grid;

/// Halve the band-width of `bmat` (`b → ⌈b/2⌉`) on the processors of
/// `grid` (1D column layout). Odd band-widths (which arise for
/// arbitrary `n`) round the target up. With `rec`, every chase's
/// transform is recorded for eigenvector back-transformation.
///
/// The driver: the halving plan walked in sweep order through the one
/// banded kernel, each chase charged to the owner of its window's first
/// column at the kernel's factor step.
pub fn ca_sbr(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    rec: Option<&mut Vec<BlockReflector>>,
) -> BandedSym {
    let _span = ca_obs::kernel_span("driver.ca_sbr");
    let n = bmat.n();
    let b = bmat.bandwidth();
    assert!(b >= 2, "cannot halve a band-width below 2");
    let target = b.div_ceil(2);
    let p = grid.len();
    let cols_per_proc = n.div_ceil(p);

    // Redistribution from any starting layout: O(nb/p) words each
    // (the lemma's O(β·nb) total term; ceiling division — the straggler
    // with the ragged remainder sets the cost).
    for &pid in grid.procs() {
        machine.charge_comm(pid, ((n * (b + 1)) as u64).div_ceil(p as u64) * 2);
    }
    machine.step(grid.procs(), 1);

    let cap = (2 * b).min(n - 1);
    let mut work = bmat.rehoused(b, cap, |len| vec![0.0; len]);
    let h_cache = machine.cache_words();
    let charge = |op: &ChaseOp| {
        let (lo, hi) = op.window();
        let owner_idx = (lo / cols_per_proc).min(p - 1);
        let owner = grid.proc(owner_idx);
        let (nr, h, nc) = (op.nr(), op.h(), op.nc());
        // Flops: the QR of the bulge block plus the W/V/update
        // products (Lemma III.1/III.4 counts).
        let f = costs::qr_flops(nr, h)
            + costs::gemm_flops(nc, nr, h)       // B·U
            + 2 * costs::gemm_flops(h, h, h)     // T chains
            + costs::gemm_flops(nr, h, h)        // correction
            + 2 * costs::gemm_flops(nr, h, nc); // rank-2h update
        machine.charge_flops(owner, f);
        // Vertical traffic: the O(b²) window per chase (Lemma IV.2's
        // ν·n²/p total over the n²/(p·b²)-per-processor chases).
        let win_words = ((hi - lo) * (cap + 1).min(hi - lo)) as u64;
        machine
            .charge_vert(owner, win_words.min(h_cache.max(1)) + win_words.saturating_sub(h_cache));
        // Boundary exchange when the window spans processors: only
        // the bulge hand-off region (h columns of band data) moves,
        // giving the lemma's O(β·nb) total per halving.
        let last_idx = ((hi - 1) / cols_per_proc).min(p - 1);
        if last_idx != owner_idx {
            let boundary = h * (b + 1);
            machine.charge_transfer(owner, grid.proc(last_idx), 2 * boundary as u64);
        }
    };

    // The stage's own scratch, dropped with it (see `band_to_band`).
    reduce_band_pass(
        &mut work,
        chase_plan_iter(n, b, target),
        |op, _| {
            charge(op);
            None
        },
        rec,
        &mut Workspace::new(),
    );

    // Aggregated pipeline schedule of [12]: O(p) parallel steps per
    // halving (charged analytically — see module docs).
    machine.step(grid.procs(), p as u64);
    machine.fence();

    work.set_bandwidth(target);
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::{spectrum_distance, try_banded_eigenvalues};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    #[test]
    fn halves_and_preserves_spectrum() {
        let (n, b, p) = (64usize, 8usize, 4usize);
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(220);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let reference = try_banded_eigenvalues(&bm).unwrap();
        let out = ca_sbr(&m, &Grid::all(p), &bm, None);
        assert_eq!(out.bandwidth(), b / 2);
        assert!(out.measured_bandwidth(1e-9) <= b / 2);
        let ev = try_banded_eigenvalues(&out).unwrap();
        assert!(spectrum_distance(&ev, &reference) < 1e-9 * n as f64);
    }

    #[test]
    fn repeated_halving_reaches_tridiagonal() {
        let (n, p) = (32usize, 2usize);
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(221);
        let dense = gen::random_banded(&mut rng, n, 8);
        let mut bm = BandedSym::from_dense(&dense, 8, 8);
        let reference = try_banded_eigenvalues(&bm).unwrap();
        while bm.bandwidth() > 1 {
            bm = ca_sbr(&m, &Grid::all(p), &bm, None);
        }
        assert!(bm.measured_bandwidth(1e-9) <= 1);
        let ev = try_banded_eigenvalues(&bm).unwrap();
        assert!(spectrum_distance(&ev, &reference) < 1e-9 * n as f64);
    }

    #[test]
    fn supersteps_charged_per_schedule() {
        let p = 4;
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(222);
        let dense = gen::random_banded(&mut rng, 40, 4);
        let bm = BandedSym::from_dense(&dense, 4, 4);
        let _ = ca_sbr(&m, &Grid::all(p), &bm, None);
        let s = m.report().supersteps;
        // Redistribution (1) + aggregated pipeline (p) + fence.
        assert_eq!(s, 1 + p as u64 + 1);
    }

    #[test]
    fn work_is_spread_over_owners() {
        let p = 4;
        let m = machine(p);
        let mut rng = StdRng::seed_from_u64(223);
        let dense = gen::random_banded(&mut rng, 64, 4);
        let bm = BandedSym::from_dense(&dense, 4, 4);
        let _ = ca_sbr(&m, &Grid::all(p), &bm, None);
        let f = m.flops_per_proc();
        // Every processor owns some chases.
        assert!(f.iter().all(|&x| x > 0), "{f:?}");
    }
}
