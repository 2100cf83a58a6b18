//! Algorithm IV.2: **2.5D-Band-to-Band** — reduce a symmetric banded
//! matrix from band-width `b` to any target `h < b` (the paper's
//! `h = b/k`, generalized to non-divisor targets for arbitrary `n`) by
//! pipelined bulge chasing.
//!
//! The chase schedule comes from [`ca_dla::bulge::chase_plan_iter`] (the
//! paper's exact index ranges); iterations with equal `2i + j` run
//! concurrently on disjoint processor groups `Π̂ⱼ` of `p̂ = p·b/n`
//! processors (Figure 2), which the ledger's per-processor superstep
//! counters capture. Each chase is charged for
//!
//! 1. gathering its `O(b)×O(b)` window onto the group
//!    (`O(b²/p̂)` words per processor, as in the Lemma IV.3 proof),
//! 2. QR-factoring the `(≤b)×h` bulge block on `p·h/n` processors
//!    (line 16, [`ca_pla::rect_qr`]),
//! 3. the two-sided update of lines 17–22 with Lemma III.2 multiplies
//!    (`v = p̂^{2−3δ}/(k−1)`),
//! 4. handing the boundary on to the adjacent group,
//!
//! and executed by `ca-dla`'s one banded chase kernel on the band itself
//! ([`ca_dla::bulge::reduce_band_pass`]); only step 2, for a block large
//! enough to amortize it, is a distributed computation — on the block the
//! kernel gathered, its factors handed back to the kernel.
//!
//! A fence closes every pipeline phase, folding the per-superstep maxima
//! exactly at the granularity the paper's cost expressions sum over.

use ca_bsp::Machine;
use ca_dla::bulge::{chase_plan_iter, reduce_band_pass, BlockReflector, ChaseOp};
use ca_dla::{costs, BandedSym, MatrixView, QrFactors, Workspace};
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::rect_qr::rect_qr;

/// Reduce `bmat` from band-width `b` to the target `h` on the
/// processors of `grid` (1D), charging per Algorithm IV.2. `v_mem` is
/// the Lemma III.2 memory parameter for the update multiplies. `h` is
/// any `1 ≤ h ≤ b`: it need not divide `b` — the solver's schedule for
/// arbitrary `n` halves odd band-widths to `⌈b/2⌉` and clamps its last
/// pass to `n/pᵟ` rather than overshooting it.
///
/// With `rec`, each chase's `(U, T)` is appended to it in execution
/// (pipeline-phase) order; recording changes no bit of the band and no
/// charge. A target outside `1 ≤ h ≤ b` comes back as
/// `Err(EigenError::InvalidTargetBandwidth)`, and a `grid` naming a
/// processor the machine lacks as `Err(EigenError::MachineMismatch)`,
/// before anything is charged or recorded.
///
/// The driver: the plan in pipeline-phase order (chases with equal
/// `2i + j` run concurrently on their groups `Π̂ⱼ`, Figure 2; ties by
/// ascending `i`, the handoff order — bitwise the sequential order, as
/// ca-dla's tests pin), walked phase by phase through the one banded
/// kernel. Every phase charges its residency prologue, then each chase
/// its cost model at the kernel's factor step, and a fence closes it:
/// live charges in program order.
pub fn try_band_to_band(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    h: usize,
    v_mem: usize,
    mut rec: Option<&mut Vec<BlockReflector>>,
) -> Result<BandedSym, crate::EigenError> {
    let b = bmat.bandwidth();
    if h < 1 || h > b {
        return Err(crate::EigenError::InvalidTargetBandwidth { b, h });
    }
    let grid_p = grid.procs().iter().max().map_or(0, |&j| j + 1);
    if grid_p > machine.p() {
        return Err(crate::EigenError::MachineMismatch {
            machine_p: machine.p(),
            grid_p,
        });
    }
    let _span = ca_obs::kernel_span("driver.band_to_band");
    let n = bmat.n();
    let p = grid.len();

    // Working copy with bulge capacity.
    let capacity = (2 * b).min(n - 1);
    let mut work = bmat.rehoused(b, capacity, |len| vec![0.0; len]);
    if h == b {
        return Ok(work);
    }

    // Processor groups Π̂ⱼ: ⌈n/b⌉ groups of p̂ = p·b/n processors
    // (clamped to the machine we actually have).
    let n_groups = n.div_ceil(b).clamp(1, p);
    let p_hat = (p / n_groups).max(1);
    let groups: Vec<Grid> = (0..n_groups)
        .map(|g| Grid::new_1d(grid.procs()[g * p_hat..(g + 1) * p_hat].to_vec()))
        .collect();
    let group_of = |op: &ChaseOp| pipeline_group(op.j, n_groups);
    // Line 16's `Π̂ⱼ[1 : p·h/n]`.
    let qr_procs = ((p * h) / n).clamp(1, p_hat);

    let mut plan: Vec<ChaseOp> = chase_plan_iter(n, b, h).collect();
    plan.sort_by_key(|op| (op.phase(), op.i));

    let mut last_window: Vec<Option<(usize, usize)>> = vec![None; n_groups];
    // The stage's own scratch, dropped with it: strips parked in the
    // calling thread's arena would stay resident under the finale's peak.
    let mut ws = Workspace::new();
    for ops in plan.chunk_by(|a, b| a.phase() == b.phase()) {
        for op in ops {
            let gidx = group_of(op);
            let group = &groups[gidx];
            let words = window_residency_words(op, capacity, &mut last_window[gidx]);
            for &pid in group.procs() {
                machine.charge_comm(pid, 2 * words.div_ceil(group.len() as u64));
            }
            machine.step(group.procs(), 1);
        }
        reduce_band_pass(
            &mut work,
            ops,
            |op, block| {
                let group = &groups[group_of(op)];
                charge_chase(machine, group, qr_procs, op, block, v_mem, capacity)
            },
            rec.as_deref_mut(),
            &mut ws,
        );
        machine.fence();
    }
    work.set_bandwidth(h);
    Ok(work)
}

/// The processor group `Π̂ⱼ` that runs the chases at position `j`
/// (1-based) of every sweep, out of `n_groups`: groups recycle once `j`
/// passes `n_groups` (Figure 2).
pub(crate) fn pipeline_group(j: usize, n_groups: usize) -> usize {
    (j - 1) % n_groups
}

/// Fresh words entering a group's window for one chase (line 2 of Alg
/// IV.2): the window slides by `h` between a group's consecutive
/// chases, so only the freshly entered columns plus the boundary region
/// updated by the adjacent group move — `O(h·b/p̂)` words per processor
/// per chase, matching Lemma IV.3's per-iteration traffic. Pure in the
/// schedule (stateful only through `last_window`).
fn window_residency_words(
    op: &ChaseOp,
    capacity: usize,
    last_window: &mut Option<(usize, usize)>,
) -> u64 {
    let (lo, hi) = op.window();
    let h = op.h();
    let height = (capacity + 1).min(hi - lo);
    let fresh_cols = match *last_window {
        Some((plo, phi)) if lo >= plo && lo < phi => (hi.saturating_sub(phi)) + h,
        _ => hi - lo, // first chase of this group, or a disjoint jump
    };
    *last_window = Some((lo, hi));
    (fresh_cols * height) as u64
}

/// One chase's cost on its group, charged at the kernel's factor step
/// from the operation's shapes: line 16's QR, the Lemma III.2 products
/// of lines 19–22 and the boundary handoff. Fold-free (charges and steps
/// only). When the bulge block is large enough to amortize the
/// distributed machinery, line 16 runs here — [`rect_qr`] on the gathered
/// `block`, metering itself — and its factors go back to the kernel;
/// otherwise the kernel factors locally (`None`) and the group leader is
/// charged for it.
fn charge_chase(
    machine: &Machine,
    group: &Grid,
    qr_procs: usize,
    op: &ChaseOp,
    block: &MatrixView,
    v_mem: usize,
    capacity: usize,
) -> Option<QrFactors> {
    let (lo, hi) = op.window();
    let (nr, h, nc) = (op.nr(), op.h(), op.nc());
    let kk = nr.min(h);
    let p_hat = group.len() as u64;
    let height = (capacity + 1).min(hi - lo);

    // Line 16: parallel QR of the bulge block. Blocks too small to
    // amortize the distributed machinery (a real implementation's
    // sequential threshold) run locally on the group leader, with the
    // factors broadcast to the group.
    const LOCAL_QR_WORDS: usize = 1 << 14;
    let factors = if nr >= h && qr_procs > 1 && nr * h > LOCAL_QR_WORDS {
        let dist = DistMatrix::from_dense(machine, &group.prefix(qr_procs), &block.to_matrix());
        let f = rect_qr(machine, &dist);
        dist.release(machine);
        Some(QrFactors { u: f.u.release(machine), t: f.t, r: f.r })
    } else {
        let leader = group.proc(0);
        machine.charge_flops(leader, costs::qr_flops(nr, h));
        machine.charge_vert(leader, costs::qr_vert(nr, h, machine.cache_words()));
        // Re-spread the factors over the group (they stay distributed
        // for the update multiplies — the lemma never replicates them).
        let factor_words = (nr * kk + kk * kk + kk * h) as u64;
        for &pid in group.procs() {
            machine.charge_comm(pid, 2 * factor_words.div_ceil(p_hat));
        }
        machine.step(group.procs(), 1);
        None
    };

    // Line 19: W = B[I_up.cs, I_qr.rs]·U·T. Operands are resident on the
    // group (the window gather paid for them), so these charge Lemma
    // III.2's reduction terms only — exactly how the Lemma IV.3 proof
    // prices the per-iteration multiplies.
    charge_resident_mm(machine, group, (nc, nr, kk), v_mem);
    charge_resident_mm(machine, group, (nc, kk, kk), 1);
    // Line 20: V[I_v.rs, :] += ½·U·(Tᵀ·(Uᵀ·W[I_v.rs, :])).
    charge_resident_mm(machine, group, (kk, nr, kk), 1);
    charge_resident_mm(machine, group, (kk, kk, kk), 1);
    charge_resident_mm(machine, group, (nr, kk, kk), 1);
    for &pid in group.procs() {
        machine.charge_flops(pid, ((nr * kk) as u64).div_ceil(p_hat));
    }
    // Lines 21–22: the symmetric rank-2h update.
    charge_resident_mm(machine, group, (nr, kk, nc), v_mem);
    for &pid in group.procs() {
        machine.charge_flops(pid, 2 * ((nr * nc) as u64).div_ceil(p_hat));
    }

    // Hand the boundary region off to the adjacent group (the window
    // stays resident otherwise).
    let boundary_words = (h * height) as u64;
    for &pid in group.procs() {
        machine.charge_comm(pid, 2 * boundary_words.div_ceil(p_hat));
    }
    machine.step(group.procs(), 1);
    factors
}

/// Charge an `m × k` by `k × n` product whose operands are *resident*:
/// both already live evenly spread on `group` (inside a bulge chase the
/// window gather paid for residency — Lemma IV.3's "each processor subset
/// can obtain the submatrix … with O(b²/p̂) horizontal communication").
/// Lemma III.2's cost *without* the operand-movement term:
/// `W = O(v^{1/3}·(mnk/g)^{2/3})` per processor — only the
/// inner-dimension reduction crosses processors, outputs land
/// distributed where they are produced (owner-computes) — plus the usual
/// flops and vertical traffic, in two supersteps.
fn charge_resident_mm(machine: &Machine, group: &Grid, (m, k, n): (usize, usize, usize), v: usize) {
    let g = group.len() as u64;
    let mnk = (m * k * n) as u64;
    let reduce_term = ((v.max(1) as f64).cbrt() * ((mnk / g) as f64).powf(2.0 / 3.0)) as u64;
    for &pid in group.procs() {
        machine.charge_flops(pid, 2 * mnk / g);
        machine.charge_comm(pid, reduce_term);
        machine.charge_vert(pid, ((m * k + k * n + m * n) as u64) / g);
    }
    machine.step(group.procs(), 2);
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

    fn check(n: usize, b: usize, h: usize, p: usize, seed: u64) {
        let m = machine(p);
        let grid = Grid::all(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let reference = try_banded_eigenvalues(&bm).unwrap();
        let out = try_band_to_band(&m, &grid, &bm, h, 1, None).unwrap();
        assert!(
            out.measured_bandwidth(1e-9) <= h,
            "n={n} b={b} h={h} p={p}: bandwidth {} > {h}",
            out.measured_bandwidth(1e-9),
        );
        let ev = try_banded_eigenvalues(&out).unwrap();
        let dist = spectrum_distance(&ev, &reference);
        assert!(
            dist < 1e-8 * n as f64,
            "n={n} b={b} h={h} p={p}: spectrum drifted {dist}"
        );
        assert!(m.report().supersteps > 0, "the chases charged nothing");
    }

    #[test]
    fn halves_band_small_machine() {
        check(48, 8, 4, 4, 210);
    }

    #[test]
    fn quarter_reduction() {
        check(64, 8, 2, 8, 211);
    }

    #[test]
    fn to_tridiagonal() {
        check(32, 4, 1, 4, 212);
    }

    #[test]
    fn single_processor() {
        check(32, 4, 2, 1, 213);
    }

    #[test]
    fn more_groups_than_processors() {
        // n/b = 16 groups but only 2 processors: groups recycle.
        check(64, 4, 2, 2, 214);
    }

    #[test]
    fn k_equals_one_is_identity() {
        let m = machine(2);
        let mut rng = StdRng::seed_from_u64(215);
        let dense = gen::random_banded(&mut rng, 16, 4);
        let bm = BandedSym::from_dense(&dense, 4, 4);
        let out = try_band_to_band(&m, &Grid::all(2), &bm, 4, 1, None).unwrap();
        assert_eq!(out.bandwidth(), 4);
        assert_eq!(m.report(), ca_bsp::Costs::default(), "h = b chased and charged");
        assert!(out.to_dense().max_diff(&dense) < 1e-14);
    }

    #[test]
    fn parallel_qr_leg_reduces_records_and_meters() {
        // nr·h = 200·100 words on p·h/n = 4 of a group's 8 processors:
        // the bulge blocks are factored by `rect_qr` on the block the
        // kernel gathered, and the kernel takes the factors from there.
        use ca_dla::gemm::{matmul, Trans};
        let (n, b, h, p) = (400usize, 200usize, 100usize, 16usize);
        let grid = Grid::all(p);
        let mut rng = StdRng::seed_from_u64(217);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let reference = try_banded_eigenvalues(&bm).unwrap();

        let plain_machine = machine(p);
        let plain = try_band_to_band(&plain_machine, &grid, &bm, h, 1, None).unwrap();
        let m = machine(p);
        let mut log = crate::transforms::TransformLog::default();
        let rec = Some(log.stage());
        let out = try_band_to_band(&m, &grid, &bm, h, 1, rec).unwrap();
        assert_eq!(plain, out, "recording changed the band");
        assert_eq!(plain_machine.report(), m.report(), "recording changed the ledger");

        assert!(out.measured_bandwidth(1e-9) <= h);
        let dist = spectrum_distance(&try_banded_eigenvalues(&out).unwrap(), &reference);
        assert!(dist < 1e-8 * n as f64, "spectrum drifted {dist}");
        // Every local-leg chase leaves M = 0; only the leg's `DistMatrix`
        // allocates on the machine.
        assert!(m.report().peak_memory_words > 0, "the rect_qr leg did not run");

        // The record back-transforms to an orthonormal eigenbasis of the
        // input.
        let mut blocks = Vec::new();
        let (d, e) = ca_dla::tridiag::band_to_tridiagonal(&out, Some(&mut blocks));
        log.stage().extend(blocks);
        let (lam, z) = ca_dla::dnc::dnc_eigen(&d, &e).unwrap();
        let v = crate::transforms::back_transform(&m, &grid, &log, &z);
        let gram = matmul(&v, Trans::T, &v, Trans::N);
        assert!(gram.max_diff(&ca_dla::Matrix::identity(n)) < 1e-10);
        let av = matmul(&dense, Trans::N, &v, Trans::N);
        let vl = ca_dla::Matrix::from_fn(n, n, |i, j| v.get(i, j) * lam[j]);
        assert!(av.max_diff(&vl) < 1e-8 * n as f64);
    }

    #[test]
    fn concurrent_groups_share_supersteps() {
        // With a wide machine, same-phase chases on disjoint groups must
        // not inflate S linearly in the number of concurrent chases:
        // compare S for p=2 vs p=16 on the same problem.
        let mut steps = Vec::new();
        for p in [2usize, 16] {
            let m = machine(p);
            let mut rng = StdRng::seed_from_u64(216);
            let dense = gen::random_banded(&mut rng, 128, 8);
            let bm = BandedSym::from_dense(&dense, 8, 8);
            try_band_to_band(&m, &Grid::all(p), &bm, 4, 1, None).unwrap();
            steps.push(m.report().supersteps);
        }
        assert!(
            steps[1] < steps[0],
            "pipelining did not reduce supersteps: {steps:?}"
        );
    }

    /// Figure 2 (n = 64, b = 8, h = 4, p = 8): the two concurrent sets
    /// of iterations run as pipeline phases 7 and 8, each chase on the
    /// group the figure shades, with the figure's QR and update ranges.
    #[test]
    fn phases_seven_and_eight_are_figure2() {
        // n/b = 8 groups Π̂ⱼ of p̂ = p·b/n = 1 processor.
        let n_groups = 8;
        type Chase = ((usize, usize), usize, (usize, usize), (usize, usize), (usize, usize));
        let phase = |ph: usize| -> Vec<Chase> {
            let mut v: Vec<Chase> = chase_plan_iter(64, 8, 4)
                .filter(|op| op.phase() == ph)
                .map(|op| {
                    let group = pipeline_group(op.j, n_groups);
                    ((op.i, op.j), group, op.qr_rows, op.qr_cols, op.up_cols)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            phase(7),
            vec![
                ((1, 5), 4, (36, 44), (28, 32), (32, 60)),
                ((2, 3), 2, (24, 32), (16, 20), (20, 48)),
                ((3, 1), 0, (12, 20), (8, 12), (12, 40)),
            ]
        );
        assert_eq!(
            phase(8),
            vec![
                ((1, 6), 5, (44, 52), (36, 40), (40, 64)),
                ((2, 4), 3, (32, 40), (24, 28), (28, 56)),
                ((3, 2), 1, (20, 28), (12, 16), (16, 44)),
            ]
        );
    }
}
