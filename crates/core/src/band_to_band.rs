//! Algorithm IV.2: **2.5D-Band-to-Band** — reduce a symmetric banded
//! matrix from band-width `b` to any target `h < b` (the paper's
//! `h = b/k`, generalized to non-divisor targets for arbitrary `n`) by
//! pipelined bulge chasing.
//!
//! The chase schedule comes from [`ca_dla::bulge::chase_plan`] (the
//! paper's exact index ranges); iterations with equal `2i + j` run
//! concurrently on disjoint processor groups `Π̂ⱼ` of `p̂ = p·b/n`
//! processors (Figure 2), which the ledger's per-processor superstep
//! counters capture. Each chase:
//!
//! 1. gathers its `O(b)×O(b)` window onto the group
//!    (`O(b²/p̂)` words per processor, as in the Lemma IV.3 proof),
//! 2. QR-factors the `(≤b)×h` bulge block on `p·h/n` processors
//!    (line 16, [`ca_pla::rect_qr`]),
//! 3. applies the two-sided update of lines 17–22 with Lemma III.2
//!    multiplies (`v = p̂^{2−3δ}/(k−1)`),
//! 4. scatters the window back.
//!
//! A fence closes every pipeline phase, folding the per-superstep maxima
//! exactly at the granularity the paper's cost expressions sum over.

use ca_bsp::Machine;
use ca_dla::bulge::{chase_plan_to, ChaseOp};
use ca_dla::gemm::Trans;
use ca_dla::{BandedSym, Matrix};
use ca_pla::dag::{TaskCell, TaskGraph, TaskId};
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::kern;
use ca_pla::ops;
use ca_pla::rect_qr::rect_qr;
use std::sync::Mutex;

/// Trace of the pipeline schedule (consumed by the Figure-2 binary).
#[derive(Debug, Clone, Default)]
pub struct BandToBandTrace {
    /// `(phase, i, j, qr_rows, qr_cols, up_cols, group_index)` per chase.
    pub chases: Vec<ChaseRecord>,
}

/// One executed chase and where it ran.
#[derive(Debug, Clone)]
pub struct ChaseRecord {
    /// Pipeline phase `2i + j`.
    pub phase: usize,
    /// The chase operation (paper index ranges).
    pub op: ChaseOp,
    /// Which processor group `Π̂ⱼ` executed it.
    pub group_index: usize,
    /// Processors used for the QR (line 16's `Π̂ⱼ[1 : p·h/n]`).
    pub qr_procs: usize,
}

/// Reduce `bmat` from band-width `b` to `⌈b/k⌉` on the processors of
/// `grid` (1D), charging per Algorithm IV.2. `v_mem` is the Lemma III.2
/// memory parameter for the update multiplies. `k` need not divide `b`
/// (odd band-widths arise for arbitrary `n`); the target rounds up.
pub fn band_to_band(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    k: usize,
    v_mem: usize,
) -> (BandedSym, BandToBandTrace) {
    try_band_to_band(machine, grid, bmat, k, v_mem).unwrap_or_else(|e| panic!("{e}"))
}

/// [`band_to_band`] with typed input validation: a reduction factor
/// outside `1 ≤ k ≤ b` comes back as `Err(EigenError)` with the ledger
/// untouched.
pub fn try_band_to_band(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    k: usize,
    v_mem: usize,
) -> Result<(BandedSym, BandToBandTrace), crate::EigenError> {
    if k < 1 || k > bmat.bandwidth() {
        return Err(crate::EigenError::InvalidReductionFactor {
            b: bmat.bandwidth(),
            k,
        });
    }
    let h = bmat.bandwidth().div_ceil(k);
    Ok(band_to_band_impl(machine, grid, bmat, h, v_mem, None))
}

/// [`band_to_band`] with an explicit target band-width `h` (any
/// `1 ≤ h ≤ b`) instead of a divisor `k` — the solver's schedule for
/// arbitrary `n` clamps the last halving to `n/pᵟ` rather than
/// overshooting it, and such targets are not expressible as `⌈b/k⌉`.
pub fn band_to_band_to(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    h: usize,
    v_mem: usize,
) -> (BandedSym, BandToBandTrace) {
    band_to_band_impl(machine, grid, bmat, h, v_mem, None)
}

/// [`band_to_band_to`] with transform recording: each chase's `(U, T)`
/// is appended to `rec` in execution (pipeline-phase) order.
pub fn band_to_band_to_logged(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    h: usize,
    v_mem: usize,
    rec: &mut Vec<crate::transforms::Reflectors>,
) -> (BandedSym, BandToBandTrace) {
    band_to_band_impl(machine, grid, bmat, h, v_mem, Some(rec))
}

/// The driver: each chase of the plan is a [`TaskGraph`] node depending
/// only on the earlier chases whose windows overlap its own — the
/// diagonal-wavefront pipeline of Figure 2. A chase of phase `φ+1`
/// whose window is clear of a straggling phase-`φ` window becomes ready
/// without waiting for the phase to drain. Tasks are inserted phase by
/// phase (residency prologue, then the phase's chases, a fence between
/// phases), so the charge replay — and the graph's inline mode — is the
/// phase-by-phase schedule whatever the execution interleaving.
fn band_to_band_impl(
    machine: &Machine,
    grid: &Grid,
    bmat: &BandedSym,
    h: usize,
    v_mem: usize,
    rec: Option<&mut Vec<crate::transforms::Reflectors>>,
) -> (BandedSym, BandToBandTrace) {
    let _span = ca_obs::kernel_span("driver.band_to_band");
    let n = bmat.n();
    let b = bmat.bandwidth();
    assert!(h >= 1 && h <= b, "need 1 ≤ h ≤ band-width");
    let p = grid.len();

    // Working copy with bulge capacity.
    let cap = (2 * b).min(n - 1);
    let mut work0 = BandedSym::zeros(n, b, cap);
    for j in 0..n {
        for i in j..n.min(j + b + 1) {
            work0.set(i, j, bmat.get(i, j));
        }
    }

    let mut trace = BandToBandTrace::default();
    if h == b {
        work0.set_bandwidth(h);
        return (work0, trace);
    }
    let capacity = work0.capacity();

    // Processor groups Π̂ⱼ: ⌈n/b⌉ groups of p̂ = p·b/n processors
    // (clamped to the machine we actually have).
    let n_groups = n.div_ceil(b).clamp(1, p);
    let p_hat = (p / n_groups).max(1);
    let groups: Vec<Grid> = (0..n_groups)
        .map(|g| Grid::new_1d(grid.procs()[g * p_hat..(g + 1) * p_hat].to_vec()))
        .collect();

    // Phase-ordered plan (ties by ascending i — the pipeline handoff
    // order, verified bitwise-equivalent to the sequential order in
    // ca-dla's tests), chunked into pipeline phases: chases with equal
    // 2i + j may run concurrently on their groups Π̂ⱼ.
    let mut plan = chase_plan_to(n, b, h);
    plan.sort_by_key(|op| (op.phase(), op.i));
    let mut phases: Vec<Vec<ChaseOp>> = Vec::new();
    for op in plan {
        match phases.last_mut() {
            Some(cur) if cur[0].phase() == op.phase() => cur.push(op),
            _ => phases.push(vec![op]),
        }
    }

    // Shared state and per-chase reflector slots (collected out of
    // completion order, appended to `rec` in plan order afterwards).
    let work_slot = Mutex::new(work0);
    let total_chases: usize = phases.iter().map(|ops| ops.len()).sum();
    let factor_cells: Vec<TaskCell<(Matrix, Matrix)>> =
        (0..total_chases).map(|_| TaskCell::new()).collect();

    let work = &work_slot;
    let groups_ref = &groups;
    let cells = &factor_cells;

    let mut graph = TaskGraph::new(machine);
    // (window, task id) of every chase inserted so far — the overlap
    // scan that yields the wavefront dependency structure.
    let mut placed: Vec<(usize, usize, TaskId)> = Vec::new();
    let mut last_window: Vec<Option<(usize, usize)>> = vec![None; n_groups];
    let mut chase_idx = 0usize;

    for (pi, ops) in phases.into_iter().enumerate() {
        if pi > 0 {
            graph.add_fence();
        }
        // Residency prologue: the per-group window-slide state is pure
        // schedule data, so the words are computed here at build time
        // and one task per phase charges them in op order.
        let mut residency: Vec<(usize, u64)> = Vec::with_capacity(ops.len());
        let mut assignments = Vec::with_capacity(ops.len());
        for op in &ops {
            let gidx = (op.j - 1) % n_groups;
            let qr_procs = ((p * h) / n).clamp(1, groups[gidx].len());
            trace.chases.push(ChaseRecord {
                phase: op.phase(),
                op: op.clone(),
                group_index: gidx,
                qr_procs,
            });
            residency.push((
                gidx,
                window_residency_words(op, capacity, &mut last_window[gidx]),
            ));
            assignments.push((gidx, qr_procs));
        }
        graph.add_task("b2b.residency", &[], move || {
            for (gidx, win_words) in residency {
                let group = &groups_ref[gidx];
                for &pid in group.procs() {
                    machine.charge_comm(pid, 2 * win_words.div_ceil(group.len() as u64));
                }
                machine.step(group.procs(), 1);
            }
        });

        for (op, (gidx, qr_procs)) in ops.into_iter().zip(assignments) {
            let (lo, hi) = op.window();
            let deps: Vec<TaskId> = placed
                .iter()
                .filter(|&&(plo, phi, _)| plo < hi && lo < phi)
                .map(|&(_, _, id)| id)
                .collect();
            let slot = chase_idx;
            let id = graph.add_task("b2b.chase", &deps, move || {
                let mut d = {
                    let w = work.lock().unwrap_or_else(|e| e.into_inner());
                    w.window(lo, hi)
                };
                let (u, t) = chase_compute(
                    machine,
                    &groups_ref[gidx],
                    qr_procs,
                    &mut d,
                    &op,
                    v_mem,
                    capacity,
                );
                let mut w = work.lock().unwrap_or_else(|e| e.into_inner());
                w.set_window(lo, &d);
                drop(w);
                cells[slot].set((u, t));
            });
            placed.push((lo, hi, id));
            chase_idx += 1;
        }
    }
    graph.add_fence();
    graph.run();

    if let Some(r) = rec {
        for (cell, chase) in factor_cells.iter().zip(&trace.chases) {
            let (u, t) = cell.take();
            r.push(crate::transforms::Reflectors {
                row0: chase.op.qr_rows.0,
                u,
                t,
            });
        }
    }

    let mut out = work_slot.into_inner().unwrap_or_else(|e| e.into_inner());
    out.set_bandwidth(h);
    (out, trace)
}

/// Fresh words entering a group's window for one chase (line 2 of Alg
/// IV.2): the window slides by `h` between a group's consecutive
/// chases, so only the freshly entered columns plus the boundary region
/// updated by the adjacent group move — `O(h·b/p̂)` words per processor
/// per chase, matching Lemma IV.3's per-iteration traffic. Pure in the
/// schedule (stateful only through `last_window`), so the driver
/// evaluates it while building the graph.
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

/// One chase's compute on its gathered window `d`: parallel QR →
/// Lemma III.2 updates → boundary handoff. Mirrors
/// `ca_dla::bulge::chase_window_update` with every product and word
/// charged. Fold-free (charges and steps only), so same-phase chases on
/// disjoint groups may run on real threads concurrently.
#[allow(clippy::too_many_arguments)]
fn chase_compute(
    machine: &Machine,
    group: &Grid,
    qr_procs: usize,
    d: &mut Matrix,
    op: &ChaseOp,
    v_mem: usize,
    capacity: usize,
) -> (Matrix, Matrix) {
    let (lo, hi) = op.window();
    let nr = op.nr();
    let h = op.h();
    let nc = op.nc();
    let qr_r = op.qr_rows.0 - lo;
    let qr_c = op.qr_cols.0 - lo;
    let up_c = op.up_cols.0 - lo;
    let p_hat = group.len() as u64;
    let height = (capacity + 1).min(hi - lo);

    // Line 16: parallel QR of the bulge block. Blocks too small to
    // amortize the distributed machinery (a real implementation's
    // sequential threshold) run locally on the group leader, with the
    // factors broadcast to the group.
    const LOCAL_QR_WORDS: usize = 1 << 14;
    let block = d.block(qr_r, qr_c, nr, h);
    let (u, t, r) = if nr >= h && qr_procs > 1 && nr * h > LOCAL_QR_WORDS {
        let qr_group = group.prefix(qr_procs);
        let dist = DistMatrix::from_dense(machine, &qr_group, &block);
        let f = rect_qr(machine, &dist);
        dist.release(machine);
        let u = f.u.assemble_unchecked();
        f.u.release(machine);
        (u, f.t, f.r)
    } else {
        let f = kern::local_qr(machine, group.proc(0), &block);
        // Re-spread the factors over the group (they stay distributed
        // for the update multiplies — the lemma never replicates them).
        let factor_words = (f.u.len() + f.t.len() + f.r.len()) as u64;
        for &pid in group.procs() {
            machine.charge_comm(pid, 2 * factor_words.div_ceil(p_hat));
        }
        machine.step(group.procs(), 1);
        (f.u, f.t, f.r)
    };
    let kk = u.cols();

    // Line 17: B[I_qr.rs, I_qr.cs] = [R; 0] and mirror.
    let mut r_full = Matrix::zeros(nr, h);
    r_full.set_block(0, 0, &r);
    d.set_block(qr_r, qr_c, &r_full);
    d.set_block(qr_c, qr_r, &r_full.transpose());

    // Line 19: W = B[I_up.cs, I_qr.rs]·U·T, V = −W. Operands are
    // resident on the group (the window gather above paid for them), so
    // these charge Lemma III.2's reduction terms only — exactly how the
    // Lemma IV.3 proof prices the per-iteration multiplies.
    let bup = d.block(up_c, qr_r, nc, nr);
    let bu = ops::resident_mm(machine, group, &bup, Trans::N, &u, Trans::N, v_mem);
    let w = ops::resident_mm(machine, group, &bu, Trans::N, &t, Trans::N, 1);
    // Fused V = −W (one pass, no clone-then-scale; −x ≡ x·(−1) bitwise).
    let mut v = Matrix::from_fn(w.rows(), w.cols(), |i, j| -w.get(i, j));

    // Line 20: V[I_v.rs, :] += ½·U·(Tᵀ·(Uᵀ·W[I_v.rs, :])).
    let w_sym = w.block(op.ov, 0, nr, kk);
    let utw = ops::resident_mm(machine, group, &u, Trans::T, &w_sym, Trans::N, 1);
    let ttutw = ops::resident_mm(machine, group, &t, Trans::T, &utw, Trans::N, 1);
    let corr = ops::resident_mm(machine, group, &u, Trans::N, &ttutw, Trans::N, 1);
    for a in 0..nr {
        for c in 0..kk {
            v.add_to(op.ov + a, c, 0.5 * corr.get(a, c));
        }
    }
    for &pid in group.procs() {
        machine.charge_flops(pid, ((nr * kk) as u64).div_ceil(p_hat));
    }

    // Lines 21–22: the symmetric rank-2h update (resident operands).
    let uvt = ops::resident_mm(machine, group, &u, Trans::N, &v, Trans::T, v_mem);
    d.add_block(qr_r, up_c, &uvt, 1.0);
    // Transposed accumulate of the mirror, no block/axpy/set_block
    // round-trip (`+= 1.0·s` ≡ `+= s` bitwise).
    for i in 0..nc {
        for j in 0..nr {
            d.add_to(up_c + i, qr_r + j, uvt.get(j, i));
        }
    }
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
    (u, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::{banded_eigenvalues, spectrum_distance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn check(n: usize, b: usize, k: usize, p: usize, seed: u64) {
        let m = machine(p);
        let grid = Grid::all(p);
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = gen::random_banded(&mut rng, n, b);
        let bm = BandedSym::from_dense(&dense, b, b);
        let reference = banded_eigenvalues(&bm);
        let (out, trace) = band_to_band(&m, &grid, &bm, k, 1);
        assert!(
            out.measured_bandwidth(1e-9) <= b / k,
            "n={n} b={b} k={k} p={p}: bandwidth {} > {}",
            out.measured_bandwidth(1e-9),
            b / k
        );
        let ev = banded_eigenvalues(&out);
        let dist = spectrum_distance(&ev, &reference);
        assert!(
            dist < 1e-8 * n as f64,
            "n={n} b={b} k={k} p={p}: spectrum drifted {dist}"
        );
        assert!(!trace.chases.is_empty());
        // Phases are non-decreasing in execution order.
        for w in trace.chases.windows(2) {
            assert!(w[0].phase <= w[1].phase);
        }
    }

    #[test]
    fn halves_band_small_machine() {
        check(48, 8, 2, 4, 210);
    }

    #[test]
    fn quarter_reduction() {
        check(64, 8, 4, 8, 211);
    }

    #[test]
    fn to_tridiagonal() {
        check(32, 4, 4, 4, 212);
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
        let (out, trace) = band_to_band(&m, &Grid::all(2), &bm, 1, 1);
        assert_eq!(out.bandwidth(), 4);
        assert!(trace.chases.is_empty());
        assert!(out.to_dense().max_diff(&dense) < 1e-14);
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
            let _ = band_to_band(&m, &Grid::all(p), &bm, 2, 1);
            steps.push(m.report().supersteps);
        }
        assert!(
            steps[1] < steps[0],
            "pipelining did not reduce supersteps: {steps:?}"
        );
    }
}
