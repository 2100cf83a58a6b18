//! Algorithm IV.1: **2.5D-Full-to-Band** — reduce a dense symmetric
//! matrix to band-width `b`, preserving eigenvalues.
//!
//! The algorithm is *left-looking with aggregation*: the trailing matrix
//! is never updated in place. Instead the two-sided transformations are
//! accumulated as growing panels `U⁽⁰⁾`, `V⁽⁰⁾` with
//! `A̅ = A + U⁽⁰⁾V⁽⁰⁾ᵀ + V⁽⁰⁾U⁽⁰⁾ᵀ` (Eqn. IV.1), and every product
//! against `A` or the aggregates is a *replicated* multiplication
//! (Algorithm III.1 / Lemma III.3) on the `q × q × c` grid — which is
//! where the `Θ(√c)` communication saving materializes.
//!
//! Per panel (matching the pseudocode line numbers):
//! * line 5 — update the current column panel from the aggregates,
//! * line 7 — QR of the sub-diagonal panel `A̅₂₁` on `z·pᵟ` processors
//!   ([`ca_pla::rect_qr`]),
//! * line 8 — `W = A₂₂U₁ + U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) + V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁)`
//!   (three streaming multiplies),
//! * line 9 — `V₁ = ½U₁(Tᵀ(U₁ᵀ(W·T))) − W·T` (Lemma III.2 multiplies
//!   with `v = p^{2−3δ}`),
//! * line 10 — replicate `U₁`, `V₁` and append to the aggregates.

use crate::params::EigenParams;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::{BandedSym, Matrix};
use ca_pla::carma::carma_spread_into;
use ca_pla::dag::{TaskCell, TaskGraph, TaskId};
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::kern;
use ca_pla::rect_qr::rect_qr;
use ca_pla::streaming::streaming_mm_view_into;
use std::sync::{Mutex, RwLock};

/// Structural trace of the reduction, used by the Figure-1 regeneration
/// binary and by tests.
#[derive(Debug, Clone, Default)]
pub struct FullToBandTrace {
    /// One record per eliminated panel.
    pub panels: Vec<PanelTrace>,
}

/// What Algorithm IV.1 did for one panel (cf. Figure 1's depiction of
/// two consecutive recursive steps).
#[derive(Debug, Clone)]
pub struct PanelTrace {
    /// Panel index (0-based recursion depth).
    pub step: usize,
    /// Global offset of the panel (`A₁₁` starts here).
    pub offset: usize,
    /// Rows remaining in the trailing problem (dimension of `A`).
    pub remaining: usize,
    /// Aggregate width `m` before this panel (`U⁽⁰⁾`/`V⁽⁰⁾` columns).
    pub agg_cols: usize,
    /// Processors used for the panel QR (`z·pᵟ`).
    pub qr_procs: usize,
}

/// Reduce the symmetric `a` to a banded matrix of band-width `b` with
/// the same eigenvalues (Algorithm IV.1). Requires `1 ≤ b < n`; `n`
/// need not be a multiple of `b` — the final panel is simply shorter
/// (its sub-diagonal block has fewer than `b` rows, factored by a
/// local wide QR).
pub fn full_to_band(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
) -> (BandedSym, FullToBandTrace) {
    try_full_to_band(machine, params, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// [`full_to_band`] with typed input validation: malformed requests
/// (non-square or asymmetric `a`, band-width outside `1 ≤ b < n`,
/// inconsistent grid parameters) come back as `Err(EigenError)` with
/// the ledger untouched.
pub fn try_full_to_band(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
) -> Result<(BandedSym, FullToBandTrace), crate::EigenError> {
    use crate::EigenError;
    params.revalidate()?;
    let n = a.rows();
    if n != a.cols() {
        return Err(EigenError::NonSquareInput {
            rows: n,
            cols: a.cols(),
        });
    }
    check_symmetric(a)?;
    if b < 1 || b >= n {
        return Err(EigenError::InvalidBandwidth { n, b });
    }
    Ok(full_to_band_impl(machine, params, a, b, None))
}

/// The symmetry test every entry point applies to its input, once: one
/// scan each for `‖A‖_max` and `max |aᵢⱼ − aⱼᵢ|`.
pub(crate) fn check_symmetric(a: &Matrix) -> Result<(), crate::EigenError> {
    let (scale, asymmetry) = (a.norm_max().max(1.0), a.asymmetry());
    if asymmetry >= 1e-10 * scale {
        return Err(crate::EigenError::AsymmetricInput {
            asymmetry: asymmetry / scale,
        });
    }
    Ok(())
}

/// [`full_to_band`] with transform recording for eigenvector
/// back-transformation: each panel's `(U₁, T)` is appended to `rec` in
/// application order.
pub fn full_to_band_logged(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    rec: &mut Vec<crate::transforms::Reflectors>,
) -> (BandedSym, FullToBandTrace) {
    check_symmetric(a).unwrap_or_else(|e| panic!("{e}"));
    full_to_band_impl(machine, params, a, b, Some(rec))
}

/// The driver: one [`TaskGraph`] task per pseudocode line and panel —
/// the two line-5 aggregate products, the panel combine, the diagonal
/// band write, the panel QR (line 7), the three W terms (line 8), the
/// V₁ chain (line 9) and the aggregate append (line 10). Independent
/// tasks (the line-5 pair, the two aggregate W chains, the band writes
/// vs. the QR) may overlap, and panel `k`'s band writes may run
/// concurrently with panel `k+1`. Cross-panel QR lookahead is bounded
/// at depth 1 by the algorithm itself: panel `k+1`'s line 5 reads the
/// aggregates through panel `k` (DESIGN.md §6g).
///
/// Tasks are inserted in pseudocode order with one fence per panel, so
/// the graph's charge replay (and its inline mode) is the straight-line
/// Algorithm IV.1 schedule whatever the execution interleaving
/// (`ca_pla::dag` module docs give the determinism argument).
///
/// The caller has validated `a` (each public entry point scans it for
/// symmetry exactly once); here the scan is a debug assertion only.
pub(crate) fn full_to_band_impl(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    rec: Option<&mut Vec<crate::transforms::Reflectors>>,
) -> (BandedSym, FullToBandTrace) {
    let _span = ca_obs::kernel_span("driver.full_to_band");
    let n = a.rows();
    assert_eq!(n, a.cols(), "input must be square");
    debug_assert!(check_symmetric(a).is_ok(), "input must be symmetric");
    assert!(b >= 1 && b < n, "band-width must satisfy 1 ≤ b < n");

    let grid3 = params.grid3();
    let w_depth = params.stream_depth(n, b);
    let v_mem = params.p_2m3d();
    let all = Grid::all(params.p);
    let p = params.p;
    let q = params.q;
    // Per-processor share of a `words`-sized object, rounded up: the
    // straggler holding the ragged remainder sets the BSP cost, so
    // truncating here would under-count whenever p ∤ words.
    let per_proc = move |words: usize| (words as u64).div_ceil(p.max(1) as u64);

    // Replicate A over the c layers (the Require block of Alg IV.1).
    // The dense `a` is the numerical stand-in for the per-layer
    // distributed copies; all charges flow through the replicate call.
    // It runs live, before the graph: its charges open the same ledger
    // phase that panel 0's replayed charges complete.
    let rep = ca_pla::streaming::Replicated::replicate(machine, &grid3, a);

    // Static panel schedule — offsets, trailing sizes, aggregate widths
    // and reflector counts are all data-independent, so the whole graph
    // is built up front.
    struct PanelSpec {
        o: usize,
        rem: usize,
        m_agg: usize,
        kk: usize,
        qr_procs: usize,
    }
    let mut trace = FullToBandTrace::default();
    let mut specs: Vec<PanelSpec> = Vec::new();
    {
        let mut o = 0usize;
        let mut m_agg = 0usize;
        let mut step = 0usize;
        while n - o > b {
            let rem = n - o;
            trace.panels.push(PanelTrace {
                step,
                offset: o,
                remaining: rem,
                agg_cols: m_agg,
                qr_procs: params.panel_qr_procs(n, b),
            });
            let kk = (rem - b).min(b);
            specs.push(PanelSpec {
                o,
                rem,
                m_agg,
                kk,
                qr_procs: params.panel_qr_procs(n, b).min(rem - b).max(1),
            });
            m_agg += kk;
            o += b;
            step += 1;
        }
    }
    let total_agg: usize = specs.iter().map(|s| s.kk).sum();
    let m_agg_final = specs.last().map_or(0, |s| s.m_agg + s.kk);
    let o_final = specs.len() * b;

    // Shared state the tasks hand each other. Locks never contend on a
    // value's bits — the dependency edges serialize every write against
    // every read — they only make the sharing safe across worker
    // threads. The aggregates are preallocated at full height with
    // *global* row alignment (row r of the aggregate is global row r)
    // and the final column count: panels append in place and every
    // product takes an offset block spec. Rows above the current
    // trailing range and columns beyond `m_agg` are never read.
    let out_slot = Mutex::new(BandedSym::zeros(n, b, b));
    let u_agg = RwLock::new(Matrix::zeros(n, total_agg));
    let v_agg = RwLock::new(Matrix::zeros(n, total_agg));
    let rec = Mutex::new(rec);

    #[derive(Default)]
    struct PanelCells {
        /// Updated panel A̅(o.., o..o+b) (only built when m_agg > 0).
        panel: TaskCell<Matrix>,
        upd1: TaskCell<Matrix>,
        upd2: TaskCell<Matrix>,
        /// (U₁, T, R) from the line-7 QR.
        qr: TaskCell<(Matrix, Matrix, Matrix)>,
        w: TaskCell<Matrix>,
        w2: TaskCell<Matrix>,
        w3: TaskCell<Matrix>,
    }
    let cells: Vec<PanelCells> = specs.iter().map(|_| PanelCells::default()).collect();
    let base_upd1 = TaskCell::<Matrix>::new();
    let base_upd2 = TaskCell::<Matrix>::new();

    let a_ref = a;
    let grid3 = &grid3;
    let all = &all;
    let out = &out_slot;
    let u_agg = &u_agg;
    let v_agg = &v_agg;
    let rec = &rec;
    let cells = &cells;
    let base_upd1 = &base_upd1;
    let base_upd2 = &base_upd2;

    let mut graph = TaskGraph::new(machine);
    // Tail of the previous panel (its aggregate append), which the
    // next panel's line 5 depends on.
    let mut prev_tail: Option<TaskId> = None;
    for (k, s) in specs.iter().enumerate() {
        let (o, rem, m_agg, kk) = (s.o, s.rem, s.m_agg, s.kk);
        let qr_procs = s.qr_procs;
        let c = &cells[k];
        let deps_prev: Vec<TaskId> = prev_tail.into_iter().collect();

        // Line 5: the two aggregate products are independent tasks; the
        // combine joins them. The transposed aggregate blocks are read
        // in place (`transpose_b`) instead of being materialized.
        let combine = if m_agg > 0 {
            let t5a = graph.add_task("f2b.line5a", &deps_prev, move || {
                let ug = u_agg.read().unwrap();
                let vg = v_agg.read().unwrap();
                let mut buf = Matrix::zeros(rem, b);
                streaming_mm_view_into(
                    machine,
                    grid3,
                    &ug.view(),
                    (o, 0, rem, m_agg),
                    false,
                    &vg.subview(o, 0, b, m_agg),
                    true,
                    w_depth,
                    &mut buf.view_mut(),
                );
                c.upd1.set(buf);
            });
            let t5b = graph.add_task("f2b.line5b", &deps_prev, move || {
                let ug = u_agg.read().unwrap();
                let vg = v_agg.read().unwrap();
                let mut buf = Matrix::zeros(rem, b);
                streaming_mm_view_into(
                    machine,
                    grid3,
                    &vg.view(),
                    (o, 0, rem, m_agg),
                    false,
                    &ug.subview(o, 0, b, m_agg),
                    true,
                    w_depth,
                    &mut buf.view_mut(),
                );
                c.upd2.set(buf);
            });
            let comb = graph.add_task("f2b.panel", &[t5a, t5b], move || {
                let mut panel = a_ref.block(o, o, rem, b);
                panel.axpy(1.0, &c.upd1.take());
                panel.axpy(1.0, &c.upd2.take());
                for &pid in all.procs() {
                    machine.charge_flops(pid, 2 * per_proc(rem * b));
                }
                c.panel.set(panel);
            });
            Some(comb)
        } else {
            None
        };
        let panel_deps: Vec<TaskId> = combine.into_iter().collect();

        // The diagonal block A̅₁₁ goes straight into the output band,
        // symmetrized in flight (`½(aᵢⱼ + aⱼᵢ)` with the lower-triangle
        // element first — `Matrix::symmetrize`'s exact expression).
        graph.add_task("f2b.diag", &panel_deps, move || {
            let mut band = out.lock().unwrap();
            let mut write = |get: &dyn Fn(usize, usize) -> f64| {
                for j in 0..b {
                    for i in j..b {
                        let v = if i == j {
                            get(i, i)
                        } else {
                            0.5 * (get(i, j) + get(j, i))
                        };
                        band.set(o + i, o + j, v);
                    }
                }
            };
            if m_agg > 0 {
                c.panel.with_ref(|pm| write(&|i, j| pm.get(i, j)));
            } else {
                write(&|i, j| a_ref.get(o + i, o + j));
            }
        });

        // Line 7: QR of A̅₂₁ on z·pᵟ processors (and the eigenvector
        // record, whose push order the dependency chain keeps in panel
        // order). A ragged n leaves the final panel's sub-diagonal
        // block wide (fewer than b rows); rect_qr requires m ≥ n, so
        // that block is factored locally on the group leader with the
        // factors re-spread — the same small-block fallback
        // Algorithm IV.2's executor uses.
        let qr_id = graph.add_task("f2b.qr", &panel_deps, move || {
            let a21 = if m_agg > 0 {
                c.panel.with_ref(|pm| pm.block(b, 0, rem - b, b))
            } else {
                a_ref.block(o + b, o, rem - b, b)
            };
            let factors = if rem - b >= b {
                let qr_group = Grid::new_2d((0..qr_procs).collect(), qr_procs, 1);
                let da21 = DistMatrix::from_dense(machine, &qr_group, &a21);
                let f = rect_qr(machine, &da21);
                da21.release(machine);
                let u1 = f.u.assemble_unchecked();
                f.u.release(machine);
                (u1, f.t, f.r)
            } else {
                let f = kern::local_qr(machine, all.proc(0), &a21);
                let factor_words = (f.u.len() + f.t.len() + f.r.len()) as u64;
                for &pid in all.procs() {
                    machine.charge_comm(pid, 2 * factor_words.div_ceil(p as u64));
                }
                machine.step(all.procs(), 1);
                (f.u, f.t, f.r)
            };
            if let Some(r) = rec.lock().unwrap().as_deref_mut() {
                r.push(crate::transforms::Reflectors {
                    row0: o + b,
                    u: factors.0.clone(),
                    t: factors.1.clone(),
                });
            }
            c.qr.set(factors);
        });

        // R is the sub-diagonal block of the band (upper-trapezoidal
        // when the panel is ragged).
        graph.add_task("f2b.subdiag", &[qr_id], move || {
            let mut band = out.lock().unwrap();
            c.qr.with_ref(|(_, _, r1)| write_subdiag_block(&mut band, o, r1));
        });

        // Line 8: W = A₂₂·U₁ + U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) + V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁); the
        // three terms are independent tasks.
        let w_id = graph.add_task("f2b.w", &[qr_id], move || {
            c.qr.with_ref(|(u1, _, _)| {
                let mut buf = Matrix::zeros(rem - b, kk);
                streaming_mm_view_into(
                    machine,
                    grid3,
                    &a_ref.view(),
                    (o + b, o + b, rem - b, rem - b),
                    false,
                    &u1.view(),
                    false,
                    w_depth,
                    &mut buf.view_mut(),
                );
                c.w.set(buf);
            });
        });
        let w_tail = if m_agg > 0 {
            let w2_id = graph.add_task("f2b.w2", &[qr_id], move || {
                let ug = u_agg.read().unwrap();
                let vg = v_agg.read().unwrap();
                c.qr.with_ref(|(u1, _, _)| {
                    let mut vtu = Matrix::zeros(m_agg, kk);
                    streaming_mm_view_into(
                        machine,
                        grid3,
                        &vg.view(),
                        (o + b, 0, rem - b, m_agg),
                        true,
                        &u1.view(),
                        false,
                        w_depth,
                        &mut vtu.view_mut(),
                    );
                    let mut buf = Matrix::zeros(rem - b, kk);
                    streaming_mm_view_into(
                        machine,
                        grid3,
                        &ug.view(),
                        (o + b, 0, rem - b, m_agg),
                        false,
                        &vtu.view(),
                        false,
                        w_depth,
                        &mut buf.view_mut(),
                    );
                    c.w2.set(buf);
                });
            });
            let w3_id = graph.add_task("f2b.w3", &[qr_id], move || {
                let ug = u_agg.read().unwrap();
                let vg = v_agg.read().unwrap();
                c.qr.with_ref(|(u1, _, _)| {
                    let mut utu = Matrix::zeros(m_agg, kk);
                    streaming_mm_view_into(
                        machine,
                        grid3,
                        &ug.view(),
                        (o + b, 0, rem - b, m_agg),
                        true,
                        &u1.view(),
                        false,
                        w_depth,
                        &mut utu.view_mut(),
                    );
                    let mut buf = Matrix::zeros(rem - b, kk);
                    streaming_mm_view_into(
                        machine,
                        grid3,
                        &vg.view(),
                        (o + b, 0, rem - b, m_agg),
                        false,
                        &utu.view(),
                        false,
                        w_depth,
                        &mut buf.view_mut(),
                    );
                    c.w3.set(buf);
                });
            });
            graph.add_task("f2b.wsum", &[w_id, w2_id, w3_id], move || {
                c.w.with_mut(|w| {
                    w.axpy(1.0, &c.w2.take());
                    w.axpy(1.0, &c.w3.take());
                });
                for &pid in all.procs() {
                    machine.charge_flops(pid, 2 * per_proc((rem - b) * b));
                }
            })
        } else {
            w_id
        };

        // Line 9: V₁ = ½U₁(Tᵀ(U₁ᵀ(W·T))) − W·T via Lemma III.2
        // multiplies with v = p^{2−3δ} (right to left, as the
        // Lemma IV.1 proof prescribes), written straight into the
        // aggregate; the U₁ᵀ/Tᵀ operands are read in place.
        let v_id = graph.add_task("f2b.v1", &[w_tail], move || {
            c.qr.with_ref(|(u1, t1, _)| {
                let w = c.w.take();
                let mut wt = Matrix::zeros(rem - b, kk);
                carma_spread_into(
                    machine, all, &w.view(), Trans::N, &t1.view(), v_mem,
                    &mut wt.view_mut(),
                );
                let mut utwt = Matrix::zeros(kk, kk);
                carma_spread_into(
                    machine, all, &u1.view(), Trans::T, &wt.view(), 1,
                    &mut utwt.view_mut(),
                );
                let mut t_utwt = Matrix::zeros(kk, kk);
                carma_spread_into(
                    machine, all, &t1.view(), Trans::T, &utwt.view(), 1,
                    &mut t_utwt.view_mut(),
                );
                let mut corr = Matrix::zeros(rem - b, kk);
                carma_spread_into(
                    machine, all, &u1.view(), Trans::N, &t_utwt.view(), v_mem,
                    &mut corr.view_mut(),
                );
                // Fused `v1 = -wt; v1 += ½·corr` (the `* -1.0` spelling
                // is `Matrix::scale`'s exact arithmetic, which the
                // pinned output bits were produced with).
                let mut vg = v_agg.write().unwrap();
                let mut dst = vg.subview_mut(o + b, m_agg, rem - b, kk);
                #[allow(clippy::neg_multiply)]
                for j in 0..kk {
                    for i in 0..rem - b {
                        dst.set(i, j, wt.get(i, j) * -1.0 + 0.5 * corr.get(i, j));
                    }
                }
                drop(vg);
                for &pid in all.procs() {
                    machine.charge_flops(pid, 2 * per_proc((rem - b) * b));
                }
            });
        });

        // Line 10: replicate U₁ and V₁ over the layers (charges), then
        // the U₁ append. A ragged final panel contributes only
        // k = min(rem − b, b) reflector columns.
        let append_id = graph.add_task("f2b.append", &[v_id], move || {
            let rep_words = 2 * (rem - b) * kk;
            for &pid in grid3.procs() {
                machine.charge_comm(pid, 2 * (rep_words as u64).div_ceil(p as u64));
                machine.alloc(pid, (rep_words as u64).div_ceil((q * q) as u64));
            }
            machine.step(grid3.procs(), 2);
            c.qr.with_ref(|(u1, _, _)| {
                u_agg.write().unwrap().set_block(o + b, m_agg, u1);
            });
        });
        graph.add_fence();
        prev_tail = Some(append_id);
    }

    // Base case (lines 1–2): the final block, updated from the full
    // aggregates and symmetrized into the band.
    let (o, rem, m_agg) = (o_final, n - o_final, m_agg_final);
    let base_deps: Vec<TaskId> = prev_tail.into_iter().collect();
    let base_id = if m_agg > 0 {
        let b5a = graph.add_task("f2b.base5a", &base_deps, move || {
            let ug = u_agg.read().unwrap();
            let vg = v_agg.read().unwrap();
            let mut buf = Matrix::zeros(rem, rem);
            streaming_mm_view_into(
                machine,
                grid3,
                &ug.view(),
                (o, 0, rem, m_agg),
                false,
                &vg.subview(o, 0, rem, m_agg),
                true,
                w_depth,
                &mut buf.view_mut(),
            );
            base_upd1.set(buf);
        });
        let b5b = graph.add_task("f2b.base5b", &base_deps, move || {
            let ug = u_agg.read().unwrap();
            let vg = v_agg.read().unwrap();
            let mut buf = Matrix::zeros(rem, rem);
            streaming_mm_view_into(
                machine,
                grid3,
                &vg.view(),
                (o, 0, rem, m_agg),
                false,
                &ug.subview(o, 0, rem, m_agg),
                true,
                w_depth,
                &mut buf.view_mut(),
            );
            base_upd2.set(buf);
        });
        graph.add_task("f2b.base", &[b5a, b5b], move || {
            let mut last = a_ref.block(o, o, rem, rem);
            last.axpy(1.0, &base_upd1.take());
            last.axpy(1.0, &base_upd2.take());
            for &pid in all.procs() {
                machine.charge_flops(pid, 2 * per_proc(rem * rem));
            }
            last.symmetrize();
            let mut band = out.lock().unwrap();
            write_diag_block(&mut band, o, &last);
        })
    } else {
        graph.add_task("f2b.base", &base_deps, move || {
            let mut band = out.lock().unwrap();
            for j in 0..rem {
                for i in j..rem {
                    let v = if i == j {
                        a_ref.get(o + i, o + i)
                    } else {
                        0.5 * (a_ref.get(o + i, o + j) + a_ref.get(o + j, o + i))
                    };
                    band.set(o + i, o + j, v);
                }
            }
        })
    };
    graph.add_task("f2b.release", &[base_id], move || rep.release(machine));
    graph.add_fence();
    graph.run();

    (out_slot.into_inner().unwrap(), trace)
}

/// Write a symmetric `b×b` diagonal block into the band at offset `o`.
fn write_diag_block(out: &mut BandedSym, o: usize, blk: &Matrix) {
    let b = blk.rows();
    for j in 0..b {
        for i in j..b {
            out.set(o + i, o + j, blk.get(i, j));
        }
    }
}

/// Write the upper-triangular `R` as the sub-diagonal block: the band
/// rows `o+b..o+2b` of columns `o..o+b` receive `R` (line 13's
/// `[A̅₁₁, Rᵀ; R, B₂]` structure).
fn write_subdiag_block(out: &mut BandedSym, o: usize, r: &Matrix) {
    let b = r.cols();
    for j in 0..b {
        for i in 0..r.rows().min(b) {
            if i <= j {
                out.set(o + b + i, o + j, r.get(i, j));
            }
        }
    }
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

    fn check_reduction(n: usize, b: usize, p: usize, c: usize, seed: u64) {
        let m = machine(p);
        let params = EigenParams::new(p, c);
        let mut rng = StdRng::seed_from_u64(seed);
        let spectrum = gen::linspace_spectrum(n, -3.0, 5.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let (band, trace) = full_to_band(&m, &params, &a, b);
        assert!(band.measured_bandwidth(1e-9) <= b);
        assert_eq!(trace.panels.len(), n.div_ceil(b) - 1);
        let ev = banded_eigenvalues(&band);
        let d = spectrum_distance(&ev, &spectrum);
        assert!(
            d < 1e-8 * (n as f64),
            "n={n} b={b} p={p} c={c}: spectrum drifted by {d}"
        );
    }

    #[test]
    fn reduces_and_preserves_spectrum_2d() {
        check_reduction(32, 4, 4, 1, 200);
    }

    #[test]
    fn reduces_and_preserves_spectrum_25d() {
        check_reduction(32, 8, 8, 2, 201);
    }

    #[test]
    fn reduces_with_full_replication() {
        // c = p^{1/3} exactly (δ = 2/3): p = 64, c = 4.
        check_reduction(32, 4, 64, 4, 202);
    }

    #[test]
    fn single_processor_machine() {
        check_reduction(16, 4, 1, 1, 203);
    }

    #[test]
    fn wide_band_single_panel() {
        check_reduction(16, 8, 4, 1, 204);
    }

    #[test]
    fn ragged_dimension_short_final_panel() {
        // b ∤ n: the last panel's sub-diagonal block is wide
        // (rem − b < b) and takes the local-QR fallback.
        check_reduction(37, 6, 4, 1, 207);
        check_reduction(50, 8, 8, 2, 208);
        check_reduction(65, 16, 16, 1, 209);
    }

    #[test]
    fn ragged_dimension_odd_and_prime() {
        check_reduction(29, 4, 4, 1, 217);
        check_reduction(53, 7, 1, 1, 218);
    }

    #[test]
    fn tiny_dimensions_reduce_to_tridiagonal() {
        // n < 4 forces b = 1 (direct tridiagonalization shape).
        for (n, seed) in [(2usize, 230u64), (3, 231)] {
            let m = machine(1);
            let params = EigenParams::new(1, 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let spectrum = gen::linspace_spectrum(n, -1.0, 1.0);
            let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
            let (band, _) = full_to_band(&m, &params, &a, 1);
            let ev = banded_eigenvalues(&band);
            assert!(spectrum_distance(&ev, &spectrum) < 1e-9);
        }
    }

    #[test]
    fn replication_reduces_communication() {
        // Θ(√c) claim: at fixed p, measured W drops as c grows.
        let n = 96;
        let b = 8;
        let mut ws = Vec::new();
        for c in [1usize, 4] {
            let p = 64;
            let m = machine(p);
            let params = EigenParams::new(p, c);
            let mut rng = StdRng::seed_from_u64(205);
            let a = gen::random_symmetric(&mut rng, n);
            let snap = m.snapshot();
            let _ = full_to_band(&m, &params, &a, b);
            ws.push(m.costs_since(&snap).horizontal_words as f64);
        }
        assert!(
            ws[1] < ws[0],
            "W did not drop with replication: c=1 → {}, c=4 → {}",
            ws[0],
            ws[1]
        );
    }

    #[test]
    fn trace_records_growing_aggregates() {
        let m = machine(4);
        let params = EigenParams::new(4, 1);
        let mut rng = StdRng::seed_from_u64(206);
        let a = gen::random_symmetric(&mut rng, 24);
        let (_, trace) = full_to_band(&m, &params, &a, 4);
        for (s, p) in trace.panels.iter().enumerate() {
            assert_eq!(p.step, s);
            assert_eq!(p.offset, s * 4);
            assert_eq!(p.agg_cols, s * 4);
        }
    }
}
