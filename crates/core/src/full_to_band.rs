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
//!
//! The driver is that list as straight-line code: one loop over panels
//! on the calling thread, the ledger charged live, one fence per panel —
//! the BSP program the paper costs. No task graph, cell or lock; what
//! runs in parallel is the GEMM and QR pieces under each line.

use crate::params::EigenParams;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::view::MatrixView;
use ca_dla::{BandedSym, Matrix};
use ca_pla::carma::carma_spread_into;
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::kern;
use ca_pla::rect_qr::rect_qr;
use ca_pla::streaming::streaming_mm_view_into;

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
    /// Processors the panel QR ran on: `z·pᵟ`, at most one per row of
    /// the sub-diagonal block, and one (a local QR) for a ragged final
    /// panel.
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

/// The driver: Algorithm IV.1 as the paper writes it, one loop over
/// panels calling lines 5, 7, 8, 9 and 10 in pseudocode order on plain
/// locals, charging the ledger live, with one [`Machine::fence`] per
/// panel and one after the base case. There is no task graph: the only
/// products of one panel that do not depend on each other are the two
/// halves of line 5 (DESIGN.md §6g).
///
/// The rank bodies of the building blocks are loops on this thread
/// (DESIGN.md §6b, "Why ranks are a walk"); the GEMM and QR pieces below
/// them reach the pool.
///
/// The caller has validated `a` (each public entry point scans it for
/// symmetry exactly once); here the scan is a debug assertion only.
pub(crate) fn full_to_band_impl(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    mut rec: Option<&mut Vec<crate::transforms::Reflectors>>,
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
    // An elementwise pass over a `words`-sized object spread over all
    // processors, two flops a word. The share is rounded up: the
    // straggler holding the ragged remainder sets the BSP cost, so
    // truncating here would under-count whenever p ∤ words.
    let charge_elementwise = |words: usize| {
        for &pid in all.procs() {
            machine.charge_flops(pid, 2 * (words as u64).div_ceil(p as u64));
        }
    };
    // `op(lhs[sub]) · op(rhs)` by Algorithm III.1 into a fresh buffer.
    let streaming_mm = |lhs: &MatrixView,
                        sub: (usize, usize, usize, usize),
                        transpose_lhs: bool,
                        rhs: &MatrixView,
                        transpose_rhs: bool| {
        let rows = if transpose_lhs { sub.3 } else { sub.2 };
        let cols = if transpose_rhs {
            rhs.rows()
        } else {
            rhs.cols()
        };
        let mut out = Matrix::zeros(rows, cols);
        streaming_mm_view_into(
            machine,
            &grid3,
            lhs,
            sub,
            transpose_lhs,
            rhs,
            transpose_rhs,
            w_depth,
            &mut out.view_mut(),
        );
        out
    };
    // `op(lhs) · rhs` by Lemma III.2 with `v` inner-dimension chunks.
    let carma = |lhs: &Matrix, t: Trans, rhs: &Matrix, v: usize| {
        let rows = match t {
            Trans::N => lhs.rows(),
            Trans::T => lhs.cols(),
        };
        let mut out = Matrix::zeros(rows, rhs.cols());
        carma_spread_into(
            machine,
            &all,
            &lhs.view(),
            t,
            &rhs.view(),
            Trans::N,
            v,
            &mut out.view_mut(),
        );
        out
    };
    // Lines 5 and 1: the `rem × cols` block of `A̅` at `(o, o)`, i.e.
    // `A + U⁽⁰⁾V⁽⁰⁾ᵀ + V⁽⁰⁾U⁽⁰⁾ᵀ` restricted to it. The transposed
    // aggregate blocks are read in place instead of being materialized.
    let updated_block = |u_agg: &Matrix, v_agg: &Matrix, o: usize, cols: usize, m_agg: usize| {
        let rem = n - o;
        let sub = (o, 0, rem, m_agg);
        let uvt = streaming_mm(
            &u_agg.view(),
            sub,
            false,
            &v_agg.subview(o, 0, cols, m_agg),
            true,
        );
        let vut = streaming_mm(
            &v_agg.view(),
            sub,
            false,
            &u_agg.subview(o, 0, cols, m_agg),
            true,
        );
        let mut block = a.block(o, o, rem, cols);
        block.axpy(1.0, &uvt);
        block.axpy(1.0, &vut);
        charge_elementwise(rem * cols);
        block
    };

    // Replicate A over the c layers (the Require block of Alg IV.1).
    // The dense `a` is the numerical stand-in for the per-layer
    // distributed copies; all charges flow through the replicate call.
    let rep = ca_pla::streaming::Replicated::replicate(machine, &grid3, n, n);

    let mut out = BandedSym::zeros(n, b, b);
    let mut trace = FullToBandTrace::default();
    // The aggregates are allocated once at full height with *global*
    // row alignment (row r of the aggregate is global row r) and
    // their final width — every panel but the last appends `b`
    // reflector columns and the last `rem − b`, `n − b` in all — so
    // panels append in place and every product takes an offset block
    // spec. Rows above the current trailing range and columns beyond
    // `m_agg` are never read.
    let mut u_agg = Matrix::zeros(n, n - b);
    let mut v_agg = Matrix::zeros(n, n - b);
    let (mut o, mut m_agg) = (0usize, 0usize);
    while n - o > b {
        let rem = n - o;
        // A ragged final panel has only `rem − b < b` reflectors.
        let kk = (rem - b).min(b);

        // Line 5: the current column panel of A̅ (panel 0 is A's own
        // and is read in place). Its diagonal block A̅₁₁ goes
        // straight into the output band, symmetrized in flight
        // (`½(aᵢⱼ + aⱼᵢ)` with the lower-triangle element first —
        // `Matrix::symmetrize`'s exact expression).
        let a21 = {
            let _span = ca_obs::kernel_span("f2b.line5");
            let panel = (m_agg > 0).then(|| updated_block(&u_agg, &v_agg, o, b, m_agg));
            let at = |i: usize, j: usize| match &panel {
                Some(panel) => panel.get(i, j),
                None => a.get(o + i, o + j),
            };
            for j in 0..b {
                for i in j..b {
                    let v = if i == j {
                        at(i, i)
                    } else {
                        0.5 * (at(i, j) + at(j, i))
                    };
                    out.set(o + i, o + j, v);
                }
            }
            match &panel {
                Some(panel) => panel.block(b, 0, rem - b, b),
                None => a.block(o + b, o, rem - b, b),
            }
        };

        // Line 7: QR of A̅₂₁ on z·pᵟ processors — as many as the
        // block has rows, at most. A ragged n leaves the final
        // panel's sub-diagonal block wide (fewer than b rows);
        // rect_qr requires m ≥ n, so that block is factored locally
        // on the group leader with the factors re-spread — the same
        // small-block fallback Algorithm IV.2's executor uses. R is
        // the sub-diagonal block of the band (upper-trapezoidal when
        // the panel is ragged).
        let (u1, t1) = {
            let _span = ca_obs::kernel_span("f2b.qr");
            let (u1, t1, r1, qr_procs) = if rem - b >= b {
                let qr_procs = params.panel_qr_procs(n, b).min(rem - b);
                let qr_group = Grid::new_2d((0..qr_procs).collect(), qr_procs, 1);
                let da21 = DistMatrix::from_dense(machine, &qr_group, &a21);
                let f = rect_qr(machine, &da21);
                da21.release(machine);
                let u1 = f.u.assemble_unchecked();
                f.u.release(machine);
                (u1, f.t, f.r, qr_procs)
            } else {
                let f = kern::local_qr(machine, all.proc(0), &a21);
                let factor_words = (f.u.len() + f.t.len() + f.r.len()) as u64;
                for &pid in all.procs() {
                    machine.charge_comm(pid, 2 * factor_words.div_ceil(p as u64));
                }
                machine.step(all.procs(), 1);
                (f.u, f.t, f.r, 1)
            };
            trace.panels.push(PanelTrace {
                step: trace.panels.len(),
                offset: o,
                remaining: rem,
                agg_cols: m_agg,
                qr_procs,
            });
            write_subdiag_block(&mut out, o, &r1);
            (u1, t1)
        };

        // Line 8: W = A₂₂·U₁ + U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) + V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁).
        let w = {
            let _span = ca_obs::kernel_span("f2b.w");
            let trailing = (o + b, o + b, rem - b, rem - b);
            let mut w = streaming_mm(&a.view(), trailing, false, &u1.view(), false);
            if m_agg > 0 {
                let sub = (o + b, 0, rem - b, m_agg);
                for (outer, inner) in [(&u_agg, &v_agg), (&v_agg, &u_agg)] {
                    let small = streaming_mm(&inner.view(), sub, true, &u1.view(), false);
                    let term = streaming_mm(&outer.view(), sub, false, &small.view(), false);
                    w.axpy(1.0, &term);
                }
                charge_elementwise((rem - b) * b);
            }
            w
        };

        // Line 9: V₁ = ½U₁(Tᵀ(U₁ᵀ(W·T))) − W·T via Lemma III.2
        // multiplies with v = p^{2−3δ} (right to left, as the
        // Lemma IV.1 proof prescribes), written straight into the
        // aggregate; the U₁ᵀ/Tᵀ operands are read in place.
        {
            let _span = ca_obs::kernel_span("f2b.v1");
            let wt = carma(&w, Trans::N, &t1, v_mem);
            let utwt = carma(&u1, Trans::T, &wt, 1);
            let t_utwt = carma(&t1, Trans::T, &utwt, 1);
            let corr = carma(&u1, Trans::N, &t_utwt, v_mem);
            // Fused `v1 = -wt; v1 += ½·corr` (the `* -1.0` spelling
            // is `Matrix::scale`'s exact arithmetic, which the
            // pinned output bits were produced with).
            let mut dst = v_agg.subview_mut(o + b, m_agg, rem - b, kk);
            #[allow(clippy::neg_multiply)]
            for j in 0..kk {
                for i in 0..rem - b {
                    dst.set(i, j, wt.get(i, j) * -1.0 + 0.5 * corr.get(i, j));
                }
            }
            charge_elementwise((rem - b) * b);
        }

        // Line 10: replicate U₁ and V₁ over the layers (charges),
        // then the U₁ append; on the vectors path `(U₁, T)` then
        // moves into the record, which is thereby in panel order.
        {
            let _span = ca_obs::kernel_span("f2b.append");
            let rep_words = (2 * (rem - b) * kk) as u64;
            for &pid in grid3.procs() {
                machine.charge_comm(pid, 2 * rep_words.div_ceil(p as u64));
                machine.alloc(pid, rep_words.div_ceil((q * q) as u64));
            }
            machine.step(grid3.procs(), 2);
            u_agg.set_block(o + b, m_agg, &u1);
            if let Some(rec) = rec.as_deref_mut() {
                rec.push(crate::transforms::Reflectors {
                    row0: o + b,
                    u: u1,
                    t: t1,
                });
            }
        }
        machine.fence();
        m_agg += kk;
        o += b;
    }

    // Base case (lines 1–2): the final block, updated from the full
    // aggregates and symmetrized into the band.
    {
        let _span = ca_obs::kernel_span("f2b.base");
        let mut last = updated_block(&u_agg, &v_agg, o, n - o, m_agg);
        last.symmetrize();
        write_diag_block(&mut out, o, &last);
        rep.release(machine);
    }
    machine.fence();
    (out, trace)
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
    fn trace_records_the_processors_each_panel_qr_ran_on() {
        // p = 64, c = 4: z·pᵟ = 64·√(10/64) ≈ 25 processors, capped by
        // the rows of the sub-diagonal block (54, 44, 34, 24, 14) and
        // down to one for the ragged last panel's local QR (4 rows).
        let m = machine(64);
        let params = EigenParams::new(64, 4);
        assert_eq!(params.panel_qr_procs(64, 10), 25);
        let mut rng = StdRng::seed_from_u64(219);
        let a = gen::random_symmetric(&mut rng, 64);
        let (_, trace) = full_to_band(&m, &params, &a, 10);
        let ran_on: Vec<usize> = trace.panels.iter().map(|p| p.qr_procs).collect();
        assert_eq!(ran_on, [25, 25, 25, 24, 14, 1]);
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
