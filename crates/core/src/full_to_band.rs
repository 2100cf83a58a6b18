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
use ca_dla::bulge::BlockReflector;
use ca_dla::gemm::Trans;
use ca_dla::view::MatrixView;
use ca_dla::{BandedSym, Matrix};
use ca_pla::carma::carma_spread_into;
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::kern;
use ca_pla::rect_qr::rect_qr;
use ca_pla::streaming::{streaming_mm_charge, streaming_mm_view_into};

/// Reduce the symmetric `a` to a banded matrix of band-width `b` with
/// the same eigenvalues (Algorithm IV.1). Requires `1 ≤ b < n`; `n`
/// need not be a multiple of `b` — the final panel is simply shorter
/// (its sub-diagonal block has fewer than `b` rows, factored by a
/// local wide QR).
///
/// With `rec`, each panel's `(U₁, T)` is appended to it in application
/// order, for eigenvector back-transformation; recording changes no bit
/// of the band and no charge.
///
/// Malformed requests (non-square or asymmetric `a`, band-width outside
/// `1 ≤ b < n`, inconsistent grid parameters, a machine with fewer than
/// `p` processors) come back as
/// `Err(EigenError)` before anything is charged or recorded.
pub fn try_full_to_band(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    rec: Option<&mut Vec<BlockReflector>>,
) -> Result<BandedSym, crate::EigenError> {
    use crate::EigenError;
    params.revalidate()?;
    params.check_machine(machine)?;
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
    Ok(full_to_band_impl(machine, params, a, b, rec))
}

/// The symmetry test every entry point applies to its input, once: one
/// scan each for `‖A‖_max` and `max |aᵢⱼ − aⱼᵢ|`. Returns `‖A‖_max`.
pub(crate) fn check_symmetric(a: &Matrix) -> Result<f64, crate::EigenError> {
    let (amax, asymmetry) = (a.norm_max(), a.asymmetry());
    let scale = amax.max(1.0);
    if asymmetry >= 1e-10 * scale {
        return Err(crate::EigenError::AsymmetricInput {
            asymmetry: asymmetry / scale,
        });
    }
    Ok(amax)
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
/// The caller has validated `a` ([`try_full_to_band`], or the solver's
/// request validation — each scans it for symmetry exactly once); here
/// the scan is a debug assertion only.
pub(crate) fn full_to_band_impl(
    machine: &Machine,
    params: &EigenParams,
    a: &Matrix,
    b: usize,
    mut rec: Option<&mut Vec<BlockReflector>>,
) -> BandedSym {
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
    // `A + U⁽⁰⁾V⁽⁰⁾ᵀ + V⁽⁰⁾U⁽⁰⁾ᵀ` restricted to it (`o ≥ b`: the
    // aggregates' row `o − b` is global row `o`). The transposed
    // aggregate blocks are read in place instead of being materialized.
    // The base case's block is square, and there `V·Uᵀ` is `U·Vᵀ`
    // transposed bit for bit — each cell is the same chain of fused
    // multiply-adds over the same inner blocks and `KC` chunks, with the
    // two factors of every product swapped — so it is charged as a
    // product but computed as that transpose.
    let updated_block = |u_agg: &Matrix, v_agg: &Matrix, o: usize, cols: usize, m_agg: usize| {
        let rem = n - o;
        let sub = (o - b, 0, rem, m_agg);
        let uvt = streaming_mm(
            &u_agg.view(),
            sub,
            false,
            &v_agg.subview(o - b, 0, cols, m_agg),
            true,
        );
        let vut = if cols == rem {
            streaming_mm_charge(machine, &grid3, rem, m_agg, cols, false, w_depth);
            uvt.transpose()
        } else {
            streaming_mm(
                &v_agg.view(),
                sub,
                false,
                &u_agg.subview(o - b, 0, cols, m_agg),
                true,
            )
        };
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
    // The aggregates are allocated once at their final shape: every
    // panel's reflectors start at least `b` rows down, so row `r` of an
    // aggregate is global row `r + b` (the top `b` rows would never be
    // written or read), and every panel but the last appends `b`
    // reflector columns and the last `rem − b`, `n − b` in all. Panels
    // append in place and every product takes an offset block spec.
    // Rows above the current trailing range and columns beyond `m_agg`
    // are never read.
    let mut u_agg = Matrix::zeros(n - b, n - b);
    let mut v_agg = Matrix::zeros(n - b, n - b);
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
            let (u1, t1, r1) = if rem - b >= b {
                let qr_procs = panel_qr_group(params, n, b, rem - b);
                let qr_group = Grid::new_2d((0..qr_procs).collect(), qr_procs, 1);
                let da21 = DistMatrix::from_dense(machine, &qr_group, a21);
                let f = rect_qr(machine, &da21);
                da21.release(machine);
                (f.u.release(machine), f.t, f.r)
            } else {
                let f = kern::local_qr(machine, all.proc(0), a21);
                let factor_words = (f.u.len() + f.t.len() + f.r.len()) as u64;
                for &pid in all.procs() {
                    machine.charge_comm(pid, 2 * factor_words.div_ceil(p as u64));
                }
                machine.step(all.procs(), 1);
                (f.u, f.t, f.r)
            };
            write_subdiag_block(&mut out, o, &r1);
            (u1, t1)
        };

        // Line 8: W = A₂₂·U₁ + U₂⁽⁰⁾(V₂⁽⁰⁾ᵀU₁) + V₂⁽⁰⁾(U₂⁽⁰⁾ᵀU₁).
        let w = {
            let _span = ca_obs::kernel_span("f2b.w");
            let trailing = (o + b, o + b, rem - b, rem - b);
            let mut w = streaming_mm(&a.view(), trailing, false, &u1.view(), false);
            if m_agg > 0 {
                // The aggregates' rows `o..`, global rows `o + b..`.
                let sub = (o, 0, rem - b, m_agg);
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
            drop(w);
            let utwt = carma(&u1, Trans::T, &wt, 1);
            let t_utwt = carma(&t1, Trans::T, &utwt, 1);
            let corr = carma(&u1, Trans::N, &t_utwt, v_mem);
            // Fused `v1 = -wt; v1 += ½·corr` (the `* -1.0` spelling
            // is `Matrix::scale`'s exact arithmetic, which the
            // pinned output bits were produced with).
            let mut dst = v_agg.subview_mut(o, m_agg, rem - b, kk);
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
            u_agg.set_block(o, m_agg, &u1);
            if let Some(rec) = rec.as_deref_mut() {
                rec.push(BlockReflector {
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
    out
}

/// Processors line 7's QR of a panel runs on, given the `rows` of its
/// sub-diagonal block `A̅₂₁`: `z·pᵟ`, at most one per row, and one (a
/// local QR on the group leader) for a ragged final panel, whose block
/// is wide (`rows < b`).
pub(crate) fn panel_qr_group(params: &EigenParams, n: usize, b: usize, rows: usize) -> usize {
    if rows >= b {
        params.panel_qr_procs(n, b).min(rows)
    } else {
        1
    }
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
    use ca_dla::tridiag::{spectrum_distance, try_banded_eigenvalues};
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
        let mut rec = Vec::new();
        let band = try_full_to_band(&m, &params, &a, b, Some(&mut rec)).unwrap();
        assert!(band.measured_bandwidth(1e-9) <= b);
        assert_eq!(rec.len(), n.div_ceil(b) - 1, "one recorded panel per step");
        let ev = try_banded_eigenvalues(&band).unwrap();
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
            let band = try_full_to_band(&m, &params, &a, 1, None).unwrap();
            let ev = try_banded_eigenvalues(&band).unwrap();
            assert!(spectrum_distance(&ev, &spectrum) < 1e-9);
        }
    }

    /// The recorded `U₁` is rect-QR's reconstruction, unit
    /// lower-trapezoidal only to rounding, so the back-transformation
    /// must not skip its upper triangle (`ca_dla::qr::Wy::new` finds it
    /// inexact and keeps it on the plain products). Pins the state of
    /// ROADMAP item 1: once
    /// `U₁`'s zeros are exact this fails, and the back-transformation of
    /// full→band's records can skip them too.
    #[test]
    fn recorded_u1_is_not_exactly_lower_trapezoidal() {
        let (n, p) = (768, 4);
        let params = EigenParams::new(p, 1);
        let b = params.initial_bandwidth(n);
        let mut rng = StdRng::seed_from_u64(1);
        let a = gen::random_symmetric(&mut rng, n);
        let mut rec = Vec::new();
        try_full_to_band(&machine(p), &params, &a, b, Some(&mut rec)).unwrap();
        assert!(!rec.is_empty());
        for r in &rec {
            let wy = ca_dla::qr::Wy::new(r.u.view(), r.t.view());
            assert!(
                !wy.is_exact(),
                "a {} × {} U₁ has exact zeros",
                r.u.rows(),
                r.u.cols()
            );
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
            let _ = try_full_to_band(&m, &params, &a, b, None).unwrap();
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
        // down to one for the ragged last panel's local QR (4 rows). The
        // block of panel s has the rows of its recorded reflector `U₁`.
        let m = machine(64);
        let params = EigenParams::new(64, 4);
        assert_eq!(params.panel_qr_procs(64, 10), 25);
        let mut rng = StdRng::seed_from_u64(219);
        let a = gen::random_symmetric(&mut rng, 64);
        let mut rec = Vec::new();
        try_full_to_band(&m, &params, &a, 10, Some(&mut rec)).unwrap();
        let ran_on: Vec<usize> = rec
            .iter()
            .map(|r| panel_qr_group(&params, 64, 10, r.u.rows()))
            .collect();
        assert_eq!(ran_on, [25, 25, 25, 24, 14, 1]);
    }

    #[test]
    fn trace_records_growing_aggregates() {
        // Figure 1: panel s starts at row (s+1)·b below the diagonal,
        // and the aggregates U⁽⁰⁾/V⁽⁰⁾ it is updated from hold the
        // columns of every earlier panel's U₁.
        let m = machine(4);
        let params = EigenParams::new(4, 1);
        let mut rng = StdRng::seed_from_u64(206);
        let a = gen::random_symmetric(&mut rng, 24);
        let mut rec = Vec::new();
        try_full_to_band(&m, &params, &a, 4, Some(&mut rec)).unwrap();
        assert_eq!(rec.len(), 5);
        let mut agg_cols = 0;
        for (s, r) in rec.iter().enumerate() {
            assert_eq!(r.row0, (s + 1) * 4);
            assert_eq!(agg_cols, s * 4);
            agg_cols += r.u.cols();
        }
    }
}
