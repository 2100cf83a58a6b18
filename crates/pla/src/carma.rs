//! Recursive communication-optimal rectangular matrix multiplication
//! (Lemma III.2; Demmel et al.'s CARMA \[24\]).
//!
//! BFS recursion: split the largest of the three dimensions in half,
//! assign half the processor group to each part, and recurse; `m`/`n`
//! splits replicate the other operand down into both halves (charged),
//! `k` splits combine the two partial products with a summed reduction
//! (charged). The base case (one processor) is a charged local GEMM.
//!
//! The memory parameter `v` of Lemma III.2 serializes the multiply into
//! `v` inner-dimension chunks, trading `α·v log p` synchronization for a
//! `(mnk/(vp))^{2/3}` replication footprint — exactly how Algorithm IV.1
//! invokes it (`v = p^{2−3δ}`).
//!
//! Operands enter evenly spread over the group (`words/g` per processor)
//! and the output leaves evenly spread — the paper's "any load balanced
//! starting layout" precondition.

use crate::grid::Grid;
use crate::kern;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::Matrix;

/// `C = A·B` on `group` with memory parameter `v ≥ 1` (Lemma III.2),
/// from an *arbitrary* load-balanced layout: pays the one-time
/// `O((mn + nk + mk)/p)`-per-processor redistribution into CARMA's
/// recursive layout (the entry charge of Lemma III.2's proof) before
/// the recursion.
/// ```
/// use ca_bsp::{Machine, MachineParams};
/// use ca_pla::{carma::carma, Grid};
/// use ca_dla::Matrix;
///
/// let m = Machine::new(MachineParams::new(4));
/// let a = Matrix::identity(8);
/// let b = Matrix::from_fn(8, 8, |i, j| (i + j) as f64);
/// let c = carma(&m, &Grid::all(4), &a, &b, 1);
/// assert!(c.max_diff(&b) < 1e-15);
/// assert!(m.report().horizontal_words > 0); // the multiply was charged
/// ```
pub fn carma(m: &Machine, group: &Grid, a: &Matrix, b: &Matrix, v: usize) -> Matrix {
    let (mm, kk) = (a.rows(), a.cols());
    let nn = b.cols();
    let entry = ((mm * kk + kk * nn + mm * nn) as u64).div_ceil(group.len() as u64);
    for &pid in group.procs() {
        m.charge_comm(pid, entry);
    }
    m.step(group.procs(), 1);
    let mut out = Matrix::zeros(mm, nn);
    let (av, bv) = (a.view(), b.view());
    carma_spread_into(m, group, &av, Trans::N, &bv, Trans::N, v, &mut out.view_mut());
    out
}

/// Rows/cols of `op(A)` for a view operand.
#[inline]
fn op_shape(a: &MatrixView, ta: Trans) -> (usize, usize) {
    match ta {
        Trans::N => (a.rows(), a.cols()),
        Trans::T => (a.cols(), a.rows()),
    }
}

/// Sub-view of `op(A)` (rows `r0..r0+nr`, cols `c0..c0+nc` in *op*
/// coordinates), mapped back onto the stored orientation.
#[inline]
fn op_sub<'a>(
    a: &MatrixView<'a>,
    ta: Trans,
    r0: usize,
    c0: usize,
    nr: usize,
    nc: usize,
) -> MatrixView<'a> {
    match ta {
        Trans::N => a.sub(r0, c0, nr, nc),
        Trans::T => a.sub(c0, r0, nc, nr),
    }
}

/// The Lemma III.2 multiply on views: `out ← op(A)·op(B)` written
/// directly into a strided output view, with operands taken as
/// (optionally transposed) views of their parent storage. It skips
/// [`carma`]'s entry charge: the operands are already in the recursive
/// layout (produced by an enclosing recursion or an earlier charged
/// redistribution), so only the internal replication/reduction traffic
/// is charged.
///
/// The reduction drivers address aggregate panels in place instead of
/// extracting blocks. Charges are shape-derived, so neither the output
/// stride nor `ta` changes the ledger or the product's bits:
///
/// * `m`/`n` splits recurse into disjoint output regions;
/// * `k` splits and `v`-chunking accumulate through a temporary plus
///   one elementwise add (the `0.0 + x` of the first chunk is
///   observable on signed zeros, so it is part of the contract);
/// * the one-processor base writes through a `β = 0` GEMM;
/// * a transposed operand reads through the GEMM kernels' `op(·)`
///   resolver, which performs the same arithmetic in the same order as
///   on a pre-transposed copy.
#[allow(clippy::too_many_arguments)] // BLAS-shaped: two operands with their orientations
pub fn carma_spread_into(
    m: &Machine,
    group: &Grid,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    v: usize,
    out: &mut MatrixViewMut,
) {
    let (mm, kk) = op_shape(a, ta);
    let (kk2, nn) = op_shape(b, tb);
    assert_eq!(kk, kk2, "carma: inner dimensions disagree");
    assert_eq!(
        (out.rows(), out.cols()),
        (mm, nn),
        "carma_spread_into: output shape disagrees"
    );
    let v = v.max(1).min(kk.max(1));
    if v == 1 || kk < 2 * v {
        carma_rec_into(m, group, a, ta, b, tb, out);
        return;
    }
    // Serialize into v inner-dimension chunks (streaming): each chunk is
    // a full recursive multiply, accumulated by zero-fill + add (not a
    // first-chunk direct write: the `0.0 + x` add is observable on
    // signed zeros).
    out.fill(0.0);
    let bounds: Vec<usize> = (0..=v).map(|i| i * kk / v).collect();
    let g = group.len() as u64;
    for w in bounds.windows(2) {
        if w[1] == w[0] {
            continue;
        }
        let ac = op_sub(a, ta, 0, w[0], mm, w[1] - w[0]);
        let bc = op_sub(b, tb, w[0], 0, w[1] - w[0], nn);
        let mut part = Matrix::zeros(mm, nn);
        carma_rec_into(m, group, &ac, ta, &bc, tb, &mut part.view_mut());
        out.add_scaled(1.0, &part.view());
        for &pid in group.procs() {
            m.charge_flops(pid, (mm * nn) as u64 / g);
        }
    }
}

/// The BFS recursion behind [`carma_spread_into`], with the output
/// routed to disjoint sub-views.
fn carma_rec_into(
    m: &Machine,
    group: &Grid,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    out: &mut MatrixViewMut,
) {
    let g = group.len();
    let (mm, kk) = op_shape(a, ta);
    let nn = op_shape(b, tb).1;
    if g == 1 {
        kern::local_gemm(m, group.proc(0), 1.0, a, ta, b, tb, 0.0, out);
        return;
    }
    let g1 = g / 2;
    let halves = (group.prefix(g1), Grid::new_1d(group.procs()[g1..].to_vec()));
    let gw = g as u64;

    if mm >= kk && mm >= nn && mm >= 2 {
        // Split rows of op(A) (and C); B is replicated into both halves.
        let cut = mm * g1 / g;
        let a1 = op_sub(a, ta, 0, 0, cut, kk);
        let a2 = op_sub(a, ta, cut, 0, mm - cut, kk);
        for &pid in group.procs() {
            // Each processor's share of B doubles (A rows stay in place
            // in the recursive layout).
            m.charge_comm(pid, 2 * (kk * nn) as u64 / gw);
            m.alloc(pid, (kk * nn) as u64 / gw);
        }
        m.step(group.procs(), 1);
        carma_rec_into(m, &halves.0, &a1, ta, b, tb, &mut out.sub_mut(0, 0, cut, nn));
        carma_rec_into(m, &halves.1, &a2, ta, b, tb, &mut out.sub_mut(cut, 0, mm - cut, nn));
        for &pid in group.procs() {
            m.free(pid, (kk * nn) as u64 / gw);
        }
    } else if nn >= kk && nn >= 2 {
        // Split columns of B (and C); op(A) is replicated into both halves.
        let cut = nn * g1 / g;
        let b1 = op_sub(b, tb, 0, 0, kk, cut);
        let b2 = op_sub(b, tb, 0, cut, kk, nn - cut);
        for &pid in group.procs() {
            m.charge_comm(pid, 2 * (mm * kk) as u64 / gw);
            m.alloc(pid, (mm * kk) as u64 / gw);
        }
        m.step(group.procs(), 1);
        carma_rec_into(m, &halves.0, a, ta, &b1, tb, &mut out.sub_mut(0, 0, mm, cut));
        carma_rec_into(m, &halves.1, a, ta, &b2, tb, &mut out.sub_mut(0, cut, mm, nn - cut));
        for &pid in group.procs() {
            m.free(pid, (mm * kk) as u64 / gw);
        }
    } else if kk >= 2 {
        // Split the inner dimension: both halves compute a partial C,
        // combined with a summed reduction over the full group: first
        // half into a temporary, second half into `out`, one
        // elementwise add.
        let cut = kk * g1 / g;
        let a1 = op_sub(a, ta, 0, 0, mm, cut);
        let a2 = op_sub(a, ta, 0, cut, mm, kk - cut);
        let b1 = op_sub(b, tb, 0, 0, cut, nn);
        let b2 = op_sub(b, tb, cut, 0, kk - cut, nn);
        let mut c1 = Matrix::zeros(mm, nn);
        carma_rec_into(m, &halves.0, &a1, ta, &b1, tb, &mut c1.view_mut());
        carma_rec_into(m, &halves.1, &a2, ta, &b2, tb, out);
        for &pid in group.procs() {
            m.charge_comm(pid, 2 * (mm * nn) as u64 / gw);
            m.charge_flops(pid, (mm * nn) as u64 / gw);
        }
        m.step(group.procs(), 1);
        out.add_scaled(1.0, &c1.view());
    } else {
        // Degenerate tiny dimensions: compute on rank 0.
        kern::local_gemm(m, group.proc(0), 1.0, a, ta, b, tb, 0.0, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::matmul;
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn check(mm: usize, kk: usize, nn: usize, g: usize, v: usize, seed: u64) {
        let m = machine(g);
        let grid = Grid::all(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_matrix(&mut rng, mm, kk);
        let b = gen::random_matrix(&mut rng, kk, nn);
        let c = carma(&m, &grid, &a, &b, v);
        let want = matmul(&a, Trans::N, &b, Trans::N);
        assert!(
            c.max_diff(&want) < 1e-10 * (kk as f64),
            "m={mm} k={kk} n={nn} g={g} v={v}: wrong product"
        );
    }

    #[test]
    fn square_on_various_groups() {
        check(16, 16, 16, 1, 1, 110);
        check(16, 16, 16, 4, 1, 111);
        check(16, 16, 16, 8, 1, 112);
        check(17, 13, 19, 6, 1, 113);
    }

    #[test]
    fn tall_wide_and_inner_shapes() {
        check(64, 8, 8, 4, 1, 114); // m-dominant (1D regime)
        check(8, 8, 64, 4, 1, 115); // n-dominant
        check(8, 64, 8, 4, 1, 116); // k-dominant (reduction path)
    }

    #[test]
    fn v_parameter_preserves_product() {
        check(24, 32, 16, 4, 4, 117);
        check(12, 40, 12, 8, 5, 118);
    }

    #[test]
    fn into_variant_is_bitwise_identical_with_matching_charges() {
        // Output stride, `op(A)` and `op(B)` must be invisible: writing
        // into an offset region of a larger buffer from (possibly)
        // transposed stored operands agrees bitwise and in ledger with a
        // plain fresh output from untransposed operands, with v-chunking
        // active, and the ledger is the one the
        // deleted copy-path recursion charged (its `report()` at the
        // commit before its removal).
        for (mm, kk, nn, g, v, ta, seed, pin) in [
            (24usize, 32usize, 16usize, 4usize, 1usize, Trans::N, 310u64,
             [6240u64, 448, 640, 3, 128, 1792, 24960]),
            (24, 32, 16, 4, 4, Trans::N, 311, [6528, 640, 1024, 9, 80, 2560, 26112]),
            (64, 8, 8, 6, 1, Trans::N, 312, [1408, 127, 240, 4, 63, 634, 8192]),
            // k-split + chunking
            (8, 40, 8, 8, 5, Trans::N, 313, [720, 240, 240, 16, 16, 1920, 5760]),
            (17, 13, 19, 5, 2, Trans::T, 314, [2000, 347, 378, 7, 93, 1241, 9038]),
            (32, 24, 16, 4, 3, Trans::T, 315, [6528, 576, 960, 7, 96, 2304, 26112]),
        ] {
            let grid = Grid::all(g);
            let mut rng = StdRng::seed_from_u64(seed);
            let (ar, ac) = match ta {
                Trans::N => (mm, kk),
                Trans::T => (kk, mm),
            };
            let a = gen::random_matrix(&mut rng, ar, ac);
            let b = gen::random_matrix(&mut rng, kk, nn);

            let m1 = machine(g);
            let a_op = match ta {
                Trans::N => a.clone(),
                Trans::T => a.transpose(),
            };
            let mut want = Matrix::zeros(mm, nn);
            let (av, bv) = (a_op.view(), b.view());
            let mut wv = want.view_mut();
            carma_spread_into(&m1, &grid, &av, Trans::N, &bv, Trans::N, v, &mut wv);
            m1.fence();

            let m2 = machine(g);
            let mut host = Matrix::zeros(mm + 3, nn + 2);
            // B is handed over transposed and read back through `tb`.
            let bt = b.transpose();
            carma_spread_into(
                &m2,
                &grid,
                &a.view(),
                ta,
                &bt.view(),
                Trans::T,
                v,
                &mut host.subview_mut(2, 1, mm, nn),
            );
            m2.fence();

            for i in 0..mm {
                for j in 0..nn {
                    assert!(
                        host.get(2 + i, 1 + j).to_bits() == want.get(i, j).to_bits(),
                        "m={mm} k={kk} n={nn} g={g} v={v} ta={ta:?}: bit mismatch at ({i},{j})"
                    );
                }
            }
            let r = m1.report();
            assert_eq!(r, m2.report(), "seed {seed}: ledger depends on stride / op(A)");
            assert_eq!(
                crate::ledger_array(r),
                pin,
                "seed {seed}: ledger drifted from the copy-path pin"
            );
        }
    }

    #[test]
    fn one_d_regime_moves_small_operands_only() {
        // m ≫ n = k with few processors: per-proc W should be O(nk),
        // not O(mn/p) — the 1D case of Lemma III.2.
        let (mm, nk) = (512usize, 8usize);
        let g = 4;
        let m = machine(g);
        let a = Matrix::zeros(mm, nk);
        let b = Matrix::zeros(nk, nk);
        let snap = m.snapshot();
        let _ = carma(&m, &Grid::all(g), &a, &b, 1);
        m.fence();
        let w = m.costs_since(&snap).horizontal_words;
        // Lemma III.2's bound for this shape: O((mn + nk + mk)/p) —
        // crucially NOT O(m·k) (the tall operand is never replicated).
        let bound = 2 * (mm * nk + nk * nk + mm * nk) / g;
        assert!(w < bound as u64, "1D regime W={w} exceeds bound {bound}");
        // And below moving the tall operand wholesale (the per-processor
        // charge is the one-time O((mn+nk+mk)/p) entry redistribution
        // plus O(nk·log g) of B-replication — never O(m·k)).
        assert!(w < (mm * nk) as u64, "tall operand was replicated");
    }

    #[test]
    fn k_split_reduction_charges_flops() {
        let g = 2;
        let m = machine(g);
        let a = Matrix::identity(4);
        let b = Matrix::identity(4);
        // k is largest when m = n < k: use a 2×8 · 8×2 product.
        let a2 = Matrix::zeros(2, 8);
        let b2 = Matrix::zeros(8, 2);
        let _ = carma(&m, &Grid::all(g), &a2, &b2, 1);
        let _ = (a, b);
        m.fence();
        // Reduction adds mn/g flops per proc on top of local gemms.
        assert!(m.report().flops > 0);
    }

    #[test]
    fn more_processors_reduce_or_hold_per_proc_volume() {
        let n = 32;
        let mut vols = Vec::new();
        for g in [2usize, 8] {
            let m = machine(g);
            let a = Matrix::zeros(n, n);
            let b = Matrix::zeros(n, n);
            let snap = m.snapshot();
            let _ = carma(&m, &Grid::all(g), &a, &b, 1);
            m.fence();
            vols.push(m.costs_since(&snap).horizontal_words);
        }
        assert!(vols[1] <= 2 * vols[0], "W grew too fast with p: {vols:?}");
    }
}
