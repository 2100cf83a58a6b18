//! TSQR: communication-avoiding QR of tall-and-skinny matrices via a
//! binary reduction tree (Demmel, Grigori, Hoemmen, Langou \[16\]).
//!
//! Each processor QR-factors its row block locally; pairs then merge
//! their `R` factors up a binary tree (`log g` supersteps, `O(n²)` words
//! per level). The implicit tree `Q` can be expanded into an explicit
//! `m × n` orthonormal factor by a down-sweep ([`explicit_q`]), which the
//! Householder reconstruction of Corollary III.7 then converts into the
//! compact-WY `(U, T)` form the eigensolver needs.

use crate::coll;
use crate::dist::DistMatrix;
use crate::grid::Grid;
use crate::kern;
use ca_bsp::Machine;
use ca_dla::gemm::{gemm_view, matmul, Trans};
use ca_dla::qr::QrFactors;
use ca_dla::Matrix;

/// One merge node of the TSQR reduction tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Grid rank that performed the merge.
    pub owner: usize,
    /// Grid rank whose `R` was merged into the owner's.
    pub partner: usize,
    /// Rows contributed by the owner (top of the stacked matrix).
    pub top_rows: usize,
    /// Rows contributed by the partner (bottom).
    pub bot_rows: usize,
    /// QR factors of the stacked `[R_top; R_bot]`.
    pub factors: QrFactors,
}

/// The TSQR factorization: leaf factors plus the merge tree; `r` is the
/// final upper-triangular factor (held by the group's rank 0).
#[derive(Debug, Clone)]
pub struct Tsqr {
    /// Number of columns factored.
    pub n: usize,
    /// The 1D group the factorization ran on.
    pub group: Grid,
    /// Per-rank leaf QR factors.
    pub leaves: Vec<QrFactors>,
    /// Merge levels, bottom-up; level `l` merges ranks at stride `2^l`.
    pub levels: Vec<Vec<TreeNode>>,
    /// Final `min(m,n) × n` upper-triangular factor (on rank 0).
    pub r: Matrix,
}

/// TSQR of `a`, a matrix in a 1D row-block layout (`g × 1` grid).
pub fn tsqr(m: &Machine, a: &DistMatrix) -> Tsqr {
    let group = a.grid().clone();
    let (_, pc, _) = group.shape();
    assert_eq!(pc, 1, "tsqr expects a 1D row-block layout");
    let g = group.len();
    let (_rows, n) = a.shape();

    // Leaf factorizations — one independent QR per rank.
    let leaves: Vec<QrFactors> = (0..g)
        .map(|rank| kern::local_qr(m, group.proc(rank), a.local(rank)))
        .collect();
    let mut current_r: Vec<Matrix> = leaves.iter().map(|f| f.r.clone()).collect();
    m.step(group.procs(), 1);

    // Binary reduction tree.
    let mut levels = Vec::new();
    let mut stride = 1;
    while stride < g {
        let mut moves = Vec::new();
        for owner in (0..g).step_by(2 * stride) {
            let partner = owner + stride;
            if partner >= g {
                continue;
            }
            moves.push((
                group.proc(partner),
                group.proc(owner),
                current_r[partner].len() as u64,
            ));
        }
        coll::exchange(m, &group, &moves);
        // Merge nodes of one level touch disjoint (owner, partner)
        // pairs: every node reads the level's inputs, then the owners
        // take the new `R`s.
        let nodes: Vec<TreeNode> = (0..g)
            .step_by(2 * stride)
            .filter(|owner| owner + stride < g)
            .map(|owner| {
                let partner = owner + stride;
                let top = &current_r[owner];
                let bot = &current_r[partner];
                let stacked = Matrix::vstack(&[top, bot]);
                TreeNode {
                    owner,
                    partner,
                    top_rows: top.rows(),
                    bot_rows: bot.rows(),
                    factors: kern::local_qr(m, group.proc(owner), &stacked),
                }
            })
            .collect();
        for node in &nodes {
            current_r[node.owner] = node.factors.r.clone();
        }
        levels.push(nodes);
        stride *= 2;
    }

    Tsqr {
        n,
        group,
        leaves,
        levels,
        r: current_r[0].clone(),
    }
}

/// `T·(Uᵀ·[S; 0])` for one tree node or leaf: the slab `S` sits on top of
/// zero rows up to the factor's height, so only `U`'s first `S.rows()`
/// rows meet it and the padding is never materialised.
fn wy_coefficients(f: &QrFactors, s: &Matrix) -> Matrix {
    let mut uts = Matrix::zeros(f.k(), s.cols());
    gemm_view(
        1.0,
        &f.u.subview(0, 0, s.rows(), f.k()),
        Trans::T,
        &s.view(),
        Trans::N,
        0.0,
        &mut uts.view_mut(),
    );
    matmul(&f.t, Trans::N, &uts, Trans::N)
}

/// Rows `row0..row0 + nrows` of `Q·[S; 0] = [S; 0] − U·coeff`, with
/// `coeff` from [`wy_coefficients`].
fn q_rows(f: &QrFactors, s: &Matrix, coeff: &Matrix, row0: usize, nrows: usize) -> Matrix {
    let n = s.cols();
    let mut out = Matrix::zeros(nrows, n);
    let live = s.rows().saturating_sub(row0).min(nrows);
    out.subview_mut(0, 0, live, n).copy_from(&s.subview(row0, 0, live, n));
    gemm_view(
        -1.0,
        &f.u.subview(row0, 0, nrows, f.k()),
        Trans::N,
        &coeff.view(),
        Trans::N,
        1.0,
        &mut out.view_mut(),
    );
    out
}

/// Expand the implicit tree `Q` into an explicit `m × n` factor,
/// distributed in the same 1D row-block layout as the input.
///
/// Down-sweep: rank 0 seeds the root with `I_n`; each tree node applies
/// its merge-`Q` to its slab (zero-padded to the stacked height — in the
/// charge; the product skips the zero rows) and ships the bottom part to
/// its partner; leaves apply their local `Q`, each result written once,
/// as the block its rank keeps.
pub fn explicit_q(m: &Machine, t: &Tsqr, out: &mut DistMatrix) {
    let g = t.group.len();
    let n = t.n;
    assert_eq!(out.grid(), &t.group, "output must live on the TSQR group");
    assert_eq!(out.shape().1, n);

    // Per-rank current slab.
    let mut slab: Vec<Option<Matrix>> = vec![None; g];
    let root_rows = t.r.rows();
    let mut seed = Matrix::zeros(root_rows, n);
    for i in 0..root_rows.min(n) {
        seed.set(i, i, 1.0);
    }
    slab[0] = Some(seed);

    // Walk the tree top-down. Within a level the nodes own disjoint
    // (owner, partner) slabs.
    for level in t.levels.iter().rev() {
        let mut moves = Vec::new();
        for node in level {
            let input = slab[node.owner]
                .take()
                .expect("tree down-sweep: owner slab missing");
            let f = &node.factors;
            m.charge_flops(
                t.group.proc(node.owner),
                ca_dla::costs::apply_q_flops(node.top_rows + node.bot_rows, f.k(), n),
            );
            let coeff = wy_coefficients(f, &input);
            let top = q_rows(f, &input, &coeff, 0, node.top_rows);
            let bot = q_rows(f, &input, &coeff, node.top_rows, node.bot_rows);
            moves.push((
                t.group.proc(node.owner),
                t.group.proc(node.partner),
                bot.len() as u64,
            ));
            slab[node.owner] = Some(top);
            slab[node.partner] = Some(bot);
        }
        coll::exchange(m, &t.group, &moves);
    }

    // Leaf application — independent per rank.
    for (rank, s) in slab.into_iter().enumerate() {
        let s = s.expect("leaf slab missing");
        let leaf = &t.leaves[rank];
        let rows = leaf.u.rows();
        m.charge_flops(
            t.group.proc(rank),
            ca_dla::costs::apply_q_flops(rows, leaf.k(), n),
        );
        let coeff = wy_coefficients(leaf, &s);
        *out.local_mut(rank) = q_rows(leaf, &s, &coeff, 0, rows);
    }
    m.step(t.group.procs(), 1);
}

/// Convenience: TSQR followed by explicit-`Q` expansion; returns
/// `(Q, R)` with `Q` on the input's layout and `R` on rank 0.
pub fn tsqr_explicit(m: &Machine, a: &DistMatrix) -> (DistMatrix, Matrix) {
    let t = tsqr(m, a);
    let (rows, n) = a.shape();
    let mut q = DistMatrix::zeros(m, &t.group, rows, n);
    explicit_q(m, &t, &mut q);
    (q, t.r.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::{matmul, Trans};
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn check_tsqr(mrows: usize, n: usize, g: usize, seed: u64) {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, r) = tsqr_explicit(&m, &da);
        let qd = q.assemble_unchecked();
        let k = r.rows();
        // QᵀQ = I.
        let qtq = matmul(&qd, Trans::T, &qd, Trans::N);
        assert!(
            qtq.max_diff(&Matrix::identity(n.min(qtq.rows()))) < 1e-11,
            "m={mrows} n={n} g={g}: Q not orthonormal ({})",
            qtq.max_diff(&Matrix::identity(n))
        );
        // QR = A.
        let qr = matmul(&qd, Trans::N, &r, Trans::N);
        assert!(qr.max_diff(&a) < 1e-11, "m={mrows} n={n} g={g}: QR ≠ A");
        // R upper-triangular.
        for i in 0..k {
            for j in 0..i.min(r.cols()) {
                assert!(r.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn power_of_two_groups() {
        check_tsqr(64, 6, 8, 90);
        check_tsqr(32, 4, 4, 91);
    }

    #[test]
    fn non_power_of_two_group() {
        check_tsqr(60, 5, 6, 92);
        check_tsqr(21, 3, 3, 93);
    }

    #[test]
    fn single_processor_degenerates_to_local_qr() {
        check_tsqr(10, 4, 1, 94);
    }

    #[test]
    fn leaf_blocks_shorter_than_columns() {
        // 5 columns but only 4 rows per leaf: trapezoidal leaf Rs.
        check_tsqr(16, 5, 4, 95);
    }

    #[test]
    fn r_agrees_with_sequential_up_to_signs() {
        let m = machine(4);
        let grid = Grid::new_2d((0..4).collect(), 4, 1);
        let mut rng = StdRng::seed_from_u64(96);
        let a = gen::random_matrix(&mut rng, 40, 5);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let t = tsqr(&m, &da);
        let seq = ca_dla::qr::qr_factor(&a, 5);
        for i in 0..5 {
            for j in 0..5 {
                assert!(
                    (t.r.get(i, j).abs() - seq.r.get(i, j).abs()).abs() < 1e-10,
                    "({i},{j}): {} vs {}",
                    t.r.get(i, j),
                    seq.r.get(i, j)
                );
            }
        }
    }

    #[test]
    fn communication_is_logarithmic_in_group_size() {
        // Per-proc W for TSQR is O(n² log g): it must grow far slower
        // than linearly in g.
        let n = 8;
        let mut w = Vec::new();
        for g in [2usize, 8] {
            let m = machine(g);
            let grid = Grid::new_2d((0..g).collect(), g, 1);
            let a = Matrix::zeros(16 * g, n);
            let da = DistMatrix::from_dense(&m, &grid, &a);
            let snap = m.snapshot();
            let _ = tsqr(&m, &da);
            m.fence();
            w.push(m.costs_since(&snap).horizontal_words as f64);
        }
        assert!(w[1] / w[0] < 4.0, "TSQR W grew too fast: {w:?}");
    }
}
