//! TSQR: communication-avoiding QR of tall-and-skinny matrices via a
//! binary reduction tree (Demmel, Grigori, Hoemmen, Langou \[16\]).
//!
//! Each processor QR-factors its row block locally; pairs then merge
//! their `R` factors up a binary tree (`log g` supersteps, `O(n²)` words
//! per level). The implicit tree `Q` can be expanded into an explicit
//! `m × n` orthonormal factor by a down-sweep ([`tsqr_explicit`]), which the
//! Householder reconstruction of Corollary III.7 then converts into the
//! compact-WY `(U, T)` form the eigensolver needs.

use crate::coll;
use crate::dist::DistMatrix;
use crate::grid::Grid;
use crate::kern;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::qr::{QrFactors, Rhs, Wy};
use ca_dla::view::MatrixViewMut;
use ca_dla::Matrix;

/// One merge node of the TSQR reduction tree.
#[derive(Debug, Clone)]
struct TreeNode {
    /// Grid rank that performed the merge.
    owner: usize,
    /// Grid rank whose `R` was merged into the owner's.
    partner: usize,
    /// Rows contributed by the owner (top of the stacked matrix).
    top_rows: usize,
    /// Rows contributed by the partner (bottom).
    bot_rows: usize,
    /// QR factors of the stacked `[R_top; R_bot]`.
    factors: QrFactors,
}

/// The TSQR factorization: leaf factors plus the merge tree; `r` is the
/// final upper-triangular factor (held by the group's rank 0).
#[derive(Debug, Clone)]
pub(crate) struct Tsqr {
    /// Number of columns factored.
    n: usize,
    /// The 1D group the factorization ran on.
    group: Grid,
    /// Per-rank leaf QR factors.
    leaves: Vec<QrFactors>,
    /// Merge levels, bottom-up; level `l` merges ranks at stride `2^l`.
    levels: Vec<Vec<TreeNode>>,
    /// Final `min(m,n) × n` upper-triangular factor (on rank 0).
    pub(crate) r: Matrix,
}

/// TSQR of `a`, a matrix in a 1D row-block layout (`g × 1` grid).
pub(crate) fn tsqr(m: &Machine, a: &DistMatrix) -> Tsqr {
    let group = a.grid().clone();
    let (_, pc, _) = group.shape();
    assert_eq!(pc, 1, "tsqr expects a 1D row-block layout");
    let g = group.len();
    let (_rows, n) = a.shape();

    // Leaf factorizations — one independent QR per rank.
    let leaves: Vec<QrFactors> = (0..g)
        .map(|rank| kern::local_qr(m, group.proc(rank), &a.block(rank)))
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
                    factors: kern::local_qr(m, group.proc(owner), &stacked.view()),
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

/// `Q·C` of one tree node or leaf into the row windows `outs`, which
/// stack to the factor's height from its top: `C` is the node's slab `S`
/// on top of zero rows (in the charge; the product reads only `S`'s
/// rows), or, at the root, the identity the down-sweep is seeded with.
/// One coefficient feeds every window.
fn apply_node(f: &QrFactors, c: Rhs, outs: &mut [&mut MatrixViewMut]) {
    let wy = Wy::new(f.u.view(), f.t.view());
    let mut coeff = Matrix::zeros(f.k(), c.cols());
    wy.coeff(Trans::N, c, &mut coeff.view_mut());
    let mut row0 = 0;
    for out in outs {
        wy.update(Trans::N, c, &coeff.view(), row0, out);
        row0 += out.rows();
    }
}

/// The right-hand side of a node or leaf: its slab `S` (on top of zero
/// rows), or at the root the seed, which with `n` rows is the identity.
fn node_rhs(s: &Matrix, root: bool) -> Rhs<'_> {
    if root && s.rows() == s.cols() {
        Rhs::Identity(s.cols())
    } else {
        Rhs::Top(s.view())
    }
}

/// Expand the implicit tree `Q` into an explicit `m × n` factor,
/// distributed in the same 1D row-block layout as the input.
///
/// Down-sweep: rank 0 seeds the root with `I_n`; each tree node applies
/// its merge-`Q` to its slab (zero-padded to the stacked height — in the
/// charge; the product skips the zero rows) and ships the bottom part to
/// its partner; leaves apply their local `Q`, each result written once,
/// as the block its rank keeps.
pub(crate) fn explicit_q(m: &Machine, t: &Tsqr, out: &mut DistMatrix) {
    let g = t.group.len();
    let n = t.n;
    assert_eq!(out.grid(), &t.group, "output must live on the TSQR group");
    assert_eq!(out.shape().1, n);

    // Per-rank current slab. The root's is the seed: with `n` rows it
    // is the identity, which the root's product reads as `Uᵀ` in place.
    let mut slab: Vec<Option<Matrix>> = vec![None; g];
    let root_rows = t.r.rows();
    let mut seed = Matrix::zeros(root_rows, n);
    for i in 0..root_rows.min(n) {
        seed.set(i, i, 1.0);
    }
    slab[0] = Some(seed);

    // Walk the tree top-down; the top level is the root alone. Within a
    // level the nodes own disjoint (owner, partner) slabs.
    for (depth, level) in t.levels.iter().rev().enumerate() {
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
            let c = node_rhs(&input, depth == 0);
            let mut top = Matrix::zeros(node.top_rows, n);
            let mut bot = Matrix::zeros(node.bot_rows, n);
            apply_node(f, c, &mut [&mut top.view_mut(), &mut bot.view_mut()]);
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
        // With one rank the leaf is the root.
        let c = node_rhs(&s, t.levels.is_empty());
        apply_node(leaf, c, &mut [&mut out.block_mut(rank)]);
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
        let qd = q.dense();
        let k = r.rows();
        // QᵀQ = I.
        let qtq = matmul(qd, Trans::T, qd, Trans::N);
        assert!(
            qtq.max_diff(&Matrix::identity(n.min(qtq.rows()))) < 1e-11,
            "m={mrows} n={n} g={g}: Q not orthonormal ({})",
            qtq.max_diff(&Matrix::identity(n))
        );
        // QR = A.
        let qr = matmul(qd, Trans::N, &r, Trans::N);
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
