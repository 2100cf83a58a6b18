//! SUMMA: 2D parallel matrix multiplication (van de Geijn & Watts \[25\]),
//! the workhorse the paper's baselines use and the comparison point for
//! the replicated Streaming-MM of Algorithm III.1.
//!
//! `C ← α·A·B + β·C` with all three matrices block-distributed over the
//! same `pr × pc` grid. For each inner-dimension panel, the owning
//! column of `A` broadcasts its piece along grid rows, the owning row of
//! `B` broadcasts along grid columns, and every processor accumulates a
//! local GEMM — communication `O((mk + kn)/√p · √p/…)` per the classic
//! 2D bound `O((mn + mk + kn)/√p)` on square grids.

use crate::coll;
use crate::dist::DistMatrix;
use crate::kern;
use ca_bsp::Machine;
use ca_dla::gemm::Trans;
use ca_dla::Matrix;

/// `C ← α·A·B + β·C` (shapes `m×k`, `k×n`, `m×n`), all on `C`'s grid.
pub fn summa(m: &Machine, alpha: f64, a: &DistMatrix, b: &DistMatrix, beta: f64, c: &mut DistMatrix) {
    let (am, ak) = a.shape();
    let (bk, bn) = b.shape();
    let (cm, cn) = c.shape();
    assert_eq!(ak, bk, "summa: inner dimensions disagree");
    assert_eq!((am, bn), (cm, cn), "summa: output shape disagrees");
    assert_eq!(a.grid(), c.grid(), "summa: A must share C's grid");
    assert_eq!(b.grid(), c.grid(), "summa: B must share C's grid");
    let grid = c.grid().clone();
    let (pr, pc, _) = grid.shape();

    // Inner panel boundaries: union of A's column splits and B's row
    // splits, so each panel lies within one owner block of each.
    let mut bounds: Vec<usize> = crate::dist::splits(ak, pc)
        .into_iter()
        .chain(crate::dist::splits(ak, pr))
        .collect();
    bounds.sort_unstable();
    bounds.dedup();

    // Scale C once (every rank's block independently).
    if beta != 1.0 {
        for loc in c.locals_mut() {
            if beta == 0.0 {
                loc.data_mut().fill(0.0);
            } else {
                loc.scale(beta);
            }
        }
    }

    for w in bounds.windows(2) {
        let (k0, k1) = (w[0], w[1]);
        if k1 == k0 {
            continue;
        }
        // For every grid row i: owner column of A's panel broadcasts.
        // For every grid col j: owner row of B's panel broadcasts.
        let a_owner_col = owner_block(&crate::dist::splits(ak, pc), k0);
        let b_owner_row = owner_block(&crate::dist::splits(ak, pr), k0);

        // Extract the panel pieces (per grid row / column).
        let mut a_panels: Vec<Matrix> = Vec::with_capacity(pr);
        for i in 0..pr {
            let r = grid.rank(i, a_owner_col, 0);
            let (_, c0, _, _) = a.owned_range(r);
            let loc = a.local(r);
            let piece = loc.block(0, k0 - c0, loc.rows(), k1 - k0);
            let row_group = grid.dim1_group(i, 0);
            coll::bcast(m, &row_group, a_owner_col, piece.len() as u64);
            a_panels.push(piece);
        }
        let mut b_panels: Vec<Matrix> = Vec::with_capacity(pc);
        for j in 0..pc {
            let r = grid.rank(b_owner_row, j, 0);
            let (r0, _, _, _) = b.owned_range(r);
            let loc = b.local(r);
            let piece = loc.block(k0 - r0, 0, k1 - k0, loc.cols());
            let col_group = grid.dim0_group(j, 0);
            coll::bcast(m, &col_group, b_owner_row, piece.len() as u64);
            b_panels.push(piece);
        }

        // Local accumulation on every processor.
        for (r, loc) in c.locals_mut().iter_mut().enumerate() {
            let (i, j, _) = grid.coords(r);
            kern::local_gemm(
                m,
                grid.proc(r),
                alpha,
                &a_panels[i],
                Trans::N,
                &b_panels[j],
                Trans::N,
                1.0,
                loc,
            );
        }
    }
}

/// Index of the block interval (in `splits`) containing position `x`.
fn owner_block(splits: &[usize], x: usize) -> usize {
    splits.partition_point(|&s| s <= x) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use ca_bsp::{Machine, MachineParams};
    use ca_dla::gemm::matmul;
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    #[test]
    fn matches_sequential_square_grid() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let mut rng = StdRng::seed_from_u64(80);
        let a = gen::random_matrix(&mut rng, 12, 8);
        let b = gen::random_matrix(&mut rng, 8, 10);
        let da = DistMatrix::from_dense(&m, &g, &a);
        let db = DistMatrix::from_dense(&m, &g, &b);
        let mut dc = DistMatrix::zeros(&m, &g, 12, 10);
        summa(&m, 1.0, &da, &db, 0.0, &mut dc);
        let want = matmul(&a, Trans::N, &b, Trans::N);
        assert!(dc.assemble_unchecked().max_diff(&want) < 1e-12);
    }

    #[test]
    fn matches_sequential_rect_grid_and_accumulates() {
        let m = machine(6);
        let g = Grid::new_2d((0..6).collect(), 2, 3);
        let mut rng = StdRng::seed_from_u64(81);
        let a = gen::random_matrix(&mut rng, 9, 7);
        let b = gen::random_matrix(&mut rng, 7, 11);
        let c0 = gen::random_matrix(&mut rng, 9, 11);
        let da = DistMatrix::from_dense(&m, &g, &a);
        let db = DistMatrix::from_dense(&m, &g, &b);
        let mut dc = DistMatrix::from_dense(&m, &g, &c0);
        summa(&m, 2.0, &da, &db, 3.0, &mut dc);
        let mut want = c0.clone();
        want.scale(3.0);
        want.axpy(2.0, &matmul(&a, Trans::N, &b, Trans::N));
        assert!(dc.assemble_unchecked().max_diff(&want) < 1e-12);
    }

    #[test]
    fn communication_scales_with_inverse_sqrt_p() {
        // W per processor for n×n SUMMA on a √p×√p grid is Θ(n²/√p).
        let n = 64;
        let mut w_by_p = Vec::new();
        for q in [2usize, 4] {
            let p = q * q;
            let m = machine(p);
            let g = Grid::new_2d((0..p).collect(), q, q);
            let a = Matrix::zeros(n, n);
            let da = DistMatrix::from_dense(&m, &g, &a);
            let db = DistMatrix::from_dense(&m, &g, &a);
            let mut dc = DistMatrix::zeros(&m, &g, n, n);
            let snap = m.snapshot();
            summa(&m, 1.0, &da, &db, 0.0, &mut dc);
            m.fence();
            w_by_p.push(m.costs_since(&snap).horizontal_words as f64);
        }
        // Doubling q should roughly halve per-processor W.
        let ratio = w_by_p[0] / w_by_p[1];
        assert!(ratio > 1.5 && ratio < 3.0, "W ratio {ratio}");
    }

    #[test]
    fn flops_are_load_balanced() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let a = Matrix::identity(16);
        let da = DistMatrix::from_dense(&m, &g, &a);
        let db = DistMatrix::from_dense(&m, &g, &a);
        let mut dc = DistMatrix::zeros(&m, &g, 16, 16);
        summa(&m, 1.0, &da, &db, 0.0, &mut dc);
        let f = m.flops_per_proc();
        let max = *f.iter().max().unwrap() as f64;
        let min = *f.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) < 1.5, "flop imbalance {f:?}");
    }
}
