//! Block-cyclic distributions — the layout the paper's algorithms
//! assume (Algorithm III.1's `Require` block, Algorithm IV.1's
//! `b mod q ≡ 1` condition are both statements about cyclic layouts).
//!
//! A [`CyclicMatrix`] distributes an `m×n` matrix over a `pr×pc` grid in
//! ScaLAPACK's 2D block-cyclic fashion: global entry `(i, j)` lives on
//! grid coordinates `((i/mb) mod pr, (j/nb) mod pc)`. The defining
//! property — and the reason the paper's recursions can assume perfect
//! load balance *at every trailing submatrix* without re-balancing — is
//! that any aligned trailing corner `A[o.., o..]` remains evenly spread
//! (proved in this module's tests, contrasted against the block layout
//! where the leading processors go idle).
//!
//! The simulator's algorithm executors use block layouts with explicit
//! charged redistribution between steps (DESIGN.md §8); this module
//! makes the equivalence argument concrete and provides charged
//! conversions both ways.

use crate::coll;
use crate::dist::DistMatrix;
use crate::grid::Grid;
use ca_bsp::Machine;
use ca_dla::Matrix;

/// A dense matrix in a 2D block-cyclic layout.
#[derive(Debug, Clone)]
pub struct CyclicMatrix {
    rows: usize,
    cols: usize,
    mb: usize,
    nb: usize,
    grid: Grid,
    /// Local pieces in grid-rank order, each holding that processor's
    /// cyclically-owned entries packed row-major in local index order.
    local: Vec<Matrix>,
}

/// Number of rows/cols of a dimension owned by grid coordinate `coord`
/// (ScaLAPACK's `numroc`).
pub fn numroc(n: usize, block: usize, coord: usize, nprocs: usize) -> usize {
    let nblocks = n / block;
    let mut count = (nblocks / nprocs) * block;
    let extra = nblocks % nprocs;
    if coord < extra {
        count += block;
    } else if coord == extra {
        count += n % block;
    }
    count
}

/// Map a global index to `(owner coordinate, local index)`.
pub fn global_to_local(g: usize, block: usize, nprocs: usize) -> (usize, usize) {
    let blk = g / block;
    let owner = blk % nprocs;
    let local_blk = blk / nprocs;
    (owner, local_blk * block + g % block)
}

/// Map `(owner coordinate, local index)` back to the global index.
pub fn local_to_global(owner: usize, l: usize, block: usize, nprocs: usize) -> usize {
    let local_blk = l / block;
    (local_blk * nprocs + owner) * block + l % block
}

impl CyclicMatrix {
    /// Distribute a dense matrix block-cyclically (charged as a
    /// balanced redistribution, one superstep).
    pub fn from_dense(
        m: &Machine,
        grid: &Grid,
        a: &Matrix,
        mb: usize,
        nb: usize,
    ) -> CyclicMatrix {
        let (pr, pc, pl) = grid.shape();
        assert_eq!(pl, 1, "CyclicMatrix requires a 2D grid");
        assert!(mb >= 1 && nb >= 1);
        let (rows, cols) = (a.rows(), a.cols());
        let mut local = Vec::with_capacity(grid.len());
        for r in 0..grid.len() {
            let (pi, pj, _) = grid.coords(r);
            let lr = numroc(rows, mb, pi, pr);
            let lc = numroc(cols, nb, pj, pc);
            let mut blk = Matrix::zeros(lr, lc);
            for li in 0..lr {
                let gi = local_to_global(pi, li, mb, pr);
                for lj in 0..lc {
                    let gj = local_to_global(pj, lj, nb, pc);
                    blk.set(li, lj, a.get(gi, gj));
                }
            }
            m.charge_comm(grid.proc(r), 2 * (lr * lc) as u64);
            m.alloc(grid.proc(r), (lr * lc) as u64);
            local.push(blk);
        }
        m.step(grid.procs(), 1);
        CyclicMatrix {
            rows,
            cols,
            mb,
            nb,
            grid: grid.clone(),
            local,
        }
    }

    /// Matrix dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Blocking factors `(mb, nb)`.
    pub fn blocks(&self) -> (usize, usize) {
        (self.mb, self.nb)
    }

    /// The grid this matrix lives on.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Grid rank owning global entry `(i, j)`.
    pub fn owner_of(&self, i: usize, j: usize) -> usize {
        let (pr, pc, _) = self.grid.shape();
        let (oi, _) = global_to_local(i, self.mb, pr);
        let (oj, _) = global_to_local(j, self.nb, pc);
        self.grid.rank(oi, oj, 0)
    }

    /// Words stored on grid rank `r`.
    pub fn words_on(&self, r: usize) -> u64 {
        self.local[r].len() as u64
    }

    /// Assemble the dense matrix (diagnostics/tests; no charge).
    pub fn assemble_unchecked(&self) -> Matrix {
        let (pr, pc, _) = self.grid.shape();
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.grid.len() {
            let (pi, pj, _) = self.grid.coords(r);
            let blk = &self.local[r];
            for li in 0..blk.rows() {
                let gi = local_to_global(pi, li, self.mb, pr);
                for lj in 0..blk.cols() {
                    let gj = local_to_global(pj, lj, self.nb, pc);
                    out.set(gi, gj, blk.get(li, lj));
                }
            }
        }
        out
    }

    /// Convert to a block layout (charged all-to-all: every entry can
    /// change owner).
    pub fn to_block(&self, m: &Machine, grid: &Grid) -> DistMatrix {
        for r in 0..self.grid.len() {
            m.charge_comm(self.grid.proc(r), self.words_on(r));
        }
        let dense = self.assemble_unchecked();
        let out = DistMatrix::from_dense_free(m, grid, &dense);
        for r in 0..grid.len() {
            m.charge_comm(grid.proc(r), out.words_on(r));
        }
        coll::exchange(m, grid, &[]);
        out
    }

    /// Release the storage.
    pub fn release(self, m: &Machine) {
        for r in 0..self.grid.len() {
            m.free(self.grid.proc(r), self.local[r].len() as u64);
        }
    }
}

/// Convert a block-layout matrix to block-cyclic (charged all-to-all).
pub fn from_block(m: &Machine, d: &DistMatrix, mb: usize, nb: usize) -> CyclicMatrix {
    for r in 0..d.grid().len() {
        m.charge_comm(d.grid().proc(r), d.words_on(r));
    }
    let dense = d.assemble_unchecked();
    // from_dense charges the receive side and the superstep.
    CyclicMatrix::from_dense(m, d.grid(), &dense, mb, nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    #[test]
    fn numroc_partitions_exactly() {
        for (n, b, p) in [(100usize, 7usize, 4usize), (64, 8, 4), (13, 3, 5), (9, 4, 2)] {
            let total: usize = (0..p).map(|c| numroc(n, b, c, p)).sum();
            assert_eq!(total, n, "n={n} b={b} p={p}");
        }
    }

    #[test]
    fn index_maps_roundtrip() {
        for g in 0..200 {
            let (owner, l) = global_to_local(g, 7, 5);
            assert_eq!(local_to_global(owner, l, 7, 5), g);
        }
    }

    #[test]
    fn dense_roundtrip() {
        let m = machine(6);
        let g = Grid::new_2d((0..6).collect(), 2, 3);
        let mut rng = StdRng::seed_from_u64(800);
        let a = gen::random_matrix(&mut rng, 19, 23);
        let c = CyclicMatrix::from_dense(&m, &g, &a, 4, 3);
        assert!(c.assemble_unchecked().max_diff(&a) < 1e-15);
    }

    #[test]
    fn owner_of_matches_storage() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let a = Matrix::from_fn(16, 16, |i, j| (i * 16 + j) as f64);
        let c = CyclicMatrix::from_dense(&m, &g, &a, 2, 2);
        // Spot-check: entry (i, j) appears in the owner's local block.
        for (i, j) in [(0, 0), (3, 5), (10, 2), (15, 15)] {
            let r = c.owner_of(i, j);
            let v = a.get(i, j);
            let found = c.local[r].data().iter().any(|&x| (x - v).abs() < 1e-15);
            assert!(found, "entry ({i},{j}) not on its owner");
        }
    }

    #[test]
    fn cyclic_trailing_submatrices_stay_balanced_block_does_not() {
        // THE property: for the trailing corner A[o.., o..] at o = n/2,
        // the cyclic layout keeps every processor's share within a block
        // of the mean, while the block layout idles 3/4 of the grid.
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let n = 64;
        let a = Matrix::zeros(n, n);
        let cyc = CyclicMatrix::from_dense(&m, &g, &a, 4, 4);
        let o = n / 2;
        let mut shares = vec![0u64; 4];
        for i in o..n {
            for j in o..n {
                shares[cyc.owner_of(i, j)] += 1;
            }
        }
        let mean = shares.iter().sum::<u64>() as f64 / 4.0;
        for s in &shares {
            assert!(
                (*s as f64 - mean).abs() <= mean * 0.3,
                "cyclic trailing shares unbalanced: {shares:?}"
            );
        }
        // Block layout: the trailing corner lives entirely on one
        // processor's quadrant.
        let blk = DistMatrix::from_dense(&m, &g, &a);
        let mut owners = std::collections::HashSet::new();
        for i in o..n {
            for j in o..n {
                owners.insert(blk.owner_of(i, j));
            }
        }
        assert_eq!(owners.len(), 1, "block layout should concentrate the corner");
    }

    #[test]
    fn conversions_preserve_content_and_charge() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let mut rng = StdRng::seed_from_u64(801);
        let a = gen::random_matrix(&mut rng, 12, 12);
        let c = CyclicMatrix::from_dense(&m, &g, &a, 3, 3);
        let snap = m.snapshot();
        let d = c.to_block(&m, &g);
        assert!(d.assemble_unchecked().max_diff(&a) < 1e-15);
        let back = from_block(&m, &d, 3, 3);
        assert!(back.assemble_unchecked().max_diff(&a) < 1e-15);
        let cost = m.costs_since(&snap);
        assert!(cost.horizontal_words > 0, "conversions must be charged");
    }

    #[test]
    fn alg_iv1_layout_condition_holds() {
        // Algorithm IV.1's Require: with b mod q ≡ 0 and block size q,
        // appending b-column panels to a cyclic layout preserves perfect
        // balance: every processor-column owns exactly b/q of any
        // aligned b-column group.
        let q = 4;
        let b = 12; // b mod q == 0
        let m = machine(q);
        let g = Grid::new_2d((0..q).collect(), 1, q);
        let a = Matrix::zeros(4, 48);
        let c = CyclicMatrix::from_dense(&m, &g, &a, 4, 1);
        for panel in 0..4 {
            let start = panel * b;
            for pj in 0..q {
                let owned = (start..start + b)
                    .filter(|&gc| global_to_local(gc, 1, q).0 == pj)
                    .count();
                assert_eq!(owned, b / q, "panel {panel}, proc col {pj}");
            }
        }
        let _ = c;
    }
}
