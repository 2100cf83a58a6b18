//! Block-cyclic distributions — the layout the paper's algorithms
//! assume (Algorithm III.1's `Require` block, Algorithm IV.1's
//! `b mod q ≡ 1` condition are both statements about cyclic layouts).
//!
//! A [`CyclicMatrix`] distributes an `m×n` matrix over a `pr×pc` grid in
//! ScaLAPACK's 2D block-cyclic fashion: global entry `(i, j)` lives on
//! grid coordinates `((i/mb) mod pr, (j/nb) mod pc)`. Like a
//! [`DistMatrix`] it holds the operand in one buffer; the layout decides
//! each owner's share ([`numroc`]) and so the ledger. The defining
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
    mb: usize,
    nb: usize,
    grid: Grid,
    /// The whole operand; rank `r` owns the entries
    /// [`owner_of`](Self::owner_of) maps to it, [`words_on`](Self::words_on)`(r)`
    /// of them.
    data: Matrix,
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
        let c = Self::resident(m, grid, a.clone(), mb, nb);
        coll::relayout(m, grid, |r| c.words_on(r), grid, |r| c.words_on(r));
        c
    }

    /// `a` in the `(mb, nb)` layout over `grid`, every owner's share
    /// recorded with the memory tracker; nothing charged.
    fn resident(m: &Machine, grid: &Grid, a: Matrix, mb: usize, nb: usize) -> CyclicMatrix {
        assert_eq!(grid.shape().2, 1, "CyclicMatrix requires a 2D grid");
        assert!(mb >= 1 && nb >= 1);
        let c = CyclicMatrix {
            mb,
            nb,
            grid: grid.clone(),
            data: a,
        };
        for r in 0..grid.len() {
            m.alloc(grid.proc(r), c.words_on(r));
        }
        c
    }

    /// The whole operand (reading it charges nothing).
    pub fn dense(&self) -> &Matrix {
        &self.data
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
        let (pr, pc, _) = self.grid.shape();
        let (pi, pj, _) = self.grid.coords(r);
        let lr = numroc(self.data.rows(), self.mb, pi, pr);
        let lc = numroc(self.data.cols(), self.nb, pj, pc);
        (lr * lc) as u64
    }

    /// Convert to a block layout on `grid` (charged all-to-all: every
    /// entry can change owner).
    pub fn to_block(&self, m: &Machine, grid: &Grid) -> DistMatrix {
        let d = DistMatrix::resident(m, grid, self.data.clone());
        coll::relayout(m, &self.grid, |r| self.words_on(r), grid, |r| d.words_on(r));
        d
    }

    /// Release the storage, updating the memory tracker, and hand back
    /// the operand.
    pub fn release(self, m: &Machine) -> Matrix {
        for r in 0..self.grid.len() {
            m.free(self.grid.proc(r), self.words_on(r));
        }
        self.data
    }
}

/// Convert a block-layout matrix to block-cyclic on its grid (charged
/// all-to-all, as [`CyclicMatrix::to_block`] is the other way).
pub fn from_block(m: &Machine, d: &DistMatrix, mb: usize, nb: usize) -> CyclicMatrix {
    let c = CyclicMatrix::resident(m, d.grid(), d.dense().clone(), mb, nb);
    coll::relayout(m, d.grid(), |r| d.words_on(r), d.grid(), |r| c.words_on(r));
    c
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
        // Every owner's share is on the memory ledger, and releasing
        // hands the operand back as it went in.
        let largest = (0..g.len()).map(|r| c.words_on(r)).max().unwrap();
        assert_eq!(m.report().peak_memory_words, largest);
        assert_eq!(c.release(&m), a);
    }

    #[test]
    fn owner_of_matches_storage() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let a = Matrix::zeros(18, 13);
        let c = CyclicMatrix::from_dense(&m, &g, &a, 4, 3);
        // Each rank owns exactly its numroc share of the entries.
        let mut owned = vec![0u64; g.len()];
        for i in 0..18 {
            for j in 0..13 {
                owned[c.owner_of(i, j)] += 1;
            }
        }
        for (r, &n) in owned.iter().enumerate() {
            assert_eq!(n, c.words_on(r), "rank {r}");
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
        assert!(d.dense().max_diff(&a) < 1e-15);
        let back = from_block(&m, &d, 3, 3);
        assert!(back.dense().max_diff(&a) < 1e-15);
        let cost = m.costs_since(&snap);
        assert!(cost.horizontal_words > 0, "conversions must be charged");
    }

    #[test]
    fn square_round_trip_charges_the_same_words_each_way() {
        // block → cyclic and cyclic → block on a square layout each move
        // every processor's share out of one layout and into the other,
        // so every processor is charged the same words both ways.
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let a = Matrix::from_fn(12, 12, |i, j| (i * 12 + j) as f64);
        let d = DistMatrix::from_dense(&m, &g, &a);
        let w0 = m.comm_per_proc();
        let c = from_block(&m, &d, 3, 3);
        let w1 = m.comm_per_proc();
        let back = c.to_block(&m, &g);
        let w2 = m.comm_per_proc();
        let there: Vec<u64> = w1.iter().zip(&w0).map(|(x, y)| x - y).collect();
        let home: Vec<u64> = w2.iter().zip(&w1).map(|(x, y)| x - y).collect();
        assert_eq!(there, home);
        assert_eq!(back.dense(), &a);
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
