//! Distributed matrices: one dense operand plus its block layout.
//!
//! A [`DistMatrix`] is partitioned over a 2D grid in a block layout:
//! processor `(i, j)` of a `pr × pc` grid owns the contiguous block
//! `rows[row_splits[i]..row_splits[i+1]] × cols[col_splits[j]..col_splits[j+1]]`.
//! The simulator holds the operand in one buffer and a rank's block is a
//! view into it ([`DistMatrix::block`]); what the layout decides is the
//! ledger. Each owner's storage is recorded from its block's shape, and
//! every method that moves data between owners charges the words and
//! supersteps that move costs — numerics on views, charges on the layout
//! (DESIGN.md §6b).
//!
//! 1D row (column) layouts are 2D grids with `pc = 1` (`pr = 1`).

use crate::coll;
use crate::grid::Grid;
use ca_bsp::Machine;
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::Matrix;

/// Even partition of `n` into `parts` split points (length `parts + 1`).
pub fn splits(n: usize, parts: usize) -> Vec<usize> {
    (0..=parts).map(|i| i * n / parts).collect()
}

/// A dense matrix distributed in a block layout over a 2D grid.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    grid: Grid,
    row_splits: Vec<usize>,
    col_splits: Vec<usize>,
    /// The whole operand; rank `r` owns the view [`block`](Self::block)`(r)`.
    data: Matrix,
}

impl DistMatrix {
    /// Zero matrix distributed over `grid` (2D shape); allocations are
    /// recorded with the machine's memory tracker.
    pub fn zeros(m: &Machine, grid: &Grid, rows: usize, cols: usize) -> Self {
        Self::resident(m, grid, Matrix::zeros(rows, cols))
    }

    /// Distribute `a`, whose blocks are already resident on their owners
    /// (e.g. the output of a multiply that left its result evenly
    /// spread): records every owner's storage, charges no communication.
    pub fn resident(m: &Machine, grid: &Grid, a: Matrix) -> Self {
        Self::record_alloc(m, grid, a.rows(), a.cols());
        Self::wrap(grid, a)
    }

    /// [`resident`](Self::resident) for storage already on the memory
    /// ledger: rect-QR and reconstruction [`record_alloc`](Self::record_alloc)
    /// a factor where the algorithm creates it and hand it out at the end.
    pub(crate) fn wrap(grid: &Grid, a: Matrix) -> Self {
        let (pr, pc, _) = grid.shape();
        Self {
            grid: grid.clone(),
            row_splits: splits(a.rows(), pr),
            col_splits: splits(a.cols(), pc),
            data: a,
        }
    }

    /// Shape of the block every rank of `grid` holds of a `rows × cols`
    /// matrix in this layout, in rank order.
    fn block_dims(
        grid: &Grid,
        rows: usize,
        cols: usize,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (pr, pc, pl) = grid.shape();
        assert_eq!(pl, 1, "DistMatrix requires a 2D grid (use layers for 3D)");
        let (row_splits, col_splits) = (splits(rows, pr), splits(cols, pc));
        (0..grid.len()).map(move |r| {
            let (i, j, _) = grid.coords(r);
            (
                row_splits[i + 1] - row_splits[i],
                col_splits[j + 1] - col_splits[j],
            )
        })
    }

    /// Record with the memory tracker the storage of a `rows × cols`
    /// matrix distributed over `grid` — what [`zeros`](Self::zeros)
    /// records — without creating it. Rect-QR and reconstruction compute
    /// on one assembled buffer and record each distributed object where
    /// the algorithm creates it.
    pub fn record_alloc(m: &Machine, grid: &Grid, rows: usize, cols: usize) {
        for (r, (nr, nc)) in Self::block_dims(grid, rows, cols).enumerate() {
            m.alloc(grid.proc(r), (nr * nc) as u64);
        }
    }

    /// Undo a [`record_alloc`](Self::record_alloc) of the same shape —
    /// what [`release`](Self::release) records.
    pub fn record_free(m: &Machine, grid: &Grid, rows: usize, cols: usize) {
        for (r, (nr, nc)) in Self::block_dims(grid, rows, cols).enumerate() {
            m.free(grid.proc(r), (nr * nc) as u64);
        }
    }

    /// Distribute a dense matrix that starts in an arbitrary
    /// load-balanced layout: each processor receives its block and sends
    /// away its old share; cost `O(β·(words/p) + α)` per the paper's
    /// redistribution assumption.
    ///
    /// The matrix is taken by value and becomes the operand's buffer; a
    /// caller that keeps its own passes `&a`, which is copied.
    pub fn from_dense(m: &Machine, grid: &Grid, a: impl Into<Matrix>) -> Self {
        let d = Self::resident(m, grid, a.into());
        coll::relayout(m, grid, |r| d.words_on(r), grid, |r| d.words_on(r));
        d
    }

    /// Matrix dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.data.rows(), self.data.cols())
    }

    /// The grid this matrix is distributed over.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The whole operand. Reading it charges nothing: a building block
    /// that computes on it charges what its distributed form would move.
    pub fn dense(&self) -> &Matrix {
        &self.data
    }

    /// Global index range owned by grid rank `r`: `(r0, c0, nr, nc)`.
    pub fn owned_range(&self, r: usize) -> (usize, usize, usize, usize) {
        let (i, j, _) = self.grid.coords(r);
        (
            self.row_splits[i],
            self.col_splits[j],
            self.row_splits[i + 1] - self.row_splits[i],
            self.col_splits[j + 1] - self.col_splits[j],
        )
    }

    /// The block of grid rank `r`, a view into the operand.
    pub fn block(&self, r: usize) -> MatrixView<'_> {
        let (r0, c0, nr, nc) = self.owned_range(r);
        self.data.subview(r0, c0, nr, nc)
    }

    /// Mutable [`block`](Self::block) (owner-side computation).
    pub fn block_mut(&mut self, r: usize) -> MatrixViewMut<'_> {
        let (r0, c0, nr, nc) = self.owned_range(r);
        self.data.subview_mut(r0, c0, nr, nc)
    }

    /// The part of the global block `(r0, c0, nr, nc)` that grid rank `r`
    /// owns, as global half-open ranges `(rows, cols)`; `None` if empty.
    fn overlap(
        &self,
        r: usize,
        (r0, c0, nr, nc): (usize, usize, usize, usize),
    ) -> Option<(std::ops::Range<usize>, std::ops::Range<usize>)> {
        let (br0, bc0, bnr, bnc) = self.owned_range(r);
        let rows = r0.max(br0)..(r0 + nr).min(br0 + bnr);
        let cols = c0.max(bc0)..(c0 + nc).min(bc0 + bnc);
        (!rows.is_empty() && !cols.is_empty()).then_some((rows, cols))
    }

    /// Words stored on grid rank `r`.
    pub(crate) fn words_on(&self, r: usize) -> u64 {
        let (_, _, nr, nc) = self.owned_range(r);
        (nr * nc) as u64
    }

    /// Release the distributed storage, updating the memory tracker, and
    /// hand back the operand.
    pub fn release(self, m: &Machine) -> Matrix {
        let (rows, cols) = self.shape();
        Self::record_free(m, &self.grid, rows, cols);
        self.data
    }

    /// Gather the whole matrix onto the processor at grid rank `root`.
    pub fn gather(&self, m: &Machine, root: usize) -> Matrix {
        let root_id = self.grid.proc(root);
        let moves: Vec<_> = (0..self.grid.len())
            .filter(|&r| r != root)
            .map(|r| (self.grid.proc(r), root_id, self.words_on(r)))
            .collect();
        coll::exchange(m, &self.grid, &moves);
        self.data.clone()
    }

    /// Redistribute onto a (possibly different) grid/shape: every
    /// processor sends its old share and receives its new block
    /// (one superstep of an all-to-all).
    pub fn redistribute(&self, m: &Machine, new_grid: &Grid) -> DistMatrix {
        let out = DistMatrix::resident(m, new_grid, self.data.clone());
        coll::relayout(
            m,
            &self.grid,
            |r| self.words_on(r),
            new_grid,
            |r| out.words_on(r),
        );
        out
    }

    /// Redistribute the sub-block `(r0, c0, nr, nc)` onto `new_grid` as
    /// its own distributed matrix (one superstep of an all-to-all;
    /// senders charged their intersection, receivers their new block).
    pub fn block_redist(
        &self,
        m: &Machine,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        new_grid: &Grid,
    ) -> DistMatrix {
        let (rows, cols) = self.shape();
        assert!(r0 + nr <= rows && c0 + nc <= cols, "block out of range");
        let out = DistMatrix::resident(m, new_grid, self.data.block(r0, c0, nr, nc));
        let sent = |r| {
            self.overlap(r, (r0, c0, nr, nc))
                .map_or(0, |(rows, cols)| (rows.len() * cols.len()) as u64)
        };
        coll::relayout(m, &self.grid, sent, new_grid, |r| out.words_on(r));
        out
    }

    /// Transposed copy on the same grid: every block is transposed
    /// locally and shipped to the mirror owner (one superstep).
    pub fn transpose(&self, m: &Machine) -> DistMatrix {
        let out = DistMatrix::resident(m, &self.grid, self.data.transpose());
        let (pr, pc, _) = self.grid.shape();
        let moves: Vec<_> = (0..self.grid.len())
            .filter_map(|r| {
                let (i, j, _) = self.grid.coords(r);
                let mirror = self.grid.rank(j.min(pr - 1), i.min(pc - 1), 0);
                (mirror != r && self.words_on(r) > 0)
                    .then(|| (self.grid.proc(r), self.grid.proc(mirror), self.words_on(r)))
            })
            .collect();
        coll::exchange(m, &self.grid, &moves);
        out
    }

    /// Replicate the whole matrix onto every member of `group`
    /// (two-phase broadcast pattern from the owners), returning the dense
    /// copy each member now holds. Used for replicated operands
    /// (Algorithm III.1's `A`, Algorithm IV.1's `U`/`V` panels).
    pub fn replicate(&self, m: &Machine, group: &Grid) -> Matrix {
        let (rows, cols) = self.shape();
        let words = (rows * cols) as u64;
        let g = group.len() as u64;
        if g > 1 {
            // Owners each send their share to g−1 destinations via the
            // two-phase pattern: per-proc traffic O(words) total.
            for &pid in group.procs() {
                m.charge_comm(pid, 2 * words.div_ceil(g) * (g - 1));
            }
            for r in 0..self.grid.len() {
                m.charge_comm(self.grid.proc(r), self.words_on(r));
            }
            m.step(group.procs(), 2);
        }
        for &pid in group.procs() {
            m.alloc(pid, words);
        }
        self.data.clone()
    }
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
    fn splits_are_even_and_cover() {
        let s = splits(10, 3);
        assert_eq!(s, vec![0, 3, 6, 10]);
        assert_eq!(splits(8, 4), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn from_dense_roundtrip() {
        let m = machine(6);
        let g = Grid::new_2d((0..6).collect(), 2, 3);
        let mut rng = StdRng::seed_from_u64(70);
        let a = gen::random_matrix(&mut rng, 9, 11);
        let d = DistMatrix::from_dense(&m, &g, &a);
        assert!(d.dense().max_diff(&a) < 1e-15);
        let back = d.gather(&m, 0);
        assert!(back.max_diff(&a) < 1e-15);
    }

    #[test]
    fn gather_charges_approximately_total_words() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let a = Matrix::zeros(16, 16);
        let d = DistMatrix::from_dense(&m, &g, &a);
        let snap = m.snapshot();
        let _ = d.gather(&m, 0);
        let c = m.costs_since(&snap);
        // Root receives 3/4 of 256 words; volume counts both ends.
        assert_eq!(c.total_volume_words, 2 * 192);
    }

    #[test]
    fn redistribute_preserves_content() {
        let m = machine(8);
        let g1 = Grid::new_2d((0..4).collect(), 2, 2);
        let g2 = Grid::new_2d((2..8).collect(), 3, 2);
        let mut rng = StdRng::seed_from_u64(72);
        let a = gen::random_matrix(&mut rng, 10, 6);
        let d1 = DistMatrix::from_dense(&m, &g1, &a);
        let d2 = d1.redistribute(&m, &g2);
        assert!(d2.dense().max_diff(&a) < 1e-15);
    }

    #[test]
    fn memory_tracking_allocates_and_releases() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let d = DistMatrix::zeros(&m, &g, 8, 8);
        assert_eq!(m.report().peak_memory_words, 16);
        d.release(&m);
        let d2 = DistMatrix::zeros(&m, &g, 8, 8);
        // Peak unchanged after release+realloc of the same size.
        assert_eq!(m.report().peak_memory_words, 16);
        d2.release(&m);
    }

    #[test]
    fn uneven_dims_still_roundtrip() {
        // The rank blocks of an uneven layout tile the operand: each is
        // the owned range of the input, and their words add up to it.
        let m = machine(6);
        let g = Grid::new_2d((0..6).collect(), 3, 2);
        let mut rng = StdRng::seed_from_u64(73);
        let a = gen::random_matrix(&mut rng, 11, 7);
        let d = DistMatrix::from_dense(&m, &g, &a);
        for r in 0..g.len() {
            let (r0, c0, nr, nc) = d.owned_range(r);
            assert_eq!(d.block(r).to_matrix(), a.block(r0, c0, nr, nc));
        }
        assert_eq!((0..g.len()).map(|r| d.words_on(r)).sum::<u64>(), 11 * 7);
    }
}
