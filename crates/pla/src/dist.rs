//! Distributed matrices with per-processor physical storage.
//!
//! A [`DistMatrix`] is partitioned over a 2D grid in a block layout:
//! processor `(i, j)` of a `pr × pc` grid owns the contiguous block
//! `rows[row_splits[i]..row_splits[i+1]] × cols[col_splits[j]..col_splits[j+1]]`.
//! Every block physically lives in the owner's local store; cross-owner
//! access goes through methods that move the data and charge the
//! corresponding BSP costs.
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
    rows: usize,
    cols: usize,
    grid: Grid,
    row_splits: Vec<usize>,
    col_splits: Vec<usize>,
    /// Local blocks in grid-rank order.
    local: Vec<Matrix>,
}

impl DistMatrix {
    /// Zero matrix distributed over `grid` (2D shape); allocations are
    /// recorded with the machine's memory tracker.
    pub fn zeros(m: &Machine, grid: &Grid, rows: usize, cols: usize) -> Self {
        Self::record_alloc(m, grid, rows, cols);
        Self::unrecorded(grid, rows, cols)
    }

    /// The zero matrix over `grid` with nothing recorded anywhere.
    fn unrecorded(grid: &Grid, rows: usize, cols: usize) -> Self {
        let (pr, pc, _) = grid.shape();
        Self {
            rows,
            cols,
            grid: grid.clone(),
            row_splits: splits(rows, pr),
            col_splits: splits(cols, pc),
            local: Self::block_dims(grid, rows, cols)
                .map(|(nr, nc)| Matrix::zeros(nr, nc))
                .collect(),
        }
    }

    /// Shape of the block every rank of `grid` holds of a `rows × cols`
    /// matrix in this layout, in rank order.
    fn block_dims(grid: &Grid, rows: usize, cols: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let (pr, pc, pl) = grid.shape();
        assert_eq!(pl, 1, "DistMatrix requires a 2D grid (use layers for 3D)");
        let (row_splits, col_splits) = (splits(rows, pr), splits(cols, pc));
        (0..grid.len()).map(move |r| {
            let (i, j, _) = grid.coords(r);
            (row_splits[i + 1] - row_splits[i], col_splits[j + 1] - col_splits[j])
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
    pub fn from_dense(m: &Machine, grid: &Grid, a: &Matrix) -> Self {
        let d = Self::from_dense_free(m, grid, a);
        for r in 0..d.grid.len() {
            m.charge_comm(d.grid.proc(r), 2 * d.words_on(r));
        }
        m.step(d.grid.procs(), 1);
        d
    }

    /// Matrix dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The grid this matrix is distributed over.
    pub fn grid(&self) -> &Grid {
        &self.grid
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

    /// Grid rank owning global entry `(i, j)`.
    pub fn owner_of(&self, i: usize, j: usize) -> usize {
        assert!(i < self.rows && j < self.cols);
        let bi = self.row_splits.partition_point(|&s| s <= i) - 1;
        let bj = self.col_splits.partition_point(|&s| s <= j) - 1;
        self.grid.rank(bi, bj, 0)
    }

    /// The local block of grid rank `r`.
    pub fn local(&self, r: usize) -> &Matrix {
        &self.local[r]
    }

    /// Mutable local block of grid rank `r` (owner-side computation).
    pub fn local_mut(&mut self, r: usize) -> &mut Matrix {
        &mut self.local[r]
    }

    /// All local blocks in grid-rank order — the disjoint per-rank
    /// slots of owner-computes work.
    pub fn locals_mut(&mut self) -> &mut [Matrix] {
        &mut self.local
    }

    /// Words stored on grid rank `r`.
    pub fn words_on(&self, r: usize) -> u64 {
        self.local[r].len() as u64
    }

    /// Release the distributed storage, updating the memory tracker.
    pub fn release(self, m: &Machine) {
        for r in 0..self.grid.len() {
            m.free(self.grid.proc(r), self.local[r].len() as u64);
        }
    }

    /// Gather the whole matrix onto the processor at grid rank `root`.
    pub fn gather(&self, m: &Machine, root: usize) -> Matrix {
        let root_id = self.grid.proc(root);
        let mut out = Matrix::zeros(self.rows, self.cols);
        let mut moves = Vec::new();
        for r in 0..self.grid.len() {
            let (r0, c0, _, _) = self.owned_range(r);
            out.set_block(r0, c0, &self.local[r]);
            if r != root {
                moves.push((self.grid.proc(r), root_id, self.local[r].len() as u64));
            }
        }
        coll::exchange(m, &self.grid, &moves);
        out
    }

    /// Assemble the full matrix without charging any cost — for tests and
    /// diagnostics only.
    pub fn assemble_unchecked(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.copy_block_into(0, 0, &mut out.view_mut());
        out
    }

    /// Copy the global block at `(r0, c0)` of `out`'s shape out of the
    /// local blocks into `out`, without charging any cost: the numerical
    /// half of every read below, and what the building blocks that
    /// compute on an assembled operand use instead of
    /// `assemble_unchecked().block(..)`.
    pub fn copy_block_into(&self, r0: usize, c0: usize, out: &mut MatrixViewMut) {
        let (nr, nc) = (out.rows(), out.cols());
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "block out of range");
        for r in 0..self.grid.len() {
            if let Some((rows, cols)) = self.overlap(r, (r0, c0, nr, nc)) {
                let (br0, bc0, _, _) = self.owned_range(r);
                out.sub_mut(rows.start - r0, cols.start - c0, rows.len(), cols.len())
                    .copy_from(&self.local[r].subview(
                        rows.start - br0,
                        cols.start - bc0,
                        rows.len(),
                        cols.len(),
                    ));
            }
        }
    }

    /// Read the global block `(r0, c0, nr, nc)` onto the processor at
    /// grid rank `dest`: owners send their pieces (one superstep).
    pub fn read_block(
        &self,
        m: &Machine,
        dest: usize,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
    ) -> Matrix {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "block out of range");
        let dest_id = self.grid.proc(dest);
        let mut out = Matrix::zeros(nr, nc);
        self.copy_block_into(r0, c0, &mut out.view_mut());
        let mut moves = Vec::new();
        for r in 0..self.grid.len() {
            if let Some((rows, cols)) = self.overlap(r, (r0, c0, nr, nc)) {
                if self.grid.proc(r) != dest_id {
                    moves.push((self.grid.proc(r), dest_id, (rows.len() * cols.len()) as u64));
                }
            }
        }
        coll::exchange(m, &self.grid, &moves);
        out
    }

    /// Redistribute onto a (possibly different) grid/shape: every
    /// processor sends its old share and receives its new block
    /// (one superstep of an all-to-all).
    pub fn redistribute(&self, m: &Machine, new_grid: &Grid) -> DistMatrix {
        let mut out = DistMatrix::zeros(m, new_grid, self.rows, self.cols);
        // Charge: each old owner sends what it holds, each new owner
        // receives what it will hold (self-overlap not discounted: block
        // boundaries rarely align, and the paper's redistribution charge
        // is O(words/p) regardless).
        for r in 0..self.grid.len() {
            m.charge_comm(self.grid.proc(r), self.local[r].len() as u64);
        }
        for r in 0..new_grid.len() {
            m.charge_comm(new_grid.proc(r), out.local[r].len() as u64);
        }
        for r in 0..new_grid.len() {
            let (r0, c0, _, _) = out.owned_range(r);
            self.copy_block_into(r0, c0, &mut out.local[r].view_mut());
        }
        let mut all: Vec<_> = self
            .grid
            .procs()
            .iter()
            .chain(new_grid.procs())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        m.step(&all, 1);
        out
    }

    /// Distribute a dense matrix whose blocks are already resident on
    /// their owners (e.g. the output of a recursive multiply that left
    /// its result evenly spread): records allocations but charges no
    /// communication.
    pub fn from_dense_free(m: &Machine, grid: &Grid, a: &Matrix) -> Self {
        Self::from_view_free(m, grid, &a.view())
    }

    /// [`from_dense_free`](Self::from_dense_free) of a (strided) view.
    pub fn from_view_free(m: &Machine, grid: &Grid, a: &MatrixView) -> Self {
        Self::record_alloc(m, grid, a.rows(), a.cols());
        Self::from_dense_recorded(grid, a)
    }

    /// Wrap a dense matrix whose blocks are resident on their owners
    /// *and* whose distributed storage is already on the memory ledger
    /// ([`record_alloc`](Self::record_alloc)): nothing is recorded or
    /// charged. The caller releases the result as usual.
    pub fn from_dense_recorded(grid: &Grid, a: &MatrixView) -> Self {
        let mut d = Self::unrecorded(grid, a.rows(), a.cols());
        for r in 0..d.grid.len() {
            let (r0, c0, nr, nc) = d.owned_range(r);
            d.local[r].view_mut().copy_from(&a.sub(r0, c0, nr, nc));
        }
        d
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
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "block out of range");
        let mut out = DistMatrix::zeros(m, new_grid, nr, nc);
        for r in 0..self.grid.len() {
            if let Some((rows, cols)) = self.overlap(r, (r0, c0, nr, nc)) {
                m.charge_comm(self.grid.proc(r), (rows.len() * cols.len()) as u64);
            }
        }
        for r in 0..new_grid.len() {
            let (nr0, nc0, nnr, nnc) = out.owned_range(r);
            m.charge_comm(new_grid.proc(r), (nnr * nnc) as u64);
            self.copy_block_into(r0 + nr0, c0 + nc0, &mut out.local[r].view_mut());
        }
        let mut all: Vec<_> = self
            .grid
            .procs()
            .iter()
            .chain(new_grid.procs())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        m.step(&all, 1);
        out
    }

    /// Transposed copy on the same grid: every block is transposed
    /// locally and shipped to the mirror owner (one superstep).
    pub fn transpose(&self, m: &Machine) -> DistMatrix {
        let mut out = DistMatrix::zeros(m, &self.grid, self.cols, self.rows);
        let dense_t = self.assemble_unchecked().transpose();
        let mut moves = Vec::new();
        for r in 0..self.grid.len() {
            let (i, j, _) = self.grid.coords(r);
            let mirror = self.grid.rank(
                j.min(self.grid.shape().0 - 1),
                i.min(self.grid.shape().1 - 1),
                0,
            );
            if mirror != r && !self.local[r].is_empty() {
                moves.push((
                    self.grid.proc(r),
                    self.grid.proc(mirror),
                    self.local[r].len() as u64,
                ));
            }
        }
        coll::exchange(m, &self.grid, &moves);
        for r in 0..self.grid.len() {
            let (r0, c0, nr, nc) = out.owned_range(r);
            out.local[r] = dense_t.block(r0, c0, nr, nc);
        }
        out
    }

    /// Replicate the whole matrix onto every member of `group`
    /// (two-phase broadcast pattern from the owners), returning the dense
    /// copy each member now holds. Used for replicated operands
    /// (Algorithm III.1's `A`, Algorithm IV.1's `U`/`V` panels).
    pub fn replicate(&self, m: &Machine, group: &Grid) -> Matrix {
        let words = (self.rows * self.cols) as u64;
        let g = group.len() as u64;
        if g > 1 {
            // Owners each send their share to g−1 destinations via the
            // two-phase pattern: per-proc traffic O(words) total.
            for &pid in group.procs() {
                m.charge_comm(pid, 2 * words.div_ceil(g) * (g - 1));
            }
            for r in 0..self.grid.len() {
                m.charge_comm(self.grid.proc(r), self.local[r].len() as u64);
            }
            m.step(group.procs(), 2);
        }
        for &pid in group.procs() {
            m.alloc(pid, words);
        }
        self.assemble_unchecked()
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
        assert!(d.assemble_unchecked().max_diff(&a) < 1e-15);
        let back = d.gather(&m, 0);
        assert!(back.max_diff(&a) < 1e-15);
    }

    #[test]
    fn owner_of_matches_owned_range() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let d = DistMatrix::zeros(&m, &g, 7, 5);
        for i in 0..7 {
            for j in 0..5 {
                let r = d.owner_of(i, j);
                let (r0, c0, nr, nc) = d.owned_range(r);
                assert!(i >= r0 && i < r0 + nr && j >= c0 && j < c0 + nc);
            }
        }
    }

    #[test]
    fn block_read_write_roundtrip() {
        let m = machine(4);
        let g = Grid::new_2d((0..4).collect(), 2, 2);
        let mut rng = StdRng::seed_from_u64(71);
        let a = gen::random_matrix(&mut rng, 8, 8);
        let d = DistMatrix::from_dense(&m, &g, &a);
        let snap = m.snapshot();
        let blk = d.read_block(&m, 0, 2, 3, 4, 4);
        assert!(blk.max_diff(&a.block(2, 3, 4, 4)) < 1e-15);
        // The block straddles all four 4×4 owner blocks; rank 0 keeps its
        // 2×1 piece, the others send 2×3 + 2×1 + 2×3 = 14 words (volume
        // counts both ends).
        assert_eq!(m.costs_since(&snap).total_volume_words, 2 * 14);
        // Reading leaves the distributed matrix as it was.
        assert_eq!(d.assemble_unchecked().max_diff(&a), 0.0);
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
        assert!(d2.assemble_unchecked().max_diff(&a) < 1e-15);
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
        let m = machine(6);
        let g = Grid::new_2d((0..6).collect(), 3, 2);
        let mut rng = StdRng::seed_from_u64(73);
        let a = gen::random_matrix(&mut rng, 11, 7);
        let d = DistMatrix::from_dense(&m, &g, &a);
        assert!(d.assemble_unchecked().max_diff(&a) < 1e-15);
    }
}
