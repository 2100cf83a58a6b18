//! Processor grids and groups.
//!
//! The paper's algorithms run on 1D groups, 2D `q×q` grids, and 3D
//! `q×q×c` grids (`c` replication layers, Algorithm III.1 /
//! Algorithm IV.1). A [`Grid`] is an ordered list of virtual processor
//! ids with a logical 3D shape; 1D and 2D grids set the trailing
//! dimensions to one. Subgroup extraction (rows, columns, layers,
//! fibers, contiguous splits) returns plain processor lists used by the
//! collectives in [`crate::coll`].

use ca_bsp::ProcId;

/// An ordered set of processors with a logical `d0 × d1 × d2` shape.
///
/// Rank `r` has coordinates `(i, j, l)` with
/// `r = (l·d1 + j)·d0 + i` — i.e. `i` (the first/row dimension) varies
/// fastest, layers slowest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    shape: (usize, usize, usize),
    procs: Vec<ProcId>,
}

impl Grid {
    /// 1D group over the given processors.
    pub fn new_1d(procs: Vec<ProcId>) -> Self {
        let n = procs.len();
        Self::new(procs, (n, 1, 1))
    }

    /// 2D `pr × pc` grid (row-major over the processor list as described
    /// above).
    pub fn new_2d(procs: Vec<ProcId>, pr: usize, pc: usize) -> Self {
        Self::new(procs, (pr, pc, 1))
    }

    /// 3D `q0 × q1 × c` grid.
    pub fn new_3d(procs: Vec<ProcId>, q0: usize, q1: usize, c: usize) -> Self {
        Self::new(procs, (q0, q1, c))
    }

    fn new(procs: Vec<ProcId>, shape: (usize, usize, usize)) -> Self {
        assert_eq!(
            procs.len(),
            shape.0 * shape.1 * shape.2,
            "processor count must match the grid shape"
        );
        assert!(!procs.is_empty(), "grid must be nonempty");
        Self { shape, procs }
    }

    /// The whole machine `0..p` as a 1D group.
    pub fn all(p: usize) -> Self {
        Self::new_1d((0..p).collect())
    }

    /// Grid shape `(d0, d1, d2)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }

    /// Number of processors in the grid.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// True if the grid is empty (never constructible; for clippy).
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// The processor list in rank order.
    pub fn procs(&self) -> &[ProcId] {
        &self.procs
    }

    /// Processor at rank `r`.
    pub fn proc(&self, r: usize) -> ProcId {
        self.procs[r]
    }

    /// Rank of grid coordinates `(i, j, l)`.
    pub fn rank(&self, i: usize, j: usize, l: usize) -> usize {
        let (d0, d1, d2) = self.shape;
        assert!(i < d0 && j < d1 && l < d2, "grid coordinates out of range");
        (l * d1 + j) * d0 + i
    }

    /// Processor at grid coordinates `(i, j, l)`.
    pub fn at(&self, i: usize, j: usize, l: usize) -> ProcId {
        self.procs[self.rank(i, j, l)]
    }

    /// Coordinates of rank `r`.
    pub fn coords(&self, r: usize) -> (usize, usize, usize) {
        let (d0, d1, _) = self.shape;
        (r % d0, (r / d0) % d1, r / (d0 * d1))
    }

    /// Row group: fixed `(j, l)`, varying `i` (a 1D grid).
    pub fn dim0_group(&self, j: usize, l: usize) -> Grid {
        let d0 = self.shape.0;
        Grid::new_1d((0..d0).map(|i| self.at(i, j, l)).collect())
    }

    /// Column group: fixed `(i, l)`, varying `j`.
    pub fn dim1_group(&self, i: usize, l: usize) -> Grid {
        let d1 = self.shape.1;
        Grid::new_1d((0..d1).map(|j| self.at(i, j, l)).collect())
    }

    /// Fiber group: fixed `(i, j)`, varying `l` (across replication
    /// layers).
    pub fn fiber_group(&self, i: usize, j: usize) -> Grid {
        let d2 = self.shape.2;
        Grid::new_1d((0..d2).map(|l| self.at(i, j, l)).collect())
    }

    /// Layer `l` as a 2D `d0 × d1` grid.
    pub fn layer(&self, l: usize) -> Grid {
        let (d0, d1, _) = self.shape;
        let procs = (0..d0 * d1).map(|r| self.procs[l * d0 * d1 + r]).collect();
        Grid::new_2d(procs, d0, d1)
    }

    /// First `k` processors (in rank order) as a 1D group.
    pub fn prefix(&self, k: usize) -> Grid {
        assert!(k >= 1 && k <= self.len());
        Grid::new_1d(self.procs[..k].to_vec())
    }

    /// Split into `parts` contiguous 1D groups of equal size.
    pub fn split(&self, parts: usize) -> Vec<Grid> {
        assert!(
            parts >= 1 && self.len().is_multiple_of(parts),
            "split must be even"
        );
        let each = self.len() / parts;
        (0..parts)
            .map(|s| Grid::new_1d(self.procs[s * each..(s + 1) * each].to_vec()))
            .collect()
    }

    /// Reshape the same processors into a `pr × pc` 2D grid.
    pub fn as_2d(&self, pr: usize, pc: usize) -> Grid {
        Grid::new_2d(self.procs.clone(), pr, pc)
    }

    /// Reshape into the most square 2D factorization `pr × pc` with
    /// `pr ≤ pc` (used by base-case square QR / LU on arbitrary groups).
    pub fn squarest_2d(&self) -> Grid {
        let p = self.len();
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && !p.is_multiple_of(pr) {
            pr -= 1;
        }
        self.as_2d(pr.max(1), p / pr.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_roundtrip() {
        let g = Grid::new_3d((0..24).collect(), 2, 3, 4);
        for r in 0..24 {
            let (i, j, l) = g.coords(r);
            assert_eq!(g.rank(i, j, l), r);
        }
    }

    #[test]
    fn groups_partition_the_grid() {
        let g = Grid::new_3d((0..12).collect(), 2, 3, 2);
        let mut seen = [false; 12];
        for l in 0..2 {
            for j in 0..3 {
                for p in g.dim0_group(j, l).procs() {
                    assert!(!seen[*p]);
                    seen[*p] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn layer_extracts_2d() {
        let g = Grid::new_3d((0..18).collect(), 3, 3, 2);
        let l1 = g.layer(1);
        assert_eq!(l1.shape(), (3, 3, 1));
        assert_eq!(l1.at(0, 0, 0), 9);
        assert_eq!(l1.at(2, 2, 0), 17);
    }

    #[test]
    fn fiber_crosses_layers() {
        let g = Grid::new_3d((0..8).collect(), 2, 2, 2);
        let f = g.fiber_group(1, 1);
        assert_eq!(f.procs(), &[3, 7]);
    }

    #[test]
    fn split_is_contiguous() {
        let g = Grid::all(8);
        let parts = g.split(4);
        assert_eq!(parts[2].procs(), &[4, 5]);
    }

    #[test]
    fn squarest_2d_factorizations() {
        assert_eq!(Grid::all(12).squarest_2d().shape(), (3, 4, 1));
        assert_eq!(Grid::all(16).squarest_2d().shape(), (4, 4, 1));
        assert_eq!(Grid::all(7).squarest_2d().shape(), (1, 7, 1));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn shape_mismatch_panics() {
        let _ = Grid::new_2d(vec![0, 1, 2], 2, 2);
    }
}
