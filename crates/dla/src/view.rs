//! Zero-copy strided views over row-major `f64` storage.
//!
//! A view is `(data, rows, cols, stride)` with `stride ≥ cols`: row `i`
//! occupies `data[i·stride .. i·stride + cols]`. Views let the hot
//! kernels (blocked QR panels, bulge-chase windows, GEMM operands and
//! accumulation targets) operate directly on sub-blocks of a [`Matrix`]
//! or on [`crate::workspace`] buffers instead of `block()`/`set_block()`
//! round-trips.
//!
//! ## Invariants
//!
//! * `stride ≥ cols`, and for a non-empty view the backing slice holds
//!   at least `(rows − 1)·stride + cols` elements (checked at
//!   construction).
//! * A view never aliases another *mutable* view: sub-views borrow the
//!   parent, so the borrow checker enforces exclusivity. Kernels that
//!   need two disjoint windows of one matrix take them sequentially.
//! * Element identity: view entry `(i, j)` *is* parent entry
//!   `(r0 + i, c0 + j)` — kernels running on views therefore perform
//!   bitwise the same arithmetic as on extracted copies.

use crate::matrix::Matrix;

/// Immutable row-major strided matrix view.
#[derive(Clone, Copy)]
pub struct MatrixView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    stride: usize,
}

/// Number of backing elements a `rows × cols` view with `stride` spans.
#[inline]
fn span(rows: usize, cols: usize, stride: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * stride + cols
    }
}

impl<'a> MatrixView<'a> {
    /// View over a raw slice; `data` must hold at least
    /// `(rows−1)·stride + cols` elements (for a non-empty shape).
    pub fn new(data: &'a [f64], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride >= cols, "view stride below column count");
        assert!(data.len() >= span(rows, cols, stride), "view data too short");
        Self { data, rows, cols, stride }
    }

    /// Full view of a contiguous buffer interpreted as `rows × cols`.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> Self {
        Self::new(data, rows, cols, cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The backing slice (starting at this view's `(0, 0)`).
    #[inline]
    pub fn data(&self) -> &'a [f64] {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j]
    }

    /// Row `i` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Sub-view of rows `r0..r0+nr`, columns `c0..c0+nc`.
    pub fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'a> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub-view out of range");
        let start = if nr == 0 || nc == 0 { 0 } else { r0 * self.stride + c0 };
        MatrixView::new(&self.data[start..], nr, nc, self.stride)
    }

    /// Copy into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(self.row(i));
        }
        out
    }
}

/// Mutable row-major strided matrix view.
pub struct MatrixViewMut<'a> {
    data: &'a mut [f64],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a> MatrixViewMut<'a> {
    /// Mutable view over a raw slice; same length requirement as
    /// [`MatrixView::new`].
    pub fn new(data: &'a mut [f64], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(stride >= cols, "view stride below column count");
        assert!(data.len() >= span(rows, cols, stride), "view data too short");
        Self { data, rows, cols, stride }
    }

    /// Full mutable view of a contiguous buffer as `rows × cols`.
    pub fn from_slice(data: &'a mut [f64], rows: usize, cols: usize) -> Self {
        Self::new(data, rows, cols, cols)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The backing slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j] = v;
    }

    /// Row `i` as an immutable slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.stride..i * self.stride + self.cols]
    }

    /// Immutable view of the same region.
    #[inline]
    pub fn as_view(&self) -> MatrixView<'_> {
        MatrixView::new(self.data, self.rows, self.cols, self.stride)
    }

    /// Immutable sub-view of rows `r0..r0+nr`, columns `c0..c0+nc`.
    pub fn sub(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'_> {
        self.as_view().sub(r0, c0, nr, nc)
    }

    /// Mutable sub-view of rows `r0..r0+nr`, columns `c0..c0+nc`
    /// (reborrows `self`).
    pub fn sub_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'_> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub-view out of range");
        let start = if nr == 0 || nc == 0 { 0 } else { r0 * self.stride + c0 };
        MatrixViewMut::new(&mut self.data[start..], nr, nc, self.stride)
    }

    /// The first `r` rows and the rest as two disjoint mutable views
    /// (reborrows `self`). Row ranges are contiguous in storage, so this
    /// is the one split two live `&mut` views can share; column ranges
    /// interleave and cannot be split this way.
    pub fn split_rows_mut(&mut self, r: usize) -> (MatrixViewMut<'_>, MatrixViewMut<'_>) {
        assert!(r <= self.rows, "row split out of range");
        let (rows, cols, stride) = (self.rows, self.cols, self.stride);
        let cut = (r * stride).min(self.data.len());
        let (head, tail) = self.data.split_at_mut(cut);
        (
            MatrixViewMut::new(head, r, cols, stride),
            MatrixViewMut::new(tail, rows - r, cols, stride),
        )
    }

    /// Set every entry to `v` (row-wise `fill`).
    pub fn fill(&mut self, v: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Overwrite this view with `other`'s entries (same shape) — the
    /// view analogue of [`Matrix::set_block`].
    pub fn copy_from(&mut self, other: &MatrixView) {
        assert_eq!((self.rows, self.cols), (other.rows(), other.cols()), "copy_from shape mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(other.row(i));
        }
    }

    /// Scale every entry by `alpha` — per-entry `v *= alpha`, the
    /// arithmetic of [`Matrix::scale`].
    pub fn scale(&mut self, alpha: f64) {
        for i in 0..self.rows {
            for v in self.row_mut(i) {
                *v *= alpha;
            }
        }
    }

    /// `self += alpha·other` (same shape) — per-entry `d += alpha * s`,
    /// exactly the arithmetic of [`Matrix::axpy`]/[`Matrix::add_block`],
    /// so an accumulation routed through views is bitwise the one routed
    /// through extracted copies.
    pub fn add_scaled(&mut self, alpha: f64, other: &MatrixView) {
        assert_eq!((self.rows, self.cols), (other.rows(), other.cols()), "add_scaled shape mismatch");
        for i in 0..self.rows {
            for (d, s) in self.row_mut(i).iter_mut().zip(other.row(i)) {
                *d += alpha * s;
            }
        }
    }
}

impl Matrix {
    /// Immutable zero-copy view of the whole matrix.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.data(), self.rows(), self.cols(), self.cols())
    }

    /// Immutable zero-copy view of the sub-block `rows r0..r0+nr`,
    /// `cols c0..c0+nc` (the view analogue of [`Matrix::block`]).
    pub fn subview(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixView<'_> {
        self.view().sub(r0, c0, nr, nc)
    }

    /// Mutable zero-copy view of the whole matrix.
    pub fn view_mut(&mut self) -> MatrixViewMut<'_> {
        let (rows, cols) = (self.rows(), self.cols());
        MatrixViewMut::new(self.data_mut(), rows, cols, cols)
    }

    /// Mutable zero-copy view of the sub-block `rows r0..r0+nr`,
    /// `cols c0..c0+nc` — in-place update without the
    /// `block`/`set_block` round-trip.
    pub fn subview_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatrixViewMut<'_> {
        let (rows, cols) = (self.rows(), self.cols());
        assert!(r0 + nr <= rows && c0 + nc <= cols, "sub-view out of range");
        let start = if nr == 0 || nc == 0 { 0 } else { r0 * cols + c0 };
        MatrixViewMut::new(&mut self.data_mut()[start..], nr, nc, cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_indexes_match_matrix() {
        let a = Matrix::from_fn(5, 4, |i, j| (i * 4 + j) as f64);
        let v = a.subview(1, 2, 3, 2);
        assert_eq!(v.rows(), 3);
        assert_eq!(v.cols(), 2);
        assert_eq!(v.stride(), 4);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(v.get(i, j), a.get(1 + i, 2 + j));
            }
        }
        assert_eq!(v.row(2), &[a.get(3, 2), a.get(3, 3)]);
    }

    #[test]
    fn sub_of_sub_composes() {
        let a = Matrix::from_fn(6, 6, |i, j| (10 * i + j) as f64);
        let v = a.subview(1, 1, 4, 4).sub(1, 2, 2, 2);
        assert_eq!(v.get(0, 0), a.get(2, 3));
        assert_eq!(v.get(1, 1), a.get(3, 4));
    }

    #[test]
    fn mut_view_writes_through() {
        let mut a = Matrix::zeros(4, 3);
        {
            let mut v = a.subview_mut(1, 1, 2, 2);
            v.set(0, 0, 5.0);
            v.row_mut(1)[1] = 7.0;
        }
        assert_eq!(a.get(1, 1), 5.0);
        assert_eq!(a.get(2, 2), 7.0);
    }

    #[test]
    fn to_matrix_round_trips_block() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * 3 + j) as f64).sin());
        assert_eq!(a.subview(1, 2, 3, 2).to_matrix(), a.block(1, 2, 3, 2));
    }

    #[test]
    fn empty_views_are_fine() {
        let a = Matrix::zeros(3, 3);
        let v = a.subview(3, 0, 0, 3);
        assert_eq!(v.rows(), 0);
        let w = a.subview(0, 3, 3, 0);
        assert_eq!(w.cols(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_subview_panics() {
        let a = Matrix::zeros(3, 3);
        let _ = a.subview(1, 1, 3, 3);
    }
}
