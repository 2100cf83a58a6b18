//! Dense row-major matrices with block copy, transpose and norm helpers.

use std::fmt;

/// A dense `rows × cols` matrix of `f64` in row-major order.
///
/// This is deliberately a simple owned container: the distributed layers
/// move explicit sub-blocks between virtual processors, so cheap block
/// extraction/insertion matters more than zero-copy views.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows*cols");
        Self { rows, cols, data }
    }

    /// Build from a closure `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
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

    /// Number of stored words.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// In-place element update.
    #[inline]
    pub fn add_to(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Copy of the sub-block `rows r0..r0+nr`, `cols c0..c0+nc`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of range"
        );
        let mut out = Matrix::zeros(nr, nc);
        for i in 0..nr {
            let src = &self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + nc];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Write `b` into the sub-block starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &Matrix) {
        assert!(
            r0 + b.rows <= self.rows && c0 + b.cols <= self.cols,
            "block out of range"
        );
        for i in 0..b.rows {
            let dst_start = (r0 + i) * self.cols + c0;
            self.data[dst_start..dst_start + b.cols].copy_from_slice(b.row(i));
        }
    }

    /// Add `alpha * b` into the sub-block starting at `(r0, c0)`.
    pub fn add_block(&mut self, r0: usize, c0: usize, b: &Matrix, alpha: f64) {
        assert!(
            r0 + b.rows <= self.rows && c0 + b.cols <= self.cols,
            "block out of range"
        );
        for i in 0..b.rows {
            let dst_start = (r0 + i) * self.cols + c0;
            for (d, s) in self.data[dst_start..dst_start + b.cols]
                .iter_mut()
                .zip(b.row(i))
            {
                *d += alpha * s;
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Scale every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (d, s) in self.data.iter_mut().zip(&other.data) {
            *d += alpha * s;
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |a, v| a.max(v.abs()))
    }

    /// Maximum absolute difference to `other` (same shape).
    pub fn max_diff(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0, |a, (x, y)| a.max((x - y).abs()))
    }

    /// Maximum deviation from symmetry, `max |A - Aᵀ|`.
    pub fn asymmetry(&self) -> f64 {
        assert_eq!(self.rows, self.cols);
        let mut worst = 0.0f64;
        for i in 0..self.rows {
            for j in 0..i {
                worst = worst.max((self.get(i, j) - self.get(j, i)).abs());
            }
        }
        worst
    }

    /// Force exact symmetry by averaging with the transpose.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..i {
                let v = 0.5 * (self.get(i, j) + self.get(j, i));
                self.set(i, j, v);
                self.set(j, i, v);
            }
        }
    }

    /// Bandwidth of a square matrix: the largest `|i − j|` with
    /// `|A[i,j]| > tol`.
    pub fn bandwidth(&self, tol: f64) -> usize {
        assert_eq!(self.rows, self.cols);
        let mut bw = 0;
        for i in 0..self.rows {
            for j in 0..self.cols {
                if self.get(i, j).abs() > tol {
                    bw = bw.max(i.abs_diff(j));
                }
            }
        }
        bw
    }

    /// Stack `blocks` vertically (all must share the column count).
    pub fn vstack(blocks: &[&Matrix]) -> Matrix {
        assert!(!blocks.is_empty());
        let cols = blocks[0].cols;
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut r = 0;
        for b in blocks {
            assert_eq!(b.cols, cols, "vstack requires equal column counts");
            out.set_block(r, 0, b);
            r += b.rows;
        }
        out
    }
}

/// A copy, for an API that takes its matrix by value (such as
/// `DistMatrix::from_dense`) called by a caller that keeps its own.
impl From<&Matrix> for Matrix {
    fn from(a: &Matrix) -> Self {
        a.clone()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(i, j))?;
            }
            if self.cols > 8 {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let a = Matrix::from_fn(5, 4, |i, j| (i * 4 + j) as f64);
        let b = a.block(1, 2, 3, 2);
        assert_eq!(b.get(0, 0), a.get(1, 2));
        assert_eq!(b.get(2, 1), a.get(3, 3));
        let mut c = Matrix::zeros(5, 4);
        c.set_block(1, 2, &b);
        assert_eq!(c.get(3, 3), a.get(3, 3));
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i as f64) - 2.0 * j as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut a = Matrix::from_fn(4, 4, |i, j| (i * 7 + j) as f64);
        assert!(a.asymmetry() > 0.0);
        a.symmetrize();
        assert_eq!(a.asymmetry(), 0.0);
    }

    #[test]
    fn bandwidth_detects_tridiagonal() {
        let a = Matrix::from_fn(6, 6, |i, j| if i.abs_diff(j) <= 1 { 1.0 } else { 0.0 });
        assert_eq!(a.bandwidth(1e-14), 1);
        assert_eq!(Matrix::identity(5).bandwidth(1e-14), 0);
    }

    #[test]
    fn vstack_concatenates() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(1, 3, |_, j| 10.0 + j as f64);
        let s = Matrix::vstack(&[&a, &b]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.get(2, 1), 11.0);
        assert_eq!(s.get(1, 2), 3.0);
    }

    #[test]
    fn axpy_and_norms() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let mut b = a.clone();
        b.axpy(-1.0, &a);
        assert_eq!(b.norm_fro(), 0.0);
        assert_eq!(a.norm_max(), 2.0);
    }
}
