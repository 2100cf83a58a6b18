//! Symmetric banded matrix storage.
//!
//! Stores only the lower band of a symmetric matrix: entry `(i, j)` with
//! `j ≤ i ≤ j + cap` lives at `data[j·(cap+1) + (i − j)]`. The *capacity*
//! `cap` is chosen larger than the nominal bandwidth so bulge-chasing
//! fill (which transiently extends the band to at most `2b − h` during
//! Algorithm IV.2) fits without reallocation.

use crate::matrix::Matrix;

/// Symmetric banded matrix with lower-band storage and explicit fill
/// capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct BandedSym {
    n: usize,
    /// Nominal bandwidth (entries beyond it may transiently be nonzero
    /// during a reduction, up to `cap`).
    bw: usize,
    /// Storage capacity: entries with `i − j > cap` are identically zero.
    cap: usize,
    /// Column-major band storage, `n` columns of height `cap + 1`.
    data: Vec<f64>,
    /// Running magnitude scale (largest |entry| ever stored), used to
    /// make the out-of-capacity zero-write check scale-relative.
    scale: f64,
}

impl BandedSym {
    /// Zero matrix of order `n` with nominal bandwidth `bw` and fill
    /// capacity `cap ≥ bw`.
    pub fn zeros(n: usize, bw: usize, cap: usize) -> Self {
        assert!(cap >= bw, "capacity must be at least the bandwidth");
        assert!(cap < n.max(1), "capacity must be below the dimension");
        Self {
            n,
            bw,
            cap,
            data: vec![0.0; n * (cap + 1)],
            scale: 0.0,
        }
    }

    /// A copy of `self` at nominal bandwidth `bw` and fill capacity
    /// `cap`, housed in the buffer `zeroed` returns for the slab's length
    /// (`n·(cap + 1)` words, all zero) — a fresh allocation (`|len|
    /// vec![0.0; len]`: how the reduction stages make their working copy
    /// with room for bulge fill), or, inside this crate, one an arena
    /// lends and takes back. Stored columns are copied as slices, every
    /// diagonal both capacities hold; the caller vouches that nothing
    /// non-zero lies beyond `cap`.
    pub fn rehoused(&self, bw: usize, cap: usize, zeroed: impl FnOnce(usize) -> Vec<f64>) -> Self {
        let n = self.n;
        assert!(bw <= cap && cap < n.max(1));
        let mut slab = zeroed(n * (cap + 1));
        assert_eq!(slab.len(), n * (cap + 1));
        let (src_h, dst_h) = (self.cap + 1, cap + 1);
        let keep = src_h.min(dst_h);
        let mut scale = 0.0f64;
        for (dst, src) in slab
            .chunks_exact_mut(dst_h)
            .zip(self.data.chunks_exact(src_h))
        {
            dst[..keep].copy_from_slice(&src[..keep]);
            scale = src[..keep].iter().fold(scale, |m, x| m.max(x.abs()));
        }
        Self {
            n,
            bw,
            cap,
            data: slab,
            scale,
        }
    }

    /// Give the band slab back (to the arena that lent it).
    pub(crate) fn into_slab(self) -> Vec<f64> {
        self.data
    }

    /// Matrix order.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nominal bandwidth.
    #[inline]
    pub fn bandwidth(&self) -> usize {
        self.bw
    }

    /// Fill capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Update the nominal bandwidth (e.g. after a reduction step).
    pub fn set_bandwidth(&mut self, bw: usize) {
        assert!(bw <= self.cap);
        self.bw = bw;
    }

    /// Words of storage used.
    pub fn words(&self) -> usize {
        self.data.len()
    }

    /// The raw band slab: entry `(i, j)` with `j ≤ i ≤ j + cap` lives at
    /// `bands()[j·(cap+1) + (i−j)]` (column-major lower bands). Exposed
    /// for kernels that stream the bands directly.
    #[inline]
    pub fn bands(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw band slab together with the scale high-water mark,
    /// for crate kernels that stream bands directly (the zero-copy
    /// chase write-back). Callers take over [`BandedSym::set`]'s
    /// contract: raise the scale to cover every value written, and
    /// never store a non-negligible value beyond the capacity.
    #[inline]
    pub(crate) fn bands_mut_scale(&mut self) -> (&mut [f64], &mut f64) {
        (&mut self.data, &mut self.scale)
    }

    /// Entry `(i, j)`; symmetric access (either triangle).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        if hi - lo > self.cap {
            0.0
        } else {
            self.data[lo * (self.cap + 1) + (hi - lo)]
        }
    }

    /// Set entry `(i, j)` (and its mirror). Setting beyond the capacity
    /// is permitted only for (numerically) zero values relative to the
    /// matrix's magnitude — this doubles as a runtime check of the
    /// paper's fill analysis.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        if hi - lo > self.cap {
            check_fill(v, self.scale, (i, j));
            return;
        }
        if v.abs() > self.scale {
            self.scale = v.abs();
        }
        self.data[lo * (self.cap + 1) + (hi - lo)] = v;
    }

    /// Convert a dense symmetric matrix with bandwidth ≤ `bw` into band
    /// storage.
    pub fn from_dense(a: &Matrix, bw: usize, cap: usize) -> Self {
        let n = a.rows();
        assert_eq!(n, a.cols());
        let mut b = Self::zeros(n, bw, cap);
        for j in 0..n {
            for i in j..n.min(j + cap + 1) {
                b.set(i, j, a.get(i, j));
            }
        }
        debug_assert!(
            a.bandwidth(1e-12) <= bw,
            "dense input has bandwidth {} > {}",
            a.bandwidth(1e-12),
            bw
        );
        b
    }

    /// Expand to a dense symmetric matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut a = Matrix::zeros(self.n, self.n);
        for j in 0..self.n {
            for i in j..self.n.min(j + self.cap + 1) {
                let v = self.get(i, j);
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        a
    }

    /// Extract the dense symmetric window `lo..hi` (half-open) as a full
    /// (nonsymmetric-storage) matrix.
    pub fn window(&self, lo: usize, hi: usize) -> Matrix {
        assert!(lo <= hi && hi <= self.n);
        let s = hi - lo;
        let mut w = Matrix::zeros(s, s);
        for j in 0..s {
            for i in j..s {
                let v = self.get(lo + i, lo + j);
                w.set(i, j, v);
                w.set(j, i, v);
            }
        }
        w
    }

    /// Write a dense symmetric window back into band storage. Entries of
    /// `w` outside the capacity must be (numerically) zero.
    pub fn set_window(&mut self, lo: usize, w: &Matrix) {
        let s = w.rows();
        assert_eq!(s, w.cols());
        assert!(lo + s <= self.n);
        for j in 0..s {
            for i in j..s {
                self.set(lo + i, lo + j, w.get(i, j));
            }
        }
    }

    /// Largest `i − j` with `|B[i,j]| > tol` (measured bandwidth).
    pub fn measured_bandwidth(&self, tol: f64) -> usize {
        // Slots of a stored column past the last matrix row are never
        // written, so whole columns can be scanned.
        self.data
            .chunks_exact(self.cap + 1)
            .filter_map(|col| col.iter().rposition(|x| x.abs() > tol))
            .max()
            .unwrap_or(0)
    }

    /// Diagonal and first subdiagonal, for handing to the tridiagonal
    /// eigensolver once the bandwidth is 1.
    pub fn tridiagonal(&self) -> (Vec<f64>, Vec<f64>) {
        let d: Vec<f64> = (0..self.n).map(|i| self.get(i, i)).collect();
        let e: Vec<f64> = (1..self.n).map(|i| self.get(i, i - 1)).collect();
        (d, e)
    }

    /// Frobenius norm (accounting for symmetry).
    pub fn norm_fro(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.n {
            for i in j..self.n.min(j + self.cap + 1) {
                let v = self.get(i, j);
                s += if i == j { v * v } else { 2.0 * v * v };
            }
        }
        s.sqrt()
    }
}

/// The fill-analysis check of a write with nowhere to go: a value beyond
/// the band's capacity must be negligible against its `scale`.
pub(crate) fn check_fill(v: f64, scale: f64, (i, j): (usize, usize)) {
    assert!(
        v.abs() < 1e-9 * scale.max(1.0),
        "write of {v:.3e} outside band capacity at ({i},{j}): fill analysis violated",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_roundtrip() {
        let mut rng = StdRng::seed_from_u64(30);
        let a = gen::random_banded(&mut rng, 12, 3);
        let b = BandedSym::from_dense(&a, 3, 5);
        assert!(b.to_dense().max_diff(&a) < 1e-15);
        assert_eq!(b.measured_bandwidth(1e-14), 3);
    }

    #[test]
    fn symmetric_get_set() {
        let mut b = BandedSym::zeros(6, 2, 3);
        b.set(4, 2, 7.5);
        assert_eq!(b.get(4, 2), 7.5);
        assert_eq!(b.get(2, 4), 7.5);
        b.set(1, 3, -2.0);
        assert_eq!(b.get(3, 1), -2.0);
    }

    #[test]
    fn out_of_capacity_reads_zero() {
        let b = BandedSym::zeros(8, 1, 2);
        assert_eq!(b.get(7, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "fill analysis violated")]
    fn out_of_capacity_nonzero_write_panics() {
        let mut b = BandedSym::zeros(8, 1, 2);
        b.set(7, 0, 1.0);
    }

    #[test]
    fn window_roundtrip() {
        let mut rng = StdRng::seed_from_u64(31);
        let a = gen::random_banded(&mut rng, 10, 2);
        let mut b = BandedSym::from_dense(&a, 2, 4);
        let w = b.window(3, 8);
        assert_eq!(w.rows(), 5);
        assert_eq!(w.get(1, 0), a.get(4, 3));
        assert_eq!(w.asymmetry(), 0.0);
        b.set_window(3, &w);
        assert!(b.to_dense().max_diff(&a) < 1e-15);
    }

    #[test]
    fn tridiagonal_extraction() {
        let a = gen::laplacian_2d(5, 1); // 1D laplacian: tridiagonal
        let b = BandedSym::from_dense(&a, 1, 1);
        let (d, e) = b.tridiagonal();
        assert_eq!(d, vec![4.0; 5]);
        assert_eq!(e, vec![-1.0; 4]);
    }

    #[test]
    fn norm_fro_matches_dense() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = gen::random_banded(&mut rng, 15, 4);
        let b = BandedSym::from_dense(&a, 4, 6);
        assert!((b.norm_fro() - a.norm_fro()).abs() < 1e-12);
    }
}
