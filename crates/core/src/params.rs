//! Parameterization of the 2.5D eigensolver.
//!
//! The paper parameterizes its algorithms by `δ ∈ [1/2, 2/3]`, with a
//! `q × q × c` processor grid where `q = p^{1−δ}` and `c = p^{2δ−1}`
//! (the replication factor). In an executable setting the natural free
//! parameter is `c` (a small power of two) with `q = √(p/c)`; `δ` is
//! then implied by `c = p^{2δ−1}`.

use crate::error::EigenError;
use ca_pla::Grid;

/// Grid/replication parameters for the 2.5D algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EigenParams {
    /// Total processors `p = q²·c`.
    pub p: usize,
    /// Per-layer grid side `q = p^{1−δ}`.
    pub q: usize,
    /// Replication factor `c = p^{2δ−1}` (number of layers).
    pub c: usize,
}

impl EigenParams {
    /// The shared validated constructor behind every public entry
    /// point: checks `p ≥ 1`, `c | p`, and `p/c` a perfect square, and
    /// optionally the paper's `c ≤ p^{1/3}` regime.
    fn validated(p: usize, c: usize, enforce_regime: bool) -> Result<Self, EigenError> {
        if p == 0 {
            return Err(EigenError::NoProcessors);
        }
        if c == 0 || !p.is_multiple_of(c) {
            return Err(EigenError::ReplicationMismatch { p, c });
        }
        let q2 = p / c;
        let q = (q2 as f64).sqrt().round() as usize;
        if q * q != q2 {
            return Err(EigenError::NonSquareGrid { p, c });
        }
        if enforce_regime && c * c * c > p {
            return Err(EigenError::ReplicationOutOfRegime { p, c });
        }
        Ok(Self { p, q, c })
    }

    /// Build parameters from a processor count and replication factor;
    /// `p/c` must be a perfect square (`q² = p/c`), mirroring the
    /// paper's `q × q × c` grid requirement. Rejects invalid
    /// combinations as a typed [`EigenError`] instead of panicking.
    pub fn try_new(p: usize, c: usize) -> Result<Self, EigenError> {
        Self::validated(p, c, true)
    }

    /// [`Self::try_new`] without enforcing `c ≤ p^{1/3}` — for sweeps
    /// that deliberately leave the paper's regime (e.g. the c-sweep
    /// experiment, which shows communication *rising* again once the
    /// replication cost `n²c/p` overtakes the `√c` streaming saving).
    pub fn try_new_unchecked(p: usize, c: usize) -> Result<Self, EigenError> {
        Self::validated(p, c, false)
    }

    /// [`Self::try_new`] for callers that treat a bad grid as a
    /// programming error (tests, examples, benches): panics with the
    /// error's message.
    pub fn new(p: usize, c: usize) -> Self {
        Self::try_new(p, c).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Re-check the struct's invariants (fields are public, so a
    /// hand-rolled value can be inconsistent): used by the solver's
    /// `Result` entry points before any work is charged.
    pub fn revalidate(&self) -> Result<(), EigenError> {
        let checked = Self::validated(self.p, self.c, false)?;
        if checked.q != self.q {
            return Err(EigenError::NonSquareGrid {
                p: self.p,
                c: self.c,
            });
        }
        Ok(())
    }

    /// The request's grid names processors `0..p`: the machine must have
    /// them all, or the first charge to a missing one would index past
    /// its ledger.
    pub(crate) fn check_machine(&self, machine: &ca_bsp::Machine) -> Result<(), EigenError> {
        if self.p > machine.p() {
            return Err(EigenError::MachineMismatch {
                machine_p: machine.p(),
                grid_p: self.p,
            });
        }
        Ok(())
    }

    /// The implied `δ = (1 + log_p c)/2 ∈ [1/2, 2/3]`.
    pub fn delta(&self) -> f64 {
        if self.p <= 1 {
            return 0.5;
        }
        0.5 * (1.0 + (self.c as f64).ln() / (self.p as f64).ln())
    }

    /// `p^δ = q·c` — the denominator of the headline `W = O(n²/pᵟ)`.
    pub fn p_delta(&self) -> usize {
        self.q * self.c
    }

    /// `p^{2−3δ} = q/c` rounded up to at least 1 — used both for the
    /// band-width choice of Algorithm IV.3 and the memory parameter `v`
    /// of the Lemma III.2 multiplies.
    pub fn p_2m3d(&self) -> usize {
        (self.q / self.c).max(1)
    }

    /// The full `q × q × c` grid over processors `0..p`.
    pub fn grid3(&self) -> Grid {
        Grid::new_3d((0..self.p).collect(), self.q, self.q, self.c)
    }

    /// The streaming depth `w = max(1, b·p^{2−3δ}/n)` used by
    /// Algorithm IV.1's Lemma III.3 multiplies.
    pub fn stream_depth(&self, n: usize, b: usize) -> usize {
        (b * self.p_2m3d()).div_ceil(n).max(1)
    }

    /// Number of processors for the panel QR of Algorithm IV.1:
    /// `z·pᵟ = p·(b/n)^{(1−δ)/δ}` clamped to `[1, p]`.
    pub fn panel_qr_procs(&self, n: usize, b: usize) -> usize {
        let delta = self.delta();
        let zeta = (1.0 - delta) / delta;
        let frac = (b as f64 / n as f64).powf(zeta);
        ((self.p as f64 * frac).round() as usize).clamp(1, self.p)
    }

    /// Algorithm IV.3's initial band-width
    /// `b = n / max(p^{2−3δ}, log₂ p)`, clamped to `[2, n/2]` (to `1`
    /// for `n < 4`, where the only valid band-width is tridiagonal).
    /// The paper states the schedule for arbitrary `n`; no power-of-two
    /// snapping is applied.
    pub fn initial_bandwidth(&self, n: usize) -> usize {
        let log_p = (usize::BITS - (self.p.max(2) - 1).leading_zeros()) as usize;
        let denom = self.p_2m3d().max(log_p).max(1);
        let hi = (n / 2).max(1);
        (n / denom).clamp(2.min(hi), hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_endpoints() {
        // c = 1 ⇒ δ = 1/2 (pure 2D).
        let p2d = EigenParams::new(16, 1);
        assert!((p2d.delta() - 0.5).abs() < 1e-12);
        assert_eq!(p2d.q, 4);
        // c = p^{1/3} ⇒ δ = 2/3 (full 3D): p = 64, c = 4, q = 4.
        let p3d = EigenParams::new(64, 4);
        assert!((p3d.delta() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p3d.p_delta(), 16);
    }

    #[test]
    fn grid_shape_matches() {
        let p = EigenParams::new(32, 2);
        assert_eq!(p.grid3().shape(), (4, 4, 2));
    }

    #[test]
    #[should_panic(expected = "perfect square")]
    fn rejects_non_square_layers() {
        let _ = EigenParams::new(24, 2);
    }

    #[test]
    fn initial_bandwidth_is_reasonable() {
        let p = EigenParams::new(16, 1);
        let b = p.initial_bandwidth(256);
        assert!((2..=128).contains(&b));
        // δ = 1/2: p^{2−3δ} = p^{1/2} = 4, log₂16 = 4 → b = 256/4 = 64.
        assert_eq!(b, 64);
    }

    #[test]
    fn stream_depth_grows_with_bandwidth() {
        let p = EigenParams::new(16, 1);
        assert_eq!(p.stream_depth(256, 16), 1);
        assert!(p.stream_depth(256, 128) >= 2);
    }

    #[test]
    fn single_processor_machine_is_legal() {
        let p = EigenParams::new(1, 1);
        assert_eq!(p.q, 1);
        assert_eq!(p.p_delta(), 1);
        assert_eq!(p.grid3().len(), 1);
        assert!(p.initial_bandwidth(32) >= 2);
    }

    #[test]
    fn p_delta_equals_q_times_c() {
        for (p, c) in [(16usize, 1usize), (64, 4), (256, 4)] {
            let params = EigenParams::new(p, c);
            // p^δ = p^{(1+log_p c)/2} = √(p·c) = q·c.
            let analytic = ((p * c) as f64).sqrt();
            assert!(
                (params.p_delta() as f64 - analytic).abs() < 1e-9,
                "p={p} c={c}"
            );
        }
    }

    #[test]
    fn try_new_rejects_bad_grids_with_typed_errors() {
        use crate::error::EigenError;
        assert_eq!(EigenParams::try_new(0, 1), Err(EigenError::NoProcessors));
        assert_eq!(
            EigenParams::try_new(10, 3),
            Err(EigenError::ReplicationMismatch { p: 10, c: 3 })
        );
        assert_eq!(
            EigenParams::try_new(24, 2),
            Err(EigenError::NonSquareGrid { p: 24, c: 2 })
        );
        assert_eq!(
            EigenParams::try_new(16, 4),
            Err(EigenError::ReplicationOutOfRegime { p: 16, c: 4 })
        );
        // try_new_unchecked admits the out-of-regime case but not the rest.
        assert!(EigenParams::try_new_unchecked(16, 4).is_ok());
        assert!(EigenParams::try_new_unchecked(24, 2).is_err());
    }

    #[test]
    fn panicking_shims_agree_with_try_constructors() {
        for (p, c) in [(1usize, 1usize), (4, 1), (8, 2), (64, 4)] {
            assert_eq!(EigenParams::new(p, c), EigenParams::try_new(p, c).unwrap());
        }
    }

    #[test]
    fn revalidate_catches_inconsistent_fields() {
        let good = EigenParams::new(16, 1);
        assert!(good.revalidate().is_ok());
        let bad = EigenParams { p: 16, q: 3, c: 1 };
        assert!(bad.revalidate().is_err());
    }

    #[test]
    fn initial_bandwidth_handles_arbitrary_n() {
        let p = EigenParams::new(16, 1);
        // No power-of-two snapping: n = 300 → 300/4 = 75 exactly.
        assert_eq!(p.initial_bandwidth(300), 75);
        for n in [2usize, 3, 5, 7, 48, 65, 100, 129, 200] {
            let b = p.initial_bandwidth(n);
            assert!(b >= 1 && b < n, "n={n}: b={b} out of range");
            if n >= 4 {
                assert!((2..=n / 2).contains(&b), "n={n}: b={b}");
            }
        }
    }

    #[test]
    fn panel_qr_procs_shrink_with_thin_panels() {
        let p = EigenParams::new(64, 4);
        let all = p.panel_qr_procs(256, 256);
        let thin = p.panel_qr_procs(256, 8);
        assert_eq!(all, 64);
        assert!(thin < all && thin >= 1);
    }
}
