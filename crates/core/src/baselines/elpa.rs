//! ELPA-style two-stage symmetric eigensolver \[13\], \[37\].
//!
//! Stage 1 reduces the dense matrix to band-width `b = n/q` on a 2D
//! grid — implemented as Algorithm IV.1 with replication factor `c = 1`
//! (the 2.5D algorithm *degenerates* to the classic two-stage first
//! phase when nothing is replicated, which is exactly the relationship
//! the paper describes). Stage 2 reduces the band to tridiagonal with an
//! `h = 1` bulge-chasing pipeline (Lang's algorithm \[36\] shape),
//! realized by [`crate::lang`]'s dedicated h = 1 pipeline. The
//! tridiagonal is then gathered and solved on one processor by the
//! solver's own finale, charged where the solver charges it.

use crate::full_to_band::try_full_to_band;
use crate::lang::lang_band_to_tridiagonal;
use crate::params::EigenParams;
use crate::solver::gather_and_charge_finale;
use ca_bsp::Machine;
use ca_dla::Matrix;
use ca_pla::grid::Grid;

/// Two-stage eigenvalue computation; `p` must have an integer square
/// root (2D grid). Returns the eigenvalues in ascending order.
pub fn elpa_two_stage(machine: &Machine, p: usize, a: &Matrix) -> Vec<f64> {
    let n = a.rows();
    let params = EigenParams::new(p, 1);
    // Intermediate band-width: n/q clamped to [2, n/2] (arbitrary n —
    // no power-of-two snapping; ELPA picks the band to make stage-1
    // BLAS-3 and stage-2 cheap).
    let hi = (n / 2).max(1);
    let b = (n / params.q.max(1)).clamp(2.min(hi), hi);

    // Stage 1: 2D full → band (no replication).
    let band = try_full_to_band(machine, &params, a, b, None)
        .expect("the baseline takes a square symmetric matrix");

    // Stage 2: band → tridiagonal via Lang's algorithm [36].
    let tri = lang_band_to_tridiagonal(machine, &Grid::all(p), &band, None);

    // Gather the tridiagonal and solve it sequentially.
    gather_and_charge_finale(machine, p, &tri);
    machine.fence();
    ca_dla::tridiag::try_banded_eigenvalues(&tri).expect("the finale converges on a finite band")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::spectrum_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recovers_prescribed_spectrum() {
        let n = 32;
        let p = 4;
        let m = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(240);
        let spectrum = gen::linspace_spectrum(n, -1.0, 7.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let ev = elpa_two_stage(&m, p, &a);
        assert!(spectrum_distance(&ev, &spectrum) < 1e-8 * n as f64);
    }

    #[test]
    fn stage_one_vertical_traffic_beats_direct_tridiagonalization() {
        // The paper's §IV motivation for banded intermediates: the
        // full-to-band stage updates the trailing matrix with BLAS-3
        // panel products (Q ≈ n³/(b·p)) instead of per-column matvecs
        // that stream the trailing matrix from memory n times
        // (Q ≈ n³/p). (Our executor does not model the cache-resident
        // sliding window of Lang's stage-2 — recorded in DESIGN.md §8 —
        // so the end-to-end Q comparison is made per stage.)
        let n = 64;
        let p = 4;
        let mut rng = StdRng::seed_from_u64(241);
        let a = gen::random_symmetric(&mut rng, n);

        let m1 = Machine::new(MachineParams::new(p));
        let params = EigenParams::new(p, 1);
        let _ = try_full_to_band(&m1, &params, &a, 16, None).unwrap();
        let q_stage1 = m1.report().vertical_words;

        let m2 = Machine::new(MachineParams::new(p));
        let grid = Grid::new_2d((0..p).collect(), 2, 2);
        let _ = crate::baselines::scalapack::scalapack_tridiag(&m2, &grid, &a);
        let q_direct = m2.report().vertical_words;

        assert!(
            q_stage1 < q_direct,
            "full-to-band Q ({q_stage1}) should beat direct Q ({q_direct})"
        );
    }
}
