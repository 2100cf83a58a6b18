//! The Table I "CA-SBR" row: the successive-band-reduction eigensolver
//! of \[12\]. A 2D full→band reduction, then CA-SBR halvings down to
//! band-width `n/p`, then the sequential finale the 2.5D solver runs
//! (gathered and charged by the same function).

use crate::ca_sbr::ca_sbr;
use crate::full_to_band::try_full_to_band;
use crate::params::EigenParams;
use crate::solver::gather_and_charge_finale;
use ca_bsp::Machine;
use ca_dla::Matrix;
use ca_pla::grid::Grid;

/// Successive-band-reduction eigenvalues; `p` must have an integer
/// square root (2D grid). Returns the eigenvalues in ascending order.
pub fn ca_sbr_eigenvalues(machine: &Machine, p: usize, a: &Matrix) -> Vec<f64> {
    let n = a.rows();
    let params = EigenParams::new(p, 1);
    let b = params.initial_bandwidth(n);
    let mut band = try_full_to_band(machine, &params, a, b, None)
        .expect("the baseline takes a square symmetric matrix");
    let grid = Grid::all(p);
    let target = (n / p).max(1);
    while band.bandwidth() > target && band.bandwidth() >= 2 {
        // Lemma IV.2 is valid for b ≤ n/p̂: use at most n/b processors
        // per halving (the 1D pipeline cannot use more anyway).
        let active = grid.prefix((n / band.bandwidth()).clamp(1, p));
        band = ca_sbr(machine, &active, &band, None);
    }
    gather_and_charge_finale(machine, p, &band);
    machine.fence();
    ca_dla::tridiag::try_banded_eigenvalues(&band).expect("the finale converges on a finite band")
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
        let (n, p) = (64, 16);
        let m = Machine::new(MachineParams::new(p));
        let mut rng = StdRng::seed_from_u64(242);
        let spectrum = gen::linspace_spectrum(n, -3.0, 5.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let ev = ca_sbr_eigenvalues(&m, p, &a);
        assert!(spectrum_distance(&ev, &spectrum) < 1e-8 * n as f64);
    }
}
