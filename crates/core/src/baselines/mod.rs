//! Baseline symmetric eigensolvers — the comparison rows of Table I.
//!
//! * [`scalapack`] — direct blocked tridiagonalization in the style of
//!   ScaLAPACK's `pdsytrd` \[15\]: every column's Householder vector
//!   requires a matrix–vector product with the *trailing matrix*, which
//!   is what pins the baseline at `W = O(n²/√p)`, `Q = O(n³/p)` and
//!   `S = O(n·polylog)` (§IV's motivation for banded intermediates).
//! * [`elpa`] — a two-stage reduction in the style of ELPA \[13\]:
//!   2D (non-replicated) full→band, then a pipelined 1D
//!   band→tridiagonal, giving `W = O(n²/√p)` with far smaller `Q`.
//! * [`sbr`] — successive band reduction in the style of \[12\]: 2D
//!   full→band, CA-SBR halvings to band-width `n/p`, and the 2.5D
//!   solver's sequential finale.

pub mod elpa;
pub mod sbr;
pub mod scalapack;

pub use elpa::elpa_two_stage;
pub use sbr::ca_sbr_eigenvalues;
pub use scalapack::scalapack_tridiag;

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::{Machine, MachineParams};
    use ca_dla::{gen, Matrix};
    use ca_pla::grid::Grid;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Each Table I baseline solves `s·A`, for `s` far outside LAPACK
    /// `dsyev`'s safe range, as `s` times its unit-scale eigenvalues and
    /// with the unit-scale ledger: it scales the input as the solver
    /// does instead of underflowing to wrong eigenvalues or failing to
    /// converge on finite input.
    #[test]
    fn baselines_solve_badly_scaled_input_as_the_unit_scale_one() {
        let (n, p) = (64, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let a = gen::random_symmetric(&mut rng, n);
        type Baseline = fn(&Machine, &Matrix) -> Vec<f64>;
        let baselines: [(&str, Baseline); 3] = [
            ("scalapack", |m, a| {
                scalapack::scalapack_eigenvalues(m, &Grid::all(4).squarest_2d(), a)
            }),
            ("elpa", |m, a| elpa_two_stage(m, 4, a)),
            ("ca_sbr", |m, a| ca_sbr_eigenvalues(m, 4, a)),
        ];
        for (name, solve) in baselines {
            let unit_machine = Machine::new(MachineParams::new(p));
            let unit = solve(&unit_machine, &a);
            let lmax = unit.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let tol = 100.0 * n as f64 * f64::EPSILON * lmax;
            for s in [1e-200, 1e-150, 1e150, 1e160] {
                let mut scaled = a.clone();
                scaled.scale(s);
                let machine = Machine::new(MachineParams::new(p));
                let ev = solve(&machine, &scaled);
                assert_eq!(ev.len(), n, "{name}, s = {s:e}");
                for (i, (x, u)) in ev.iter().zip(&unit).enumerate() {
                    assert!(
                        (x / s - u).abs() <= tol,
                        "{name}, s = {s:e}: λ_{i} / s = {:e}, unit scale {u:e}",
                        x / s
                    );
                }
                assert_eq!(
                    machine.report(),
                    unit_machine.report(),
                    "{name}, s = {s:e}: ledger"
                );
            }
        }
    }
}
