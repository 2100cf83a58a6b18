//! # conformance — cost-model conformance harness
//!
//! Does the implementation *scale* the way the paper proves it must,
//! and are the numbers it produces *right*? This crate answers both
//! with one machine-checkable artifact:
//!
//! * [`sweep`] runs one stage (Streaming-MM, CARMA, rectangular QR in
//!   both variants, full→band, band→band and its ladder, CA-SBR, the
//!   end-to-end solver and its back-transformation, and Table I's
//!   ScaLAPACK, ELPA and CA-SBR baselines) at a grid point `(n, p, c)`
//!   on the virtual machine and pulls the metered `F/W/Q/S/M` deltas
//!   from the BSP ledger;
//! * [`fit`] log-log-fits the measured quantities to extract scaling
//!   exponents;
//! * [`claims`] is the table of asserted power laws — each with its
//!   paper reference (Lemma III.3, Theorem III.6, Lemmas IV.1–IV.3,
//!   Theorem IV.4, Table I), the asymptotic exponent, and a
//!   *documented* tolerance calibrated against finite-size effects —
//!   plus the ratio bands: the headline `√c` replication gains, Table
//!   I's baseline comparison, the lemma shapes against their closed
//!   forms and the §V ablations. Every experiment of DESIGN.md §4 is a
//!   row here;
//! * [`oracle`] is the numerical side: residual, orthogonality,
//!   reference spectra (known constructions or independent Sturm
//!   bisection) and metamorphic invariances over a seeded gallery;
//! * [`run`] executes everything and [`report`] serializes the result
//!   as `CONFORMANCE.json` (see `cargo run -p conformance`).

#![warn(missing_docs)]

pub mod claims;
pub mod fit;
pub mod oracle;
pub mod report;
pub mod run;
pub mod sweep;

pub use report::Report;
pub use run::run;

#[cfg(test)]
mod tests {
    use crate::fit::fit_log_log;
    use crate::sweep::{measure, Point, Stage};

    #[test]
    fn exponent_fit_recovers_slope() {
        let xs = [2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.powf(-0.5)).collect();
        let e = fit_log_log(&xs, &ys).slope;
        assert!((e + 0.5).abs() < 1e-10);
    }

    /// Every Table I solver recovers the prescribed spectrum (`measure`
    /// asserts the spectrum distance) and is charged on the ledger.
    #[test]
    fn quick_run_all_algorithms() {
        for stage in [
            Stage::Scalapack,
            Stage::Elpa,
            Stage::CaSbrSolver,
            Stage::Solver,
        ] {
            let costs = measure(stage, Point::new(32, 4, 1));
            assert!(
                costs.horizontal_words > 0,
                "{}: no words moved",
                stage.name()
            );
            assert!(costs.flops > 0, "{}: no flops", stage.name());
        }
    }
}
