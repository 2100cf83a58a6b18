//! # ca-eigen — the communication-avoiding 2.5D symmetric eigensolver
//!
//! The primary contribution of Solomonik, Ballard, Demmel & Hoefler,
//! *"A Communication-Avoiding Parallel Algorithm for the Symmetric
//! Eigenvalue Problem"* (SPAA'17), implemented on the `ca-bsp` virtual
//! machine with the building blocks of `ca-pla`:
//!
//! * [`full_to_band`] — Algorithm IV.1, **2.5D-Full-to-Band**: reduce a
//!   dense symmetric matrix to band-width `b` with replicated storage
//!   (`c = p^{2δ−1}` copies) and left-looking *aggregated* two-sided
//!   updates (Eqns. IV.1/IV.2), so that all trailing-matrix work runs
//!   through the Streaming-MM of Algorithm III.1 at
//!   `W = O(n²/pᵟ)` communication.
//! * [`band_to_band`] — Algorithm IV.2, **2.5D-Band-to-Band**: reduce
//!   band-width `b → b/k` by pipelined bulge chasing, each chase a
//!   parallel rectangular QR plus Lemma III.2 updates on a processor
//!   group `Π̂ⱼ` of `p·b/n` processors, with concurrent groups sharing
//!   supersteps (phases `2i + j = const`, Figure 2).
//! * [`ca_sbr`] — the CA-SBR band halving of Ballard–Demmel–Knight \[12\]
//!   (Lemma IV.2), used once the band is thin (`b ≤ n/pᵟ`).
//! * [`solver`] — Algorithm IV.3, the complete
//!   **2.5D-Symmetric-Eigensolver**: full→band at
//!   `b = n / max(p^{2−3δ}, log p)`, `O(log p)` band halvings on
//!   shrinking processor sets (`ζ = (1−δ)/δ`), CA-SBR down to `n/p`,
//!   then a sequential banded eigensolve.
//! * [`baselines`] — the comparison rows of Table I: a ScaLAPACK-style
//!   direct tridiagonalization (per-column trailing matvecs) and an
//!   ELPA-style two-stage reduction (2D full→band, 1D band→tridiagonal).
//!
//! Every algorithm returns its eigenvalues from real floating-point
//! execution *and* leaves the full `F/W/Q/S/M` cost record in the
//! machine ledger, which the `ca-bench` harness uses to regenerate the
//! paper's Table I and Figures 1–2.

// Index-heavy numerical code: range loops over several arrays at once
// are the clearer idiom here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod band_to_band;
pub mod baselines;
pub mod ca_sbr;
pub mod error;
pub mod full_to_band;
pub mod job;
pub mod lang;
pub mod model;
pub mod params;
pub mod solver;
pub mod svd;
pub mod transforms;
pub mod tuning;

pub use band_to_band::{band_to_band, band_to_band_to, band_to_band_to_logged, try_band_to_band};
pub use ca_sbr::{ca_sbr, ca_sbr_logged};
pub use error::EigenError;
pub use full_to_band::{full_to_band, full_to_band_logged, try_full_to_band, FullToBandTrace};
pub use job::{solve_job, JobResult, SymmEigenJob};
pub use lang::lang_band_to_tridiagonal;
pub use params::EigenParams;
pub use solver::{
    symm_eigen_25d, symm_eigen_25d_vectors, try_symm_eigen_25d, try_symm_eigen_25d_vectors,
    StageCosts,
};
pub use svd::{singular_values, svd, try_singular_values, try_svd, Svd};
pub use transforms::{back_transform, Reflectors, TransformLog};
