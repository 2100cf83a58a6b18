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
