//! Typed validation errors for the solver's public entry points.
//!
//! Every fallible public operation — the solver, the SVD, full→band and
//! band→band — has one entry point, and it returns `Result<_,
//! EigenError>`: a malformed input (shape, symmetry, finiteness, grid,
//! machine size, band-width) is rejected before anything is charged or recorded, so a
//! serving layer can turn a bad request away without catching unwinds.
//! A caller that treats a bad request as a programming error unwraps.

use std::fmt;

/// Why an eigensolver request failed: input validation (rejected
/// before any work ran), a convergence failure, or — for jobs routed
/// through the `ca-service` scheduler — an admission-control or
/// deadline outcome.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EigenError {
    /// The input matrix is not square.
    NonSquareInput {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// The problem dimension is below the solver's minimum (`n ≥ 2`).
    TooSmall {
        /// The offending dimension.
        n: usize,
    },
    /// The input matrix is not symmetric (relative asymmetry above
    /// tolerance).
    AsymmetricInput {
        /// Measured `max |A − Aᵀ|` relative to `max |A|`.
        asymmetry: f64,
    },
    /// The input matrix contains a NaN or infinity. Checked up front:
    /// NaN compares false against every tolerance, so it would
    /// otherwise pass the symmetry gate and die deep in the reduction.
    NonFiniteInput {
        /// Row of the first non-finite entry.
        row: usize,
        /// Column of the first non-finite entry.
        col: usize,
    },
    /// `p = 0`: at least one processor is required.
    NoProcessors,
    /// The replication factor does not divide the processor count
    /// (`c ∤ p`, or `c = 0`).
    ReplicationMismatch {
        /// Processor count.
        p: usize,
        /// Replication factor.
        c: usize,
    },
    /// `p/c` is not a perfect square, so no `q × q × c` grid exists.
    NonSquareGrid {
        /// Processor count.
        p: usize,
        /// Replication factor.
        c: usize,
    },
    /// The replication factor leaves the paper's `c ≤ p^{1/3}` regime.
    ReplicationOutOfRegime {
        /// Processor count.
        p: usize,
        /// Replication factor.
        c: usize,
    },
    /// The machine has fewer processors than the request's grid names,
    /// so the first charge to a missing processor would index past the
    /// ledger.
    MachineMismatch {
        /// Processors the machine has.
        machine_p: usize,
        /// Processors the grid needs: `p` for a solver request, one past
        /// the highest processor id for an explicit grid.
        grid_p: usize,
    },
    /// A band-width outside `1 ≤ b < n` was requested from
    /// `full_to_band`.
    InvalidBandwidth {
        /// Problem dimension.
        n: usize,
        /// The offending band-width.
        b: usize,
    },
    /// A target band-width outside `1 ≤ h ≤ b` was requested from
    /// `band_to_band`.
    InvalidTargetBandwidth {
        /// Current band-width.
        b: usize,
        /// The offending target.
        h: usize,
    },
    /// A service job missed its deadline: it spent longer in the
    /// admission queue than its timeout allowed and was never started.
    /// Deadlines bound *scheduling* delay — once a worker begins a
    /// solve it runs to completion, so a returned result is never
    /// discarded on wall-clock grounds (which would make outcomes
    /// timing-dependent).
    Deadline {
        /// The job's timeout budget, in milliseconds.
        timeout_ms: u64,
        /// How long the job had actually waited when it was cancelled,
        /// in milliseconds.
        waited_ms: u64,
    },
    /// Admission control rejected the job: the service's bounded queue
    /// was at capacity. Back off and resubmit, or raise the service's
    /// `queue_capacity`.
    QueueFull {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The job was submitted to a service that is shutting down (or
    /// already shut down).
    ServiceShutdown,
    /// The sequential tridiagonal eigensolver failed to converge. Not
    /// seen for finite symmetric input — the QL driver of
    /// `ca_dla::tridiag` splits, scales and orients each block as LAPACK
    /// `dsterf` does, and its tests sweep graded, clustered and glued
    /// tridiagonals in both orientations — but non-finite data reaching
    /// the finale surfaces here instead of aborting the process.
    ConvergenceFailure {
        /// Which kernel gave up: `"tridiag_eigenvalues"` (the root-free
        /// QL of the values finale and the baselines) or
        /// `"tridiag_eigen"` (the QL with rotations, the D&C's leaves).
        solver: &'static str,
        /// The first non-finite entry the solver was handed, or the
        /// first row of the block still unreduced when the iteration cap
        /// ran out.
        index: usize,
    },
}

impl From<ca_dla::tridiag::NoConvergence> for EigenError {
    fn from(e: ca_dla::tridiag::NoConvergence) -> Self {
        Self::ConvergenceFailure {
            solver: e.solver,
            index: e.index,
        }
    }
}

impl fmt::Display for EigenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NonSquareInput { rows, cols } => {
                write!(f, "input must be square (got {rows} × {cols})")
            }
            Self::TooSmall { n } => {
                write!(f, "matrix dimension must be at least 2 (got n = {n})")
            }
            Self::AsymmetricInput { asymmetry } => {
                write!(
                    f,
                    "input must be symmetric (relative asymmetry {asymmetry:.3e})"
                )
            }
            Self::NonFiniteInput { row, col } => {
                write!(
                    f,
                    "input must be finite (non-finite entry at ({row}, {col}))"
                )
            }
            Self::NoProcessors => write!(f, "at least one processor is required (p = 0)"),
            Self::ReplicationMismatch { p, c } => {
                write!(f, "c must divide p (got p = {p}, c = {c})")
            }
            Self::NonSquareGrid { p, c } => {
                write!(
                    f,
                    "p/c = {} must be a perfect square (got p = {p}, c = {c})",
                    if *c == 0 { 0 } else { p / c }
                )
            }
            Self::ReplicationOutOfRegime { p, c } => {
                write!(
                    f,
                    "c = {c} exceeds the paper's c ≤ p^{{1/3}} regime for p = {p}"
                )
            }
            Self::MachineMismatch { machine_p, grid_p } => {
                write!(
                    f,
                    "the grid needs {grid_p} processors but the machine has {machine_p}"
                )
            }
            Self::InvalidBandwidth { n, b } => {
                write!(
                    f,
                    "band-width must satisfy 1 ≤ b < n (got b = {b}, n = {n})"
                )
            }
            Self::InvalidTargetBandwidth { b, h } => {
                write!(
                    f,
                    "target band-width must satisfy 1 ≤ h ≤ band-width (got h = {h}, b = {b})"
                )
            }
            Self::Deadline {
                timeout_ms,
                waited_ms,
            } => {
                write!(
                    f,
                    "job missed its deadline (timeout {timeout_ms} ms, waited {waited_ms} ms in queue)"
                )
            }
            Self::QueueFull { capacity } => {
                write!(
                    f,
                    "service queue is full (capacity {capacity}); resubmit later"
                )
            }
            Self::ServiceShutdown => write!(f, "service is shut down"),
            Self::ConvergenceFailure { solver, index } => {
                write!(
                    f,
                    "sequential eigensolve did not converge ({solver}, eigenvalue index {index}) — \
                     is the input finite?"
                )
            }
        }
    }
}

impl std::error::Error for EigenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_offending_values() {
        let cases: Vec<(EigenError, &str)> = vec![
            (EigenError::NonSquareInput { rows: 3, cols: 4 }, "3 × 4"),
            (EigenError::TooSmall { n: 1 }, "n = 1"),
            (
                EigenError::NonFiniteInput { row: 2, col: 5 },
                "non-finite entry at (2, 5)",
            ),
            (EigenError::NoProcessors, "p = 0"),
            (
                EigenError::ReplicationMismatch { p: 10, c: 3 },
                "c must divide p",
            ),
            (EigenError::NonSquareGrid { p: 24, c: 2 }, "perfect square"),
            (
                EigenError::MachineMismatch {
                    machine_p: 4,
                    grid_p: 16,
                },
                "needs 16 processors but the machine has 4",
            ),
            (
                EigenError::ReplicationOutOfRegime { p: 8, c: 4 },
                "c ≤ p^{1/3}",
            ),
            (
                EigenError::ConvergenceFailure {
                    solver: "tridiag_eigen",
                    index: 7,
                },
                "did not converge",
            ),
            (
                EigenError::Deadline {
                    timeout_ms: 5,
                    waited_ms: 9,
                },
                "timeout 5 ms, waited 9 ms",
            ),
            (EigenError::QueueFull { capacity: 4 }, "capacity 4"),
            (EigenError::ServiceShutdown, "shut down"),
        ];
        for (e, needle) in cases {
            let msg = e.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }

    #[test]
    fn implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&EigenError::NoProcessors);
    }
}
