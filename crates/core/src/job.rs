//! Job and result types for batched / multi-tenant serving.
//!
//! A [`SymmEigenJob`] packages one independent eigenproblem — the
//! matrix, grid parameters, whether eigenvectors are wanted, and an
//! optional scheduling deadline — into a value that can be queued,
//! moved across threads, and solved anywhere. [`solve_job`] is the
//! *one* execution path for a job: the `ca-service` scheduler calls it
//! from its worker threads, and a solo (unbatched, unscheduled)
//! reference run is the same function called directly. Bit-identity
//! between service and solo results is therefore structural: both run
//! byte-for-byte the same code, the solver has no process-global
//! configuration to diverge on, and it is deterministic (serial ↔
//! parallel equivalence is pinned by the determinism suites).

use crate::error::EigenError;
use crate::params::EigenParams;
use crate::solver::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, StageCosts};
use ca_bsp::{Machine, MachineParams};
use ca_dla::Matrix;
use std::time::Duration;

/// One independent symmetric eigenproblem, ready to be queued.
#[derive(Debug, Clone)]
pub struct SymmEigenJob {
    /// The symmetric input matrix (validated at solve time).
    pub a: Matrix,
    /// Virtual machine / grid parameters for this job.
    pub params: EigenParams,
    /// Whether eigenvectors are wanted (the §IV.C extension) or
    /// eigenvalues only.
    pub want_vectors: bool,
    /// Optional scheduling deadline: if the job is still queued when
    /// this much time has passed since submission, it is cancelled with
    /// [`EigenError::Deadline`] instead of being started. `None` waits
    /// indefinitely.
    pub timeout: Option<Duration>,
}

impl SymmEigenJob {
    /// A values-only job on a `p`-processor machine with replication
    /// factor `c` (panics on invalid grid parameters, like
    /// [`EigenParams::new`]).
    pub fn values(a: Matrix, p: usize, c: usize) -> Self {
        Self {
            a,
            params: EigenParams::new(p, c),
            want_vectors: false,
            timeout: None,
        }
    }

    /// A values-and-vectors job (see [`SymmEigenJob::values`]).
    pub fn with_vectors(a: Matrix, p: usize, c: usize) -> Self {
        Self {
            want_vectors: true,
            ..Self::values(a, p, c)
        }
    }

    /// Set the scheduling deadline, by value (builder style).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Problem dimension.
    pub fn n(&self) -> usize {
        self.a.rows()
    }
}

/// The completed output of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Ascending eigenvalues.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors when the job asked for them.
    pub vectors: Option<Matrix>,
    /// Per-stage cost record of the solve (each job runs on its own
    /// fresh virtual machine, so ledgers never mix across tenants).
    pub costs: StageCosts,
}

/// Solve one job.
///
/// Creates a fresh [`Machine`] for the job (ledger isolation between
/// tenants) and dispatches to the values-only or vectors solver. This
/// function is deliberately the only way jobs are executed — see the
/// module docs for the determinism argument.
pub fn solve_job(job: &SymmEigenJob) -> Result<JobResult, EigenError> {
    let machine = Machine::new(MachineParams::new(job.params.p));
    if job.want_vectors {
        let (eigenvalues, vectors, costs) =
            try_symm_eigen_25d_vectors(&machine, &job.params, &job.a)?;
        Ok(JobResult {
            eigenvalues,
            vectors: Some(vectors),
            costs,
        })
    } else {
        let (eigenvalues, costs) = try_symm_eigen_25d(&machine, &job.params, &job.a)?;
        Ok(JobResult {
            eigenvalues,
            vectors: None,
            costs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_dla::gen;
    use ca_dla::tridiag::spectrum_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn solve_job_matches_direct_solver_call() {
        let mut rng = StdRng::seed_from_u64(32);
        let spectrum = gen::linspace_spectrum(32, -2.0, 2.0);
        let job = SymmEigenJob::values(gen::symmetric_with_spectrum(&mut rng, &spectrum), 4, 1);
        let out = solve_job(&job).expect("solve");
        assert!(spectrum_distance(&out.eigenvalues, &spectrum) < 1e-8);
        assert!(out.vectors.is_none());
        assert!(out.costs.total().flops > 0);

        let machine = Machine::new(MachineParams::new(4));
        let (direct, _) = try_symm_eigen_25d(&machine, &job.params, &job.a).expect("direct");
        assert_eq!(
            out.eigenvalues
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            direct.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "solve_job must be bit-identical to a direct solver call"
        );
    }

    #[test]
    fn invalid_jobs_surface_typed_errors() {
        let job = SymmEigenJob::values(Matrix::from_vec(2, 3, vec![0.0; 6]), 4, 1);
        assert!(matches!(
            solve_job(&job),
            Err(EigenError::NonSquareInput { rows: 2, cols: 3 })
        ));
    }
}
