//! Inputs, the one way the harness solves them, and the correctness
//! checks every operation goes through.
//!
//! An operation fails if it returns `Err`, if its eigenvalues miss the
//! prescribed spectrum, if (with vectors) the residual or the
//! orthogonality defect exceeds the tolerance the conformance oracle
//! uses (`5e-9 · n`, `crates/conformance/src/oracle.rs`; re-implemented
//! here so the benchmark depends on no test crate), or if its output
//! bits or its F/W/Q/S ledger differ from the first solve of the same
//! input — the repository's determinism invariant.

use ca_bsp::{Costs, Machine, MachineParams};
use ca_dla::gemm::{matmul, Trans};
use ca_dla::{gen, Matrix};
use ca_eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams, StageCosts};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spectrum {
    /// Evenly spaced in `[-1, 1]`: nothing deflates, the worst case
    /// for divide and conquer.
    Linspace,
    /// 12 clusters of half-width `1e-7`: heavy deflation.
    Clustered,
}

impl Spectrum {
    pub fn values(self, n: usize) -> Vec<f64> {
        match self {
            Spectrum::Linspace => gen::linspace_spectrum(n, -1.0, 1.0),
            Spectrum::Clustered => gen::clustered_spectrum(n, 12.min(n), -1.0, 1.0, 1e-7),
        }
    }
}

/// One symmetric eigenproblem with its prescribed spectrum.
pub struct Problem {
    pub a: Matrix,
    pub spectrum: Vec<f64>,
    pub p: usize,
    pub c: usize,
    pub vectors: bool,
}

/// What one solve returned, with its wall time.
pub struct Solved {
    pub eigenvalues: Vec<f64>,
    pub vectors: Option<Matrix>,
    pub costs: StageCosts,
    pub wall_s: f64,
}

/// The first solve of an input: later solves must reproduce its bits
/// and its ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    pub hash: u64,
    pub ledger: Costs,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Defects {
    pub spectrum_error: f64,
    pub residual: f64,
    pub orthogonality: f64,
}

impl Problem {
    pub fn generate(
        seed: u64,
        n: usize,
        p: usize,
        c: usize,
        vectors: bool,
        spectrum: Spectrum,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let spectrum = spectrum.values(n);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        Self {
            a,
            spectrum,
            p,
            c,
            vectors,
        }
    }

    pub fn n(&self) -> usize {
        self.a.rows()
    }

    /// Solve on a fresh virtual machine, as a caller of the library
    /// would; the machine's construction is part of the timed call.
    pub fn solve(&self) -> Result<Solved, String> {
        let t0 = Instant::now();
        let machine = Machine::new(MachineParams::new(self.p));
        let params = EigenParams::new(self.p, self.c);
        let (eigenvalues, vectors, costs) = if self.vectors {
            let (ev, v, costs) = try_symm_eigen_25d_vectors(&machine, &params, &self.a)
                .map_err(|e| e.to_string())?;
            (ev, Some(v), costs)
        } else {
            let (ev, costs) =
                try_symm_eigen_25d(&machine, &params, &self.a).map_err(|e| e.to_string())?;
            (ev, None, costs)
        };
        Ok(Solved {
            eigenvalues,
            vectors,
            costs,
            wall_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// The numerical checks: spectrum, and with vectors the residual
    /// `‖AV − VΛ‖_max / (n‖A‖_max)` and `‖VᵀV − I‖_max`.
    pub fn verify(&self, eigenvalues: &[f64], vectors: Option<&Matrix>) -> Result<Defects, String> {
        let n = self.n();
        let tol = 5e-9 * n as f64;
        let scale = self.a.norm_max().max(1.0);
        if eigenvalues.len() != n {
            return Err(format!("{} eigenvalues for n = {n}", eigenvalues.len()));
        }
        let mut d = Defects {
            spectrum_error: eigenvalues
                .iter()
                .zip(&self.spectrum)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)
                / scale,
            ..Defects::default()
        };
        // NaN is not below the tolerance either, so it fails too.
        let below = |what: &str, x: f64| {
            if x < tol {
                Ok(())
            } else {
                Err(format!("{what} {x:.3e} is not below {tol:.3e}"))
            }
        };
        below("spectrum error", d.spectrum_error)?;
        match (self.vectors, vectors) {
            (false, None) => {}
            (true, Some(v)) => {
                let av = matmul(&self.a, Trans::N, v, Trans::N);
                let mut vl = v.clone();
                for i in 0..n {
                    for (x, lambda) in vl.row_mut(i).iter_mut().zip(eigenvalues) {
                        *x *= lambda;
                    }
                }
                d.residual = av.max_diff(&vl) / (n as f64 * scale);
                d.orthogonality = matmul(v, Trans::T, v, Trans::N).max_diff(&Matrix::identity(n));
                below("residual", d.residual)?;
                below("orthogonality defect", d.orthogonality)?;
            }
            _ => return Err("eigenvectors present exactly when asked for".into()),
        }
        Ok(d)
    }
}

/// FNV-1a over the bit patterns of the eigenvalues, then the vectors.
pub fn output_hash(eigenvalues: &[f64], vectors: Option<&Matrix>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = eigenvalues
        .iter()
        .chain(vectors.map_or(&[][..], |v| v.data()));
    for x in words {
        h ^= x.to_bits();
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn reference_of(
    eigenvalues: &[f64],
    vectors: Option<&Matrix>,
    costs: &StageCosts,
) -> Reference {
    Reference {
        hash: output_hash(eigenvalues, vectors),
        ledger: costs.aggregate(""),
    }
}
