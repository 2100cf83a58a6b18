//! Shared infrastructure for the experiment harness.
//!
//! Every experiment binary (Table I, Figures 1–2, the lemma-shape
//! sweeps and the ablations — see DESIGN.md §4) uses these helpers to
//! run an eigensolver configuration on a fresh virtual machine, collect
//! the `F/W/Q/S/M` ledger, fit scaling exponents, and emit both a
//! human-readable table and a JSON-lines record under `results/`.

// Index-heavy numerical code: range loops over several arrays at once
// are the clearer idiom here.
#![allow(clippy::needless_range_loop)]

use ca_bsp::{Machine, MachineParams};
use ca_dla::{gen, Matrix};
use ca_eigen::baselines::{elpa_two_stage, scalapack::scalapack_eigenvalues};
use ca_eigen::{ca_sbr, try_symm_eigen_25d, EigenParams};
use ca_pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Which eigensolver to run for a comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Direct blocked tridiagonalization (Table I row "ScaLAPACK").
    ScaLapack,
    /// Two-stage 2D reduction (Table I row "ELPA").
    Elpa,
    /// Full-to-band (2D) + CA-SBR halvings (Table I row "CA-SBR").
    CaSbr,
    /// The paper's algorithm (Table I row "Theorem IV.4") with
    /// replication factor `c`.
    TwoPointFiveD { c: usize },
}

impl Algorithm {
    /// Display name.
    pub fn name(&self) -> String {
        match self {
            Algorithm::ScaLapack => "scalapack-style".into(),
            Algorithm::Elpa => "elpa-style".into(),
            Algorithm::CaSbr => "ca-sbr".into(),
            Algorithm::TwoPointFiveD { c } => format!("2.5d (c={c})"),
        }
    }
}

/// Outcome of one solver run: measured costs plus the eigenvalue error
/// against the prescribed spectrum (every experiment doubles as a
/// correctness check).
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    pub algorithm: String,
    pub n: usize,
    pub p: usize,
    pub flops: u64,
    pub horizontal_words: u64,
    pub vertical_words: u64,
    pub supersteps: u64,
    pub peak_memory_words: u64,
    pub spectrum_error: f64,
}

/// Run `alg` on an `n×n` matrix with prescribed spectrum on `p` virtual
/// processors; panics if the computed eigenvalues are wrong.
pub fn run_eigensolver(alg: Algorithm, n: usize, p: usize, seed: u64) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let machine = Machine::new(MachineParams::new(p));

    let ev = match alg {
        Algorithm::ScaLapack => {
            let g = Grid::all(p).squarest_2d();
            scalapack_eigenvalues(&machine, &g, &a)
        }
        Algorithm::Elpa => elpa_two_stage(&machine, p, &a),
        Algorithm::CaSbr => casbr_eigensolver(&machine, p, &a),
        Algorithm::TwoPointFiveD { c } => {
            let params = EigenParams::new(p, c);
            try_symm_eigen_25d(&machine, &params, &a).unwrap().0
        }
    };
    let err = ca_dla::tridiag::spectrum_distance(&ev, &spectrum);
    assert!(
        err < 1e-6 * n as f64,
        "{} n={n} p={p}: spectrum error {err}",
        alg.name()
    );
    let costs = machine.report();
    RunResult {
        algorithm: alg.name(),
        n,
        p,
        flops: costs.flops,
        horizontal_words: costs.horizontal_words,
        vertical_words: costs.vertical_words,
        supersteps: costs.supersteps,
        peak_memory_words: costs.peak_memory_words,
        spectrum_error: err,
    }
}

/// The Table-I "CA-SBR" row: a 2D full→band reduction followed by
/// successive CA-SBR halvings to band-width `n/p`, then a sequential
/// solve (the successive-band-reduction eigensolver of \[12\]).
fn casbr_eigensolver(machine: &Machine, p: usize, a: &Matrix) -> Vec<f64> {
    let n = a.rows();
    let params = EigenParams::new(p, 1);
    let b = params.initial_bandwidth(n);
    let (mut band, _) = ca_eigen::try_full_to_band(machine, &params, a, b, None).unwrap();
    let grid = Grid::all(p);
    let target = (n / p).max(1);
    while band.bandwidth() > target && band.bandwidth() >= 2 {
        // Lemma IV.2 is valid for b ≤ n/p̂: use at most n/b processors
        // per halving (the 1D pipeline cannot use more anyway).
        let active = grid.prefix((n / band.bandwidth()).clamp(1, p));
        band = ca_sbr(machine, &active, &band, None);
    }
    ca_pla::coll::gather(
        machine,
        &grid,
        0,
        ((n * (band.bandwidth() + 1)) as u64).div_ceil(p as u64),
    );
    machine.charge_flops(0, 6 * (n as u64) * (band.bandwidth() as u64).pow(2) + 30 * (n as u64).pow(2));
    machine.fence();
    ca_dla::tridiag::try_banded_eigenvalues(&band).unwrap()
}

/// Least-squares slope of `log y` against `log x` — the measured scaling
/// exponent of a sweep.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.max(1e-300).ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    cov / var
}

/// Append a JSON record to `results/<file>.jsonl` (creating `results/`).
pub fn emit_json<T: Serialize>(file: &str, record: &T) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{file}.jsonl"));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open results file");
    writeln!(f, "{}", serde_json::to_string(record).expect("serialize")).expect("write record");
}

/// Print a fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Parse `--quick` / `--n <val>` style flags from `std::env::args`.
pub fn flag_present(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Value of `--<name> <v>` if present.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_fit_recovers_slope() {
        let xs = [2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.powf(-0.5)).collect();
        let e = fit_exponent(&xs, &ys);
        assert!((e + 0.5).abs() < 1e-10);
    }

    #[test]
    fn quick_run_all_algorithms() {
        for alg in [
            Algorithm::ScaLapack,
            Algorithm::Elpa,
            Algorithm::CaSbr,
            Algorithm::TwoPointFiveD { c: 1 },
        ] {
            let r = run_eigensolver(alg, 32, 4, 99);
            assert!(r.horizontal_words > 0);
            assert!(r.flops > 0);
        }
    }
}
