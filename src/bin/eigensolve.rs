#![allow(clippy::needless_range_loop)]
//! `eigensolve` — command-line front end to the communication-avoiding
//! symmetric eigensolver.
//!
//! ```text
//! USAGE:
//!   eigensolve [OPTIONS]
//!
//! OPTIONS:
//!   --n <N>            matrix dimension (any n ≥ 2; default 128)
//!   --p <P>            virtual processors (default 16)
//!   --c <C>            replication factor (default 1; p/c must be square)
//!   --input <FILE>     read a dense symmetric matrix (CSV rows) instead
//!                      of generating one
//!   --kind <KIND>      generator when no input: spectrum | random |
//!                      tightbinding | laplacian (default spectrum)
//!   --seed <SEED>      generator seed (default 42)
//!   --vectors          also compute eigenvectors (reports residual)
//!   --json             emit results as JSON on stdout
//!   --algorithm <A>    2.5d | scalapack | elpa (default 2.5d); the
//!                      baselines take neither --vectors nor --c ≠ 1
//! ```
//!
//! Prints the eigenvalues and the machine's F/W/Q/S cost record.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::{gen, Matrix};
use ca_symm_eig::eigen::baselines::{elpa_two_stage, scalapack::scalapack_eigenvalues};
use ca_symm_eig::eigen::{try_symm_eigen_25d, try_symm_eigen_25d_vectors, EigenParams};
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{ErrorKind, Write};

fn arg(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Print `eigensolve: <msg>` and exit with code 2: the one way this
/// binary reports an error (bad input, or stdout failing other than by
/// its reader closing).
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("eigensolve: {msg}");
    std::process::exit(2)
}

/// The integer value of option `name`, or `default` when it is absent.
fn int_arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    match arg(name) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(format!("{name} expects a non-negative integer, got {v:?}"))),
    }
}

fn main() {
    let n: usize = int_arg("--n", 128);
    let p: usize = int_arg("--p", 16);
    let c: usize = int_arg("--c", 1);
    let seed: u64 = int_arg("--seed", 42);
    if p == 0 {
        fail("--p must be at least 1");
    }
    let kind = arg("--kind").unwrap_or_else(|| "spectrum".into());
    let algorithm = arg("--algorithm").unwrap_or_else(|| "2.5d".into());
    let want_vectors = flag("--vectors");
    let json = flag("--json");
    // The baselines compute eigenvalues on a 2D grid: refuse what they
    // would otherwise drop without a word.
    if matches!(algorithm.as_str(), "scalapack" | "elpa") {
        if want_vectors {
            fail(format!("--vectors needs --algorithm 2.5d, not {algorithm}"));
        }
        if c != 1 {
            fail(format!("--c {c} needs --algorithm 2.5d, not {algorithm}"));
        }
    }

    // Build or load the matrix.
    let a: Matrix = if let Some(path) = arg("--input") {
        load_csv(&path).unwrap_or_else(|e| fail(format!("{path}: {e}")))
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind.as_str() {
            "spectrum" => {
                gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -5.0, 5.0))
            }
            "random" => gen::random_symmetric(&mut rng, n),
            "tightbinding" => gen::tight_binding_ring(&mut rng, n, 1.0, 2.0),
            "laplacian" => {
                let side = (n as f64).sqrt().round() as usize;
                gen::laplacian_2d(side, n / side.max(1))
            }
            other => fail(format!("unknown --kind {other}")),
        }
    };
    let n = a.rows();
    if n < 2 {
        fail(format!("matrix dimension must be at least 2 (got n = {n})"));
    }

    let machine = Machine::new(MachineParams::new(p));
    let mut residual = None;
    let eigenvalues = match algorithm.as_str() {
        "2.5d" => {
            // The typed-error entry points: a bad grid or input prints
            // a one-line diagnostic instead of a panic backtrace.
            let params = EigenParams::try_new(p, c).unwrap_or_else(|e| fail(e));
            if want_vectors {
                let (ev, v, _) =
                    try_symm_eigen_25d_vectors(&machine, &params, &a).unwrap_or_else(|e| fail(e));
                // Residual ‖A·V − V·Λ‖_max.
                let av = matmul(&a, Trans::N, &v, Trans::N);
                let mut vl = v.clone();
                for i in 0..n {
                    for j in 0..n {
                        vl.set(i, j, v.get(i, j) * ev[j]);
                    }
                }
                residual = Some(av.max_diff(&vl));
                ev
            } else {
                try_symm_eigen_25d(&machine, &params, &a)
                    .unwrap_or_else(|e| fail(e))
                    .0
            }
        }
        "scalapack" => scalapack_eigenvalues(&machine, &Grid::all(p).squarest_2d(), &a),
        "elpa" => {
            // ELPA's first stage runs on a square 2D grid.
            EigenParams::try_new(p, 1).unwrap_or_else(|e| fail(e));
            elpa_two_stage(&machine, p, &a)
        }
        other => fail(format!("unknown --algorithm {other}")),
    };

    let costs = machine.report();
    let report = |out: &mut dyn Write| -> std::io::Result<()> {
        if json {
            let evs: Vec<String> = eigenvalues.iter().map(|v| format!("{v}")).collect();
            writeln!(
                out,
                "{{\"n\":{n},\"p\":{p},\"c\":{c},\"algorithm\":\"{algorithm}\",\"eigenvalues\":[{}],\
                 \"flops\":{},\"horizontal_words\":{},\"vertical_words\":{},\"supersteps\":{}{}}}",
                evs.join(","),
                costs.flops,
                costs.horizontal_words,
                costs.vertical_words,
                costs.supersteps,
                residual.map(|r| format!(",\"residual\":{r}")).unwrap_or_default()
            )?;
        } else {
            writeln!(
                out,
                "eigensolve: n = {n}, p = {p}, c = {c}, algorithm = {algorithm}"
            )?;
            writeln!(
                out,
                "costs: F = {}, W = {}, Q = {}, S = {}, peak M = {}",
                costs.flops,
                costs.horizontal_words,
                costs.vertical_words,
                costs.supersteps,
                costs.peak_memory_words
            )?;
            if let Some(r) = residual {
                writeln!(out, "eigenvector residual ‖A·V − V·Λ‖_max = {r:.3e}")?;
            }
            writeln!(out, "eigenvalues (ascending):")?;
            for chunk in eigenvalues.chunks(8) {
                let line: Vec<String> = chunk.iter().map(|v| format!("{v:>12.6}")).collect();
                writeln!(out, "  {}", line.join(" "))?;
            }
        }
        out.flush()
    };
    if let Err(e) = report(&mut std::io::stdout().lock()) {
        // A reader that closed its end early (`eigensolve … | head`) has
        // read all it wanted: exit 0, say nothing.
        if e.kind() != ErrorKind::BrokenPipe {
            fail(format!("writing stdout: {e}"));
        }
    }
}

/// A dense symmetric matrix from CSV rows: every entry a finite number,
/// as many rows as columns, and symmetric to `1e-8` relative.
fn load_csv(path: &str) -> Result<Matrix, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let rows = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| {
            l.split(',')
                .map(|tok| match tok.trim().parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(v),
                    _ => Err(format!(
                        "row {}: {:?} is not a finite number",
                        i + 1,
                        tok.trim()
                    )),
                })
                .collect::<Result<Vec<f64>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    let n = rows.len();
    if n == 0 {
        return Err("empty matrix".into());
    }
    if let Some(i) = rows.iter().position(|r| r.len() != n) {
        return Err(format!(
            "matrix must be square: row {} has {} entries, expected {n}",
            i + 1,
            rows[i].len()
        ));
    }
    let mut a = Matrix::zeros(n, n);
    for (i, r) in rows.iter().enumerate() {
        for (j, v) in r.iter().enumerate() {
            a.set(i, j, *v);
        }
    }
    if a.asymmetry() >= 1e-8 * a.norm_max().max(1.0) {
        return Err("input matrix must be symmetric".into());
    }
    Ok(a)
}
