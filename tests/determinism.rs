#![allow(clippy::needless_range_loop)]
//! Determinism: the virtual machine is single-threaded by design, so a
//! run is a pure function of (matrix, machine configuration) — same
//! inputs must give bitwise-identical eigenvalues *and* identical cost
//! ledgers. This is what makes the experiment harness's numbers
//! reproducible and the cost-regression tests meaningful.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::bulge::BlockReflector;
use ca_symm_eig::dla::{gen, BandedSym, Matrix};
use ca_symm_eig::eigen::{
    ca_sbr, lang_band_to_tridiagonal, try_full_to_band, try_symm_eigen_25d,
    try_symm_eigen_25d_vectors, EigenParams,
};
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_once(n: usize, p: usize, c: usize, seed: u64) -> (Vec<f64>, ca_symm_eig::bsp::Costs) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = gen::random_symmetric(&mut rng, n);
    let m = Machine::new(MachineParams::new(p));
    let (ev, _) = try_symm_eigen_25d(&m, &EigenParams::new(p, c), &a).unwrap();
    (ev, m.report())
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    let (ev1, c1) = run_once(64, 16, 1, 42);
    let (ev2, c2) = run_once(64, 16, 1, 42);
    assert_eq!(ev1, ev2, "eigenvalues must be bitwise identical");
    assert_eq!(c1, c2, "cost ledgers must be identical");
}

#[test]
fn generator_is_seed_deterministic() {
    let mut r1 = StdRng::seed_from_u64(7);
    let mut r2 = StdRng::seed_from_u64(7);
    let a1 = gen::symmetric_with_spectrum(&mut r1, &gen::linspace_spectrum(16, -1.0, 1.0));
    let a2 = gen::symmetric_with_spectrum(&mut r2, &gen::linspace_spectrum(16, -1.0, 1.0));
    assert_eq!(a1, a2);
}

#[test]
fn vectors_path_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(43);
    let a = gen::random_symmetric(&mut rng, 32);
    let run = |a: &Matrix| {
        let m = Machine::new(MachineParams::new(4));
        let (ev, v, _) = try_symm_eigen_25d_vectors(&m, &EigenParams::new(4, 1), a).unwrap();
        (ev, v)
    };
    let (ev1, v1) = run(&a);
    let (ev2, v2) = run(&a);
    assert_eq!(ev1, ev2);
    assert_eq!(v1, v2);
}

#[test]
fn cost_ledger_independent_of_matrix_values() {
    // Costs depend only on structure (sizes, configuration) — two
    // different matrices of the same shape must produce the same ledger.
    let (_, c1) = run_once(64, 16, 1, 1);
    let (_, c2) = run_once(64, 16, 1, 2);
    assert_eq!(
        c1.horizontal_words, c2.horizontal_words,
        "W must be data-independent"
    );
    assert_eq!(c1.supersteps, c2.supersteps);
    assert_eq!(c1.flops, c2.flops);

    // The vectors path too, down to its sparsest input: on diag(0..n)
    // every reduction reflector is the identity, and the recorded
    // transforms — hence the back-transformation's charges — must still
    // have the shapes they have on a dense input.
    let n = 64;
    let mut rng = StdRng::seed_from_u64(1);
    let dense = gen::random_symmetric(&mut rng, n);
    let diag = Matrix::from_fn(n, n, |i, j| if i == j { i as f64 } else { 0.0 });
    let vectors_ledger = |a: &Matrix| {
        let m = Machine::new(MachineParams::new(16));
        try_symm_eigen_25d_vectors(&m, &EigenParams::new(16, 1), a).unwrap();
        m.report()
    };
    assert_eq!(
        vectors_ledger(&dense),
        vectors_ledger(&diag),
        "the vectors path's ledger must be data-independent"
    );
}

/// A stage that can record its transforms.
type Recording<'a> = &'a dyn Fn(&Machine, Option<&mut Vec<BlockReflector>>) -> BandedSym;

#[test]
fn recording_changes_no_bit_and_no_charge() {
    // The vectors path runs the same stages as the values path with
    // `rec: Some`: the record is a by-product, never an input, so the
    // band and the ledger are those of `rec: None` bit for bit.
    let mut rng = StdRng::seed_from_u64(45);
    let dense = gen::random_symmetric(&mut rng, 48);
    let band = BandedSym::from_dense(&gen::random_banded(&mut rng, 48, 8), 8, 8);
    let (params, grid) = (EigenParams::new(4, 1), Grid::all(4));
    let stages: [(&str, Recording); 3] = [
        ("full→band", &|m, rec| {
            try_full_to_band(m, &params, &dense, 8, rec).unwrap()
        }),
        ("CA-SBR", &|m, rec| ca_sbr(m, &grid, band.clone(), rec)),
        ("Lang", &|m, rec| {
            lang_band_to_tridiagonal(m, &grid, &band, rec)
        }),
    ];
    let bits = |b: &BandedSym| {
        (
            b.bandwidth(),
            b.bands().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        )
    };
    for (name, stage) in stages {
        let (plain_m, rec_m) = (
            Machine::new(MachineParams::new(4)),
            Machine::new(MachineParams::new(4)),
        );
        let plain = stage(&plain_m, None);
        let mut rec = Vec::new();
        let recorded = stage(&rec_m, Some(&mut rec));
        assert!(!rec.is_empty(), "{name}: recorded nothing");
        assert_eq!(
            bits(&plain),
            bits(&recorded),
            "{name}: recording changed the band"
        );
        assert_eq!(
            plain_m.report(),
            rec_m.report(),
            "{name}: recording changed the ledger"
        );
    }
}

/// FNV-1a over the exact bit patterns of a stream of `f64`s.
fn bit_hash(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

#[test]
fn eigenvalue_bits_are_pinned_on_the_replicated_grid() {
    // p = 64, c = 4 is the q = 4, four-layer grid whose full→band
    // trailing updates run through Streaming-MM with c > 1; the ledger
    // pins elsewhere do not cover the output bits there. Re-run with
    // `UPDATE_GOLDEN=1 cargo test --test determinism -- --nocapture`
    // to print the hash after an intentional numerics change. Last
    // re-pinned (617e48a81696c4be → a5499afbe2ddcaef) when the values
    // finale's tridiagonal solver became `dsterf`'s root-free QL.
    let (ev, _) = run_once(128, 64, 4, 44);
    let got = bit_hash(&ev);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!("0x{got:016x}");
        return;
    }
    assert_eq!(
        format!("{got:016x}"),
        "a5499afbe2ddcaef",
        "eigenvalue bits drifted from their pin"
    );
}
