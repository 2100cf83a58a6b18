//! Steady-state behaviour of the workspace's one threading runtime.
//!
//! * **No thread per superstep.** After a warm-up solve the runtime's
//!   `stats().spawns` count does not move across 20 repeated solves at
//!   (n, p, c) = (129, 4, 1) and (100, 8, 2), nor across 200
//!   `EigenService` jobs: every thread the system owns is created once,
//!   through one spawn site, and lives on.
//! * **Schedule independence.** The same solves under
//!   `RAYON_NUM_THREADS` ∈ {1, 2, 4} — inline, the default width on the
//!   reference host, and a pool wider than its cores — give identical
//!   eigenvalue bits and identical per-processor ledgers. The pool size
//!   is read once per process, so each leg is a subprocess of this test
//!   binary (the pattern of `tests/trace_knob.rs`).
//! * **Isolation.** Solves running concurrently on the shared pool keep
//!   their own bits and ledgers.
//!
//! `stats().spawns` is process-global and counts the runtime's own
//! spawn site only, so everything that goes through that site (the
//! pool, a service) lives in the one test that reads the count.

use ca_service::{EigenService, ServiceConfig, SymmEigenJob};
use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::{gen, rt, Matrix};
use ca_symm_eig::dla::{gemm, Trans};
use ca_symm_eig::eigen::{try_symm_eigen_25d, EigenParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

/// (n, p, c): a 2D grid with a ragged panel split, and a replicated
/// grid that also runs band→band.
const SHAPES: [(usize, usize, usize); 2] = [(129, 4, 1), (100, 8, 2)];

fn input(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -2.0, 2.0))
}

/// FNV-1a over a stream of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// Solve one shape on a fresh machine; hash the eigenvalue bits and the
/// per-processor F / W / S ledgers plus the folded report.
fn solve_hashes(n: usize, p: usize, c: usize) -> (u64, u64) {
    let machine = Machine::new(MachineParams::new(p));
    let (ev, _) = try_symm_eigen_25d(&machine, &EigenParams::new(p, c), &input(n, 11))
        .expect("well-formed input");
    let report = machine.report();
    let ledger = machine
        .flops_per_proc()
        .into_iter()
        .chain(machine.comm_per_proc())
        .chain(machine.steps_per_proc())
        .chain([
            report.flops,
            report.horizontal_words,
            report.vertical_words,
            report.supersteps,
            report.peak_memory_words,
        ]);
    (fnv(ev.iter().map(|v| v.to_bits())), fnv(ledger))
}

#[test]
fn spawns_stay_flat_after_warm_up() {
    // Solver: one warm-up per shape starts the pool (if this host has
    // one), then nothing may be created again.
    let reference: Vec<_> = SHAPES
        .iter()
        .map(|&(n, p, c)| solve_hashes(n, p, c))
        .collect();
    let after_warm_up = rt::stats().spawns;
    assert!(
        after_warm_up <= rt::current_num_threads() as u64,
        "the pool is at most current_num_threads() - 1 workers"
    );
    for _ in 0..20 {
        for (&(n, p, c), want) in SHAPES.iter().zip(&reference) {
            assert_eq!(
                solve_hashes(n, p, c),
                *want,
                "bits or ledger moved between solves"
            );
        }
    }
    assert_eq!(rt::stats().spawns, after_warm_up, "a solve created a thread");

    // Service: its workers are counted too, once, at construction.
    let workers = 2;
    let service = EigenService::new(ServiceConfig {
        workers,
        ..ServiceConfig::default()
    });
    assert_eq!(rt::stats().spawns, after_warm_up + workers as u64);
    let job = |i: usize| {
        let n = [8, 24, 48, 96][i % 4];
        if i % 4 == 3 {
            SymmEigenJob::with_vectors(input(n, i as u64), 4, 1)
        } else {
            SymmEigenJob::values(input(n, i as u64), 4, 1)
        }
    };
    for r in service.solve_batch((0..16).map(job)) {
        r.expect("warm-up job");
    }
    let warm = rt::stats().spawns;
    for round in 0..25 {
        for r in service.solve_batch((0..8).map(|i| job(8 * round + i))) {
            r.expect("job");
        }
    }
    assert_eq!(rt::stats().spawns, warm, "serving 200 jobs created a thread");
}

#[test]
fn concurrent_solves_keep_their_own_bits_and_ledgers() {
    // Three caller threads share the one pool: a thread waiting for the
    // pieces of one solve's fork runs pieces of another's superstep.
    // Each solve must still see exactly its own charges.
    let (n, p, c) = SHAPES[0];
    let want = solve_hashes(n, p, c);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                for _ in 0..4 {
                    assert_eq!(solve_hashes(n, p, c), want);
                }
            });
        }
    });
}

/// Subprocess payload: solve both shapes under whatever pool size the
/// parent set and print the hashes.
#[test]
#[ignore = "subprocess payload for schedule_independence_across_pool_sizes"]
fn inner_emit_hashes() {
    // Start the pool the way a large solve would: the rank bodies are
    // a walk and no product at these sizes reaches GEMM's fork
    // threshold, so little below would wake it, and the spawn count must
    // show that the solves add nothing to a running pool.
    let (a, b) = (Matrix::identity(128), Matrix::zeros(128, 256));
    let mut c = Matrix::zeros(128, 256);
    gemm(1.0, &a, Trans::N, &b, Trans::N, 0.0, &mut c);
    let line: Vec<String> = SHAPES
        .iter()
        .map(|&(n, p, c)| {
            let (bits, ledger) = solve_hashes(n, p, c);
            format!("{bits:016x}/{ledger:016x}")
        })
        .collect();
    println!(
        "HASHES={} THREADS={} SPAWNS={}",
        line.join(","),
        rt::current_num_threads(),
        rt::stats().spawns
    );
}

#[test]
fn schedule_independence_across_pool_sizes() {
    let leg = |threads: &str| -> String {
        let exe = std::env::current_exe().expect("test binary path");
        let out = Command::new(exe)
            .args(["--ignored", "--exact", "inner_emit_hashes", "--nocapture"])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("spawn test subprocess");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "leg RAYON_NUM_THREADS={threads} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout
            .lines()
            .find(|l| l.contains("HASHES="))
            .unwrap_or_else(|| panic!("no HASHES line:\n{stdout}"));
        let field = |key: &str| -> String {
            line.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("missing {key} in {line:?}"))
                .to_string()
        };
        assert_eq!(
            field("THREADS"),
            threads,
            "the leg ignored RAYON_NUM_THREADS"
        );
        // A pool of t threads is t − 1 workers, started once.
        let workers: u64 = threads.parse::<u64>().expect("numeric leg") - 1;
        assert_eq!(field("SPAWNS"), workers.to_string());
        field("HASHES")
    };
    let inline = leg("1");
    assert_eq!(leg("2"), inline, "2 threads changed bits or ledgers");
    assert_eq!(leg("4"), inline, "4 threads changed bits or ledgers");
}
