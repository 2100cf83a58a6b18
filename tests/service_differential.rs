//! Differential suite: every job result from a concurrent batch must be
//! **bit-identical** to the same problem solved solo.
//!
//! The service's determinism claim (DESIGN.md §6f) is that scheduling —
//! concurrency, queue interleaving, coalesced batching, pause/resume
//! churn — never changes a single output bit. This suite enforces it
//! over the size/output matrix `n ∈ {2, 48, 65, 129, 257}` (QL finale
//! at or below the D&C leaf size, D&C above), values-only and with
//! vectors. The solo reference is [`ca_service::solve_job`] called
//! directly on this thread — the same function the workers run, so any
//! divergence is a real scheduling leak, not a harness artifact.
//!
//! Also runs under `RAYON_NUM_THREADS=1` and `=4` in CI, covering the
//! "regardless of the pool width" half of the claim (inline ↔ forked
//! bit-identity of the solver itself is pinned by
//! `tests/executor_determinism.rs` and `tests/runtime_steady_state.rs`).

use ca_service::{EigenService, JobResult, ServiceConfig, SymmEigenJob};
use ca_symm_eig::dla::gen;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 5] = [2, 48, 65, 129, 257];

/// Deterministic job for (n, vectors): seeded matrix with a known
/// spectrum.
fn make_job(n: usize, vectors: bool) -> SymmEigenJob {
    let mut rng = StdRng::seed_from_u64(0x9E37 ^ (n as u64) << 2 ^ vectors as u64);
    let spectrum = gen::linspace_spectrum(n, -3.0, 3.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    if vectors {
        SymmEigenJob::with_vectors(a, 4, 1)
    } else {
        SymmEigenJob::values(a, 4, 1)
    }
}

/// Exact bit pattern of a result's numerical outputs.
fn bits(r: &JobResult) -> Vec<u64> {
    let mut out: Vec<u64> = r.eigenvalues.iter().map(|v| v.to_bits()).collect();
    if let Some(v) = &r.vectors {
        out.extend(v.data().iter().map(|x| x.to_bits()));
    }
    out
}

/// The full job matrix: sizes × output modes. Vectors at
/// n = 257 are the most expensive cell (~O(n³) back-transformation);
/// the whole matrix stays well inside CI budgets.
fn job_matrix() -> Vec<(String, SymmEigenJob)> {
    let mut jobs = Vec::new();
    for &n in &SIZES {
        for vectors in [false, true] {
            jobs.push((format!("n={n} vectors={vectors}"), make_job(n, vectors)));
        }
    }
    jobs
}

#[test]
fn concurrent_batch_is_bit_identical_to_solo() {
    let service = EigenService::new(ServiceConfig {
        workers: 4,
        queue_capacity: 64,
        // Floor of 64 exercises both paths: n = 2 and n = 48 coalesce,
        // n ∈ {65, 129, 257} run singly.
        batch_floor: 64,
        ..ServiceConfig::default()
    });
    let jobs = job_matrix();

    // Solo references, computed first on this thread.
    let solo: Vec<Vec<u64>> = jobs
        .iter()
        .map(|(label, j)| {
            bits(&ca_service::solve_job(j).unwrap_or_else(|e| panic!("solo {label}: {e}")))
        })
        .collect();

    // One concurrent submission of the whole matrix.
    let served = service.solve_batch(jobs.iter().map(|(_, j)| j.clone()));
    assert_eq!(served.len(), jobs.len());
    for (((label, _), want), got) in jobs.iter().zip(&solo).zip(&served) {
        let got = got.as_ref().unwrap_or_else(|e| panic!("served {label}: {e}"));
        assert_eq!(
            want,
            &bits(got),
            "{label}: concurrent result differs from solo solve"
        );
    }
}

#[test]
fn interleaving_and_batching_shape_do_not_change_bits() {
    // The same matrix served three more ways: single worker (pure FIFO),
    // many workers with reversed submission order, and coalescing
    // disabled. All byte streams must agree with the first serving.
    // The full matrix already ran in `concurrent_batch_is_bit_identical_
    // to_solo`; here the most expensive cells (vectors at n = 257) are
    // dropped to keep three extra servings inside the CI budget —
    // scheduling permutations are size-independent.
    let mut jobs = job_matrix();
    jobs.retain(|(_, j)| j.n() <= 129 || !j.want_vectors);
    let reference_service = EigenService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let reference: Vec<Vec<u64>> = reference_service
        .solve_batch(jobs.iter().map(|(_, j)| j.clone()))
        .into_iter()
        .map(|r| bits(&r.expect("reference serving")))
        .collect();

    for (workers, reversed, batch_floor) in [(1usize, false, 64usize), (6, true, 64), (4, false, 0)] {
        let service = EigenService::new(ServiceConfig {
            workers,
            queue_capacity: 64,
            batch_floor,
            ..ServiceConfig::default()
        });
        let order: Vec<usize> = if reversed {
            (0..jobs.len()).rev().collect()
        } else {
            (0..jobs.len()).collect()
        };
        let tickets: Vec<_> = order
            .iter()
            .map(|&i| (i, service.submit(jobs[i].1.clone()).expect("admit")))
            .collect();
        for (i, t) in tickets {
            let got = t.wait().unwrap_or_else(|e| panic!("{}: {e}", jobs[i].0));
            assert_eq!(
                reference[i],
                bits(&got),
                "{} (workers={workers} reversed={reversed} floor={batch_floor}): bits changed",
                jobs[i].0
            );
        }
    }
}
