//! Concurrency stress suite for the eigensolver service: 8 client
//! threads × mixed sizes under a seeded scheduler-interleaving shuffle.
//!
//! What it pins:
//! * **no deadlock, no lost jobs** — every admitted ticket is
//!   fulfilled, every client joins, the whole run is bounded;
//! * **typed error paths** — queue-full rejections and expired
//!   deadlines surface as `EigenError::QueueFull` / `::Deadline`, never
//!   as panics or hangs;
//! * **interleaving independence** — the seeded shuffle perturbs
//!   submission order and pause/resume churn perturbs dispatch, yet
//!   every result stays bit-identical to its solo reference.
//!
//! Runtime is bounded (sizes ≤ 64, values-only in the hot loop) so the
//! suite stays CI-fast; the benchmark's `service_mix` workload covers
//! sustained load.

use ca_service::{EigenService, ServiceConfig, SymmEigenJob};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::EigenError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Seeded Fisher–Yates (the vendored `rand` shim has no `seq` module).
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

const CLIENTS: usize = 8;
const JOBS_PER_CLIENT: usize = 6;

/// Deterministic mixed-size job list (sizes 8..64, a few vector jobs)
/// shared by every test, identified by index.
fn job_pool() -> Vec<SymmEigenJob> {
    let sizes = [8usize, 13, 16, 24, 32, 48, 64];
    (0..CLIENTS * JOBS_PER_CLIENT)
        .map(|i| {
            let n = sizes[i % sizes.len()];
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + i as u64);
            let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(n, -2.0, 2.0));
            if i % 5 == 0 {
                SymmEigenJob::with_vectors(a, 4, 1)
            } else {
                SymmEigenJob::values(a, 4, 1)
            }
        })
        .collect()
}

/// FNV-1a over a result's exact output bits.
fn result_hash(r: &ca_service::JobResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: f64| {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    r.eigenvalues.iter().copied().for_each(&mut eat);
    if let Some(v) = &r.vectors {
        v.data().iter().copied().for_each(&mut eat);
    }
    h
}

#[test]
fn eight_clients_mixed_sizes_no_lost_jobs_bit_identical() {
    let pool = job_pool();
    // Solo references, one per pool entry.
    let solo: Vec<u64> = pool
        .iter()
        .map(|j| result_hash(&ca_service::solve_job(j).expect("solo")))
        .collect();

    // Three interleaving seeds: per-client submission order is a seeded
    // shuffle of that client's slice, and a chaos thread pulses
    // pause/resume to force requeue-style dispatch patterns.
    for seed in [1u64, 7, 42] {
        let service = Arc::new(EigenService::new(ServiceConfig {
            workers: 4,
            queue_capacity: 256,
            batch_floor: 32,
            ..ServiceConfig::default()
        }));

        let chaos = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                for _ in 0..10 {
                    service.pause();
                    std::thread::sleep(Duration::from_millis(1));
                    service.resume();
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };

        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let service = Arc::clone(&service);
                let pool = pool.clone();
                std::thread::spawn(move || {
                    let mut order: Vec<usize> =
                        (c * JOBS_PER_CLIENT..(c + 1) * JOBS_PER_CLIENT).collect();
                    let mut rng = StdRng::seed_from_u64(seed * 1000 + c as u64);
                    shuffle(&mut order, &mut rng);
                    let mut results = Vec::new();
                    for i in order {
                        let ticket = service.submit(pool[i].clone()).expect("capacity 256 holds all");
                        results.push((i, result_hash(&ticket.wait().expect("solve"))));
                    }
                    results
                })
            })
            .collect();

        let mut seen = 0usize;
        for client in clients {
            for (i, hash) in client.join().expect("client thread") {
                assert_eq!(
                    solo[i], hash,
                    "seed {seed}: job {i} diverged from its solo reference"
                );
                seen += 1;
            }
        }
        assert_eq!(seen, pool.len(), "seed {seed}: lost jobs");
        chaos.join().expect("chaos thread");

        let stats = service.stats();
        assert_eq!(stats.submitted, pool.len() as u64);
        assert_eq!(stats.completed, pool.len() as u64);
        assert_eq!((stats.failed, stats.deadline_missed, stats.rejected), (0, 0, 0));
    }
}

#[test]
fn queue_full_under_flood_is_typed_and_nothing_is_lost() {
    // Paused scheduler + tiny queue: floods deterministically overflow.
    let service = Arc::new(EigenService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 4,
        paused: true,
        ..ServiceConfig::default()
    }));
    let pool = job_pool();

    let floods: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let job = pool[c].clone();
            std::thread::spawn(move || {
                let mut admitted = Vec::new();
                let mut rejected = 0usize;
                for _ in 0..4 {
                    match service.submit(job.clone()) {
                        Ok(t) => admitted.push(t),
                        Err(EigenError::QueueFull { capacity: 4 }) => rejected += 1,
                        Err(other) => panic!("unexpected admission error: {other}"),
                    }
                }
                (admitted, rejected)
            })
        })
        .collect();

    let mut admitted = Vec::new();
    let mut rejected = 0usize;
    for f in floods {
        let (a, r) = f.join().expect("flood thread");
        admitted.extend(a);
        rejected += r;
    }
    // 32 attempted, at most 4 fit: the rest must be typed rejections.
    assert_eq!(admitted.len(), 4);
    assert_eq!(rejected, CLIENTS * 4 - 4);
    assert_eq!(service.stats().rejected, rejected as u64);

    // The admitted jobs drain to completion once resumed — not lost.
    service.resume();
    for t in admitted {
        assert!(t.wait().is_ok());
    }
}

#[test]
fn expired_deadlines_are_typed_and_late_jobs_still_run() {
    let service = EigenService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        paused: true,
        ..ServiceConfig::default()
    });
    let pool = job_pool();

    // Half the jobs carry an already-hopeless deadline, half none.
    let tickets: Vec<(bool, _)> = (0..16)
        .map(|i| {
            let job = pool[i].clone();
            let doomed = i % 2 == 0;
            let job = if doomed { job.timeout(Duration::ZERO) } else { job };
            (doomed, service.submit(job).expect("admit"))
        })
        .collect();
    std::thread::sleep(Duration::from_millis(2));
    service.resume();

    for (doomed, t) in tickets {
        match (doomed, t.wait()) {
            (true, Err(EigenError::Deadline { timeout_ms: 0, waited_ms })) => {
                assert!(waited_ms < 60_000, "bounded wait expected, got {waited_ms} ms");
            }
            (true, other) => panic!("doomed job: expected Deadline, got {:?}", other.map(|_| ())),
            (false, Ok(_)) => {}
            (false, other) => panic!("live job failed: {:?}", other.map(|_| ())),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.deadline_missed, 8);
    assert_eq!(stats.completed, 8);
}
