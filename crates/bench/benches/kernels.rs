//! E-W1: wall-clock Criterion benchmarks of the sequential kernels —
//! the real compute performance underneath the simulated machine.

use ca_dla::bulge::{chase_plan_iter, execute_chase, reduce_band_to, sweep_to_tridiagonal};
use ca_dla::costs::{gemm_flops, qr_flops};
use ca_dla::gemm::{gemm, matmul, Trans};
use ca_dla::lu::{self, Diag, Triangle};
use ca_dla::oracle::{self, execute_chase_reference};
use ca_dla::qr::qr_factor;
use ca_dla::tridiag::try_tridiag_eigenvalues;
use ca_dla::{gen, BandedSym, Matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Square products, then the shapes the solver actually issues, one per
/// size class of `ca_dla::gemm` (packed `A` / transposed packed `A` /
/// `A` in place with a gathered `Bᵀ`, down to the chase's 32×32×16).
/// An element is a flop, so the `thrpt` column reads GFLOP/s; shapes
/// under a megaflop are batched so that a sample outlasts the timer.
fn bench_gemm(c: &mut Criterion) {
    use Trans::{N, T};
    let mut group = c.benchmark_group("gemm");
    let shapes = [
        (64usize, 64usize, 64usize, N, N),
        (128, 128, 128, N, N),
        (256, 256, 256, N, N),
        (512, 512, 512, N, N),
        (256, 256, 512, T, N),
        (224, 64, 32, N, T),
        (112, 32, 16, N, T),
        (32, 32, 16, N, T),
    ];
    for (m, n, k, ta, tb) in shapes {
        let mut rng = StdRng::seed_from_u64(1);
        let a = match ta {
            N => gen::random_matrix(&mut rng, m, k),
            T => gen::random_matrix(&mut rng, k, m),
        };
        let b = match tb {
            N => gen::random_matrix(&mut rng, k, n),
            T => gen::random_matrix(&mut rng, n, k),
        };
        let flops = 2 * (m * n * k) as u64;
        let batch = (1 << 20) / flops + 1;
        let mut out = Matrix::zeros(m, n);
        group.throughput(Throughput::Elements(flops * batch));
        let id = format!("{m}x{n}x{k}_{ta:?}{tb:?}");
        group.bench_with_input(BenchmarkId::from_parameter(id), &batch, |bench, &batch| {
            bench.iter(|| {
                for _ in 0..batch {
                    gemm(1.0, &a, ta, &b, tb, 0.0, &mut out);
                }
                black_box(out.get(0, 0))
            });
        });
    }
    group.finish();
}

/// The recursive QR at the shapes the solver gives it: rect-QR tree
/// nodes and TSQR leaves (1024×512, 512×256), CA-SBR and finale chases
/// (256×128 and the three narrow panels), and `service_mix`'s n ≤ 96
/// solves (96×48, 32×16, 16×8 — the last is a single leaf). An element
/// is a flop of the textbook count `2n²(m − n/3)`, so `thrpt` reads
/// GFLOP/s; small shapes are batched so a sample outlasts the timer.
fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr_panel");
    let shapes = [
        (1024usize, 512usize),
        (512, 256),
        (256, 128),
        (512, 64),
        (512, 32),
        (256, 32),
        (96, 48),
        (32, 16),
        (16, 8),
    ];
    for (m, n) in shapes {
        let mut rng = StdRng::seed_from_u64(2);
        let a = gen::random_matrix(&mut rng, m, n);
        let flops = (2 * n * n * (3 * m - n) / 3) as u64;
        let batch = (1 << 20) / flops + 1;
        group.throughput(Throughput::Elements(flops * batch));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}")),
            &batch,
            |bench, &batch| {
                bench.iter(|| {
                    for _ in 0..batch {
                        black_box(qr_factor(&a, usize::MAX));
                    }
                });
            },
        );
    }
    group.finish();
}

/// The triangular family of Corollary III.7's reconstruction — signed
/// LU, a left and a right solve with `n` right-hand sides, the inverse —
/// at the orders the solver gives it (the benchmark's `values_p4` panel
/// reconstructs at 256, 128, 64 and 32; `service_mix`'s blocks are at
/// most 48 wide) and at 8 and 16, one leaf or less, and at 512. Each recursive kernel
/// is followed, up to n = 128, by the scalar `*_reference` form it
/// replaced: the recursion must be no slower from n = 8 up. An element is
/// a flop of the textbook count (`2n³/3`, `n³`, `n³/3`), so `thrpt`
/// reads GFLOP/s; small orders are batched so a sample outlasts the
/// timer.
fn bench_tri_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tri_kernels");
    for n in [8usize, 16, 32, 48, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(8);
        let mut a = gen::random_matrix(&mut rng, n, n);
        a.scale(0.5 / n as f64);
        let b = gen::random_matrix(&mut rng, n, n);
        let (l, u, _) = lu::lu_nopivot_signed(&a);
        let cube = (n * n * n) as u64;
        let batch = (1 << 20) / cube + 1;
        let with_oracle = n <= 128;
        let mut run = |name: &str, flops: u64, f: &mut dyn FnMut()| {
            group.throughput(Throughput::Elements(flops * batch));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{name}/{n}")),
                &batch,
                |bench, &batch| {
                    bench.iter(|| {
                        for _ in 0..batch {
                            f();
                        }
                    });
                },
            );
        };
        run("lu_signed", 2 * cube / 3, &mut || {
            black_box(lu::lu_nopivot_signed(&a));
        });
        if with_oracle {
            run("lu_signed_reference", 2 * cube / 3, &mut || {
                black_box(oracle::lu_nopivot_signed_reference(&a));
            });
        }
        let mut x = b.clone();
        run("trsm_left", cube, &mut || {
            x.data_mut().copy_from_slice(b.data());
            lu::trsm_left(&l, Triangle::Lower, Diag::Unit, false, &mut x);
        });
        if with_oracle {
            run("trsm_left_reference", cube, &mut || {
                x.data_mut().copy_from_slice(b.data());
                oracle::trsm_left_reference(&l, Triangle::Lower, Diag::Unit, false, &mut x);
            });
        }
        run("trsm_right", cube, &mut || {
            x.data_mut().copy_from_slice(b.data());
            lu::trsm_right(&u, Triangle::Upper, Diag::NonUnit, false, &mut x);
        });
        if with_oracle {
            run("trsm_right_reference", cube, &mut || {
                x.data_mut().copy_from_slice(b.data());
                oracle::trsm_right_reference(&u, Triangle::Upper, Diag::NonUnit, false, &mut x);
            });
        }
        run("tri_inverse", cube / 3, &mut || {
            black_box(lu::tri_inverse(&u, Triangle::Upper, Diag::NonUnit));
        });
        if with_oracle {
            run("tri_inverse_reference", cube / 3, &mut || {
                black_box(oracle::tri_inverse_reference(&u, Triangle::Upper, Diag::NonUnit));
            });
        }
        black_box(&x);
    }
    group.finish();
}

fn bench_band_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("band_halving");
    for (n, b) in [(256usize, 16usize), (512, 16)] {
        let mut rng = StdRng::seed_from_u64(3);
        let dense = gen::random_banded(&mut rng, n, b);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_b{b}")),
            &(n, b),
            |bench, _| {
                bench.iter(|| {
                    let mut bm = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));
                    reduce_band_to(&mut bm, b / 2);
                    black_box(bm)
                });
            },
        );
    }
    group.finish();
}

/// The finale's fused rank-1 sweep, band → tridiagonal, at the widths
/// the solver reaches it with (16: `values_p64c4`; 64: after the pass;
/// 128: the widest band swept directly) — the numbers the doc comment of
/// `tridiag::SWEEP_BAND` quotes. An element is a flop of the nominal
/// `6n²b` (≈ n²/2b chases of ≈ 12b²), so `thrpt` reads GFLOP/s; each
/// sample pays one band clone (≤ 2 MB) beside the sweep.
fn bench_band_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("band_sweep");
    for (n, b) in [
        (1024usize, 16usize),
        (1024, 32),
        (1024, 64),
        (1024, 128),
        (768, 64),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let base = BandedSym::from_dense(&gen::random_banded(&mut rng, n, b), b, 2 * b);
        group.throughput(Throughput::Elements((6 * n * n * b) as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_b{b}")),
            &(n, b),
            |bench, _| {
                bench.iter(|| {
                    let mut bm = base.clone();
                    sweep_to_tridiagonal(&mut bm, None);
                    black_box(bm)
                });
            },
        );
    }
    group.finish();
}

/// One sequential block-reflector pass `b → h` (Algorithm IV.2 on one
/// processor): the halving the finale used to start with, the single
/// pass to the sweep band it takes now (1024, 256 → 64: `values_p4`),
/// and the stage shapes the benchmark workloads chase — CA-SBR's
/// 512 → 256 at n = 1024 (`values_p4`) and 384 → 192 at n = 768
/// (`vectors_p4`), `values_p64c4`'s band→band 170 → 64. An element is a
/// flop of the per-chase count the distributed stages *charge* (QR of
/// the bulge block, the `W`/`V` chain, the rank-2h update over the
/// plan's whole `nc`-row strip), summed over the plan — not the flops
/// the kernel executes, which skips the strip's zero rows and the
/// factors' triangles — so `thrpt` reads how fast the charged work is
/// done.
fn bench_band_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("band_pass");
    for (n, b, h) in [
        (1024usize, 256usize, 128usize),
        (1024, 256, 64),
        (768, 192, 64),
        (1024, 512, 256),
        (1024, 170, 64),
        (768, 384, 192),
    ] {
        let mut rng = StdRng::seed_from_u64(8);
        let cap = (2 * b).min(n - 1);
        let base = BandedSym::from_dense(&gen::random_banded(&mut rng, n, b), b, cap);
        let flops: u64 = chase_plan_iter(n, b, h)
            .map(|op| {
                let (nr, nc) = (op.nr(), op.nc());
                qr_flops(nr, h)
                    + gemm_flops(nc, nr, h)
                    + 2 * gemm_flops(h, h, h)
                    + gemm_flops(nr, h, h)
                    + 2 * gemm_flops(nr, h, nc)
            })
            .sum();
        group.throughput(Throughput::Elements(flops));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_b{b}_to{h}")),
            &(n, b, h),
            |bench, _| {
                bench.iter(|| {
                    let mut bm = base.clone();
                    reduce_band_to(&mut bm, h);
                    black_box(bm)
                });
            },
        );
    }
    group.finish();
}

/// One steady-state chase window, zero-copy engine vs. the seed
/// copy-based reference (both pay the same matrix clone per iteration).
fn bench_chase_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("chase_window_update");
    for (n, b) in [(512usize, 32usize), (512, 64)] {
        let mut rng = StdRng::seed_from_u64(4);
        let dense = gen::random_banded(&mut rng, n, b);
        let mut base = BandedSym::from_dense(&dense, b, (2 * b).min(n - 1));
        // Replay the plan up to the second sweep so the benched op sees
        // steady-state fill, then bench that op alone.
        let plan: Vec<_> = chase_plan_iter(n, b, b / 2).collect();
        let at = plan
            .iter()
            .position(|op| op.i == 2)
            .expect("plan reaches sweep 2");
        for op in &plan[..at] {
            execute_chase(&mut base, op);
        }
        let op = &plan[at];
        for (engine, reference) in [("zero_copy", false), ("reference", true)] {
            group.bench_with_input(
                BenchmarkId::new(engine, format!("n{n}_b{b}")),
                &reference,
                |bench, &reference| {
                    bench.iter(|| {
                        let mut m = base.clone();
                        if reference {
                            execute_chase_reference(&mut m, op);
                        } else {
                            execute_chase(&mut m, op);
                        }
                        black_box(m)
                    });
                },
            );
        }
    }
    group.finish();
}

/// The same factorisation recursed down to single columns (`nb = 1`):
/// the unblocked elimination order the tests use as the oracle, every
/// level of the tree a GEMM with an inner dimension of one or more.
fn bench_qr_single_column_leaves(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr_single_column_leaves");
    for (m, n) in [(256usize, 32usize), (512, 64)] {
        let mut rng = StdRng::seed_from_u64(5);
        let a = gen::random_matrix(&mut rng, m, n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}")),
            &(m, n),
            |bench, _| {
                bench.iter(|| black_box(qr_factor(&a, 1)));
            },
        );
    }
    group.finish();
}

fn bench_tridiag_eigen(c: &mut Criterion) {
    let mut group = c.benchmark_group("tridiag_ql");
    for n in [256usize, 1024] {
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(try_tridiag_eigenvalues(&d, &e).unwrap()));
        });
    }
    group.finish();
}

fn bench_dnc_values(c: &mut Criterion) {
    // Divide-and-conquer on the same Laplacian as `tridiag_ql` — the
    // direct competitor for the eigenvalue-only finale.
    let mut group = c.benchmark_group("tridiag_dnc");
    for n in [256usize, 1024] {
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(ca_dla::dnc::dnc_eigenvalues(&d, &e).unwrap()));
        });
    }
    group.finish();
}

fn bench_secular_solve(c: &mut Criterion) {
    // Deflation scan + all secular roots of diag(d) + ρzzᵀ. Spread
    // poles and O(1) weights defeat deflation, so the timing is pure
    // root-finding (the merge's serial fraction).
    let mut group = c.benchmark_group("dnc_secular");
    for m in [128usize, 256] {
        let d: Vec<f64> = (0..m).map(|i| i as f64).collect();
        let z: Vec<f64> = (0..m).map(|i| 0.3 + (i % 7) as f64 * 0.1).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |bench, _| {
            bench.iter(|| {
                black_box(ca_dla::dnc::bench_hooks::secular_merge_values(&d, &z, 0.5))
            });
        });
    }
    group.finish();
}

fn bench_merge_gemm(c: &mut Criterion) {
    // The eigenvector half of a D&C merge: kept carrier columns (n×m)
    // times the m×m secular coefficient matrix — one dense GEMM.
    let mut group = c.benchmark_group("dnc_merge_gemm");
    for (n, m) in [(256usize, 128usize), (512, 256)] {
        let mut rng = StdRng::seed_from_u64(6);
        let q = gen::random_matrix(&mut rng, n, m);
        let u = gen::random_matrix(&mut rng, m, m);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{m}")),
            &(n, m),
            |bench, _| {
                bench.iter(|| black_box(matmul(&q, Trans::N, &u, Trans::N)));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_gemm, bench_qr, bench_tri_kernels, bench_band_reduction, bench_band_sweep, bench_band_pass,
        bench_chase_window, bench_qr_single_column_leaves, bench_tridiag_eigen, bench_dnc_values, bench_secular_solve,
        bench_merge_gemm
}
criterion_main!(kernels);
