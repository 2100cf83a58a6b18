//! Wall-clock Criterion benchmarks of the simulated distributed
//! building blocks (orchestration + real numerics per virtual machine).

use ca_bsp::{Machine, MachineParams};
use ca_dla::gen;
use ca_pla::carma::carma;
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use ca_pla::rect_qr::rect_qr;
use ca_pla::streaming::{streaming_mm_dense, Replicated};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_carma(c: &mut Criterion) {
    let mut group = c.benchmark_group("carma_sim");
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(2);
        let a = gen::random_matrix(&mut rng, n, n);
        let b = gen::random_matrix(&mut rng, n, n / 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let m = Machine::new(MachineParams::new(16));
                black_box(carma(&m, &Grid::all(16), &a, &b, 1))
            });
        });
    }
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_sim");
    for n in [128usize, 256] {
        let mut rng = StdRng::seed_from_u64(3);
        let a = gen::random_matrix(&mut rng, n, n);
        let b = gen::random_matrix(&mut rng, n, n / 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                let m = Machine::new(MachineParams::new(16));
                let g3 = Grid::new_3d((0..16).collect(), 2, 2, 4);
                Replicated::replicate(&m, &g3, n, n);
                black_box(streaming_mm_dense(&m, &g3, &a, (0, 0, n, n), false, &b, 1))
            });
        });
    }
    group.finish();
}

fn bench_rect_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("rect_qr_sim");
    for (m_dim, n_dim) in [(512usize, 32usize), (1024, 32)] {
        let mut rng = StdRng::seed_from_u64(4);
        let a = gen::random_matrix(&mut rng, m_dim, n_dim);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m_dim}x{n_dim}")),
            &m_dim,
            |bench, _| {
                bench.iter(|| {
                    let m = Machine::new(MachineParams::new(8));
                    let g = Grid::new_2d((0..8).collect(), 8, 1);
                    let da = DistMatrix::from_dense(&m, &g, &a);
                    black_box(rect_qr(&m, &da).r)
                });
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = distributed;
    config = Criterion::default().sample_size(10);
    targets = bench_carma, bench_streaming, bench_rect_qr
}
criterion_main!(distributed);
