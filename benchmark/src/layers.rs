//! Per-layer measurements below the solver: host calibration, `dla`
//! kernels and `pla` building blocks, each called through its public
//! function at the shape the workload's first panel gives it.

use crate::check::Spectrum;
use crate::spans::Recorder;
use crate::stats::median;
use crate::sys;
use crate::Metric;
use ca_bsp::{Machine, MachineParams};
use ca_dla::gemm::{matmul, Trans};
use ca_dla::{gen, BandedSym};
use ca_eigen::EigenParams;
use ca_pla::dist::DistMatrix;
use ca_pla::grid::Grid;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Measured host rates: the denominators for fraction-of-peak. If they
/// move between two sets of runs, the machine moved, not the code.
pub struct HostPeaks {
    pub gemm_gflops: f64,
    /// 0 when the cache size is unknown or the arrays would not fit.
    pub copy_gbs: f64,
}

const GEMM_CAL_N: usize = 512;

pub fn calibrate(rec: &mut Recorder) -> HostPeaks {
    let mut rng = StdRng::seed_from_u64(0xCA11);
    let a = gen::random_matrix(&mut rng, GEMM_CAL_N, GEMM_CAL_N);
    let b = gen::random_matrix(&mut rng, GEMM_CAL_N, GEMM_CAL_N);
    let best_s = (0..5)
        .map(|i| {
            timed(rec, i, "host", "gemm_512", || {
                matmul(&a, Trans::N, &b, Trans::N)
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    let gemm_gflops = 2.0 * (GEMM_CAL_N as f64).powi(3) / best_s / 1e9;
    HostPeaks {
        gemm_gflops,
        copy_gbs: copy_bandwidth(rec),
    }
}

/// Copy bandwidth over arrays of at least four times the last-level
/// cache each, bytes read plus bytes written per second.
fn copy_bandwidth(rec: &mut Recorder) -> f64 {
    let Some(llc) = sys::llc_bytes() else {
        eprintln!("host.copy_gbs: cache size unknown, not measured");
        return 0.0;
    };
    let bytes = 4 * llc;
    // Two arrays plus headroom must fit in what the host has free.
    if sys::mem_available_bytes().is_some_and(|free| 2 * bytes + (1 << 30) > free) {
        eprintln!(
            "host.copy_gbs: two {} MiB arrays do not fit in free memory, not measured",
            bytes >> 20
        );
        return 0.0;
    }
    eprintln!(
        "host.copy_gbs: last-level cache {} MiB, each array {} MiB",
        llc >> 20,
        bytes >> 20
    );
    let words = (bytes / 8) as usize;
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    assert!(
        8 * src.len() as u64 >= 4 * llc && dst.len() == src.len(),
        "copy arrays must each be at least 4x the last-level cache"
    );
    dst.copy_from_slice(&src); // first touch of dst
    let best_s = (0..3)
        .map(|i| {
            timed(rec, i, "host", "copy", || {
                dst.copy_from_slice(black_box(&src));
                black_box(dst[words / 2])
            })
            .0
        })
        .fold(f64::INFINITY, f64::min);
    2.0 * bytes as f64 / best_s / 1e9
}

/// Run `f` as one span; returns its seconds and its result.
fn timed<T>(
    rec: &mut Recorder,
    op: u64,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (f64, T) {
    let start = rec.now_us();
    let out = black_box(f());
    let end = rec.now_us();
    rec.add(None, op, layer, name, start, end);
    ((end - start) / 1e6, out)
}

/// Median seconds of `reps` calls.
fn median_s<T>(
    rec: &mut Recorder,
    reps: u64,
    layer: &'static str,
    name: &'static str,
    mut f: impl FnMut() -> T,
) -> f64 {
    median(
        &(0..reps)
            .map(|i| timed(rec, i, layer, name, &mut f).0)
            .collect::<Vec<_>>(),
    )
}

/// A tridiagonal `(d, e)` whose deflation behaviour matches the
/// workload's spectrum: generic entries (almost nothing deflates) for
/// the evenly spaced spectrum, and for the clustered one the clustered
/// values on the diagonal coupled at the cluster width, so almost
/// everything deflates.
fn tridiagonal(rng: &mut StdRng, n: usize, spectrum: Spectrum) -> (Vec<f64>, Vec<f64>) {
    let unit = Uniform::new(-1.0f64, 1.0);
    match spectrum {
        Spectrum::Linspace => (
            (0..n).map(|_| unit.sample(rng)).collect(),
            (0..n - 1).map(|_| unit.sample(rng)).collect(),
        ),
        Spectrum::Clustered => (
            spectrum.values(n),
            (0..n - 1).map(|_| 1e-7 * unit.sample(rng)).collect(),
        ),
    }
}

/// `dla` kernels at the workload's shapes: the `n × b₀ × b₀` panel
/// GEMM and the `2b₀ × b₀` QR of full-to-band, divide and conquer at
/// `n` with and without vectors, and the banded finale at `(n, ⌈n/p⌉)`.
pub fn dla_kernels(
    rec: &mut Recorder,
    seed: u64,
    n: usize,
    p: usize,
    c: usize,
    spectrum: Spectrum,
) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A);
    let b0 = EigenParams::new(p, c).initial_bandwidth(n);

    let panel = gen::random_matrix(&mut rng, n, b0);
    let square = gen::random_matrix(&mut rng, b0, b0);
    let gemm_s = median_s(rec, 5, "dla", "matmul_panel", || {
        matmul(&panel, Trans::N, &square, Trans::N)
    });
    let gemm_flops = 2.0 * (n * b0 * b0) as f64;

    let tall = gen::random_matrix(&mut rng, 2 * b0, b0);
    let qr_s = median_s(rec, 5, "dla", "qr_factor", || {
        ca_dla::qr::qr_factor(&tall, 32)
    });
    // Householder QR of an m × k matrix: 2k²(m − k/3) flops.
    let qr_flops = 2.0 * (b0 * b0) as f64 * (2.0 * b0 as f64 - b0 as f64 / 3.0);

    let (d, e) = tridiagonal(&mut rng, n, spectrum);
    let values_s = median_s(rec, 3, "dla", "dnc_eigenvalues", || {
        ca_dla::dnc::dnc_eigenvalues(&d, &e).expect("divide and conquer converges")
    });
    let vectors_s = median_s(rec, 3, "dla", "dnc_eigen", || {
        ca_dla::dnc::dnc_eigen(&d, &e).expect("divide and conquer converges")
    });

    let bw = n.div_ceil(p).clamp(1, n - 1);
    let band = BandedSym::from_dense(&gen::random_banded(&mut rng, n, bw), bw, bw);
    let finale_s = median_s(rec, 3, "dla", "try_banded_eigenvalues", || {
        ca_dla::tridiag::try_banded_eigenvalues(&band).expect("banded finale converges")
    });

    vec![
        Metric::new(
            "dla.gemm_panel_gflops",
            gemm_flops / gemm_s / 1e9,
            "GFLOP/s",
        ),
        Metric::new("dla.qr_gflops", qr_flops / qr_s / 1e9, "GFLOP/s"),
        Metric::new("dla.dnc_values_ms", values_s * 1e3, "ms"),
        Metric::new("dla.dnc_vectors_ms", vectors_s * 1e3, "ms"),
        Metric::new("dla.band_finale_ms", finale_s * 1e3, "ms"),
    ]
}

/// `pla` building blocks, one shape each: the calls full-to-band makes
/// for its first panel at the workload's `(n, b₀, p, c)`. Each call
/// runs on a fresh machine whose ledger gives the words and supersteps.
pub fn pla_blocks(rec: &mut Recorder, seed: u64, n: usize, p: usize, c: usize) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x91A);
    let params = EigenParams::new(p, c);
    let b0 = params.initial_bandwidth(n);
    let rem = n - b0;
    let a = gen::random_symmetric(&mut rng, n);
    let u1 = gen::random_matrix(&mut rng, rem, b0);
    let t1 = gen::random_matrix(&mut rng, b0, b0);
    let fresh = || Machine::new(MachineParams::new(p));

    let grid3 = params.grid3();
    let depth = params.stream_depth(n, b0);
    let mut mm_words = 0;
    let mm_s = median_s(rec, 3, "pla", "streaming_mm", || {
        let m = fresh();
        let w = ca_pla::streaming::streaming_mm_dense(
            &m,
            &grid3,
            &a,
            (b0, b0, rem, rem),
            false,
            &u1,
            depth,
        );
        mm_words = m.report().horizontal_words;
        w
    });

    let all = Grid::all(p);
    let carma_s = median_s(rec, 3, "pla", "carma", || {
        ca_pla::carma::carma(&fresh(), &all, &u1, &t1, params.p_2m3d())
    });

    // rect_qr needs m ≥ n; a toy-size panel can be wider than tall.
    let qr_rows = rem.max(b0);
    let tall = gen::random_matrix(&mut rng, qr_rows, b0);
    let qr_procs = params.panel_qr_procs(n, b0).clamp(1, qr_rows);
    let qr_group = Grid::new_2d((0..qr_procs).collect(), qr_procs, 1);
    let mut qr_steps = 0;
    let qr_s = median_s(rec, 3, "pla", "rect_qr", || {
        let m = fresh();
        let dist = DistMatrix::from_dense(&m, &qr_group, &tall);
        let f = ca_pla::rect_qr::rect_qr(&m, &dist);
        qr_steps = m.report().supersteps;
        f
    });

    vec![
        Metric::new("pla.streaming_mm_ms", mm_s * 1e3, "ms"),
        Metric::new("pla.streaming_mm_words", mm_words as f64, "words"),
        Metric::new("pla.carma_ms", carma_s * 1e3, "ms"),
        Metric::new("pla.rect_qr_ms", qr_s * 1e3, "ms"),
        Metric::new("pla.rect_qr_supersteps", qr_steps as f64, "count"),
    ]
}
