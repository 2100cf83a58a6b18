#![allow(clippy::needless_range_loop)]
//! Integration tests of the paper's cost claims on the virtual machine —
//! the assertions behind Table I and the headline Θ(√c) statement.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gen;
use ca_symm_eig::eigen::baselines::scalapack::scalapack_tridiag;
use ca_symm_eig::eigen::{try_full_to_band, try_symm_eigen_25d, EigenParams};
use ca_symm_eig::pla::grid::Grid;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_to_band_replication_saves_communication() {
    // Θ(√c) claim at the stage it concentrates in, within the paper's
    // regime (p = 64, c = 4 = p^{1/3}).
    let n = 96;
    let b = 8;
    let p = 64;
    let mut rng = StdRng::seed_from_u64(500);
    let a = gen::random_symmetric(&mut rng, n);

    let mut w = Vec::new();
    for c in [1usize, 4] {
        let m = Machine::new(MachineParams::new(p));
        let _ = try_full_to_band(&m, &EigenParams::new(p, c), &a, b, None).unwrap();
        w.push(m.report().horizontal_words as f64);
    }
    let gain = w[0] / w[1];
    assert!(
        gain > 1.15,
        "replication gain {gain:.2} too small (paper: toward √c = 2)"
    );
}

#[test]
fn end_to_end_solver_wins_with_replication_at_scale() {
    let n = 256;
    let p = 64;
    let mut rng = StdRng::seed_from_u64(501);
    let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);

    let mut w = Vec::new();
    for c in [1usize, 4] {
        let m = Machine::new(MachineParams::new(p));
        let (ev, _) = try_symm_eigen_25d(&m, &EigenParams::new(p, c), &a).unwrap();
        assert!(ca_symm_eig::dla::tridiag::spectrum_distance(&ev, &spectrum) < 1e-6 * n as f64);
        w.push(m.report().horizontal_words);
    }
    assert!(
        w[1] < w[0],
        "end-to-end W with c=4 ({}) should beat c=1 ({})",
        w[1],
        w[0]
    );
}

#[test]
fn scalapack_vertical_traffic_is_cubic_in_n() {
    // Table I: Q_scalapack = Θ(n³/p).
    let p = 16;
    let grid = Grid::all(p).squarest_2d();
    let mut q = Vec::new();
    for n in [32usize, 64] {
        let mut rng = StdRng::seed_from_u64(502);
        let a = gen::random_symmetric(&mut rng, n);
        let m = Machine::new(MachineParams::new(p));
        let _ = scalapack_tridiag(&m, &grid, &a);
        q.push(m.report().vertical_words as f64);
    }
    let ratio = q[1] / q[0];
    assert!((5.5..10.5).contains(&ratio), "Q ratio {ratio} not ~8 (cubic)");
}

#[test]
fn scalapack_synchronization_is_linear_in_n() {
    // Table I: S_scalapack = Θ(n·polylog) — per-column collectives.
    let p = 16;
    let grid = Grid::all(p).squarest_2d();
    let mut s = Vec::new();
    for n in [32usize, 64] {
        let mut rng = StdRng::seed_from_u64(503);
        let a = gen::random_symmetric(&mut rng, n);
        let m = Machine::new(MachineParams::new(p));
        let _ = scalapack_tridiag(&m, &grid, &a);
        s.push(m.report().supersteps as f64);
    }
    let ratio = s[1] / s[0];
    assert!((1.7..2.3).contains(&ratio), "S ratio {ratio} not ~2 (linear)");
}

#[test]
fn banded_solver_synchronization_sublinear_in_n() {
    // The whole point of successive band reduction: S does not grow
    // linearly in n (Table I: pᵟ·log²p, n-independent up to the final
    // sequential stage).
    let p = 16;
    let mut s = Vec::new();
    for n in [64usize, 128] {
        let mut rng = StdRng::seed_from_u64(504);
        let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let m = Machine::new(MachineParams::new(p));
        let _ = try_symm_eigen_25d(&m, &EigenParams::new(p, 1), &a).unwrap();
        s.push(m.report().supersteps as f64);
    }
    let ratio = s[1] / s[0];
    assert!(
        ratio < 1.7,
        "banded S grew {ratio:.2}× on doubling n (should be ≪ 2×)"
    );
}

#[test]
fn memory_grows_with_replication() {
    // Replication's price: M = Θ(c·n²/p) per processor. The replicated
    // A block itself scales exactly ×c; working buffers (panel QR,
    // aggregates) are c-independent and dilute the end-to-end ratio at
    // small n, so we assert a band rather than exactly c.
    let n = 128;
    let p = 64;
    let mut rng = StdRng::seed_from_u64(505);
    let a = gen::random_symmetric(&mut rng, n);
    let mut mem = Vec::new();
    for c in [1usize, 4] {
        let m = Machine::new(MachineParams::new(p));
        let _ = try_full_to_band(&m, &EigenParams::new(p, c), &a, 8, None).unwrap();
        mem.push(m.report().peak_memory_words as f64);
    }
    let ratio = mem[1] / mem[0];
    assert!(
        (1.5..8.0).contains(&ratio),
        "memory ratio {ratio:.2} should reflect ~c× replication"
    );
}

#[test]
fn solver_communication_decreases_with_p() {
    // W = O(n²/pᵟ): per-processor communication falls as the machine
    // grows (strong scaling of the communication term).
    let n = 128;
    let mut w = Vec::new();
    for p in [16usize, 64] {
        let mut rng = StdRng::seed_from_u64(506);
        let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let m = Machine::new(MachineParams::new(p));
        let _ = try_symm_eigen_25d(&m, &EigenParams::new(p, 1), &a).unwrap();
        w.push(m.report().horizontal_words as f64);
    }
    assert!(
        w[1] < w[0],
        "W should fall with p: p=16 → {}, p=64 → {}",
        w[0],
        w[1]
    );
}

#[test]
fn work_is_load_balanced_across_processors() {
    let n = 64;
    let p = 16;
    let mut rng = StdRng::seed_from_u64(507);
    let spectrum = gen::linspace_spectrum(n, -4.0, 4.0);
    let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
    let m = Machine::new(MachineParams::new(p));
    let _ = try_symm_eigen_25d(&m, &EigenParams::new(p, 1), &a).unwrap();
    let c = m.report();
    // Per-superstep-max F should be within a small factor of volume/p
    // (perfect balance would make them equal).
    let balance = c.flops as f64 / (c.total_flops as f64 / p as f64);
    assert!(
        balance < 6.0,
        "flop imbalance {balance:.1}× (max-per-superstep vs volume/p)"
    );
}
