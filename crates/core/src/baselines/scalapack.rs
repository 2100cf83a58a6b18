//! ScaLAPACK-style direct tridiagonalization (`pdsytrd` shape, \[15\]).
//!
//! Householder tridiagonalization applied column by column on a 2D
//! `q × q` grid: computing each reflector requires a symmetric
//! matrix–vector product with the full trailing matrix, so the trailing
//! matrix streams through every processor's memory hierarchy `n` times
//! (`Q = O(n³/p)` — Table I's vertical-communication entry) and every
//! column costs a constant number of collectives (`S = Θ(n)`).
//! Horizontal communication is the classic 2D `W = O(n²/√p)`.
//!
//! The numerics are the textbook two-sided update
//! `T ← T − v·wᵀ − w·vᵀ` with `w = τ·T·v − (τ²/2)(vᵀTv)·v`.

use crate::solver::in_safe_range;
use ca_bsp::Machine;
use ca_dla::qr::house_gen;
use ca_dla::Matrix;
use ca_pla::coll;
use ca_pla::grid::Grid;

/// Tridiagonalize the symmetric `a` on a 2D grid; returns `(d, e)` —
/// the diagonal and sub-diagonal of the similar tridiagonal matrix.
pub fn scalapack_tridiag(machine: &Machine, grid: &Grid, a: &Matrix) -> (Vec<f64>, Vec<f64>) {
    let n = a.rows();
    assert_eq!(n, a.cols());
    let (q0, q1, _) = grid.shape();
    let p = grid.len() as u64;
    let q = q0.max(q1);

    let mut t = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n.saturating_sub(1)];

    for j in 0..n.saturating_sub(2) {
        let rem = n - 1 - j;
        // Column extraction + Householder generation: a reduction over
        // the grid column owning it (norm), then scalar broadcast.
        let col: Vec<f64> = (j + 1..n).map(|i| t.get(i, j)).collect();
        for gc in 0..q1 {
            let group = grid.dim0_group(gc, 0);
            coll::allreduce(machine, &group, 2);
        }
        let (v, tau, beta) = house_gen(&col);
        d[j] = t.get(j, j);
        e[j] = beta;

        if tau != 0.0 {
            // Broadcast v along grid rows and columns (rem/q words per
            // processor — the 2D W = O(n²/√p) term accumulates here).
            for gr in 0..q0 {
                let group = grid.dim1_group(gr, 0);
                coll::bcast(machine, &group, 0, (rem / q.max(1)) as u64 + 1);
            }
            for gc in 0..q1 {
                let group = grid.dim0_group(gc, 0);
                coll::bcast(machine, &group, 0, (rem / q.max(1)) as u64 + 1);
            }

            // y = τ·T₂₂·v — the trailing symmetric matvec. Every
            // processor reads its share of the trailing matrix from
            // memory: F += 2·rem²/p, Q += rem²/p per processor.
            for &pid in grid.procs() {
                machine.charge_flops(pid, 2 * (rem as u64).pow(2) / p);
                machine.charge_vert(pid, (rem as u64).pow(2) / p);
            }
            let mut y = vec![0.0; rem];
            for r in 0..rem {
                let mut acc = 0.0;
                for c in 0..rem {
                    acc += t.get(j + 1 + r, j + 1 + c) * v[c];
                }
                y[r] = tau * acc;
            }
            // Reduce y across the grid (dual of the broadcast).
            for gr in 0..q0 {
                let group = grid.dim1_group(gr, 0);
                coll::reduce(machine, &group, 0, (rem / q.max(1)) as u64 + 1);
            }

            // w = y − (τ/2)(vᵀy)·v.
            let vty: f64 = v.iter().zip(&y).map(|(a, b)| a * b).sum();
            let alpha = 0.5 * tau * vty;
            let w: Vec<f64> = y.iter().zip(&v).map(|(yi, vi)| yi - alpha * vi).collect();

            // Rank-2 update T₂₂ ← T₂₂ − v·wᵀ − w·vᵀ.
            for &pid in grid.procs() {
                machine.charge_flops(pid, 4 * (rem as u64).pow(2) / p);
                machine.charge_vert(pid, (rem as u64).pow(2) / p);
            }
            for r in 0..rem {
                for c in 0..rem {
                    let upd = v[r] * w[c] + w[r] * v[c];
                    t.add_to(j + 1 + r, j + 1 + c, -upd);
                }
            }
        }
        machine.fence();
    }
    // The trailing 2×2 block.
    if n >= 2 {
        d[n - 2] = t.get(n - 2, n - 2);
        d[n - 1] = t.get(n - 1, n - 1);
        e[n - 2] = t.get(n - 1, n - 2);
    } else if n == 1 {
        d[0] = t.get(0, 0);
    }
    (d, e)
}

/// Full baseline: tridiagonalize and solve (eigenvalues gathered and
/// computed on one processor, as the final stage). Badly scaled input is
/// solved as the solver solves it (`solver::in_safe_range`).
pub fn scalapack_eigenvalues(machine: &Machine, grid: &Grid, a: &Matrix) -> Vec<f64> {
    let n = a.rows();
    let solve = |a: &Matrix| {
        let (d, e) = scalapack_tridiag(machine, grid, a);
        coll::gather(
            machine,
            grid,
            0,
            ((2 * n) as u64).div_ceil(grid.len().max(1) as u64),
        );
        machine.charge_flops(grid.proc(0), 30 * (n as u64).pow(2));
        machine.fence();
        ca_dla::tridiag::try_tridiag_eigenvalues(&d, &e)
            .expect("QL converges on a finite tridiagonal")
    };
    in_safe_range(a, a.norm_max(), solve, |ev| Some(ev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gen;
    use ca_dla::tridiag::spectrum_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    #[test]
    fn recovers_prescribed_spectrum() {
        let n = 24;
        let m = machine(4);
        let grid = Grid::new_2d((0..4).collect(), 2, 2);
        let mut rng = StdRng::seed_from_u64(230);
        let spectrum = gen::linspace_spectrum(n, -2.0, 2.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        let ev = scalapack_eigenvalues(&m, &grid, &a);
        assert!(spectrum_distance(&ev, &spectrum) < 1e-9 * n as f64);
    }

    #[test]
    fn supersteps_scale_linearly_with_n() {
        let mut steps = Vec::new();
        for n in [16usize, 32] {
            let m = machine(4);
            let grid = Grid::new_2d((0..4).collect(), 2, 2);
            let mut rng = StdRng::seed_from_u64(231);
            let a = gen::random_symmetric(&mut rng, n);
            let _ = scalapack_tridiag(&m, &grid, &a);
            steps.push(m.report().supersteps as f64);
        }
        let ratio = steps[1] / steps[0];
        assert!(ratio > 1.7 && ratio < 2.4, "S ratio {ratio} not ~2");
    }

    #[test]
    fn vertical_traffic_is_cubic() {
        // Q ≈ n³/p: doubling n should increase Q by ~8×.
        let mut qs = Vec::new();
        for n in [16usize, 32] {
            let m = machine(4);
            let grid = Grid::new_2d((0..4).collect(), 2, 2);
            let mut rng = StdRng::seed_from_u64(232);
            let a = gen::random_symmetric(&mut rng, n);
            let _ = scalapack_tridiag(&m, &grid, &a);
            qs.push(m.report().vertical_words as f64);
        }
        let ratio = qs[1] / qs[0];
        assert!(ratio > 5.5 && ratio < 10.0, "Q ratio {ratio} not ~8");
    }

    #[test]
    fn tiny_matrices() {
        let m = machine(1);
        let grid = Grid::new_2d(vec![0], 1, 1);
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (d, e) = scalapack_tridiag(&m, &grid, &a);
        assert_eq!(d, vec![2.0, 2.0]);
        assert_eq!(e, vec![1.0]);
    }
}
