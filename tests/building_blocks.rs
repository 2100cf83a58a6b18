#![allow(clippy::needless_range_loop)]
//! Cross-cutting integration of the §III building blocks: the three
//! multiplication algorithms agree numerically on the same problem and
//! order correctly in communication cost; the QR paths agree on `R`;
//! collectives satisfy their cost identities.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::{gen, Matrix};
use ca_symm_eig::pla::carma::carma;
use ca_symm_eig::pla::dist::DistMatrix;
use ca_symm_eig::pla::grid::Grid;
use ca_symm_eig::pla::streaming::{streaming_mm_dense, Replicated};
use ca_symm_eig::pla::summa::summa;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn machine(p: usize) -> Machine {
    Machine::new(MachineParams::new(p))
}

#[test]
fn three_multiply_algorithms_agree() {
    let (n, k) = (48usize, 12usize);
    let q = 2;
    let p = q * q;
    let mut rng = StdRng::seed_from_u64(700);
    let a = gen::random_matrix(&mut rng, n, n);
    let b = gen::random_matrix(&mut rng, n, k);
    let want = matmul(&a, Trans::N, &b, Trans::N);

    // SUMMA (2D block layout).
    let m1 = machine(p);
    let g2 = Grid::new_2d((0..p).collect(), q, q);
    let da = DistMatrix::from_dense(&m1, &g2, &a);
    let db = DistMatrix::from_dense(&m1, &g2, &b);
    let mut dc = DistMatrix::zeros(&m1, &g2, n, k);
    summa(&m1, 1.0, &da, &db, 0.0, &mut dc);
    assert!(dc.assemble_unchecked().max_diff(&want) < 1e-11);

    // CARMA (recursive).
    let m2 = machine(p);
    let c2 = carma(&m2, &Grid::all(p), &a, &b, 1);
    assert!(c2.max_diff(&want) < 1e-11);

    // Streaming-MM (replicated A).
    let m3 = machine(p);
    let g3 = Grid::new_3d((0..p).collect(), q, q, 1);
    Replicated::replicate(&m3, &g3, n, n);
    let c3 = streaming_mm_dense(&m3, &g3, &a, (0, 0, n, n), false, &b, 1);
    assert!(c3.max_diff(&want) < 1e-11);

    // Cost ordering for this panel shape (k ≪ n): once A is replicated,
    // streaming must beat both general algorithms on W.
    let w_summa = m1.report().horizontal_words;
    let w_carma = m2.report().horizontal_words;
    let snap = m3.snapshot();
    let _ = streaming_mm_dense(&m3, &g3, &a, (0, 0, n, n), false, &b, 1);
    m3.fence();
    let w_stream = m3.costs_since(&snap).horizontal_words;
    assert!(
        w_stream < w_carma && w_stream < w_summa,
        "streaming {w_stream} should beat carma {w_carma} and summa {w_summa}"
    );
}

#[test]
fn qr_paths_agree_on_r_up_to_signs() {
    let (mrows, n, g) = (64usize, 8usize, 4usize);
    let mut rng = StdRng::seed_from_u64(701);
    let a = gen::random_matrix(&mut rng, mrows, n);
    let seq = ca_symm_eig::dla::qr::qr_factor(&a, 4);

    let m = machine(g);
    let grid = Grid::new_2d((0..g).collect(), g, 1);
    let da = DistMatrix::from_dense(&m, &grid, &a);
    let (tsqr_q, tsqr_r) = ca_symm_eig::pla::tsqr::tsqr_explicit(&m, &da);
    let f_col = ca_symm_eig::pla::rect_qr::rect_qr_with_base(&m, &da, 4);
    let (_tree_q, tree_r) = ca_symm_eig::pla::rect_qr::rect_qr_tree(&m, &da, g);

    for i in 0..n {
        for j in 0..n {
            let want = seq.r.get(i, j).abs();
            assert!((tsqr_r.get(i, j).abs() - want).abs() < 1e-9, "tsqr ({i},{j})");
            assert!((f_col.r.get(i, j).abs() - want).abs() < 1e-9, "col ({i},{j})");
            assert!((tree_r.get(i, j).abs() - want).abs() < 1e-9, "tree ({i},{j})");
        }
    }
    tsqr_q.release(&m);
}

#[test]
fn collective_cost_identities() {
    use ca_symm_eig::pla::coll;
    let p = 8;
    let grid = Grid::all(p);
    let words = 1 << 12;

    // Broadcast ≈ scatter + allgather: per-proc ≤ 3·words + O(1).
    let m = machine(p);
    coll::bcast(&m, &grid, 0, words);
    for w in m.comm_per_proc() {
        assert!(w <= 3 * words + 8, "bcast per-proc {w}");
    }

    // Reduce is the dual of bcast: same asymptotic per-proc traffic.
    let m2 = machine(p);
    coll::reduce(&m2, &grid, 0, words);
    let bcast_max = m.comm_per_proc().into_iter().max().unwrap();
    let reduce_max = m2.comm_per_proc().into_iter().max().unwrap();
    let ratio = reduce_max as f64 / bcast_max as f64;
    assert!((0.3..3.0).contains(&ratio), "bcast/reduce asymmetry {ratio}");

    // All-reduce volume ≈ 2× reduce-scatter volume.
    let m3 = machine(p);
    coll::reduce_scatter(&m3, &grid, words);
    let rs = m3.report().total_volume_words;
    let m4 = machine(p);
    coll::allreduce(&m4, &grid, words);
    let ar = m4.report().total_volume_words;
    assert!(ar > rs && ar < 3 * rs, "allreduce {ar} vs reduce_scatter {rs}");
}

#[test]
fn cyclic_and_block_layouts_interoperate() {
    use ca_symm_eig::pla::cyclic::{from_block, CyclicMatrix};
    let m = machine(4);
    let g = Grid::new_2d((0..4).collect(), 2, 2);
    let mut rng = StdRng::seed_from_u64(702);
    let a = gen::random_matrix(&mut rng, 20, 20);
    let cyc = CyclicMatrix::from_dense(&m, &g, &a, 3, 3);
    let blk = cyc.to_block(&m, &g);
    let round = from_block(&m, &blk, 5, 2);
    assert!(round.assemble_unchecked().max_diff(&a) < 1e-15);
    // Every conversion charged communication.
    assert!(m.report().total_volume_words > 0);
}

#[test]
fn reconstruction_composes_with_tsqr_on_many_shapes() {
    for (mrows, n, g, seed) in [(32usize, 4usize, 4usize, 703u64), (48, 6, 8, 704), (24, 8, 2, 705)] {
        let m = machine(g);
        let grid = Grid::new_2d((0..g).collect(), g, 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gen::random_matrix(&mut rng, mrows, n);
        let da = DistMatrix::from_dense(&m, &grid, &a);
        let (q, r) = ca_symm_eig::pla::tsqr::tsqr_explicit(&m, &da);
        let rec = ca_symm_eig::pla::reconstruct::reconstruct(&m, &q);
        // A = (I − U T Uᵀ)[S·R; 0].
        let r_fixed = rec.fix_r(&r);
        let u = rec.u.assemble_unchecked();
        let mut stack = Matrix::zeros(mrows, n);
        stack.set_block(0, 0, &r_fixed);
        let ut = matmul(&u, Trans::T, &stack, Trans::N);
        let tut = matmul(&rec.t, Trans::N, &ut, Trans::N);
        let corr = matmul(&u, Trans::N, &tut, Trans::N);
        stack.axpy(-1.0, &corr);
        assert!(
            stack.max_diff(&a) < 1e-9 * (1.0 + a.norm_max()),
            "m={mrows} n={n} g={g}: {}",
            stack.max_diff(&a)
        );
    }
}
