#![allow(clippy::needless_range_loop)]
//! Cross-cutting integration of the §III building blocks: CARMA and
//! Streaming-MM agree with the sequential product on the same problem
//! and order correctly in communication cost; the QR paths agree on `R`;
//! collectives satisfy their cost identities.

use ca_symm_eig::bsp::{Machine, MachineParams};
use ca_symm_eig::dla::gemm::{matmul, Trans};
use ca_symm_eig::dla::{gen, Matrix};
use ca_symm_eig::pla::carma::carma;
use ca_symm_eig::pla::dist::DistMatrix;
use ca_symm_eig::pla::grid::Grid;
use ca_symm_eig::pla::streaming::{streaming_mm_dense, streaming_mm_view_into, Replicated};
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
    // streaming must beat the general recursive algorithm on W.
    let w_carma = m2.report().horizontal_words;
    let snap = m3.snapshot();
    let _ = streaming_mm_dense(&m3, &g3, &a, (0, 0, n, n), false, &b, 1);
    m3.fence();
    let w_stream = m3.costs_since(&snap).horizontal_words;
    assert!(
        w_stream < w_carma,
        "streaming {w_stream} should beat carma {w_carma}"
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

/// `(case label, [F, W, Q, S, M, total volume, total flops], FNV-1a of
/// the output bits)` for the building-block calls no solve pins: each
/// case runs on a fresh machine from its inputs' distribution on, so the
/// ledger covers the whole call. The rows were recorded while every
/// distributed matrix still kept one copy per rank, and held when they
/// became one buffer plus a layout. The two Streaming-MM rows were recorded while each
/// rank's partial product was still computed on its own, and held when
/// the numerics became one product per inner block. Re-run with
/// `UPDATE_GOLDEN=1 cargo test --test building_blocks -- --nocapture` to
/// print new pin lines after an intentional accounting change.
#[rustfmt::skip]
const BLOCK_PINS: &[(&str, [u64; 7], u64)] = &[
    ("rect_qr_tree m=128 n=8 p=4 q_max=4", [38362, 3252, 2976, 76, 1280, 12368, 109025], 0x391286862b861989),
    ("rect_qr_tree m=96 n=8 p=3 q_max=2", [36382, 2784, 3024, 49, 1432, 6848, 67818], 0x36d3f22fa10c4188),
    ("rect_qr_tree m=24 n=12 p=4 q_max=2", [53640, 1728, 2448, 20, 1512, 3744, 78480], 0x0a2f6a1109252614),
    ("dist_lu_signed n=16 q=4", [426, 302, 144, 26, 48, 3392, 2728], 0x6352345873e93956),
    ("dist_lu_signed n=9 q=3", [126, 130, 54, 20, 27, 882, 486], 0x5b628c5ee56b7056),
    ("dist_tri_inverse upper non-unit n=12 q=2", [900, 162, 216, 7, 72, 576, 1044], 0x7af45b451e04928c),
    ("dist_tri_inverse lower unit n=13 q=3", [560, 227, 177, 13, 100, 1370, 1471], 0xf69dc47503d33b5f),
    ("tsqr_explicit+reconstruct m=48 n=6 g=8", [10800, 554, 405, 43, 189, 2946, 37134], 0x0d703c4582b88f2c),
    ("tsqr_explicit+reconstruct m=60 n=5 g=6", [7217, 412, 349, 42, 226, 1960, 21824], 0x1d56a5a53d4ac9b7),
    ("rect_qr explicit_q+apply_qt m=20 n=8 g=4 base=4", [8051, 1110, 1218, 106, 191, 4248, 23836], 0x7505e5c3f52c762c),
    ("DistMatrix::redistribute 10x6 2x2->3x2", [0, 54, 0, 2, 24, 240, 0], 0x61d3e0fa971991e5),
    ("DistMatrix::block_redist 11x7 3x2 (2,1,6,5)->2x1", [0, 59, 0, 2, 31, 214, 0], 0xf775e5a982e13ab3),
    ("DistMatrix::transpose 10x7 3x3", [0, 35, 0, 2, 24, 232, 0], 0x3f0c1545aa1a6366),
    ("DistMatrix::gather 9x11 2x3 root=1", [0, 114, 0, 2, 20, 366, 0], 0x6c727d5505eb94fc),
    ("DistMatrix::replicate 9x11 2x3 onto 4", [0, 210, 0, 3, 119, 897, 0], 0x5f0dc968264860de),
    ("streaming_mm_view_into q=4 c=4 w=1 29x11 tb", [450, 84, 123, 7, 0, 4776, 23254], 0xcfd1f36b53d04ce1),
    ("streaming_mm_view_into q=4 c=2 w=3 29x4", [300, 56, 106, 9, 0, 1696, 8456], 0xd6d314911c79b5bc),
];

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

/// Run `case` on a fresh `p`-processor machine (it appends its outputs
/// to the vector) and check the ledger and output bits against
/// [`BLOCK_PINS`].
fn check_pin(label: &str, p: usize, case: impl FnOnce(&Machine, &mut Vec<f64>)) {
    let m = machine(p);
    let mut out = Vec::new();
    case(&m, &mut out);
    let c = m.report();
    let got = (
        [
            c.flops,
            c.horizontal_words,
            c.vertical_words,
            c.supersteps,
            c.peak_memory_words,
            c.total_volume_words,
            c.total_flops,
        ],
        bit_hash(&out),
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!("    (\"{label}\", {:?}, 0x{:016x}),", got.0, got.1);
        return;
    }
    let pin = BLOCK_PINS
        .iter()
        .find(|p| p.0 == label)
        .unwrap_or_else(|| panic!("{label}: no pinned ledger"));
    assert_eq!(got.0, pin.1, "{label}: ledger drifted from its pin");
    assert_eq!(
        format!("{:016x}", got.1),
        format!("{:016x}", pin.2),
        "{label}: output bits drifted from their pin"
    );
}

fn diag_dominant(n: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut a = gen::random_matrix(&mut rng, n, n);
    for i in 0..n {
        a.set(i, i, n as f64 + a.get(i, i));
    }
    a
}

#[test]
fn building_block_ledgers_and_bits_are_pinned() {
    use ca_symm_eig::dla::lu::{lu_nopivot, Diag, Triangle};
    use ca_symm_eig::pla::lu::{dist_lu_signed, dist_tri_inverse};
    use ca_symm_eig::pla::reconstruct::reconstruct;
    use ca_symm_eig::pla::rect_qr::{apply_qt, explicit_q, rect_qr_tree, rect_qr_with_base};
    use ca_symm_eig::pla::tsqr::tsqr_explicit;

    let random = |rows: usize, cols: usize, seed: u64| {
        gen::random_matrix(&mut StdRng::seed_from_u64(seed), rows, cols)
    };
    let grid = |p: usize, pr: usize, pc: usize| Grid::new_2d((0..p).collect(), pr, pc);

    // rect_qr_tree: the tall tree, its uneven p = 3 processor split, and
    // the (nearly) square base case.
    for (mrows, n, p, q_max, seed) in [(128, 8, 4, 4, 160), (96, 8, 3, 2, 163), (24, 12, 4, 2, 162)] {
        check_pin(&format!("rect_qr_tree m={mrows} n={n} p={p} q_max={q_max}"), p, |m, out| {
            let da = DistMatrix::from_dense(m, &grid(p, p, 1), &random(mrows, n, seed));
            let (q, r) = rect_qr_tree(m, &da, q_max);
            out.extend_from_slice(q.dense().data());
            out.extend_from_slice(r.data());
        });
    }

    for (n, q) in [(16, 4), (9, 3)] {
        check_pin(&format!("dist_lu_signed n={n} q={q}"), q * q, |m, out| {
            let da = DistMatrix::from_dense(m, &grid(q * q, q, q), &diag_dominant(n, 100 + n as u64));
            let (l, u, s) = dist_lu_signed(m, &da);
            out.extend_from_slice(l.dense().data());
            out.extend_from_slice(u.dense().data());
            out.extend(s);
        });
    }

    check_pin("dist_tri_inverse upper non-unit n=12 q=2", 4, |m, out| {
        let (_, u) = lu_nopivot(&diag_dominant(12, 105));
        let du = DistMatrix::from_dense(m, &grid(4, 2, 2), &u);
        out.extend_from_slice(dist_tri_inverse(m, &du, Triangle::Upper, Diag::NonUnit).dense().data());
    });
    check_pin("dist_tri_inverse lower unit n=13 q=3", 9, |m, out| {
        let (l, _) = lu_nopivot(&diag_dominant(13, 106));
        let dl = DistMatrix::from_dense(m, &grid(9, 3, 3), &l);
        out.extend_from_slice(dist_tri_inverse(m, &dl, Triangle::Lower, Diag::Unit).dense().data());
    });

    for (mrows, n, g, seed) in [(48, 6, 8, 704), (60, 5, 6, 92)] {
        check_pin(&format!("tsqr_explicit+reconstruct m={mrows} n={n} g={g}"), g, |m, out| {
            let da = DistMatrix::from_dense(m, &grid(g, g, 1), &random(mrows, n, seed));
            let (q, r) = tsqr_explicit(m, &da);
            let rec = reconstruct(m, &q);
            out.extend_from_slice(q.dense().data());
            out.extend_from_slice(r.data());
            out.extend_from_slice(rec.u.dense().data());
            out.extend_from_slice(rec.t.data());
            out.extend(rec.s);
        });
    }

    check_pin("rect_qr explicit_q+apply_qt m=20 n=8 g=4 base=4", 4, |m, out| {
        let g = grid(4, 4, 1);
        let da = DistMatrix::from_dense(m, &g, &random(20, 8, 145));
        let f = rect_qr_with_base(m, &da, 4);
        let q = explicit_q(m, &f);
        let mut dc = DistMatrix::from_dense(m, &g, &random(20, 5, 146));
        apply_qt(m, &f, &mut dc);
        out.extend_from_slice(f.u.dense().data());
        out.extend_from_slice(f.t.data());
        out.extend_from_slice(f.r.data());
        out.extend_from_slice(q.dense().data());
        out.extend_from_slice(dc.dense().data());
    });

    check_pin("DistMatrix::redistribute 10x6 2x2->3x2", 8, |m, out| {
        let d = DistMatrix::from_dense(m, &grid(4, 2, 2), &random(10, 6, 72));
        let g2 = Grid::new_2d((2..8).collect(), 3, 2);
        out.extend_from_slice(d.redistribute(m, &g2).dense().data());
    });
    check_pin("DistMatrix::block_redist 11x7 3x2 (2,1,6,5)->2x1", 6, |m, out| {
        let d = DistMatrix::from_dense(m, &grid(6, 3, 2), &random(11, 7, 73));
        let g2 = Grid::new_2d(vec![1, 4], 2, 1);
        out.extend_from_slice(d.block_redist(m, 2, 1, 6, 5, &g2).dense().data());
    });
    check_pin("DistMatrix::transpose 10x7 3x3", 9, |m, out| {
        let d = DistMatrix::from_dense(m, &grid(9, 3, 3), &random(10, 7, 74));
        out.extend_from_slice(d.transpose(m).dense().data());
    });
    check_pin("DistMatrix::gather 9x11 2x3 root=1", 6, |m, out| {
        let d = DistMatrix::from_dense(m, &grid(6, 2, 3), &random(9, 11, 75));
        out.extend_from_slice(d.gather(m, 1).data());
    });
    check_pin("DistMatrix::replicate 9x11 2x3 onto 4", 6, |m, out| {
        let d = DistMatrix::from_dense(m, &grid(6, 2, 3), &random(9, 11, 76));
        out.extend_from_slice(d.replicate(m, &Grid::new_1d(vec![0, 2, 4, 5])).data());
    });

    // Streaming-MM at the solver's q = 4 grids: c = 4 with a
    // transposed-B operand streamed once per layer, and c = 2 streamed
    // three deep with fewer columns than the z = w·c column blocks (so
    // some blocks are empty). The output lands in a strided window.
    for (q, c, w, k, transpose_b, seed) in [(4usize, 4usize, 1usize, 11usize, true, 820u64), (4, 2, 3, 4, false, 821)] {
        let tb = if transpose_b { " tb" } else { "" };
        check_pin(&format!("streaming_mm_view_into q={q} c={c} w={w} 29x{k}{tb}"), q * q * c, |m, out| {
            let g = Grid::new_3d((0..q * q * c).collect(), q, q, c);
            let a = random(37, 41, seed);
            let (sub, inner, rows) = ((3, 2, 29, 35), 35, 29);
            let b = if transpose_b { random(k, inner, seed + 1) } else { random(inner, k, seed + 1) };
            let mut host = Matrix::zeros(rows + 1, k + 2);
            streaming_mm_view_into(
                m,
                &g,
                &a.view(),
                sub,
                false,
                &b.view(),
                transpose_b,
                w,
                &mut host.subview_mut(1, 1, rows, k),
            );
            out.extend_from_slice(host.data());
        });
    }

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
        let u = rec.u.dense().clone();
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
