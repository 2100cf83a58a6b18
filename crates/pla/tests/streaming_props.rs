//! Streaming-MM's numerics against its per-rank oracle, bit for bit.
//!
//! `streaming_mm_view_into` charges every rank of Algorithm III.1 but
//! computes one product per inner block over the whole output;
//! `ca_dla::oracle::streaming_mm_partials_reference` computes one
//! partial per (column block, inner block, row block), as the ranks do.
//! By GEMM's cell contract the two agree in every bit — signed zeros,
//! empty blocks and a strided output included — which these cases pin.

use ca_bsp::{Machine, MachineParams};
use ca_dla::oracle::streaming_mm_partials_reference;
use ca_dla::{gen, Matrix};
use ca_pla::grid::Grid;
use ca_pla::streaming::streaming_mm_view_into;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(out_rows, inner, k)`: a plain shape, then the ragged ones — fewer
/// output rows than `q`, a shorter inner dimension than `q`, fewer
/// columns than `z = w·c` — and inner blocks longer than one GEMM chunk
/// (`KC = 256`) at `q ≤ 2`, so a block's partial is itself a sum of
/// chunks.
const SHAPES: [(usize, usize, usize); 5] =
    [(13, 17, 9), (2, 17, 9), (11, 2, 7), (10, 9, 3), (5, 600, 4)];

/// A stored operand whose first rows are `+0`, `−0` and values small
/// enough that their products underflow, so the partial sums carry
/// signed zeros.
fn operand_with_zero_rows(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    let mut a = gen::random_matrix(rng, rows, cols);
    for j in 0..cols {
        a.set(0, j, 0.0);
        if rows > 1 {
            a.set(1, j, -0.0);
        }
        if rows > 2 {
            a.set(2, j, a.get(2, j) * 1e-323);
        }
    }
    a
}

#[test]
fn fused_numerics_match_the_per_rank_partials_bit_for_bit() {
    let mut cases = 0;
    for (q, c, w) in [
        (1usize, 1usize, 1usize),
        (2, 1, 1),
        (2, 2, 2),
        (3, 1, 2),
        (4, 4, 1),
        (4, 4, 3),
    ] {
        let p = q * q * c;
        let g = Grid::new_3d((0..p).collect(), q, q, c);
        for (si, &(out_rows, inner, k)) in SHAPES.iter().enumerate() {
            for (transpose_a, transpose_b) in
                [(false, false), (false, true), (true, false), (true, true)]
            {
                let seed =
                    (1000 * p + 100 * si) as u64 + 2 * transpose_a as u64 + transpose_b as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                // A[sub] is `out_rows × inner` (`inner × out_rows`
                // transposed), cut from a larger stored matrix.
                let (nr, nc) = if transpose_a {
                    (inner, out_rows)
                } else {
                    (out_rows, inner)
                };
                let sub = (2, 1, nr, nc);
                let a = operand_with_zero_rows(&mut rng, nr + 3, nc + 2);
                let b = if transpose_b {
                    gen::random_matrix(&mut rng, k, inner)
                } else {
                    gen::random_matrix(&mut rng, inner, k)
                };

                let mut want = Matrix::from_fn(out_rows + 2, k + 3, |_, _| 7.0);
                streaming_mm_partials_reference(
                    &a.view().sub(sub.0, sub.1, nr, nc),
                    transpose_a,
                    &b.view(),
                    transpose_b,
                    q,
                    w * c,
                    &mut want.subview_mut(1, 2, out_rows, k),
                );

                let m = Machine::new(MachineParams::new(p));
                let mut got = Matrix::from_fn(out_rows + 2, k + 3, |_, _| 7.0);
                streaming_mm_view_into(
                    &m,
                    &g,
                    &a.view(),
                    sub,
                    transpose_a,
                    &b.view(),
                    transpose_b,
                    w,
                    &mut got.subview_mut(1, 2, out_rows, k),
                );

                for (idx, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "q={q} c={c} w={w} shape {:?} ta={transpose_a} tb={transpose_b}: \
                         bits differ at flat index {idx} ({x:e} vs {y:e})",
                        SHAPES[si]
                    );
                }
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 6 * SHAPES.len() * 4);
}
