//! Streaming-MM (Algorithm III.1 / Lemma III.3): multiplication with a
//! pre-replicated operand on a `q × q × c` grid.
//!
//! The operand `A` is stored once per layer (`c` copies, each distributed
//! over a `q × q` grid); the thin operand `B` streams through in
//! `z = w·c` column blocks, `w` per layer. Each iteration gathers `B_jh`
//! along grid rows, multiplies against the resident `A_ij` blocks, and
//! reduce-scatters `C_ih = Σ_j A_ij·B_jh` along grid columns — per-proc
//! communication `O((mk + nk)/(qc)) = O((mk + nk)/pᵟ)`, the key saving
//! over non-replicated multiplication that Algorithm IV.1 exploits for
//! its aggregated trailing updates.
//!
//! Vertical traffic follows Lemma III.3's two cases: if a processor's
//! `A` block fits in cache it is read once across all `w` iterations;
//! otherwise each iteration re-reads it.
//!
//! Numerics on the whole operand, charges on the layout (DESIGN.md §6b):
//! the ranks are a charge walk over block shapes, and the arithmetic is
//! one GEMM per inner block `j` over every row block, column block and
//! layer at once. Per cell that is the ranks' own sum — by GEMM's cell
//! contract a cell's bits depend only on its inner range — so the output
//! is the per-rank partials' bit for bit
//! (`ca_dla::oracle::streaming_mm_partials_reference`).

use crate::coll;
use crate::dist::{splits, DistMatrix};
use crate::grid::Grid;
use ca_bsp::Machine;
use ca_dla::gemm::{gemm_view, Trans};
use ca_dla::view::{MatrixView, MatrixViewMut};
use ca_dla::workspace::with_ws;
use ca_dla::Matrix;

/// The record of a `rows × cols` matrix replicated over the `c` layers
/// of a 3D grid, distributed over a 2D `q₀ × q₁` grid within each layer.
/// It holds the layout only — the charges and the memory ledger follow
/// from the block dimensions; a caller that multiplies against the
/// operand passes it dense to [`streaming_mm_dense`].
#[derive(Debug, Clone)]
pub struct Replicated {
    /// The full `q₀ × q₁ × c` grid.
    grid3: Grid,
    /// Rows of the replicated matrix.
    rows: usize,
    /// Columns of the replicated matrix.
    cols: usize,
}

impl Replicated {
    /// Replicate a `rows × cols` matrix (starting from any balanced
    /// layout over the whole grid) onto every layer: distribute over
    /// layer 0, then broadcast along the layer fibers.
    pub fn replicate(m: &Machine, grid3: &Grid, rows: usize, cols: usize) -> Replicated {
        let rep = Replicated {
            grid3: grid3.clone(),
            rows,
            cols,
        };
        let (q0, q1, c) = grid3.shape();
        let layer0 = grid3.layer(0);
        DistMatrix::record_alloc(m, &layer0, rows, cols);
        for i in 0..q0 {
            for j in 0..q1 {
                m.charge_comm(grid3.at(i, j, 0), 2 * rep.block_words(i, j));
            }
        }
        m.step(layer0.procs(), 1);
        // Fiber broadcast of each block to the other layers.
        if c > 1 {
            for i in 0..q0 {
                for j in 0..q1 {
                    let fiber = grid3.fiber_group(i, j);
                    coll::bcast(m, &fiber, 0, rep.block_words(i, j));
                    for l in 1..c {
                        m.alloc(grid3.at(i, j, l), rep.block_words(i, j));
                    }
                }
            }
        }
        rep
    }

    /// Words of replicated storage per layer-0 processor block `(i, j)`.
    fn block_words(&self, i: usize, j: usize) -> u64 {
        let (q0, q1, _) = self.grid3.shape();
        let (rs, cs) = (splits(self.rows, q0), splits(self.cols, q1));
        ((rs[i + 1] - rs[i]) * (cs[j + 1] - cs[j])) as u64
    }

    /// Release all layers' storage.
    pub fn release(self, m: &Machine) {
        let (q0, q1, c) = self.grid3.shape();
        for i in 0..q0 {
            for j in 0..q1 {
                let words = self.block_words(i, j);
                for l in 1..c {
                    m.free(self.grid3.at(i, j, l), words);
                }
            }
        }
        DistMatrix::record_free(m, &self.grid3.layer(0), self.rows, self.cols);
    }
}

/// `C = op(A[sub])·B` where `A` is replicated across the grid's layers
/// (the caller vouches for it: a [`Replicated`] record, or Algorithm
/// IV.1's aggregated `U⁽⁰⁾`/`V⁽⁰⁾` panels, which line 10 of the algorithm
/// replicates as they are produced) and supplied dense, `sub` selects
/// the rows/cols `(r0, c0, nr, nc)` of `A` to use (Algorithm IV.1
/// multiplies against trailing submatrices), `B` is `nc × k` (`nr × k`
/// when transposed) in any balanced layout, and `w` is the per-layer
/// streaming depth of Algorithm III.1.
///
/// Returns `C` (`nr × k`, or `nc × k` transposed) evenly spread over the
/// grid.
pub fn streaming_mm_dense(
    m: &Machine,
    grid3: &Grid,
    a_dense: &Matrix,
    sub: (usize, usize, usize, usize),
    transpose_a: bool,
    b: &Matrix,
    w: usize,
) -> Matrix {
    let (_, _, nr, nc) = sub;
    let out_rows = if transpose_a { nc } else { nr };
    let mut out = Matrix::zeros(out_rows, b.cols());
    streaming_mm_view_into(
        m,
        grid3,
        &a_dense.view(),
        sub,
        transpose_a,
        &b.view(),
        false,
        w,
        &mut out.view_mut(),
    );
    out
}

/// The Streaming-MM sweep on views: `out ← op(A[sub])·op(B)`, written
/// (overwritten) into a strided output view; [`streaming_mm_dense`] is
/// the allocating wrapper.
///
/// The reduction drivers stream trailing updates straight out of the
/// replicated operand and straight into pre-allocated aggregate
/// storage. The charges walk the ranks of Algorithm III.1 — gather,
/// local multiply with Lemma III.3's resident-`A` rule, reduce-scatter,
/// per (layer, column block, inner block, row block) — from block
/// shapes alone. The numerics are the reduce-scatter's `Σⱼ` with `j`
/// outermost: for each non-empty inner block, one `β = 0` product
/// `op(A)[:, j]·op(B)[j, :]` over the whole output into one arena
/// buffer, added elementwise into the zero-filled output. Each cell is
/// `((0 + P₀) + P₁) + …` over the inner blocks in order, exactly as
/// when each rank computed its partial apart (the `0.0 + x` first touch
/// is observable on signed zeros, so it is part of the contract); the
/// inner blocks are not fused, because one product over the whole inner
/// range would move GEMM's chunk boundaries. Neither the output stride
/// nor `transpose_b` changes the ledger or the product's bits.
///
/// `transpose_b` streams `Bᵀ` without materializing the transpose (the
/// aggregate-panel operands of Algorithm IV.1's lines 5/12 are
/// transposed blocks): the GEMM kernels' operand resolver reads the
/// stored orientation in place, performing the same arithmetic in the
/// same order as on a pre-transposed copy.
#[allow(clippy::too_many_arguments)] // mirrors streaming_mm_dense + the output view
pub fn streaming_mm_view_into(
    m: &Machine,
    grid3: &Grid,
    a_dense: &MatrixView,
    sub: (usize, usize, usize, usize),
    transpose_a: bool,
    b: &MatrixView,
    transpose_b: bool,
    w: usize,
    out: &mut MatrixViewMut,
) {
    let (r0, c0, nr, nc) = sub;
    let (q0, q1, c) = grid3.shape();
    assert_eq!(q0, q1, "streaming_mm expects a square per-layer grid");
    let q = q0;
    let (inner, out_rows) = if transpose_a { (nr, nc) } else { (nc, nr) };
    let (b_rows, k) = if transpose_b {
        (b.cols(), b.rows())
    } else {
        (b.rows(), b.cols())
    };
    assert_eq!(b_rows, inner, "streaming_mm: inner dimension mismatch");
    assert_eq!(
        (out.rows(), out.cols()),
        (out_rows, k),
        "streaming_mm_view_into: output shape disagrees"
    );
    let w = w.max(1);
    let z = w * c;

    // Redistribute B (charged from any balanced layout).
    let total_b = (inner * k) as u64;
    for &pid in grid3.procs() {
        m.charge_comm(pid, 2 * total_b / grid3.len() as u64);
    }
    m.step(grid3.procs(), 1);

    // Split the inner dimension by the layer grid's owner blocks of A
    // and the k dimension into z column blocks.
    let inner_splits = splits(inner, q);
    let k_splits = splits(k, z);
    let out_splits = splits(out_rows, q);
    let h_cache = m.cache_words();

    // The charge walk: rank (idim, jdim, l) holds A_ij resident while
    // its layer's w column blocks of B stream past it.
    for l in 0..c {
        // Layer l handles column blocks h ∈ {l, l+c, …, l+(w−1)c}.
        for step in 0..w {
            let h = l + step * c;
            if h >= z || k_splits[h] == k_splits[h + 1] {
                continue;
            }
            let kb = k_splits[h + 1] - k_splits[h];
            for jdim in 0..q {
                let jb = inner_splits[jdim + 1] - inner_splits[jdim];
                if jb == 0 {
                    continue;
                }
                // Gather B_jh along the row dimension of the layer grid.
                let gather_group = if transpose_a {
                    grid3.dim1_group(jdim, l)
                } else {
                    grid3.dim0_group(jdim, l)
                };
                coll::allgather(m, &gather_group, (jb * kb) as u64 / q as u64);

                for idim in 0..q {
                    let ib = out_splits[idim + 1] - out_splits[idim];
                    if ib == 0 {
                        continue;
                    }
                    let pid = grid3.at(
                        if transpose_a { jdim } else { idim },
                        if transpose_a { idim } else { jdim },
                        l,
                    );
                    // Local multiply C̄_ijh = A_ij·B_jh with Lemma III.3
                    // vertical accounting: A resident in cache across
                    // iterations when it fits.
                    m.charge_flops(pid, 2 * ib as u64 * jb as u64 * kb as u64);
                    let a_words = (ib * jb) as u64;
                    let bc_words = (jb * kb + ib * kb) as u64;
                    let vert = if a_words <= h_cache && step > 0 {
                        bc_words
                    } else {
                        bc_words + a_words
                    };
                    m.charge_vert(pid, vert);
                }
            }
            // Reduce-scatter C_ih = Σ_j C̄_ijh along the other dimension.
            for idim in 0..q {
                let group = if transpose_a {
                    grid3.dim0_group(idim, l)
                } else {
                    grid3.dim1_group(idim, l)
                };
                let ci_words = ((out_splits[idim + 1] - out_splits[idim]) * kb) as u64;
                coll::reduce_scatter(m, &group, ci_words);
            }
            m.step(grid3.procs(), 1);
        }
    }

    // The numerics: the reduce-scatter's Σⱼ, one inner block at a time
    // over every row block, column block and layer at once.
    out.fill(0.0);
    if out_rows == 0 || k == 0 {
        return;
    }
    let ta = if transpose_a { Trans::T } else { Trans::N };
    let tb = if transpose_b { Trans::T } else { Trans::N };
    let mut buf = with_ws(|ws| ws.take_scratch(out_rows * k));
    let mut part = MatrixViewMut::from_slice(&mut buf, out_rows, k);
    for jdim in 0..q {
        let (j0, j1) = (inner_splits[jdim], inner_splits[jdim + 1]);
        if j0 == j1 {
            continue;
        }
        let a_j = if transpose_a {
            a_dense.sub(r0 + j0, c0, j1 - j0, out_rows)
        } else {
            a_dense.sub(r0, c0 + j0, out_rows, j1 - j0)
        };
        let b_j = if transpose_b {
            b.sub(0, j0, k, j1 - j0)
        } else {
            b.sub(j0, 0, j1 - j0, k)
        };
        gemm_view(1.0, &a_j, ta, &b_j, tb, 0.0, &mut part);
        out.add_scaled(1.0, &part.as_view());
    }
    with_ws(|ws| ws.put(buf));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;
    use ca_dla::gemm::matmul;
    use ca_dla::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    fn grid3(q: usize, c: usize) -> Grid {
        Grid::new_3d((0..q * q * c).collect(), q, q, c)
    }

    #[test]
    fn full_matrix_product_matches() {
        for (q, c, w) in [(2usize, 1usize, 1usize), (2, 2, 1), (2, 2, 2), (3, 1, 2)] {
            let p = q * q * c;
            let m = machine(p);
            let g = grid3(q, c);
            let mut rng = StdRng::seed_from_u64(160 + (q * c + w) as u64);
            let a = gen::random_matrix(&mut rng, 12, 12);
            let b = gen::random_matrix(&mut rng, 12, 6);
            let cmat = streaming_mm_dense(&m, &g, &a, (0, 0, 12, 12), false, &b, w);
            let want = matmul(&a, Trans::N, &b, Trans::N);
            assert!(
                cmat.max_diff(&want) < 1e-11,
                "q={q} c={c} w={w}: wrong product"
            );
        }
    }

    #[test]
    fn submatrix_product_matches() {
        let m = machine(8);
        let g = grid3(2, 2);
        let mut rng = StdRng::seed_from_u64(170);
        let a = gen::random_matrix(&mut rng, 16, 16);
        let b = gen::random_matrix(&mut rng, 10, 4);
        // A[4.., 6..]·B with the 12×10 trailing block.
        let cmat = streaming_mm_dense(&m, &g, &a, (4, 6, 12, 10), false, &b, 2);
        let want = matmul(&a.block(4, 6, 12, 10), Trans::N, &b, Trans::N);
        assert!(cmat.max_diff(&want) < 1e-11);
    }

    #[test]
    fn transposed_product_matches() {
        let m = machine(4);
        let g = grid3(2, 1);
        let mut rng = StdRng::seed_from_u64(171);
        let a = gen::random_matrix(&mut rng, 14, 14);
        let b = gen::random_matrix(&mut rng, 9, 5);
        // A[2..11, 3..14)ᵀ·B: (9×11)ᵀ is 11×9 · 9×5.
        let cmat = streaming_mm_dense(&m, &g, &a, (2, 3, 9, 11), true, &b, 1);
        let want = matmul(&a.block(2, 3, 9, 11), Trans::T, &b, Trans::N);
        assert!(cmat.max_diff(&want) < 1e-11);
    }

    #[test]
    fn view_into_variant_is_bitwise_identical_with_matching_charges() {
        // Output stride and `op(B)` must be invisible: the strided /
        // transposed-B `_into` call agrees bitwise and in ledger with
        // the plain wrapper, and the ledger is the one the deleted
        // copy-path body charged (its `report()` at the commit before
        // its removal).
        for (q, c, w, sub, transpose_a, transpose_b, k, seed, pin) in [
            (2usize, 1usize, 1usize, (0usize, 0usize, 12usize, 12usize), false, false, 6usize, 400u64,
             [450u64, 108, 108, 5, 0, 432, 1800]),
            (2, 2, 2, (4, 6, 12, 10), false, false, 4, 401, [126, 30, 52, 10, 0, 240, 1008]),
            (2, 1, 1, (2, 3, 9, 11), true, false, 5, 402, [315, 76, 85, 5, 0, 286, 1044]),
            (3, 1, 2, (1, 0, 13, 14), false, false, 7, 403, [373, 111, 95, 8, 0, 921, 2725]),
            (2, 1, 2, (3, 1, 11, 9), false, true, 6, 404, [378, 91, 96, 8, 0, 344, 1252]),
            (2, 2, 1, (0, 2, 10, 13), true, true, 5, 405, [220, 47, 71, 6, 0, 322, 1364]),
        ] {
            let p = q * q * c;
            let g = grid3(q, c);
            let mut rng = StdRng::seed_from_u64(seed);
            let a = gen::random_matrix(&mut rng, 16, 17);
            let (_, _, nr, nc) = sub;
            let inner = if transpose_a { nr } else { nc };
            let out_rows = if transpose_a { nc } else { nr };
            // The wrapper takes B stored `inner x k`; the view call may
            // instead read the transpose of a `k x inner` backing store.
            let b = gen::random_matrix(&mut rng, inner, k);
            let b_stored = if transpose_b { b.transpose() } else { b.clone() };

            let m1 = machine(p);
            let want = streaming_mm_dense(&m1, &g, &a, sub, transpose_a, &b, w);
            m1.fence();

            let m2 = machine(p);
            let mut host = Matrix::zeros(out_rows + 2, k + 3);
            streaming_mm_view_into(
                &m2,
                &g,
                &a.view(),
                sub,
                transpose_a,
                &b_stored.view(),
                transpose_b,
                w,
                &mut host.subview_mut(1, 2, out_rows, k),
            );
            m2.fence();

            for i in 0..out_rows {
                for j in 0..k {
                    assert!(
                        host.get(1 + i, 2 + j).to_bits() == want.get(i, j).to_bits(),
                        "q={q} c={c} w={w} ta={transpose_a} tb={transpose_b}: bit mismatch at ({i},{j})"
                    );
                }
            }
            let r = m1.report();
            assert_eq!(r, m2.report(), "seed {seed}: ledger depends on stride / op(B)");
            assert_eq!(
                crate::ledger_array(r),
                pin,
                "seed {seed}: ledger drifted from the copy-path pin"
            );
        }
    }

    #[test]
    fn replication_cuts_streaming_communication() {
        // Lemma III.3: W = O((mk + nk)/(qc)). Fix q and add layers
        // (p = q²c grows with c): W per processor should drop roughly
        // by c.
        let n = 32;
        let k = 8;
        let q = 2;
        let mut ws = Vec::new();
        for c in [1usize, 4] {
            let p = q * q * c;
            let m = machine(p);
            let g = grid3(q, c);
            let a = Matrix::zeros(n, n);
            let b = Matrix::zeros(n, k);
            Replicated::replicate(&m, &g, n, n);
            let snap = m.snapshot();
            let _ = streaming_mm_dense(&m, &g, &a, (0, 0, n, n), false, &b, 1);
            m.fence();
            ws.push(m.costs_since(&snap).horizontal_words as f64);
        }
        assert!(
            ws[1] < ws[0] / 1.5,
            "W did not drop with replication: {ws:?}"
        );
    }

    #[test]
    fn memory_scales_with_layers() {
        let q = 2;
        let n = 16;
        let m1 = machine(q * q);
        let rep1 = Replicated::replicate(&m1, &grid3(q, 1), n, n);
        let m2 = machine(q * q * 3);
        let rep2 = Replicated::replicate(&m2, &grid3(q, 3), n, n);
        // Peak per-proc memory identical (each holds one block copy).
        assert_eq!(
            m1.report().peak_memory_words,
            m2.report().peak_memory_words
        );
        rep1.release(&m1);
        rep2.release(&m2);
    }
}
