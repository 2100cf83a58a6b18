//! General matrix multiplication, `C ← α·op(A)·op(B) + β·C`.
//!
//! One register-tile kernel computes every product, fed by a
//! three-level cache-blocked (BLIS-style) loop nest over row-major data:
//!
//! * the `n` dimension is split into `NC`-wide panels and the `k`
//!   dimension into `KC`-deep chunks; each `KC × NC` panel of `op(B)` is
//!   **packed** once into `NR`-wide strips,
//! * the `m` dimension is split into `MC`-tall slabs; each `MC × KC`
//!   block of `op(A)` is packed into `MR`-tall strips sized for the L2
//!   cache — or, for a product too small to repay that copy
//!   (`2mnk <` [`SMALL_FLOPS`]), read where it lies through its strides,
//! * an `MR × NR` register tile accumulates over the strips with
//!   fused multiply-adds, one independent chain per cell of `C`. `NR` is
//!   a parameter of the one tile source: 8 (portable and AVX2 + FMA) or
//!   32 (AVX-512F), chosen per product ([`Tile`]).
//!
//! Transposed operands are handled by the packing routines (the gather
//! happens once per panel), never by materializing `op(A)`/`op(B)`, and
//! the packing panels are checked out of the thread's
//! [`Workspace`](crate::workspace::Workspace) arena, so a product
//! allocates nothing once the arena is warm. Row slabs of `C` are
//! distributed over the runtime's workers when the product is worth a
//! wake-up ([`PAR_FLOPS`]) — distinct slabs write disjoint output rows.
//!
//! **The cell contract.** Whatever the shape, orientation, path, tile
//! position, thread count or host, a cell of `C` is computed as
//!
//! ```text
//! c ← β·c                                  (0 if β = 0, untouched if β = 1)
//! for each KC-chunk [p, p + kb) of the inner dimension, p = 0, KC, 2·KC, …:
//!     acc ← 0;  for l in p .. p + kb:  acc ← fma(a[i][l], b[l][j], acc)
//!     c ← c + α·acc                        (a product, then a sum)
//! ```
//!
//! — `k` roundings per chunk instead of the `2k` of a separate multiply
//! and add. The chunk boundaries are multiples of `KC` counted from the
//! start of the inner dimension, so they depend on nothing but `k`; a
//! cell never shares an accumulator with another, so which other rows
//! and columns are computed alongside it (and by which thread) cannot
//! reach its bits. On x86-64 with AVX2 and FMA the tile loop is compiled
//! for those features as a 6×8 tile, and with AVX-512F also as a 6×32
//! one that runs every product at least 32 columns wide (features
//! detected once, [`Fma::detect`]); everywhere else the same source runs
//! with [`f64::mul_add`] lowered to the C library's correctly-rounded
//! `fma` — slow, and bit-for-bit the same.
//!
//! Every path is generic over row strides: [`gemm_view`] accepts
//! [`MatrixView`] operands and a [`MatrixViewMut`] accumulation target,
//! so the bulge-chase and QR kernels multiply directly into sub-blocks
//! of a larger matrix with no `block`/`set_block` copies. The
//! [`Matrix`]-based [`gemm`] is a thin wrapper over the same core (a
//! full view has `stride == cols`).

use crate::matrix::Matrix;
use crate::view::{MatrixView, MatrixViewMut};
use crate::workspace::with_ws;
use rayon::prelude::*;

/// Operand orientation for [`gemm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the operand.
    T,
}

/// Register tile height (rows of `C`), the same in every instantiation,
/// so `op(A)`'s packing and [`MC`] are shared.
const MR: usize = 6;
/// Register tile width (columns of `C`) of the portable and AVX2 + FMA
/// instantiations: twelve 256-bit accumulators, two `B` vectors and one
/// broadcast — fifteen of the sixteen vector registers.
const NR: usize = 8;
/// Register tile width of the AVX-512F instantiation: 24 512-bit
/// accumulators, four `B` vectors and one broadcast — 29 of the 32.
/// (8×16 and 8×24 tiles of the same source spill their accumulators
/// and run at 3–4 GFLOP/s on the reference host.)
const NR_WIDE: usize = 32;
/// Rows of `op(A)` packed per slab (L2-resident: `MC·KC` doubles); a
/// multiple of `MR`, so only a product's last slab has a ragged strip.
const MC: usize = 96;
/// Inner-dimension depth per packed panel — and the chunk length of the
/// cell contract, so changing it changes output bits.
pub(crate) const KC: usize = 256;
/// Columns of `op(B)` packed per panel (`KC·NC` doubles).
const NC: usize = 2048;

/// Flop threshold (2mnk) below which `op(A)` is read in place instead
/// of packed, whatever its orientation: under it the copy costs more
/// than the strided reads.
const SMALL_FLOPS: usize = 1 << 17;

/// The same threshold for an untransposed `A`, whose rows already run
/// along the inner dimension: in place its six row streams read as well
/// as a packed strip, so the copy only starts to pay once the block is
/// large enough for page and cache-set conflicts between rows `ld`
/// apart to matter (measured crossover on the reference host: between
/// 256×256×128 and 256³; a transposed `A` with `ld = 1024` already loses
/// a third of its rate in place at 32×64×224).
const SMALL_FLOPS_ROWS: usize = 1 << 25;

/// Flop threshold (2mnk) above which row slabs are forked. Waking a
/// parked worker and waiting for its piece costs tens of microseconds
/// on the reference host (a 224×64×32 product ran 57 µs forked, 30 µs
/// inline; DESIGN.md §6b); a product this size runs for ~300 µs, so the
/// fork can pay for itself.
pub(crate) const PAR_FLOPS: usize = 1 << 23;

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Panics if the operand shapes are inconsistent with `C`.
pub fn gemm(alpha: f64, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, beta: f64, c: &mut Matrix) {
    gemm_view(alpha, &a.view(), ta, &b.view(), tb, beta, &mut c.view_mut());
}

/// [`gemm`] over strided views: `C ← α·op(A)·op(B) + β·C` accumulated
/// in place into a [`MatrixViewMut`] — the zero-copy entry used by the
/// QR trailing updates and the bulge-chase rank-2 updates.
pub fn gemm_view(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
) {
    check_shapes(a, ta, b, tb, c);
    gemm_core(alpha, a, ta, b, tb, beta, c, None, None);
}

/// A triangle of a matrix as a product uses it (`op(A)`, `op(B)` or
/// `C`): for a factor, where its entries can be non-zero; for the
/// output, which cells the caller wants. Entry `(r, c)` lies in
/// [`Tri::Lower`] when `c ≤ r` and in [`Tri::Upper`] when `c ≥ r`
/// (trapezoids included: the triangle is about the indices, not the
/// shape).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tri {
    /// Every entry.
    Full,
    /// Entries with `c ≤ r`.
    Lower,
    /// Entries with `c ≥ r`.
    Upper,
}

/// Extent at or below which [`gemm_view_tri`] does not halve a
/// dimension: a 32-wide block wastes at most half of a 32-wide diagonal
/// strip, and narrower calls start to pay their packing more than once.
const TRI_LEAF: usize = 32;

/// Flops (2mnk) below which [`gemm_view_tri`] makes one call whatever
/// the structure: cutting a few microseconds of work costs more calls
/// than it saves.
const TRI_FLOPS: usize = 1 << 16;

/// [`gemm_view`] for a product with triangular structure: `op(A)` is
/// zero outside `tri[0]`, `op(B)` outside `tri[1]`, and only the cells of
/// `C` in `tri[2]` are wanted. Every wanted cell is bit for bit
/// [`gemm_view`]'s on the same operands; an unwanted one is either left
/// as it was or computed like a wanted one.
///
/// A product under [`TRI_FLOPS`] is one [`gemm_view`] call on the
/// operands as given. A larger one is cut into blocks by halving the
/// output's rows or columns — the longer of the dimensions along which
/// the structure varies — until a block's structure is flat, its extent
/// is at most [`TRI_LEAF`], or its product is under [`TRI_FLOPS`]; each
/// block is one [`gemm_view`] call on the rows and columns of `C` it
/// wants and the range of the inner dimension where both factors can be
/// non-zero over the block. A large block still forks inside that call.
///
/// Why the bits hold (module docs, the cell contract): a product with a
/// zero factor leaves a chunk's accumulator as it was, so dropping a
/// zero *tail* of the inner dimension changes nothing. Dropping a zero
/// *head* moves the chunk boundaries unless the new start is a multiple
/// of `KC`, so the cut goes back to the chunk boundary below it (with
/// `k ≤ KC` there is one chunk and the whole head goes). A dropped whole
/// chunk would have added `α·0`. This holds for exact zeros in each
/// factor's structural triangle and finite values elsewhere.
#[allow(clippy::too_many_arguments)] // gemm_view's BLAS-shaped signature + the structure
pub fn gemm_view_tri(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
    tri: [Tri; 3],
) {
    let (m, n, k) = check_shapes(a, ta, b, tb, c);
    if 2 * m * n * k < TRI_FLOPS {
        return gemm_core(alpha, a, ta, b, tb, beta, c, None, None);
    }
    let p = TriProduct {
        alpha,
        a: *a,
        ta,
        b: *b,
        tb,
        beta,
        tri,
        k,
    };
    p.block(c, 0..m, 0..n);
}

/// The fixed arguments of one [`gemm_view_tri`] call.
struct TriProduct<'a> {
    alpha: f64,
    a: MatrixView<'a>,
    ta: Trans,
    b: MatrixView<'a>,
    tb: Trans,
    beta: f64,
    tri: [Tri; 3],
    k: usize,
}

type Span = std::ops::Range<usize>;

impl TriProduct<'_> {
    /// What the rows `i` and columns `j` of `C` leave to compute: the
    /// rows and columns with a wanted cell, and the inner range where
    /// both factors can be non-zero for some cell of them (its head cut
    /// only to a `KC` boundary). `None` when no cell is wanted.
    fn needs(&self, mut i: Span, mut j: Span) -> Option<(Span, Span, Span)> {
        match self.tri[2] {
            Tri::Lower => {
                j.end = j.end.min(i.end);
                i.start = i.start.max(j.start);
            }
            Tri::Upper => {
                j.start = j.start.max(i.start);
                i.end = i.end.min(j.end);
            }
            Tri::Full => {}
        }
        if i.is_empty() || j.is_empty() {
            return None;
        }
        let mut l = 0..self.k;
        match self.tri[0] {
            Tri::Lower => l.end = l.end.min(i.end),
            Tri::Upper => l.start = l.start.max(i.start),
            Tri::Full => {}
        }
        match self.tri[1] {
            Tri::Lower => l.start = l.start.max(j.start),
            Tri::Upper => l.end = l.end.min(j.end),
            Tri::Full => {}
        }
        if self.k > KC {
            l.start -= l.start % KC;
        }
        l.start = l.start.min(l.end);
        Some((i, j, l))
    }

    /// Compute the wanted cells of rows `i`, columns `j` of `C`.
    fn block(&self, c: &mut MatrixViewMut, i: Span, j: Span) {
        let Some((i, j, l)) = self.needs(i, j) else {
            return;
        };
        // A dimension is worth halving when its first and last index
        // need different parts of the rest.
        let row_needs = |r: usize| self.needs(r..r + 1, j.clone()).map(|(_, jj, ll)| (jj, ll));
        let col_needs = |s: usize| self.needs(i.clone(), s..s + 1).map(|(ii, _, ll)| (ii, ll));
        let varies_rows = i.len() > TRI_LEAF && row_needs(i.start) != row_needs(i.end - 1);
        let varies_cols = j.len() > TRI_LEAF && col_needs(j.start) != col_needs(j.end - 1);
        let halve = |s: &Span| s.start + (s.len() / 2).next_multiple_of(8).min(s.len() - 1);
        if 2 * i.len() * j.len() * l.len() >= TRI_FLOPS && (varies_rows || varies_cols) {
            if varies_rows && (!varies_cols || i.len() >= j.len()) {
                let mid = halve(&i);
                self.block(c, i.start..mid, j.clone());
                self.block(c, mid..i.end, j);
            } else {
                let mid = halve(&j);
                self.block(c, i.clone(), j.start..mid);
                self.block(c, i, mid..j.end);
            }
            return;
        }
        gemm_view(
            self.alpha,
            &op_sub(&self.a, self.ta, &i, &l),
            self.ta,
            &op_sub(&self.b, self.tb, &l, &j),
            self.tb,
            self.beta,
            &mut c.sub_mut(i.start, j.start, i.len(), j.len()),
        );
    }
}

/// Rows `r` and columns `s` of `op(X)`, as a view of `X`.
fn op_sub<'a>(x: &MatrixView<'a>, t: Trans, r: &Span, s: &Span) -> MatrixView<'a> {
    match t {
        Trans::N => x.sub(r.start, s.start, r.len(), s.len()),
        Trans::T => x.sub(s.start, r.start, s.len(), r.len()),
    }
}

pub(crate) fn check_shapes(
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    c: &MatrixViewMut,
) -> (usize, usize, usize) {
    let (m, k) = match ta {
        Trans::N => (a.rows(), a.cols()),
        Trans::T => (a.cols(), a.rows()),
    };
    let (k2, n) = match tb {
        Trans::N => (b.rows(), b.cols()),
        Trans::T => (b.cols(), b.rows()),
    };
    assert_eq!(k, k2, "gemm: inner dimensions disagree");
    assert_eq!(c.rows(), m, "gemm: output row count disagrees");
    assert_eq!(c.cols(), n, "gemm: output column count disagrees");
    (m, n, k)
}

/// Proof that the host has AVX2 and FMA, and whether it also has
/// AVX-512F: the only way to obtain one is [`Fma::detect`], so holding
/// it is what makes calling a feature-compiled instantiation (the tile
/// loop here, the band sweep in [`crate::bulge`]) sound.
#[derive(Clone, Copy)]
pub(crate) struct Fma {
    avx512f: bool,
}

impl Fma {
    /// The one feature-detection site (cached after the first call).
    pub(crate) fn detect() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            use std::sync::OnceLock;
            static HAVE: OnceLock<Option<Fma>> = OnceLock::new();
            *HAVE.get_or_init(|| {
                (has!("avx2") && has!("fma")).then(|| Self {
                    avx512f: has!("avx512f"),
                })
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        None
    }
}

/// An instantiation of the register tile: one source ([`tile`])
/// compiled three ways. Every one computes every cell by the cell
/// contract, so which one runs cannot change a bit of `C`; a product
/// runs the widest the host has that suits its shape, and
/// `oracle::gemm_view_forced` forces one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tile {
    /// 6×8, [`f64::mul_add`] as the C library's `fma`: any host.
    Portable,
    /// 6×8 compiled for AVX2 + FMA.
    Avx2,
    /// 6×32 compiled for AVX-512F.
    Avx512,
}

impl Tile {
    /// The instantiations this host can run, narrowest first.
    pub fn available() -> &'static [Tile] {
        match Fma::detect() {
            None => &[Tile::Portable],
            Some(Fma { avx512f: false }) => &[Tile::Portable, Tile::Avx2],
            Some(Fma { avx512f: true }) => &[Tile::Portable, Tile::Avx2, Tile::Avx512],
        }
    }

    /// The instantiation a product with `n` columns runs on this host:
    /// the 6×32 tile when the host has AVX-512F and `n ≥ NR_WIDE`, else
    /// the widest 6×8 one. Narrower products stay on 6×8, where a 6×32
    /// strip would be mostly padding (96×16×96 ran 0.65–0.98× the 6×8
    /// tile's rate on the reference host, one thread).
    ///
    /// No flop floor: the wide tile was faster at every product at least
    /// 32 wide measured on the reference host — 1.36× at 1×32×32
    /// (2mnk = 2¹¹), 1.4–1.6× from 6×32×8 to 16×32×32, 1.7–1.9× from
    /// 64³ up. With a floor of 2¹⁵ instead, `service_mix`, whose products
    /// are mostly that small, read `op_ms_p50` 4.5–11 % higher (ten
    /// alternating pairs over two seeds), not lower.
    ///
    /// A wide product's last strip is padded to 32 columns even when at
    /// most 8 are live. Running such a strip on the 6×8 tile instead was
    /// faster alone (one thread, best of seven rounds: 96×33×96
    /// 19.7–20.2 → 15.2–19.0 µs, 96×40×96 20.5–21.0 → 14.9–18.5 µs), but
    /// those strips carry 0.003 % (`values_p4`), 0.06 % (`values_p64c4`)
    /// and 0.005 % (`vectors_p4`) of a benchmark solve's GEMM flops and
    /// none of its input generator's, so the padding stays.
    fn for_product(n: usize) -> Tile {
        let widest = *Tile::available()
            .last()
            .expect("Portable is always available");
        if widest == Tile::Avx512 && n < NR_WIDE {
            Tile::Avx2
        } else {
            widest
        }
    }
}

/// Executed GEMM work: `2mnk` of every product that reaches the tile
/// loop, and the part of it that ran on [`Tile::Avx512`].
static GEMM_FLOPS: ca_obs::Counter = ca_obs::Counter::new("gemm.flops");
static GEMM_WIDE_FLOPS: ca_obs::Counter = ca_obs::Counter::new("gemm.wide_flops");

/// An operand as stored: `op(X)[i][j]` is `data[i·ld + j]`, or
/// `data[j·ld + i]` when transposed.
struct Operand<'a> {
    data: &'a [f64],
    ld: usize,
    t: bool,
}

impl<'a> Operand<'a> {
    fn new(view: &MatrixView<'a>, tr: Trans) -> Self {
        Self {
            data: view.data(),
            ld: view.stride(),
            t: matches!(tr, Trans::T),
        }
    }
}

/// `cols ← β·cols` on columns `col0..col0 + ncols` of the first `rows`
/// rows of `data` (row stride `cs`). β = 0 stores zeros without reading.
fn scale_cols(beta: f64, data: &mut [f64], cs: usize, rows: usize, col0: usize, ncols: usize) {
    if beta == 1.0 {
        return;
    }
    for r in 0..rows {
        let row = &mut data[r * cs + col0..][..ncols];
        if beta == 0.0 {
            row.fill(0.0);
        } else {
            for v in row.iter_mut() {
                *v *= beta;
            }
        }
    }
}

/// The loop nest around the tile kernel. `pack_a` chooses between
/// packing `op(A)` and reading it in place (`None`: by the product's
/// size); `tile` chooses the instantiation of the tile loop (`None`: by
/// the host and the product's shape, [`Tile::for_product`]). Neither can
/// change a bit of `C` (`oracle::gemm_view_forced` forces both, for the
/// tests that hold every combination to that).
///
/// Panics if `tile` forces an instantiation the host cannot run.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_core(
    alpha: f64,
    a: &MatrixView,
    ta: Trans,
    b: &MatrixView,
    tb: Trans,
    beta: f64,
    c: &mut MatrixViewMut,
    pack_a: Option<bool>,
    tile: Option<Tile>,
) {
    let (m, n, cs) = (c.rows(), c.cols(), c.stride());
    let k = match ta {
        Trans::N => a.cols(),
        Trans::T => a.rows(),
    };
    if m == 0 || n == 0 {
        return;
    }
    if alpha == 0.0 || k == 0 {
        scale_cols(beta, c.data_mut(), cs, m, 0, n);
        return;
    }
    let flops = 2 * m * n * k;
    let tile = match tile {
        Some(t) => {
            assert!(
                Tile::available().contains(&t),
                "gemm: {t:?} tile not available on this host"
            );
            t
        }
        None => Tile::for_product(n),
    };
    GEMM_FLOPS.add(flops as u64);
    let av = Operand::new(a, ta);
    let bv = Operand::new(b, tb);
    let nest = Nest {
        alpha,
        beta,
        av: &av,
        bv: &bv,
        k,
        pack_a: pack_a.unwrap_or(flops >= if av.t { SMALL_FLOPS } else { SMALL_FLOPS_ROWS }),
        fork: m > MC && flops >= PAR_FLOPS,
    };
    match tile {
        Tile::Portable => nest.run::<NR>(c, tiles_body::<NR>),
        #[cfg(target_arch = "x86_64")]
        Tile::Avx2 => {
            // SAFETY: `tile` is in `Tile::available()` (asserted or chosen
            // from it above), which lists `Avx2` only when `Fma::detect`
            // found AVX2 and FMA.
            nest.run::<NR>(c, |p, a, slab, mb| unsafe { tiles_avx2(p, a, slab, mb) })
        }
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512 => {
            GEMM_WIDE_FLOPS.add(flops as u64);
            // SAFETY: as for `Avx2`; `Tile::available()` lists `Avx512`
            // only when `Fma::detect` found AVX-512F as well.
            nest.run::<NR_WIDE>(c, |p, a, slab, mb| unsafe { tiles_avx512(p, a, slab, mb) })
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("only the portable tile is available off x86-64"),
    }
}

/// One instantiation of the tile loop over a slab (see [`tiles_body`]).
type TilesFn = fn(&Panel, &ASrc, &mut [f64], usize);

/// The arguments of one product that the loop nest needs.
struct Nest<'a> {
    alpha: f64,
    beta: f64,
    av: &'a Operand<'a>,
    bv: &'a Operand<'a>,
    k: usize,
    pack_a: bool,
    fork: bool,
}

impl Nest<'_> {
    /// The loop nest with `op(B)` packed into `W`-wide strips, each slab
    /// run through `tiles` — an instantiation of [`tiles_body`]`::<W>`.
    fn run<const W: usize>(&self, c: &mut MatrixViewMut, tiles: TilesFn) {
        let (m, n, cs, k) = (c.rows(), c.cols(), c.stride(), self.k);
        // Works on strided `C`: `cols ≤ stride`, so slab boundaries at
        // multiples of `MC·stride` never split a row's live columns, and
        // the last slab ends at its last row's `n`-th column.
        let live = (m - 1) * cs + n;
        with_ws(|ws| {
            let mut bpack = ws.take_scratch(KC.min(k) * NC.min(n).next_multiple_of(W));
            for jc in (0..n).step_by(NC) {
                let nb = NC.min(n - jc);
                for pc in (0..k).step_by(KC) {
                    let kb = KC.min(k - pc);
                    pack::<W>(&mut bpack, self.bv, self.bv.t, jc, pc, nb, kb);
                    let panel = Panel {
                        alpha: self.alpha,
                        beta: if pc == 0 { self.beta } else { 1.0 },
                        av: self.av,
                        bpack: &bpack,
                        pc,
                        jc,
                        kb,
                        nb,
                        cs,
                        pack_a: self.pack_a,
                        tiles,
                    };
                    // Each MC-row slab of C is owned by exactly one task.
                    let data = &mut c.data_mut()[..live];
                    if self.fork {
                        data.par_chunks_mut(MC * cs)
                            .enumerate()
                            .for_each(|(blk, slab)| panel.slab(blk * MC, slab));
                    } else {
                        data.chunks_mut(MC * cs)
                            .enumerate()
                            .for_each(|(blk, slab)| panel.slab(blk * MC, slab));
                    }
                }
            }
            ws.put(bpack);
        });
    }
}

/// Pack `count` rows of `op(A)` (or columns of `op(B)`) from `x0`, over
/// the inner range `l0..l0 + depth`, into `W`-wide strips: strip `t`
/// holds `depth` groups of `W` contiguous values, lane `q` of group `l`
/// being the operand at outer index `x0 + t·W + q`, inner index
/// `l0 + l` (zero past `count`). Split by orientation, not per element:
/// when the outer index runs along stored rows (`outer_is_row`:
/// untransposed `A`, transposed `B`) each lane is a contiguous run of
/// one stored row and the strip interleaves `W` of them; otherwise a
/// group's `W` values are contiguous in storage and are copied as a run.
fn pack<const W: usize>(
    buf: &mut [f64],
    op: &Operand,
    outer_is_row: bool,
    x0: usize,
    l0: usize,
    count: usize,
    depth: usize,
) {
    let strips = buf[..count.div_ceil(W) * depth * W].chunks_exact_mut(depth * W);
    for (t, strip) in strips.enumerate() {
        let x = x0 + t * W;
        let w = W.min(x0 + count - x);
        if outer_is_row {
            for q in 0..w {
                let src = &op.data[(x + q) * op.ld + l0..][..depth];
                for (group, &v) in strip.chunks_exact_mut(W).zip(src) {
                    group[q] = v;
                }
            }
            if w < W {
                for group in strip.chunks_exact_mut(W) {
                    group[w..].fill(0.0);
                }
            }
        } else {
            for (l, group) in strip.chunks_exact_mut(W).enumerate() {
                let src = &op.data[(l0 + l) * op.ld + x..][..w];
                if w == W {
                    group.copy_from_slice(src);
                } else {
                    group[..w].copy_from_slice(src);
                    group[w..].fill(0.0);
                }
            }
        }
    }
}

/// Where the tile loop reads `op(A)`: slab-local row `s·MR + r`, inner
/// index `l` of the current chunk is `data[origin + s·ss + r·rs + l·ls]`.
/// A packed block and the operand in place (either orientation) are
/// three settings of the same four numbers.
struct ASrc<'a> {
    data: &'a [f64],
    origin: usize,
    /// Offset from one `MR`-row strip to the next.
    ss: usize,
    /// Offset from one row to the next within a strip.
    rs: usize,
    /// Offset from one inner index to the next.
    ls: usize,
    /// Every strip has `MR` readable rows (packing padded the last one
    /// with zeros); when false a ragged last strip re-reads its final
    /// row in the lanes past it, whose results are discarded.
    padded: bool,
}

/// One packed `kb × nb` panel of `op(B)` with everything a row slab of
/// `C` needs to accumulate `α·op(A)[.., pc..pc+kb]·panel` into its
/// columns `jc..jc + nb`.
struct Panel<'a> {
    alpha: f64,
    /// Applied to the slab's columns before accumulating: the caller's
    /// β on the first `KC` chunk, 1 on the later ones.
    beta: f64,
    av: &'a Operand<'a>,
    bpack: &'a [f64],
    pc: usize,
    jc: usize,
    kb: usize,
    nb: usize,
    cs: usize,
    pack_a: bool,
    /// The instantiation of the tile loop, of the width `bpack` was
    /// packed at.
    tiles: TilesFn,
}

impl Panel<'_> {
    /// Update the rows of `C` in `slab`, which start at row `i0`.
    fn slab(&self, i0: usize, slab: &mut [f64]) {
        let (av, kb) = (self.av, self.kb);
        let mb = slab.len().div_ceil(self.cs);
        scale_cols(self.beta, slab, self.cs, mb, self.jc, self.nb);
        if self.pack_a {
            with_ws(|ws| {
                let mut apack = ws.take_scratch(mb.next_multiple_of(MR) * kb);
                pack::<MR>(&mut apack, av, !av.t, i0, self.pc, mb, kb);
                let a = ASrc {
                    data: &apack,
                    origin: 0,
                    ss: kb * MR,
                    rs: 1,
                    ls: MR,
                    padded: true,
                };
                (self.tiles)(self, &a, slab, mb);
                ws.put(apack);
            });
        } else {
            let (rs, ls) = if av.t { (1, av.ld) } else { (av.ld, 1) };
            let a = ASrc {
                data: av.data,
                origin: i0 * rs + self.pc * ls,
                ss: MR * rs,
                rs,
                ls,
                padded: false,
            };
            (self.tiles)(self, &a, slab, mb);
        }
    }
}

/// [`tiles_body`] at the 6×8 tile compiled for AVX2 + FMA: the same
/// source, so the same chain of operations on every cell;
/// `f64::mul_add` becomes one `vfmadd` lane instead of a call.
///
/// # Safety
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn tiles_avx2(p: &Panel, a: &ASrc, slab: &mut [f64], mb: usize) {
    tiles_body::<NR>(p, a, slab, mb);
}

/// [`tiles_body`] at the 6×32 tile compiled for AVX-512F: the same
/// source again, with each row of the tile four 512-bit vectors.
///
/// # Safety
/// The host must support AVX2, FMA and AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f")]
unsafe fn tiles_avx512(p: &Panel, a: &ASrc, slab: &mut [f64], mb: usize) {
    tiles_body::<NR_WIDE>(p, a, slab, mb);
}

/// All `MR × W` tiles of one slab against one panel packed into
/// `W`-wide strips: `B` strips outermost so a strip stays in L1 while
/// the slab's `A` strips stream past it.
#[inline(always)]
fn tiles_body<const W: usize>(p: &Panel, a: &ASrc, slab: &mut [f64], mb: usize) {
    let (kb, nb, cs) = (p.kb, p.nb, p.cs);
    for (t, pb) in p.bpack[..nb.div_ceil(W) * kb * W]
        .chunks_exact(kb * W)
        .enumerate()
    {
        let nr_eff = W.min(nb - t * W);
        let col0 = p.jc + t * W;
        for s in 0..mb.div_ceil(MR) {
            let mr_eff = MR.min(mb - s * MR);
            let last = if a.padded { MR - 1 } else { mr_eff - 1 };
            let base: [usize; MR] =
                std::array::from_fn(|r| a.origin + s * a.ss + r.min(last) * a.rs);
            let acc = tile::<W>(a.data, &base, a.ls, pb);
            for (r, acc_row) in acc.iter().enumerate().take(mr_eff) {
                let row = &mut slab[(s * MR + r) * cs + col0..][..nr_eff];
                for (cv, &x) in row.iter_mut().zip(acc_row) {
                    *cv += p.alpha * x;
                }
            }
        }
    }
}

/// The register tile: for each group of `W` packed `B` values, one
/// fused multiply-add per cell, `MR × W` independent chains over `l`
/// ascending from zero. The fixed-size array refs let the compiler keep
/// the whole accumulator tile in registers.
#[inline(always)]
fn tile<const W: usize>(a: &[f64], base: &[usize; MR], ls: usize, pb: &[f64]) -> [[f64; W]; MR] {
    let steps = pb.len() / W;
    if steps == 0 {
        return [[0.0; W]; MR];
    }
    // The one bounds check on `a` for the whole tile: the largest index
    // the loop below forms.
    let reach = base.iter().copied().max().expect("MR > 0") + (steps - 1) * ls;
    assert!(reach < a.len(), "gemm: op(A) tile reaches past its operand");
    let mut acc = [[0.0f64; W]; MR];
    let mut off = 0;
    for bvec in pb.chunks_exact(W) {
        let bvec: &[f64; W] = bvec.try_into().expect("chunks_exact(W) yields W values");
        for r in 0..MR {
            // SAFETY: `off ≤ (steps − 1)·ls` and `base[r] ≤ max(base)`,
            // so the index is at most `reach`, asserted above to be in
            // bounds. (Checked indexing here spills the accumulator tile
            // around twelve panic edges per step: 16 vs 28 GFLOP/s.)
            let ar = unsafe { *a.get_unchecked(base[r] + off) };
            for cc in 0..W {
                acc[r][cc] = ar.mul_add(bvec[cc], acc[r][cc]);
            }
        }
        off += ls;
    }
    acc
}

/// Convenience: allocate and return `op(A)·op(B)`.
pub fn matmul(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans) -> Matrix {
    let _span = ca_obs::kernel_span("gemm.matmul");
    let m = match ta {
        Trans::N => a.rows(),
        Trans::T => a.cols(),
    };
    let n = match tb {
        Trans::N => b.cols(),
        Trans::T => b.rows(),
    };
    let mut c = Matrix::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for l in 0..a.cols() {
                    s += a.get(i, l) * b.get(l, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    #[test]
    fn matches_naive_nn() {
        let a = Matrix::from_fn(7, 5, |i, j| (i * 5 + j) as f64 * 0.1);
        let b = Matrix::from_fn(5, 6, |i, j| (i as f64) - (j as f64) * 0.5);
        assert!(matmul(&a, Trans::N, &b, Trans::N).max_diff(&naive(&a, &b)) < 1e-12);
    }

    #[test]
    fn matches_naive_transposed() {
        let a = Matrix::from_fn(4, 7, |i, j| ((i + 1) * (j + 2)) as f64 * 0.01);
        let b = Matrix::from_fn(6, 4, |i, j| (i as f64 * 1.5) - j as f64);
        let c = matmul(&a, Trans::T, &b, Trans::T);
        let reference = naive(&a.transpose(), &b.transpose());
        assert!(c.max_diff(&reference) < 1e-12);
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let b = Matrix::identity(3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
        gemm(2.0, &a, Trans::N, &b, Trans::N, 3.0, &mut c);
        // C = 2A + 3·ones
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), 2.0 * (i + j) as f64 + 3.0);
            }
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_fn(5, 5, |i, j| ((i * j) as f64).sin());
        let c = matmul(&a, Trans::N, &Matrix::identity(5), Trans::N);
        assert!(c.max_diff(&a) < 1e-15);
    }

    #[test]
    fn large_parallel_path_matches() {
        // Three row slabs and 2mnk ≥ PAR_FLOPS: the slabs are forked.
        let a = Matrix::from_fn(200, 150, |i, j| ((i * 31 + j * 7) % 13) as f64 - 6.0);
        let b = Matrix::from_fn(150, 150, |i, j| ((i * 17 + j * 3) % 11) as f64 - 5.0);
        assert!(matmul(&a, Trans::N, &b, Trans::N).max_diff(&naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn blocked_path_matches_naive_all_orientations() {
        // Odd sizes exercise every packing edge (partial MR/NR strips,
        // partial KC panel) and cross the blocked-path threshold.
        let (m, k, n) = (131, 67, 93);
        let gen_a = |r: usize, c: usize| {
            Matrix::from_fn(r, c, |i, j| ((i * 37 + j * 11) % 19) as f64 * 0.25 - 2.0)
        };
        let gen_b = |r: usize, c: usize| {
            Matrix::from_fn(r, c, |i, j| ((i * 13 + j * 29) % 23) as f64 * 0.125 - 1.0)
        };
        for (ta, tb) in [
            (Trans::N, Trans::N),
            (Trans::N, Trans::T),
            (Trans::T, Trans::N),
            (Trans::T, Trans::T),
        ] {
            let a = match ta {
                Trans::N => gen_a(m, k),
                Trans::T => gen_a(k, m),
            };
            let b = match tb {
                Trans::N => gen_b(k, n),
                Trans::T => gen_b(n, k),
            };
            let a_eff = match ta {
                Trans::N => a.clone(),
                Trans::T => a.transpose(),
            };
            let b_eff = match tb {
                Trans::N => b.clone(),
                Trans::T => b.transpose(),
            };
            let want = naive(&a_eff, &b_eff);
            let got = matmul(&a, ta, &b, tb);
            assert!(
                got.max_diff(&want) < 1e-10,
                "ta={ta:?} tb={tb:?}: {}",
                got.max_diff(&want)
            );
        }
    }

    #[test]
    fn blocked_path_alpha_beta() {
        let a = Matrix::from_fn(150, 80, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
        let b = Matrix::from_fn(80, 120, |i, j| ((3 * i + j) % 5) as f64 - 2.0);
        let c0 = Matrix::from_fn(150, 120, |i, j| ((i * j) % 11) as f64 * 0.5);
        let mut c = c0.clone();
        gemm(-1.5, &a, Trans::N, &b, Trans::N, 0.25, &mut c);
        let mut want = c0;
        want.scale(0.25);
        want.axpy(-1.5, &naive(&a, &b));
        assert!(c.max_diff(&want) < 1e-10);
    }

    #[test]
    fn deep_inner_dimension_multiple_kc_panels() {
        // k > KC exercises the pc-loop accumulation across packed panels.
        let a = Matrix::from_fn(40, 600, |i, j| ((i * 3 + j) % 9) as f64 * 0.1 - 0.4);
        let b = Matrix::from_fn(600, 35, |i, j| ((i + j * 5) % 8) as f64 * 0.2 - 0.7);
        assert!(matmul(&a, Trans::N, &b, Trans::N).max_diff(&naive(&a, &b)) < 1e-9);
    }

    #[test]
    fn empty_inner_dimension_zeroes_output() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 4);
        let mut c = Matrix::from_fn(3, 4, |_, _| 7.0);
        gemm(1.0, &a, Trans::N, &b, Trans::N, 0.0, &mut c);
        assert_eq!(c.norm_max(), 0.0);
    }
}
