//! # ca-pla — distributed building blocks on the virtual BSP machine
//!
//! Implements §III of Solomonik et al. (SPAA'17) — the parallel building
//! blocks the communication-avoiding symmetric eigensolver is composed
//! of — executing on the `ca-bsp` virtual machine with every word of
//! data motion and every flop charged to the ledger:
//!
//! * processor grids and groups ([`grid`]),
//! * BSP collectives with exact word/superstep charging ([`coll`]),
//! * distributed matrices: one dense operand plus a block layout, a
//!   rank's block a view, storage and moves charged from the layout
//!   ([`dist`]; block-cyclic in [`cyclic`]),
//! * cost-charged local kernel wrappers ([`kern`]),
//! * SUMMA 2D matrix multiplication ([`summa`]),
//! * Streaming-MM, Algorithm III.1 / Lemma III.3 ([`streaming`]),
//! * recursive rectangular matmul, Lemma III.2 / CARMA ([`carma`]),
//! * TSQR binary-tree QR ([`tsqr`]),
//! * Householder reconstruction, Corollary III.7 ([`reconstruct`]),
//! * rect-QR, Algorithm III.2 / Theorem III.6 ([`rect_qr`]; a nearly
//!   square input is the same column recursion, which is what stands
//!   in for Lemma III.5's square QR — DESIGN.md §8.1),
//! * distributed non-pivoted LU and triangular solves ([`lu`]),
//! * the budget-1 scope the benchmark's single-thread baseline runs
//!   under ([`exec`]).
//!
//! The rank bodies of a superstep run as plain loops in rank order: the
//! model prices a superstep by the maximum of what its processors are
//! *charged*, so how the simulator walks them is free, and walking them
//! inline measured best (DESIGN.md §6b). The kernels below a rank body
//! (GEMM, QR, D&C) fork on the one runtime by their own size thresholds.
//! Streaming-MM walks its ranks for their charges only, and computes one
//! product per inner block over all of them ([`streaming`]).
//!
//! ## Layout policy
//!
//! All 2D algorithms use *block* distributions with panel width equal to
//! the block size (one block per processor per dimension). For the
//! per-superstep-maximum cost accounting of the paper's model this is
//! load-balance-equivalent to the block-cyclic layouts the paper assumes
//! (DESIGN.md §8): redistribution between stages is explicit and charged.

// Index-heavy numerical code: range loops over several arrays at once
// are the clearer idiom here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod carma;
pub mod coll;
pub mod cyclic;
pub mod dist;
pub mod exec;
pub mod grid;
pub mod kern;
pub mod lu;
pub mod reconstruct;
pub mod rect_qr;
pub mod streaming;
pub mod summa;
pub mod tsqr;

pub use dist::DistMatrix;
pub use grid::Grid;

/// Shared by the kernel tests that pin a ledger: a [`ca_bsp::Costs`] as
/// `[F, W, Q, S, M, total volume, total flops]`.
#[cfg(test)]
pub(crate) fn ledger_array(c: ca_bsp::Costs) -> [u64; 7] {
    [
        c.flops,
        c.horizontal_words,
        c.vertical_words,
        c.supersteps,
        c.peak_memory_words,
        c.total_volume_words,
        c.total_flops,
    ]
}
