//! # ca-dla — sequential dense & banded linear algebra kernels
//!
//! From-scratch implementations of every local kernel the
//! communication-avoiding symmetric eigensolver of Solomonik et al.
//! (SPAA'17) relies on:
//!
//! * dense matrices and blocked GEMM ([`matrix`], [`gemm`]) — the paper's
//!   Lemma III.1 building block,
//! * blocked Householder QR with compact-WY `(U, T)` representation
//!   ([`qr`]) — Lemma III.4,
//! * non-pivoted LU and triangular solves ([`lu`]) — the substrate for
//!   Householder reconstruction (Corollary III.7),
//! * symmetric banded storage and the bulge-chasing elimination kernel
//!   with the exact index ranges of Algorithm IV.2 ([`band`], [`bulge`]),
//! * symmetric tridiagonal eigensolvers: one QL driver (root-free and
//!   with rotations),
//!   Sturm-sequence bisection, and GEMM-rich divide-and-conquer
//!   ([`tridiag`], [`sturm`], [`dnc`]),
//! * reproducible matrix generators with prescribed spectra ([`gen`]),
//! * analytic flop / vertical-traffic cost formulas ([`costs`]) used by
//!   the virtual-BSP layer to charge local work,
//! * zero-copy strided views and per-thread scratch arenas ([`view`],
//!   [`workspace`]) that let the hot kernels run in place with no
//!   steady-state heap allocation (see DESIGN.md §"kernel engine").
//!
//! Each module holds one implementation of each operation. The forms the
//! tests hold them to — the seed's scalar and dense-window
//! kernels, the portable instance of a feature-compiled loop — live in
//! one hidden module, `oracle`, that no solve reaches.
//!
//! All kernels are pure (no dependency on the cost model); the `ca-pla`
//! crate wraps them with cost charging when they run on a virtual
//! processor.

// Index-heavy numerical code: range loops over several arrays at once
// are the clearer idiom here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod band;
pub mod bulge;
pub mod costs;
pub mod dnc;
pub mod gemm;
pub mod gen;
pub mod lu;
pub mod matrix;
#[doc(hidden)]
pub mod oracle;
pub mod qr;
pub mod sturm;
pub mod tridiag;
pub mod view;
pub mod workspace;

/// The workspace's threading runtime (the `rayon` package), re-exported
/// for crates that sit above `ca-dla` without an edge to it of their
/// own: `ca-service` starts its workers and scopes their core budget
/// through here, and tests read the spawn count off `stats()`.
pub mod rt {
    pub use rayon::{current_budget, current_num_threads, spawn_worker, stats, with_budget};
}

pub use band::BandedSym;
pub use gemm::{gemm, matmul, Trans};
pub use matrix::Matrix;
pub use qr::QrFactors;
pub use view::{MatrixView, MatrixViewMut};
pub use workspace::Workspace;
