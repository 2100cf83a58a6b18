//! # ca-symm-eig — umbrella crate
//!
//! Re-exports the workspace members and hosts the integration tests,
//! examples, and the `eigensolve` CLI. Start at [`paper`] for the
//! paper-to-implementation map, or at [`eigen::try_symm_eigen_25d`] for the
//! headline algorithm.
// Index-heavy numerical code: range loops over several arrays at once
// are the clearer idiom here.
#![allow(clippy::needless_range_loop)]

pub use ca_bsp as bsp;
pub use ca_dla as dla;
pub use ca_eigen as eigen;
pub use ca_obs as obs;
pub use ca_pla as pla;
pub mod paper;
