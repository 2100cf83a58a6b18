//! # ca-bsp — a virtual Bulk Synchronous Parallel machine with cost accounting
//!
//! This crate implements the theoretical cost model of §II of
//! *"A Communication-Avoiding Parallel Algorithm for the Symmetric
//! Eigenvalue Problem"* (Solomonik, Ballard, Demmel, Hoefler, SPAA'17).
//!
//! The model is a BSP machine of `p` processors augmented with a two-level
//! memory hierarchy per processor (main memory of `M` words and a cache of
//! `H` words). Four quantities are metered while an algorithm executes:
//!
//! * `F` — local floating point operations (computation cost),
//! * `W` — words moved between processors (horizontal communication),
//! * `Q` — words moved between main memory and cache (vertical
//!   communication),
//! * `S` — BSP supersteps (synchronization cost),
//!
//! and the modeled BSP execution time is
//! `T = γ·F + β·W + ν·Q + α·S`.
//!
//! The paper defines each of `F`, `W`, `Q` as a *sum over supersteps of the
//! per-superstep maximum over processors* (§II). The [`Machine`] tracks
//! per-processor cumulative counters and folds the per-superstep maxima at
//! *fences* ([`Machine::fence`]); independent processor subgroups may
//! advance their private superstep counters between fences, which models
//! concurrent subgroup activity (e.g. the pipelined bulge chases of
//! Algorithm IV.2) without serializing their synchronization costs.
//!
//! Nothing in this crate knows about matrices: higher layers (`ca-pla`)
//! route every word of data motion through the charging primitives here,
//! so the ledger is a faithful record of what the executed algorithm did.

mod costs;
mod machine;
mod params;

pub use costs::{BspTime, CostSnapshot, Costs, StageRecord};
pub use machine::{Machine, PhaseRecord, ProcId};
pub use params::MachineParams;

#[cfg(test)]
mod tests;
