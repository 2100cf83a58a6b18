//! The budget-1 scope: the one name the frozen benchmark harness calls
//! for its single-threaded baseline (`pla.parallel_speedup`).
//!
//! There is no rank executor. The rank bodies of a superstep are plain
//! loops in rank order in the algorithms themselves, and whether
//! anything below them forks is the runtime's per-thread core budget
//! and nothing else: `rayon::with_budget` for a scope,
//! `RAYON_NUM_THREADS=1` for the process (DESIGN.md §6b, "Why ranks are
//! a walk").

/// Run `f` with this thread's core budget set to 1: nothing `f` reaches
/// is queued to the pool — rank loops, GEMM slabs, D&C splits and
/// bisections all run inline — with the same bits and the same ledger.
/// The name is the harness's; it goes (for `rayon::with_budget(1, ·)`
/// at the call site) in ROADMAP item 5's `[benchmark]` PR.
pub fn with_forced_serial<T>(f: impl FnOnce() -> T) -> T {
    rayon::with_budget(1, f)
}
