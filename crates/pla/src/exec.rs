//! The parallel superstep executor: runs per-virtual-processor work of a
//! single BSP phase on real threads.
//!
//! A superstep's per-processor bodies are independent by construction —
//! that is the BSP model's whole premise — so the simulator may execute
//! them concurrently between fences. The `ca-bsp` ledger is atomic and
//! every charge is a commutative add, which makes the folded cost report
//! *bit-identical* to serial execution no matter how threads interleave.
//!
//! ## Rules for closures passed to this module
//!
//! * They may call `charge_*`, `alloc`/`free`, and `step` freely (all
//!   commutative), and any local kernels.
//! * They must **not** call `Machine::fence`, `report`, or `snapshot`:
//!   folds read per-phase deltas and must run at quiescent points. Every
//!   public `ca-pla` collective and kernel wrapper is fold-free; of the
//!   distributed algorithms only `rect_qr::rect_qr_tree` fences
//!   internally (and is therefore never dispatched through here).
//! * Per-rank outputs must be disjoint (e.g. one local block per rank).
//!
//! ## Threads, the core budget and workspace arenas
//!
//! Dispatch goes through the workspace's one runtime (the `rayon`
//! package): `n` rank bodies are split into at most
//! `rayon::current_budget()` contiguous pieces, the first of which runs
//! on the calling thread while the rest are queued to the persistent
//! pool. No thread is created here. A piece may end up on any thread —
//! an idle pool worker, or a thread that is itself waiting for a fork
//! and lends a hand — and wherever it runs its charges go to the one
//! live ledger: there is no per-thread charge state.
//!
//! The `ca-dla` hot-path kernels draw scratch buffers from a
//! thread-local [`ca_dla::Workspace`] arena (`ca_dla::workspace::with_ws`).
//! A rank body runs to completion on whichever thread picked its piece
//! up, so each checkout stays on one thread for its duration: buffers
//! are returned before the body yields, arenas never migrate across
//! threads, and no synchronization is needed. (Checkout is a re-entrant
//! LIFO stack of arenas — a thread that helps with someone else's piece
//! while its own checkout is open simply takes the next arena down.)
//! A thread's own arenas stay warm from one superstep to the next;
//! the arenas a thread fills while *on loan* to queued pieces — a pool
//! worker always, a waiting thread while it helps — are dropped when
//! the loan ends (`ca_dla::workspace`), so memory warmed by one fork
//! does not outlive it. That is also why full→band keeps its rank
//! fan-outs on the driver's thread ([`with_forced_serial`]): a worker
//! that parks between two short fan-outs re-faults its packing panels
//! at every one (DESIGN.md §6b).
//!
//! When tracing is on, each dispatch also mirrors the runtime's own
//! counters into `ca_obs` as `rt.spawns`, `rt.jobs`, `rt.helped` and
//! `rt.parks` (cumulative since process start; `rt.spawns` flat means no
//! thread was created in the traced region).
//!
//! Set `CA_SERIAL` truthy (`1`/`true`/`yes`/`on`, per
//! [`ca_obs::knobs`]) to force serial in-order execution — the escape
//! hatch for debugging and for measuring the parallel overhead itself.

use std::cell::Cell;

thread_local! {
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// True when the shared `CA_SERIAL` knob ([`ca_obs::knobs::serial`]) is
/// truthy, or inside a [`with_forced_serial`] scope: all executor entry
/// points then run their bodies inline, in rank order. The same knob
/// read gates every other parallel path in the repo (D&C splits,
/// back-transformation), so one setting means one behaviour everywhere.
pub fn serial_forced() -> bool {
    FORCE_SERIAL.with(Cell::get) || ca_obs::knobs::serial()
}

/// Run `f` with executor dispatch forced serial on this thread,
/// regardless of `CA_SERIAL`. Because serial dispatch keeps all work on
/// the calling thread, the override propagates through nested executor
/// calls. Full→band walks its panels inside one such scope; the
/// determinism tests use it to compare serial and parallel runs within
/// one process.
pub fn with_forced_serial<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(FORCE_SERIAL.with(|c| c.replace(true)));
    f()
}

static RT_SPAWNS: ca_obs::Counter = ca_obs::Counter::new("rt.spawns");
static RT_JOBS: ca_obs::Counter = ca_obs::Counter::new("rt.jobs");
static RT_HELPED: ca_obs::Counter = ca_obs::Counter::new("rt.helped");
static RT_PARKS: ca_obs::Counter = ca_obs::Counter::new("rt.parks");

/// Mirror the runtime's cumulative counters into `ca_obs` (the runtime
/// sits below `ca-obs` in the package graph and cannot do it itself).
/// Every dispatch does it, an inline one included: the kernels a rank
/// body calls fork whether or not the ranks themselves were queued.
/// One relaxed load and a branch when tracing is off.
fn mirror_rt_counters() {
    if ca_obs::enabled() {
        let rt = rayon::stats();
        RT_SPAWNS.record_max(rt.spawns);
        RT_JOBS.record_max(rt.jobs_run);
        RT_HELPED.record_max(rt.jobs_helped);
        RT_PARKS.record_max(rt.parks);
    }
}

/// Run `f(0), f(1), …, f(n-1)` — in parallel unless serial execution is
/// forced — and collect the results in rank order.
pub fn par_ranks<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let _span = ca_obs::kernel_span("exec.par_ranks");
    use rayon::prelude::*;
    let out = if serial_forced() || n <= 1 {
        (0..n).map(f).collect()
    } else {
        (0..n).into_par_iter().map(f).collect()
    };
    mirror_rt_counters();
    out
}

/// Run `f(rank, &mut items[rank])` for every rank — the owner-computes
/// pattern over a distributed matrix's local blocks.
pub fn par_over<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let _span = ca_obs::kernel_span("exec.par_over");
    use rayon::prelude::*;
    if serial_forced() || items.len() <= 1 {
        for (r, item) in items.iter_mut().enumerate() {
            f(r, item);
        }
    } else {
        items
            .par_iter_mut()
            .enumerate()
            .for_each(|(r, item)| f(r, item));
    }
    mirror_rt_counters();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_ranks_preserves_order() {
        let v = par_ranks(17, |r| r * r);
        assert_eq!(v, (0..17).map(|r| r * r).collect::<Vec<_>>());
    }

    #[test]
    fn par_over_mutates_every_slot() {
        let mut xs = vec![0u64; 23];
        par_over(&mut xs, |r, x| *x = r as u64 + 1);
        assert!(xs.iter().enumerate().all(|(r, &x)| x == r as u64 + 1));
    }
}
