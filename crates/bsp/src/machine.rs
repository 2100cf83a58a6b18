//! The virtual BSP machine: per-processor cost ledger and superstep logic.

use crate::costs::{CostSnapshot, Costs};
use crate::MachineParams;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Identifier of a virtual processor, in `0..p`.
pub type ProcId = usize;

/// A virtual BSP machine of `p` processors with a metered cost ledger.
///
/// The machine does not store application data itself — distributed
/// containers (see `ca-pla`) own per-processor buffers and report every
/// word they move and every flop they execute through the `charge_*`
/// methods. All counters are atomic, so the machine is `Sync`: one
/// machine can be charged from any thread (a solve's driver, the
/// threads of a test that shares it), and every mutation between fences
/// is a commutative `fetch_add`/`fetch_max`, so the per-processor totals
/// a fold observes do not depend on who charged in what order. The
/// folds themselves ([`Machine::fence`] / [`Machine::report`]) must run
/// at quiescent points; the stages run them on the driver's thread
/// between their loops.
///
/// ```
/// use ca_bsp::{Machine, MachineParams};
///
/// let m = Machine::new(MachineParams::new(4));
/// m.charge_flops(0, 100);          // processor 0 computes
/// m.charge_transfer(0, 1, 8);      // 8 words move 0 → 1
/// m.fence();                       // end of the superstep
/// let costs = m.report();
/// assert_eq!(costs.flops, 100);    // per-superstep max, summed
/// assert_eq!(costs.horizontal_words, 8);
/// assert_eq!(costs.supersteps, 1);
/// ```
///
/// ## Supersteps and fences
///
/// * [`Machine::step`] advances the private superstep counter of a
///   *subgroup* of processors — used when disjoint groups communicate
///   concurrently (BSP permits independent subgroup exchanges to share
///   global supersteps, so each group's count advances independently).
/// * [`Machine::fence`] is a global barrier: it (1) folds the paper's
///   per-superstep maxima for `F`/`W`/`Q` over the phase that just ended,
///   and (2) aligns every processor's superstep counter to the global
///   maximum plus one.
pub struct Machine {
    params: MachineParams,
    /// Cumulative flops per processor.
    flops: Vec<AtomicU64>,
    /// Cumulative words sent+received per processor.
    comm: Vec<AtomicU64>,
    /// Cumulative vertical (memory<->cache) words per processor.
    vert: Vec<AtomicU64>,
    /// Private superstep counter per processor.
    steps: Vec<AtomicU64>,
    /// Current allocated words per processor.
    mem: Vec<AtomicU64>,
    /// Peak allocated words per processor.
    peak_mem: Vec<AtomicU64>,
    /// Per-processor counter values at the last fence (for phase maxima).
    fence_flops: Vec<AtomicU64>,
    fence_comm: Vec<AtomicU64>,
    fence_vert: Vec<AtomicU64>,
    /// Folded sums of per-phase maxima (the paper's Σᵢ maxⱼ). Only
    /// touched by `fold`, which runs at quiescent points.
    folded_flops: AtomicU64,
    folded_comm: AtomicU64,
    folded_vert: AtomicU64,
}

impl Machine {
    /// Create a machine with the given parameters; all counters zero.
    pub fn new(params: MachineParams) -> Self {
        let p = params.p;
        assert!(p > 0, "machine must have at least one processor");
        let zeros = || (0..p).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Self {
            params,
            flops: zeros(),
            comm: zeros(),
            vert: zeros(),
            steps: zeros(),
            mem: zeros(),
            peak_mem: zeros(),
            fence_flops: zeros(),
            fence_comm: zeros(),
            fence_vert: zeros(),
            folded_flops: AtomicU64::new(0),
            folded_comm: AtomicU64::new(0),
            folded_vert: AtomicU64::new(0),
        }
    }

    /// Number of processors `p`.
    pub fn p(&self) -> usize {
        self.params.p
    }

    /// Cache size `H` in words.
    pub fn cache_words(&self) -> u64 {
        self.params.cache_words
    }

    /// The architectural parameters this machine was built with.
    pub fn params(&self) -> &MachineParams {
        &self.params
    }

    /// Charge `f` floating point operations to processor `j`.
    #[inline]
    pub fn charge_flops(&self, j: ProcId, f: u64) {
        self.flops[j].fetch_add(f, Relaxed);
    }

    /// Charge `w` words of horizontal traffic (sent or received) to
    /// processor `j`.
    #[inline]
    pub fn charge_comm(&self, j: ProcId, w: u64) {
        self.comm[j].fetch_add(w, Relaxed);
    }

    /// Charge a point-to-point transfer of `w` words: `w` is charged to
    /// both endpoints (each processor's `Wⱼ` counts words sent *and*
    /// received, per §II). A self-transfer charges nothing.
    #[inline]
    pub fn charge_transfer(&self, from: ProcId, to: ProcId, w: u64) {
        if from != to {
            self.charge_comm(from, w);
            self.charge_comm(to, w);
        }
    }

    /// Charge `q` words of vertical (memory↔cache) traffic to processor `j`.
    #[inline]
    pub fn charge_vert(&self, j: ProcId, q: u64) {
        self.vert[j].fetch_add(q, Relaxed);
    }

    /// Record an allocation of `words` on processor `j` (memory tracking).
    pub fn alloc(&self, j: ProcId, words: u64) {
        let now = self.mem[j].fetch_add(words, Relaxed) + words;
        self.peak_mem[j].fetch_max(now, Relaxed);
    }

    /// Record a deallocation of `words` on processor `j`.
    pub fn free(&self, j: ProcId, words: u64) {
        let prev = self.mem[j].fetch_sub(words, Relaxed);
        debug_assert!(prev >= words, "freeing more than allocated on {j}");
        if prev < words {
            // Saturate instead of wrapping if a release is over-reported.
            self.mem[j].store(0, Relaxed);
        }
    }

    /// Advance the superstep counter of every processor in `group` by
    /// `count`. Used by collectives executed on a (possibly proper)
    /// subgroup; disjoint subgroups stepping concurrently share global
    /// supersteps, which this per-processor accounting captures.
    pub fn step(&self, group: &[ProcId], count: u64) {
        for &j in group {
            self.steps[j].fetch_add(count, Relaxed);
        }
    }

    /// Global barrier: fold per-phase maxima of `F`/`W`/`Q` into the
    /// ledger totals and align all superstep counters to `max + 1`.
    ///
    /// Must be called from a quiescent point: no concurrent `charge_*`
    /// calls may be in flight.
    pub fn fence(&self) {
        self.fold();
        let max = self
            .steps
            .iter()
            .map(|s| s.load(Relaxed))
            .max()
            .unwrap_or(0);
        for s in &self.steps {
            s.store(max + 1, Relaxed);
        }
    }

    /// Fold the per-phase maxima accumulated since the previous fold
    /// without advancing supersteps.
    fn fold(&self) {
        let mut dmax_f = 0u64;
        let mut dmax_w = 0u64;
        let mut dmax_q = 0u64;
        for j in 0..self.params.p {
            let df = self.flops[j].load(Relaxed) - self.fence_flops[j].load(Relaxed);
            let dw = self.comm[j].load(Relaxed) - self.fence_comm[j].load(Relaxed);
            let dq = self.vert[j].load(Relaxed) - self.fence_vert[j].load(Relaxed);
            dmax_f = dmax_f.max(df);
            dmax_w = dmax_w.max(dw);
            dmax_q = dmax_q.max(dq);
        }
        self.folded_flops.fetch_add(dmax_f, Relaxed);
        self.folded_comm.fetch_add(dmax_w, Relaxed);
        self.folded_vert.fetch_add(dmax_q, Relaxed);
        for j in 0..self.params.p {
            self.fence_flops[j].store(self.flops[j].load(Relaxed), Relaxed);
            self.fence_comm[j].store(self.comm[j].load(Relaxed), Relaxed);
            self.fence_vert[j].store(self.vert[j].load(Relaxed), Relaxed);
        }
    }

    /// Current cost report. Performs a fold (without a barrier) so that
    /// work since the last fence is included. Like [`Machine::fence`],
    /// call only from quiescent points.
    pub fn report(&self) -> Costs {
        self.fold();
        Costs {
            flops: self.folded_flops.load(Relaxed),
            horizontal_words: self.folded_comm.load(Relaxed),
            vertical_words: self.folded_vert.load(Relaxed),
            supersteps: self
                .steps
                .iter()
                .map(|s| s.load(Relaxed))
                .max()
                .unwrap_or(0),
            peak_memory_words: self
                .peak_mem
                .iter()
                .map(|s| s.load(Relaxed))
                .max()
                .unwrap_or(0),
            total_volume_words: self.comm.iter().map(|s| s.load(Relaxed)).sum(),
            total_flops: self.flops.iter().map(|s| s.load(Relaxed)).sum(),
        }
    }

    /// Snapshot the ledger so a region's costs can be measured with
    /// [`Machine::costs_since`].
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            report: self.report(),
        }
    }

    /// Costs accumulated since `snap` was taken.
    pub fn costs_since(&self, snap: &CostSnapshot) -> Costs {
        self.report().since(&snap.report)
    }

    /// Run `f` and return its result together with the costs the ledger
    /// accumulated while it ran — the snapshot/diff pattern as a scoped
    /// helper. Like [`Machine::report`], both ends of the measurement
    /// fold the ledger, so call from quiescent points only.
    pub fn measure<R>(&self, f: impl FnOnce() -> R) -> (R, Costs) {
        let snap = self.snapshot();
        let out = f();
        (out, self.costs_since(&snap))
    }

    /// Per-processor cumulative horizontal words (diagnostics / load
    /// balance inspection).
    pub fn comm_per_proc(&self) -> Vec<u64> {
        self.comm.iter().map(|s| s.load(Relaxed)).collect()
    }

    /// Per-processor cumulative flops (diagnostics).
    pub fn flops_per_proc(&self) -> Vec<u64> {
        self.flops.iter().map(|s| s.load(Relaxed)).collect()
    }

    /// Per-processor current superstep counters (diagnostics).
    pub fn steps_per_proc(&self) -> Vec<u64> {
        self.steps.iter().map(|s| s.load(Relaxed)).collect()
    }
}

#[cfg(test)]
mod threading_tests {
    use super::*;

    const _: fn() = || {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Machine>();
    };

    #[test]
    fn concurrent_charges_total_exactly() {
        let m = Machine::new(MachineParams::new(8));
        std::thread::scope(|scope| {
            for j in 0..8 {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        m.charge_flops(j, 3);
                        m.charge_vert(j, 2);
                        m.charge_comm(j, 1);
                        m.alloc(j, 5);
                        m.free(j, 5);
                    }
                });
            }
        });
        m.fence();
        let c = m.report();
        // Every processor did identical work, so the per-phase max is one
        // processor's total and the volume is p times that.
        assert_eq!(c.flops, 3000);
        assert_eq!(c.vertical_words, 2000);
        assert_eq!(c.horizontal_words, 1000);
        assert_eq!(c.total_flops, 8 * 3000);
        assert_eq!(c.total_volume_words, 8 * 1000);
        assert_eq!(c.peak_memory_words, 5);
    }

    #[test]
    fn contended_single_processor_charges_are_not_lost() {
        let m = Machine::new(MachineParams::new(2));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..2500 {
                        m.charge_flops(0, 1);
                    }
                });
            }
        });
        assert_eq!(m.report().total_flops, 10_000);
    }
}
