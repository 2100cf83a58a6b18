//! BSP collectives: word-exact cost charging for the communication
//! patterns the paper's algorithms use.
//!
//! Every collective charges each participant's horizontal-word counter
//! with the words it sends plus receives and advances the *group's*
//! superstep counters (subgroup collectives on disjoint groups share
//! global supersteps — see `ca-bsp`). One-to-all and all-to-one
//! collectives use the standard two-phase BSP realization
//! (scatter + allgather, reduce-scatter + gather) so no processor's
//! per-superstep traffic exceeds `O(words)` — matching the collective
//! costs assumed throughout §III/§IV of the paper.
//!
//! The payload itself does not move: the distributed container in
//! [`crate::dist`] holds one buffer per operand and
//! the algorithms compute on views of it. These functions are the single
//! point where the cost of each move enters the ledger.

use crate::grid::Grid;
use ca_bsp::{Machine, ProcId};

/// Point-to-point transfer: `words` from `from` to `to`, one superstep
/// for the pair.
pub fn p2p(m: &Machine, from: ProcId, to: ProcId, words: u64) {
    if from == to {
        return;
    }
    m.charge_transfer(from, to, words);
    m.step(&[from, to], 1);
}

/// A batch of point-to-point transfers executed in a single superstep by
/// the given group (BSP permits an arbitrary h-relation per superstep).
pub fn exchange(m: &Machine, group: &Grid, moves: &[(ProcId, ProcId, u64)]) {
    for &(from, to, words) in moves {
        m.charge_transfer(from, to, words);
    }
    m.step(group.procs(), 1);
}

/// A change of layout (an all-to-all): every rank `r` of `old` sends its
/// old share `sent(r)`, every rank `r` of `new` receives its new share
/// `received(r)`, in one superstep of both groups. A processor's old and
/// new shares are not netted against each other: block boundaries rarely
/// align, and the paper's redistribution charge is `O(words/p)`
/// regardless.
pub(crate) fn relayout(
    m: &Machine,
    old: &Grid,
    sent: impl Fn(usize) -> u64,
    new: &Grid,
    received: impl Fn(usize) -> u64,
) {
    for r in 0..old.len() {
        m.charge_comm(old.proc(r), sent(r));
    }
    for r in 0..new.len() {
        m.charge_comm(new.proc(r), received(r));
    }
    let mut all: Vec<ProcId> = old.procs().iter().chain(new.procs()).copied().collect();
    all.sort_unstable();
    all.dedup();
    m.step(&all, 1);
}

/// Broadcast `words` from `root` (a rank within `group`) to all members:
/// two-phase (scatter, then allgather).
pub fn bcast(m: &Machine, group: &Grid, root: usize, words: u64) {
    let g = group.len() as u64;
    if g <= 1 || words == 0 {
        return;
    }
    let root_id = group.proc(root);
    // Phase 1: root scatters pieces (exact proportional accounting —
    // integer rounding up would add a spurious O(g) term per call).
    m.charge_comm(root_id, words - words / g);
    for (r, &pid) in group.procs().iter().enumerate() {
        if r != root {
            m.charge_comm(pid, words / g);
        }
    }
    // Phase 2: allgather of pieces.
    for &pid in group.procs() {
        m.charge_comm(pid, 2 * (words * (g - 1)) / g);
    }
    m.step(group.procs(), 2);
}

/// Gather `words_each` from every member onto `root`: one superstep.
pub fn gather(m: &Machine, group: &Grid, root: usize, words_each: u64) {
    let g = group.len() as u64;
    if g <= 1 || words_each == 0 {
        return;
    }
    let root_id = group.proc(root);
    for (r, &pid) in group.procs().iter().enumerate() {
        if r != root {
            m.charge_comm(pid, words_each);
        }
    }
    m.charge_comm(root_id, (g - 1) * words_each);
    m.step(group.procs(), 1);
}

/// All-gather: every member contributes `words_each` and ends with all
/// `g·words_each` words: one superstep.
pub fn allgather(m: &Machine, group: &Grid, words_each: u64) {
    let g = group.len() as u64;
    if g <= 1 || words_each == 0 {
        return;
    }
    for &pid in group.procs() {
        m.charge_comm(pid, 2 * (g - 1) * words_each);
    }
    m.step(group.procs(), 1);
}

/// Reduce-scatter: every member holds `words_total`, the element-wise
/// sum ends evenly scattered (`words_total/g` each): one superstep plus
/// the reduction flops.
pub fn reduce_scatter(m: &Machine, group: &Grid, words_total: u64) {
    let g = group.len() as u64;
    if g <= 1 || words_total == 0 {
        return;
    }
    for &pid in group.procs() {
        m.charge_comm(pid, 2 * (words_total * (g - 1)) / g);
        m.charge_flops(pid, (words_total * (g - 1)) / g);
    }
    m.step(group.procs(), 1);
}

/// Reduce `words` element-wise onto `root`: two-phase
/// (reduce-scatter + gather).
pub fn reduce(m: &Machine, group: &Grid, root: usize, words: u64) {
    let g = group.len() as u64;
    if g <= 1 || words == 0 {
        return;
    }
    reduce_scatter(m, group, words);
    gather(m, group, root, (words / g).max(1));
}

/// All-reduce `words` element-wise: two-phase
/// (reduce-scatter + allgather).
pub fn allreduce(m: &Machine, group: &Grid, words: u64) {
    let g = group.len() as u64;
    if g <= 1 || words == 0 {
        return;
    }
    reduce_scatter(m, group, words);
    allgather(m, group, (words / g).max(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_bsp::MachineParams;

    fn machine(p: usize) -> Machine {
        Machine::new(MachineParams::new(p))
    }

    #[test]
    fn p2p_charges_pair_and_steps() {
        let m = machine(4);
        p2p(&m, 0, 3, 10);
        m.fence();
        let c = m.report();
        assert_eq!(c.total_volume_words, 20);
        assert_eq!(c.supersteps, 2); // the p2p step + the fence
    }

    #[test]
    fn bcast_cost_is_linear_in_words_not_group_size() {
        // Two-phase broadcast: per-proc traffic ≤ 3·words regardless of g.
        for g in [2usize, 4, 8, 16] {
            let m = machine(g);
            let grid = Grid::all(g);
            bcast(&m, &grid, 0, 1000);
            let per_proc = m.comm_per_proc();
            for w in per_proc {
                assert!(w <= 3 * 1000 + 3 * g as u64, "g={g}: per-proc {w}");
            }
        }
    }

    #[test]
    fn gather_charges_root_with_total() {
        let m = machine(4);
        gather(&m, &Grid::all(4), 0, 100);
        let per = m.comm_per_proc();
        assert_eq!(per[0], 300);
        assert_eq!(per[1], 100);
    }

    #[test]
    fn allgather_symmetric() {
        let m = machine(3);
        allgather(&m, &Grid::all(3), 50);
        let per = m.comm_per_proc();
        assert!(per.iter().all(|&w| w == 200));
    }

    #[test]
    fn reduce_scatter_charges_flops() {
        let m = machine(4);
        reduce_scatter(&m, &Grid::all(4), 400);
        m.fence();
        let c = m.report();
        assert_eq!(c.flops, 300); // (g−1)·w/g per proc
    }

    #[test]
    fn singleton_group_is_free() {
        let m = machine(2);
        let g1 = Grid::new_1d(vec![1]);
        bcast(&m, &g1, 0, 1000);
        reduce(&m, &g1, 0, 1000);
        allgather(&m, &g1, 1000);
        let c = m.report();
        assert_eq!(c.horizontal_words, 0);
        assert_eq!(c.supersteps, 0);
    }

    #[test]
    fn exchange_batches_into_one_superstep() {
        let m = machine(4);
        exchange(&m, &Grid::all(4), &[(0, 1, 10), (2, 3, 20), (1, 2, 5)]);
        m.fence();
        let c = m.report();
        assert_eq!(c.total_volume_words, 2 * 35);
        assert_eq!(c.supersteps, 2); // the exchange + the fence
    }

    #[test]
    fn zero_word_collectives_are_free() {
        let m = machine(4);
        bcast(&m, &Grid::all(4), 0, 0);
        gather(&m, &Grid::all(4), 0, 0);
        reduce_scatter(&m, &Grid::all(4), 0);
        let c = m.report();
        assert_eq!(c.horizontal_words, 0);
        assert_eq!(c.supersteps, 0);
    }

    #[test]
    fn subgroup_collectives_share_supersteps() {
        let m = machine(4);
        let left = Grid::new_1d(vec![0, 1]);
        let right = Grid::new_1d(vec![2, 3]);
        allgather(&m, &left, 10);
        allgather(&m, &right, 10);
        m.fence();
        assert_eq!(m.report().supersteps, 2); // concurrent + fence
    }
}
