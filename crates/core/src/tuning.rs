//! Parameter tuning: choose `(c, b)` for a given machine and problem
//! from the closed-form cost models.
//!
//! The paper frames `c` as new tuning freedom ("the flexibility offered
//! by the parameter c increases the dimensionality of the tuning space
//! for symmetric eigensolver implementations", §I) and notes that large
//! `c` pays off on bandwidth-constrained machines. This module walks the
//! legal configurations (`p/c` a perfect square, `c ≤ p^{1/3}`, memory
//! within budget) and ranks them by the modeled BSP time under the
//! machine's `γ/β/ν/α`.

use crate::model;
use crate::params::EigenParams;
use ca_bsp::MachineParams;

/// One evaluated configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningChoice {
    /// Replication factor.
    pub c: usize,
    /// Implied `δ`.
    pub delta: f64,
    /// Initial band-width the solver would pick.
    pub b: usize,
    /// Modeled BSP time (γF + βW + νQ + αS).
    pub modeled_time: f64,
    /// Modeled per-processor memory (words).
    pub memory_words: f64,
}

/// Legal replication factors for `p` (perfect-square layers, within the
/// paper's `c ≤ p^{1/3}` regime).
fn legal_replications(p: usize) -> Vec<usize> {
    (0..=p.ilog2())
        .map(|e| 1usize << e)
        .filter(|&c| {
            p.is_multiple_of(c) && c * c * c <= p && {
                let q2 = p / c;
                let q = (q2 as f64).sqrt().round() as usize;
                q * q == q2
            }
        })
        .collect()
}

/// Rank every legal `c` for solving an `n×n` problem on `machine`,
/// cheapest modeled time first. Configurations whose modeled memory
/// exceeds `memory_budget_words` (if given) are excluded.
pub fn rank_configurations(
    n: usize,
    machine: &MachineParams,
    memory_budget_words: Option<f64>,
) -> Vec<TuningChoice> {
    let p = machine.p;
    let mut out = Vec::new();
    for c in legal_replications(p) {
        let params = EigenParams::new(p, c);
        let m = model::eigensolver(n, &params);
        let mem = m.memory_words;
        if let Some(budget) = memory_budget_words {
            if mem > budget {
                continue;
            }
        }
        let time = machine.gamma * m.flops
            + machine.beta * m.horizontal_words
            + machine.nu * m.vertical_words
            + machine.alpha * m.supersteps;
        out.push(TuningChoice {
            c,
            delta: params.delta(),
            b: params.initial_bandwidth(n),
            modeled_time: time,
            memory_words: mem,
        });
    }
    out.sort_by(|a, b| a.modeled_time.partial_cmp(&b.modeled_time).expect("finite"));
    out
}

/// The single best configuration (None when nothing fits the budget).
pub fn best_configuration(
    n: usize,
    machine: &MachineParams,
    memory_budget_words: Option<f64>,
) -> Option<TuningChoice> {
    rank_configurations(n, machine, memory_budget_words)
        .into_iter()
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_replications_respect_regime() {
        assert_eq!(legal_replications(16), vec![1]);
        assert_eq!(legal_replications(64), vec![1, 4]);
        assert_eq!(legal_replications(256), vec![1, 4]);
        assert_eq!(legal_replications(4096), vec![1, 4, 16]);
    }

    #[test]
    fn bandwidth_bound_machines_prefer_replication() {
        // Expensive words, free sync: c = max wins.
        let m = MachineParams::new(64).with_times(1e-6, 1.0, 0.1, 0.0);
        let best = best_configuration(4096, &m, None).expect("choices");
        assert_eq!(best.c, 4, "bandwidth-bound machine should replicate");
    }

    #[test]
    fn latency_bound_machines_avoid_replication() {
        // Free words, very expensive synchronization: c = 1 wins
        // (replication buys W at the price of S).
        let m = MachineParams::new(64).with_times(1e-6, 1e-9, 0.0, 1e6);
        let best = best_configuration(4096, &m, None).expect("choices");
        assert_eq!(best.c, 1, "latency-bound machine should not replicate");
    }

    #[test]
    fn memory_budget_excludes_replication() {
        let machine = MachineParams::new(64).with_times(1e-6, 1.0, 0.1, 0.0);
        let n = 4096;
        // Budget just below the c = 4 footprint (n²/q² with q = 4).
        let c4_mem = (n * n) as f64 / 16.0;
        let best = best_configuration(n, &machine, Some(c4_mem * 0.9)).expect("choices");
        assert_eq!(best.c, 1, "budget should force c = 1");
        // With room, c = 4 returns.
        let best = best_configuration(n, &machine, Some(c4_mem * 1.1)).expect("choices");
        assert_eq!(best.c, 4);
    }

    #[test]
    fn ranking_is_sorted() {
        let m = MachineParams::new(4096);
        let ranked = rank_configurations(8192, &m, None);
        assert!(ranked.len() >= 3);
        for w in ranked.windows(2) {
            assert!(w[0].modeled_time <= w[1].modeled_time);
        }
    }
}
