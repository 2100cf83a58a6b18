//! Machine parameters of the architectural model (§II of the paper).

use serde::{Deserialize, Serialize};

/// Architectural parameters of the simulated machine.
///
/// The paper's model is characterized by `p` processors on a fully
/// connected network, each owning `M` words of main memory and `H` words
/// of cache, with per-word/per-op times `γ` (flop), `β` (horizontal word),
/// `ν` (vertical word) and `α` (global synchronization).
///
/// The time parameters do not influence *what* the simulator executes —
/// they only weight the metered quantities when converting a [`crate::Costs`]
/// record into a modeled execution time via [`crate::Costs::time`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineParams {
    /// Number of (virtual) processors, `p`.
    pub p: usize,
    /// Words of cache per processor, `H`. Vertical-traffic charges for
    /// local kernels depend on whether their working sets fit in `H`.
    pub cache_words: u64,
    /// Time to compute a floating point operation, `γ`.
    pub gamma: f64,
    /// Time to send or receive a word, `β`.
    pub beta: f64,
    /// Time to move a word between cache and memory, `ν`.
    pub nu: f64,
    /// Time to perform a (global) synchronization, `α`.
    pub alpha: f64,
}

impl MachineParams {
    /// A machine with `p` processors, a 1 Mi-word cache, and time
    /// parameters in the regime assumed by the paper's analysis
    /// (`γ ≤ β`, `ν ≤ β`, `ν ≤ γ·√H`): flops are cheap, horizontal words
    /// are expensive, synchronization is very expensive.
    pub fn new(p: usize) -> Self {
        Self {
            p,
            cache_words: 1 << 20,
            gamma: 1e-3,
            beta: 1.0,
            nu: 0.25,
            alpha: 1e4,
        }
    }

    /// Override the time parameters `(γ, β, ν, α)`.
    pub fn with_times(mut self, gamma: f64, beta: f64, nu: f64, alpha: f64) -> Self {
        self.gamma = gamma;
        self.beta = beta;
        self.nu = nu;
        self.alpha = alpha;
        self
    }
}
