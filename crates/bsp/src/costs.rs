//! Cost records produced by the [`crate::Machine`] ledger.

use crate::MachineParams;
use serde::{Deserialize, Serialize};

/// The four metered quantities of the paper's cost model, plus memory.
///
/// `F`, `W` and `Q` are sums over fenced phases of the per-phase maximum
/// over processors (the paper's per-superstep maxima, folded at fence
/// granularity); `S` is the maximum per-processor superstep count; `M`
/// is the per-processor peak memory footprint in words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Costs {
    /// `F`: local floating point operations (per-phase max, summed).
    pub flops: u64,
    /// `W`: words sent + received between processors (per-phase max, summed).
    pub horizontal_words: u64,
    /// `Q`: words moved between main memory and cache (per-phase max, summed).
    pub vertical_words: u64,
    /// `S`: BSP supersteps (max over processors).
    pub supersteps: u64,
    /// `M`: peak per-processor memory footprint in words (max over processors).
    pub peak_memory_words: u64,
    /// Total words communicated summed over *all* processors (volume, not
    /// critical path). Useful as a sanity check on load balance:
    /// a perfectly balanced algorithm has
    /// `total_volume_words ≈ p · horizontal_words`.
    pub total_volume_words: u64,
    /// Total flops summed over all processors.
    pub total_flops: u64,
}

impl Costs {
    /// Modeled BSP execution time `T = γ·F + β·W + ν·Q + α·S` under the
    /// given machine parameters.
    pub fn time(&self, params: &MachineParams) -> BspTime {
        BspTime {
            compute: params.gamma * self.flops as f64,
            horizontal: params.beta * self.horizontal_words as f64,
            vertical: params.nu * self.vertical_words as f64,
            synchronization: params.alpha * self.supersteps as f64,
        }
    }

    /// Element-wise difference `self − earlier`; panics if any counter of
    /// `earlier` exceeds the corresponding counter of `self`. Peak memory
    /// is *not* differenced (it is a high-water mark) and is carried from
    /// `self`.
    pub fn since(&self, earlier: &Costs) -> Costs {
        Costs {
            flops: self.flops - earlier.flops,
            horizontal_words: self.horizontal_words - earlier.horizontal_words,
            vertical_words: self.vertical_words - earlier.vertical_words,
            supersteps: self.supersteps - earlier.supersteps,
            peak_memory_words: self.peak_memory_words,
            total_volume_words: self.total_volume_words - earlier.total_volume_words,
            total_flops: self.total_flops - earlier.total_flops,
        }
    }
}

/// Breakdown of the modeled execution time into the four α–β–γ–ν terms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BspTime {
    /// `γ·F`
    pub compute: f64,
    /// `β·W`
    pub horizontal: f64,
    /// `ν·Q`
    pub vertical: f64,
    /// `α·S`
    pub synchronization: f64,
}

impl BspTime {
    /// Total modeled time.
    pub fn total(&self) -> f64 {
        self.compute + self.horizontal + self.vertical + self.synchronization
    }
}

/// An opaque snapshot of the ledger, used to measure the cost of a code
/// region: take a snapshot, run the region, and ask the machine for the
/// [`Costs`] accumulated since the snapshot.
#[derive(Debug, Clone)]
pub struct CostSnapshot {
    pub(crate) report: Costs,
}
