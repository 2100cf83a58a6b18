//! Service configuration: [`ServiceConfig`]'s fields are the whole of it
//! — the service reads no environment variable.

/// Construction-time parameters of an [`crate::EigenService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Admission-control bound: `submit` returns
    /// [`ca_eigen::EigenError::QueueFull`] once this many jobs are
    /// pending (≥ 1).
    pub queue_capacity: usize,
    /// Problems with `n` below this floor are *coalesced*: a worker
    /// that dequeues one small job claims every other queued job under
    /// the floor (up to [`ServiceConfig::batch_max`]) and solves them
    /// back to back on its warm thread, amortizing per-solve overheads
    /// (thread hand-off, workspace-arena warm-up, span setup) across
    /// the batch. `0` disables coalescing.
    pub batch_floor: usize,
    /// Upper bound on the number of jobs one coalesced batch may claim,
    /// so a burst of small jobs still spreads across workers.
    pub batch_max: usize,
    /// Start with the scheduler paused: jobs are admitted (and counted
    /// against `queue_capacity`) but no worker picks any up until
    /// [`crate::EigenService::resume`]. Used for drain/maintenance
    /// windows and for deterministic queue-state tests.
    pub paused: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_capacity: 256,
            batch_floor: 64,
            batch_max: 16,
            paused: false,
        }
    }
}

impl ServiceConfig {
    /// Number of worker threads, with the ≥ 1 clamp applied.
    pub fn effective_workers(&self) -> usize {
        self.workers.max(1)
    }

    /// Queue capacity, with the ≥ 1 clamp applied.
    pub fn effective_capacity(&self) -> usize {
        self.queue_capacity.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServiceConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_capacity >= 1);
        assert!(cfg.batch_max >= 1);
        assert!(!cfg.paused);
    }
}
