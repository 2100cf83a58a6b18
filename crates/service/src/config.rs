//! Service configuration: [`ServiceConfig`]'s fields are the whole of it
//! — the service reads no environment variable.

/// Construction-time parameters of an [`crate::EigenService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Number of worker threads executing jobs (clamped to ≥ 1).
    pub workers: usize,
    /// Admission-control bound: `submit` returns
    /// [`ca_eigen::EigenError::QueueFull`] once this many jobs are
    /// pending (clamped to ≥ 1).
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_capacity: 256,
        }
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
    }
}
