//! Always-on service metrics plus `ca_obs` counter mirrors.
//!
//! The service keeps its own relaxed atomics (cheap enough to be
//! unconditional — a handful of `fetch_add`s per job next to a solve
//! that runs millions of flops) so `EigenService::stats` works without
//! tracing enabled. When `CA_TRACE ≥ 1`, the same events also feed the
//! process-global [`ca_obs::Counter`] registry, where they appear next
//! to the kernel counters in trace summaries: `service.submitted`,
//! `service.completed`, `service.failed`, `service.queue_rejected`,
//! `service.deadline_missed`, `service.queue_depth_peak`,
//! `service.queue_wait_us`, `service.solve_us`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

static OBS_SUBMITTED: ca_obs::Counter = ca_obs::Counter::new("service.submitted");
static OBS_COMPLETED: ca_obs::Counter = ca_obs::Counter::new("service.completed");
static OBS_FAILED: ca_obs::Counter = ca_obs::Counter::new("service.failed");
static OBS_REJECTED: ca_obs::Counter = ca_obs::Counter::new("service.queue_rejected");
static OBS_DEADLINE: ca_obs::Counter = ca_obs::Counter::new("service.deadline_missed");
static OBS_DEPTH_PEAK: ca_obs::Counter = ca_obs::Counter::new("service.queue_depth_peak");
static OBS_WAIT_US: ca_obs::Counter = ca_obs::Counter::new("service.queue_wait_us");
static OBS_SOLVE_US: ca_obs::Counter = ca_obs::Counter::new("service.solve_us");

/// Internal per-service counters (one instance per [`crate::EigenService`]).
#[derive(Debug, Default)]
pub(crate) struct ServiceStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    deadline_missed: AtomicU64,
    queue_depth_peak: AtomicU64,
    queue_wait_us: AtomicU64,
    solve_us: AtomicU64,
}

impl ServiceStats {
    pub(crate) fn record_submit(&self, depth_after: usize) {
        self.submitted.fetch_add(1, Relaxed);
        self.queue_depth_peak.fetch_max(depth_after as u64, Relaxed);
        OBS_SUBMITTED.add(1);
        OBS_DEPTH_PEAK.record_max(depth_after as u64);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Relaxed);
        OBS_REJECTED.add(1);
    }

    pub(crate) fn record_deadline_missed(&self) {
        self.deadline_missed.fetch_add(1, Relaxed);
        OBS_DEADLINE.add(1);
    }

    pub(crate) fn record_wait(&self, waited: Duration) {
        self.queue_wait_us
            .fetch_add(waited.as_micros() as u64, Relaxed);
        OBS_WAIT_US.add(waited.as_micros() as u64);
    }

    pub(crate) fn record_solve(&self, took: Duration, ok: bool) {
        self.solve_us.fetch_add(took.as_micros() as u64, Relaxed);
        OBS_SOLVE_US.add(took.as_micros() as u64);
        if ok {
            self.completed.fetch_add(1, Relaxed);
            OBS_COMPLETED.add(1);
        } else {
            self.failed.fetch_add(1, Relaxed);
            OBS_FAILED.add(1);
        }
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.submitted.load(Relaxed),
            completed: self.completed.load(Relaxed),
            failed: self.failed.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            deadline_missed: self.deadline_missed.load(Relaxed),
            batches: 0,
            batched_jobs: 0,
            queue_depth_peak: self.queue_depth_peak.load(Relaxed),
            queue_wait_us: self.queue_wait_us.load(Relaxed),
            solve_us: self.solve_us.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a service's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs whose solve returned `Ok`.
    pub completed: u64,
    /// Jobs whose solve returned a typed error (bad input, convergence).
    pub failed: u64,
    /// Submissions rejected by admission control (queue full).
    pub rejected: u64,
    /// Jobs cancelled because their deadline passed while queued.
    pub deadline_missed: u64,
    /// Always 0: workers run one job at a time. Kept only because the
    /// frozen benchmark harness still reads it.
    pub batches: u64,
    /// Always 0, as [`StatsSnapshot::batches`].
    pub batched_jobs: u64,
    /// High-water mark of the pending-queue depth.
    pub queue_depth_peak: u64,
    /// Summed queue-wait time across started/cancelled jobs, µs.
    pub queue_wait_us: u64,
    /// Summed solve wall time, µs.
    pub solve_us: u64,
}

impl StatsSnapshot {
    /// Every admitted job is accounted for: completed, failed, or
    /// deadline-cancelled. Holds exactly when the service is idle (no
    /// job in flight).
    pub fn accounted(&self) -> u64 {
        self.completed + self.failed + self.deadline_missed
    }
}
