//! # ca-service — multi-tenant eigensolver serving
//!
//! The research driver solves exactly one eigenproblem per process
//! invocation. This crate turns it into a reusable serving substrate:
//! an [`EigenService`] is a bounded FIFO queue and `N` worker threads —
//! started through the workspace runtime's one spawn site, each with a
//! core budget of `max(1, current_num_threads() / workers)` for the
//! forks inside its jobs. It accepts many independent
//! [`SymmEigenJob`]s (values-only or with vectors, heterogeneous `n`),
//! applies admission control over the queue, and cancels jobs whose
//! scheduling deadline passes ([`EigenError::Deadline`]). A worker pops
//! one job, runs it through [`ca_eigen::solve_job`], and pops the next.
//!
//! ## Determinism
//!
//! Results are **bit-identical to solo runs** regardless of
//! concurrency, interleaving, or the pool width
//! (`RAYON_NUM_THREADS`), by construction (see DESIGN.md §6f):
//!
//! 1. every job executes through exactly one function,
//!    [`ca_eigen::solve_job`], which a solo reference run calls
//!    directly — the service adds scheduling around it, never
//!    arithmetic;
//! 2. each job gets a **fresh virtual machine** (its own metered
//!    ledger) and the solver shares no mutable numerical state between
//!    jobs — thread-local workspace arenas hand out zero-filled
//!    buffers ([`ca_dla::workspace`] is re-entrant for exactly this
//!    use), so a warm arena is numerically indistinguishable from a
//!    cold one;
//! 3. the solver has no process-global configuration a concurrent
//!    caller could flip mid-solve (a worker's core budget is its own
//!    thread's and changes dispatch, never bits);
//! 4. the solver itself is interleaving-independent: its cost ledger
//!    is commutative-atomic and its parallel schedules are
//!    bit-identical to serial execution (pinned by the repo's
//!    determinism suites).
//!
//! The differential suite (`tests/service_differential.rs`) and the
//! concurrency stress suite (`tests/service_stress.rs`) enforce this
//! end to end.
//!
//! ## Quick start
//!
//! ```
//! use ca_service::{EigenService, ServiceConfig};
//! use ca_eigen::SymmEigenJob;
//! use ca_dla::gen;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let service = EigenService::new(ServiceConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! let a = gen::symmetric_with_spectrum(&mut rng, &gen::linspace_spectrum(32, -1.0, 1.0));
//! let ticket = service.submit(SymmEigenJob::values(a, 4, 1)).unwrap();
//! let result = ticket.wait().unwrap();
//! assert_eq!(result.eigenvalues.len(), 32);
//! ```

#![warn(missing_docs)]

mod config;
mod stats;

pub use config::ServiceConfig;
pub use stats::StatsSnapshot;

use ca_dla::rt;
pub use ca_eigen::{solve_job, EigenError, JobResult, SymmEigenJob};

use stats::ServiceStats;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// One entry waiting in the admission queue.
struct QueuedJob {
    job: SymmEigenJob,
    slot: Arc<Slot>,
    id: u64,
    submitted: Instant,
}

/// The rendezvous cell a [`JobTicket`] waits on.
#[derive(Debug)]
struct Slot {
    cell: Mutex<Option<Result<JobResult, EigenError>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn fulfill(&self, res: Result<JobResult, EigenError>) {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        *cell = Some(res);
        self.cv.notify_all();
    }
}

/// Mutable scheduler state behind the service mutex.
struct State {
    queue: VecDeque<QueuedJob>,
    paused: bool,
    closed: bool,
}

/// State shared between the service handle and its workers.
struct Shared {
    state: Mutex<State>,
    /// Signalled when work arrives, the pause flag clears, or the
    /// service closes.
    cv: Condvar,
    /// Admission bound: `submit` rejects once this many jobs are queued.
    capacity: usize,
    stats: ServiceStats,
}

/// Claim ticket for a submitted job; redeem with [`JobTicket::wait`].
#[derive(Debug)]
pub struct JobTicket {
    slot: Arc<Slot>,
}

impl JobTicket {
    /// Block until the job completes and return its result. Never loses
    /// a job: every admitted ticket is eventually fulfilled — with the
    /// solve's output, a typed solve error, [`EigenError::Deadline`],
    /// or [`EigenError::ServiceShutdown`] if the service drops its
    /// queue before the job starts (it does not: shutdown drains).
    pub fn wait(self) -> Result<JobResult, EigenError> {
        let mut cell = self.slot.cell.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(res) = cell.take() {
                return res;
            }
            cell = self.slot.cv.wait(cell).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A multi-tenant eigensolver front-end. See the crate docs.
pub struct EigenService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: std::sync::atomic::AtomicU64,
}

impl EigenService {
    /// A service with the given configuration; its workers start now.
    /// Both fields are clamped to at least 1.
    pub fn new(config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                paused: false,
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            stats: ServiceStats::default(),
        });
        // The core budget is derived, not configured: the runtime's
        // threads divided evenly among this service's workers. With no
        // cores to spare (budget 1) a job runs entirely inline on its
        // worker — nothing is handed to another thread.
        let workers = config.workers.max(1);
        let budget = (rt::current_num_threads() / workers).max(1);
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                rt::spawn_worker(format!("ca-service-{i}"), move || {
                    rt::with_budget(budget, || worker_loop(&shared))
                })
            })
            .collect();
        Self {
            shared,
            workers,
            next_id: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Admit one job. Returns a [`JobTicket`] on admission;
    /// [`EigenError::QueueFull`] when the bounded queue is at capacity,
    /// [`EigenError::ServiceShutdown`] when the service is closing.
    /// Admission is O(1) — input validation runs on the worker, so a
    /// malformed matrix still costs its submitter (not the queue) and
    /// surfaces through the ticket.
    pub fn submit(&self, job: SymmEigenJob) -> Result<JobTicket, EigenError> {
        let slot = Slot::new();
        let id = self
            .next_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let submitted = Instant::now();
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.closed {
                return Err(EigenError::ServiceShutdown);
            }
            let cap = self.shared.capacity;
            if st.queue.len() >= cap {
                self.shared.stats.record_rejected();
                return Err(EigenError::QueueFull { capacity: cap });
            }
            st.queue.push_back(QueuedJob {
                job,
                slot: Arc::clone(&slot),
                id,
                submitted,
            });
            self.shared.stats.record_submit(st.queue.len());
        }
        self.shared.cv.notify_one();
        Ok(JobTicket { slot })
    }

    /// Submit every job, preserving order; each element is that job's
    /// admission outcome.
    pub fn submit_batch(
        &self,
        jobs: impl IntoIterator<Item = SymmEigenJob>,
    ) -> Vec<Result<JobTicket, EigenError>> {
        jobs.into_iter().map(|j| self.submit(j)).collect()
    }

    /// Stop dispatching queued jobs (in-flight solves finish; admission
    /// stays open). Idempotent.
    pub fn pause(&self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.paused = true;
    }

    /// Resume dispatch after [`EigenService::pause`]. Idempotent.
    pub fn resume(&self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.paused = false;
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Point-in-time metrics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: closes admission, lets the workers drain
    /// every already-admitted job (fulfilling all outstanding tickets),
    /// and joins them. Also runs on `Drop`.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.closed = true;
            // A paused service must still drain on shutdown, or the
            // join below would deadlock against workers waiting for
            // `resume`.
            st.paused = false;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for EigenService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let q = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if !st.paused || st.closed {
                    if let Some(q) = st.queue.pop_front() {
                        break q;
                    }
                    if st.closed {
                        return;
                    }
                }
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_one(shared, q);
    }
}

/// Execute (or deadline-cancel) one dequeued job and fulfill its ticket.
fn run_one(shared: &Shared, q: QueuedJob) {
    let waited = q.submitted.elapsed();
    shared.stats.record_wait(waited);
    let res = match q.job.timeout {
        // Deadlines bound scheduling delay: a job still queued past its
        // timeout is cancelled *before* any work runs. Once a solve
        // starts it runs to completion — results are never discarded on
        // wall-clock grounds, keeping outcomes timing-independent.
        Some(t) if waited > t => {
            shared.stats.record_deadline_missed();
            Err(EigenError::Deadline {
                timeout_ms: t.as_millis() as u64,
                waited_ms: waited.as_millis() as u64,
            })
        }
        _ => {
            let _span = ca_obs::span(&format!(
                "service.job id={} n={}{}",
                q.id,
                q.job.n(),
                if q.job.want_vectors { " +v" } else { "" }
            ));
            let t0 = Instant::now();
            let r = solve_job(&q.job);
            shared.stats.record_solve(t0.elapsed(), r.is_ok());
            r
        }
    };
    q.slot.fulfill(res);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_dla::gen;
    use ca_dla::tridiag::spectrum_distance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn job(n: usize, seed: u64) -> (SymmEigenJob, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let spectrum = gen::linspace_spectrum(n, -2.0, 2.0);
        let a = gen::symmetric_with_spectrum(&mut rng, &spectrum);
        (SymmEigenJob::values(a, 4, 1), spectrum)
    }

    fn small_service(workers: usize, cap: usize) -> EigenService {
        EigenService::new(ServiceConfig {
            workers,
            queue_capacity: cap,
        })
    }

    fn serve_all(
        service: &EigenService,
        jobs: Vec<SymmEigenJob>,
    ) -> Vec<Result<JobResult, EigenError>> {
        let tickets = service.submit_batch(jobs);
        tickets
            .into_iter()
            .map(|t| t.and_then(JobTicket::wait))
            .collect()
    }

    #[test]
    fn single_job_roundtrip() {
        let service = small_service(2, 8);
        let (j, spectrum) = job(24, 1);
        let out = service.submit(j).unwrap().wait().unwrap();
        assert!(spectrum_distance(&out.eigenvalues, &spectrum) < 1e-8);
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
    }

    #[test]
    fn batch_of_mixed_sizes_all_complete() {
        let service = small_service(3, 64);
        let jobs: Vec<_> = (0..12).map(|i| job(8 + 5 * i, 100 + i as u64).0).collect();
        let results = serve_all(&service, jobs);
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            let out = r.as_ref().unwrap_or_else(|e| panic!("job {i}: {e}"));
            assert_eq!(out.eigenvalues.len(), 8 + 5 * i);
        }
        let stats = service.stats();
        assert_eq!(stats.accounted(), 12);
    }

    #[test]
    fn queue_full_is_a_typed_error() {
        // Paused service: nothing is dequeued, so the third submission
        // must hit the capacity-2 bound deterministically.
        let service = small_service(1, 2);
        service.pause();
        let t1 = service.submit(job(8, 2).0).unwrap();
        let t2 = service.submit(job(8, 3).0).unwrap();
        match service.submit(job(8, 4).0) {
            Err(EigenError::QueueFull { capacity: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(service.stats().rejected, 1);
        service.resume();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn expired_deadline_cancels_without_solving() {
        let service = small_service(1, 8);
        service.pause();
        let t = service
            .submit(job(16, 5).0.timeout(Duration::ZERO))
            .unwrap();
        // Let the (zero) deadline pass while the scheduler is paused.
        std::thread::sleep(Duration::from_millis(2));
        service.resume();
        match t.wait() {
            Err(EigenError::Deadline { timeout_ms: 0, .. }) => {}
            other => panic!("expected Deadline, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!((stats.deadline_missed, stats.completed), (1, 0));
    }

    #[test]
    fn shutdown_drains_admitted_jobs() {
        let service = small_service(2, 32);
        let tickets: Vec<_> = (0..6)
            .map(|i| service.submit(job(12 + i, 60 + i as u64).0).unwrap())
            .collect();
        service.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok(), "shutdown must drain admitted jobs");
        }
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let service = small_service(1, 4);
        // Close via an aliased handle pattern: shutdown consumes, so
        // emulate late submission by closing the shared state first.
        {
            let mut st = service.shared.state.lock().unwrap();
            st.closed = true;
        }
        match service.submit(job(8, 70).0) {
            Err(EigenError::ServiceShutdown) => {}
            other => panic!("expected ServiceShutdown, got {other:?}"),
        }
        // Reopen so Drop's join sees a consistent (already closed)
        // state; Drop re-closes idempotently.
    }

    #[test]
    fn service_results_are_bit_identical_to_solo() {
        let service = small_service(4, 32);
        let jobs: Vec<_> = (0..8).map(|i| job(20 + 7 * i, 80 + i as u64).0).collect();
        let solo: Vec<_> = jobs
            .iter()
            .map(|j| solve_job(j).unwrap().eigenvalues)
            .collect();
        let served = serve_all(&service, jobs);
        for (s, r) in solo.iter().zip(&served) {
            let r = r.as_ref().unwrap();
            assert_eq!(
                s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                r.eigenvalues
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }
}
