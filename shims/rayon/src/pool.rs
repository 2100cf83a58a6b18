//! The persistent worker pool: one queue, one condition variable,
//! `current_num_threads() − 1` long-lived workers.
//!
//! ## Shape
//!
//! Every parallel construct of the workspace ends in one call: [`fork`]
//! (run pieces `0..k` of a body that lives on the caller's stack —
//! `join` and all the par-iter adaptors). It pushes [`Job`]s onto the
//! **one** FIFO queue and ends in [`wait_helping`]. The pool runs one
//! kind of job: pieces.
//!
//! ## The helping rule, and why it cannot deadlock
//!
//! A thread that must wait for its pieces does not sleep while there is
//! something to run: its *own* latch's queued pieces first (oldest
//! first — if no worker has picked a piece up yet, the forking thread
//! simply runs it, so a fork never waits on a wake-up), then other
//! latches'. It sleeps on the pool's one condition variable only when
//! the queue is empty, and is therefore woken by any push, not only by
//! its own latch's completion. A fork nested inside a piece is queued
//! like any other, so it reaches idle workers.
//!
//! Pieces are the compute kernels' loop bodies, rank bodies and `join`
//! halves, and take no lock that outlives them. Every piece therefore
//! either finishes or waits, inside `wait_helping`, on pieces of its own
//! latch: those are queued — the waiter itself takes them — or running
//! on some thread, which by the same argument finish. Some running
//! piece can always make progress, and the finite fork tree drains.
//!
//! ## The core budget
//!
//! A thread-local budget ([`with_budget`], default
//! [`current_num_threads`]) caps the pieces of every fork started under
//! it; a piece carries its creator's budget to whichever thread runs
//! it. At budget 1 nothing is ever queued: the whole computation runs
//! inline on its thread.
//!
//! ## Loans
//!
//! A thread that runs queued jobs is *on loan*: a pool worker for life,
//! any other thread from the first queued job it picks up while waiting
//! — pieces of its own fork aside: those are its own work, continued —
//! until that (outermost) wait is over. [`on_lend`] lets a layer above
//! bracket loans — `ca-dla` keeps the scratch arenas a job warms up
//! from outliving the fork it belonged to, which is what makes the
//! process's peak heap independent of where jobs happened to land.
//!
//! ## Panics
//!
//! A panic inside a job is caught where it ran (the worker survives),
//! the latch still drains — queued jobs borrow the waiting thread's
//! stack, so returning early would be unsound — and the first payload
//! is re-raised on the thread that owns the latch.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock};

/// Number of threads parallel work is spread over: the pool's workers
/// plus the thread that forks. `RAYON_NUM_THREADS` if set to a positive
/// integer, otherwise the hardware parallelism; read once.
pub fn current_num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

// Statistics only: none of these publishes other data, hence `Relaxed`.
static SPAWNS: AtomicU64 = AtomicU64::new(0);
static JOBS_RUN: AtomicU64 = AtomicU64::new(0);
static JOBS_HELPED: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);

/// Cumulative runtime counters since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RtStats {
    /// Threads created through [`spawn_worker`] (pool workers and the
    /// long-lived threads of callers such as the batch service). Flat in
    /// steady state.
    pub spawns: u64,
    /// Queued jobs executed (pieces a forking thread runs inline as its
    /// own first piece are not queued and not counted).
    pub jobs_run: u64,
    /// Of those, jobs run by a thread that was waiting for a latch
    /// rather than by an idle pool worker.
    pub jobs_helped: u64,
    /// Times a pool worker found the queue empty and went to sleep.
    pub parks: u64,
}

/// Snapshot of the runtime counters.
pub fn stats() -> RtStats {
    RtStats {
        spawns: SPAWNS.load(Ordering::Relaxed),
        jobs_run: JOBS_RUN.load(Ordering::Relaxed),
        jobs_helped: JOBS_HELPED.load(Ordering::Relaxed),
        parks: PARKS.load(Ordering::Relaxed),
    }
}

/// Start a named long-lived thread. This is the workspace's **only**
/// thread-creation site outside tests and benches: the pool's own
/// workers (`ca-rt-<i>`) and the batch service's (`ca-service-<i>`) both
/// come from here, so [`RtStats::spawns`] counts every thread the system
/// owns.
pub fn spawn_worker(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> std::thread::JoinHandle<()> {
    SPAWNS.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("the OS refused a runtime thread")
}

thread_local! {
    /// This thread's core budget; 0 = unset (the whole pool).
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// Cores the calling thread may spread one parallel construct over:
/// the innermost [`with_budget`] value (inherited by every job forked
/// under it), capped at — and defaulting to — [`current_num_threads`].
pub fn current_budget() -> usize {
    match BUDGET.with(Cell::get) {
        0 => current_num_threads(),
        b => b.min(current_num_threads()),
    }
}

/// Restores the previous budget on drop (panic-safe).
struct BudgetGuard(usize);

impl BudgetGuard {
    fn install(cores: usize) -> Self {
        BudgetGuard(BUDGET.with(|b| b.replace(cores)))
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        BUDGET.with(|b| b.set(self.0));
    }
}

/// Run `f` with this thread's core budget set to `cores` (≥ 1): every
/// fork under it splits into at most `cores` pieces. With `cores == 1`
/// the whole of `f` runs inline on this thread.
pub fn with_budget<R>(cores: usize, f: impl FnOnce() -> R) -> R {
    let _restore = BudgetGuard::install(cores.max(1));
    f()
}

/// What a thread does around *lending* itself to queued jobs.
#[derive(Clone, Copy)]
struct LendHooks {
    begin: fn(),
    end: fn(),
}

static LEND_HOOKS: OnceLock<LendHooks> = OnceLock::new();

/// Register what a thread does around **lending** itself to queued
/// jobs — work that some other thread created and that leaves scratch
/// state behind on whichever thread runs it. The first registration
/// wins.
///
/// * A thread waiting for a latch runs `begin` before the first queued
///   job it picks up that is not a piece of its own fork, and `end`
///   when the wait is over (outermost wait only: a wait nested inside a
///   job is part of the same loan).
/// * A pool worker is on loan for life; it runs `end` each time it
///   finds the queue empty, before it sleeps.
///
/// `ca-dla` uses the pair to keep the scratch arenas a job warms up
/// from outliving the fork the job belonged to.
pub fn on_lend(begin: fn(), end: fn()) {
    let _ = LEND_HOOKS.set(LendHooks { begin, end });
}

thread_local! {
    /// True while this thread is on loan to queued jobs.
    static ON_LOAN: Cell<bool> = const { Cell::new(false) };
}

/// One loan of a waiting thread; closes it on drop. Inert when the
/// thread was on loan already (a pool worker, or a wait nested in a
/// job).
struct Loan {
    outermost: bool,
    /// The `end` hook, if `begin` ran (hooks may be registered between
    /// the two; an unpaired `end` must not run).
    end: Option<fn()>,
}

impl Loan {
    fn open() -> Self {
        if ON_LOAN.with(|l| l.replace(true)) {
            return Loan {
                outermost: false,
                end: None,
            };
        }
        let hooks = LEND_HOOKS.get().copied();
        if let Some(hooks) = hooks {
            (hooks.begin)();
        }
        Loan {
            outermost: true,
            end: hooks.map(|h| h.end),
        }
    }
}

impl Drop for Loan {
    fn drop(&mut self) {
        if self.outermost {
            if let Some(end) = self.end {
                end();
            }
            ON_LOAN.with(|l| l.set(false));
        }
    }
}

type Payload = Box<dyn Any + Send + 'static>;

/// Completion counter of one fork. Lives on the stack of the thread
/// that waits on it.
struct Latch {
    /// Jobs created under this latch that have not finished yet.
    pending: AtomicUsize,
    /// First panic payload caught in one of them.
    panic: Mutex<Option<Payload>>,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Latch {
            pending: AtomicUsize::new(pending),
            panic: Mutex::new(None),
        }
    }

    fn record_panic(&self, payload: Payload) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }

    /// Re-raise the first recorded panic, if any.
    fn propagate(&self) {
        let payload = self.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Piece `idx` of a fork whose body lives on the forking thread's
/// stack.
struct Job {
    body: *const (dyn Fn(usize) + Sync),
    idx: usize,
    latch: *const Latch,
    /// Budget of the thread that forked.
    budget: usize,
}

// SAFETY: `body` points at a `Sync` closure and `latch` at a `Latch`
// (atomics and a mutex, itself `Sync`), so both may be used from
// another thread. Their lifetime is the creating call's obligation
// (see `fork`).
unsafe impl Send for Job {}

struct Shared {
    queue: VecDeque<Job>,
    /// Threads asleep on `Pool::wake`.
    sleepers: usize,
}

struct Pool {
    shared: Mutex<Shared>,
    /// Signalled on every push (one sleeper per piece) and whenever a
    /// latch completes on a thread other than its owner (all sleepers).
    wake: Condvar,
}

static POOL: Pool = Pool {
    shared: Mutex::new(Shared {
        queue: VecDeque::new(),
        sleepers: 0,
    }),
    wake: Condvar::new(),
};

impl Pool {
    /// No job runs with the lock held and no code under it panics, so a
    /// poisoned lock still guards a consistent queue.
    fn lock(&self) -> MutexGuard<'_, Shared> {
        self.shared.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sleep<'a>(&'a self, mut guard: MutexGuard<'a, Shared>) -> MutexGuard<'a, Shared> {
        guard.sleepers += 1;
        let mut guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
        guard.sleepers -= 1;
        guard
    }

    /// Queue `jobs`, starting the workers on first use. Each wakes one
    /// sleeper, since any thread may run a piece.
    fn push(&self, jobs: impl Iterator<Item = Job>) {
        static START: Once = Once::new();
        START.call_once(|| {
            for i in 0..current_num_threads().saturating_sub(1) {
                // Detached on purpose: workers live as long as the
                // process and never exit.
                drop(spawn_worker(format!("ca-rt-{i}"), worker_loop));
            }
        });
        let mut shared = self.lock();
        let before = shared.queue.len();
        shared.queue.extend(jobs);
        let wakes = (shared.queue.len() - before).min(shared.sleepers);
        drop(shared);
        for _ in 0..wakes {
            self.wake.notify_one();
        }
    }
}

/// Run one dequeued job and count it off its latch. `waiter` is the
/// latch the executing thread is itself waiting on (null on a pool
/// worker): completing that one needs no wake-up.
fn execute(job: Job, waiter: *const Latch) {
    JOBS_RUN.fetch_add(1, Ordering::Relaxed);
    let Job {
        body,
        idx,
        latch,
        budget,
    } = job;
    let result = {
        let _budget = BudgetGuard::install(budget);
        // SAFETY: the forking thread is inside `fork`, which does not
        // return before this piece has been counted off its latch
        // below, so the body it borrowed is still alive.
        catch_unwind(AssertUnwindSafe(|| unsafe { (*body)(idx) }))
    };
    let own = std::ptr::eq(latch, waiter);
    // SAFETY: the latch outlives every job created under it: its owner
    // leaves `wait_helping` only after `pending` reached zero, and this
    // job's count is still outstanding.
    let latch = unsafe { &*latch };
    if let Err(payload) = result {
        latch.record_panic(payload);
    }
    // `Release` publishes the job's writes (and the payload) to the
    // owner's `Acquire` load of `pending`. Once this store lands the
    // owner may return and pop the latch off its stack: the latch must
    // not be touched again.
    if latch.pending.fetch_sub(1, Ordering::Release) == 1 && !own {
        // The owner may be asleep. Taking the lock orders this after
        // its check of `pending`, so the notification cannot be lost.
        let shared = POOL.lock();
        if shared.sleepers > 0 {
            POOL.wake.notify_all();
        }
    }
}

fn worker_loop() {
    ON_LOAN.with(|l| l.set(true));
    // Whether `end` has run since the last job.
    let mut settled = true;
    let mut shared = POOL.lock();
    loop {
        if let Some(job) = shared.queue.pop_front() {
            drop(shared);
            execute(job, std::ptr::null());
            settled = false;
            shared = POOL.lock();
        } else if !settled {
            // Out of work: give back what the last jobs left behind
            // (outside the lock — freeing large buffers is slow).
            drop(shared);
            if let Some(hooks) = LEND_HOOKS.get() {
                (hooks.end)();
            }
            settled = true;
            shared = POOL.lock();
        } else {
            PARKS.fetch_add(1, Ordering::Relaxed);
            shared = POOL.sleep(shared);
        }
    }
}

/// Block until every job under `latch` has finished, running queued
/// jobs meanwhile: this latch's own first (oldest first), then the
/// oldest other one (the helping rule in the module docs).
fn wait_helping(latch: &Latch) {
    // `Acquire` (here and below) pairs with the `Release` decrement in
    // `execute`. Fast path: the workers were quicker than piece 0.
    if latch.pending.load(Ordering::Acquire) == 0 {
        return;
    }
    let me: *const Latch = latch;
    let mut loan = None;
    let mut slept = false;
    let mut shared = POOL.lock();
    while latch.pending.load(Ordering::Acquire) != 0 {
        let own = shared
            .queue
            .iter()
            .position(|job| std::ptr::eq(job.latch, me));
        let job = match own {
            Some(at) => shared.queue.remove(at),
            None => shared.queue.pop_front(),
        };
        match job {
            Some(job) => {
                drop(shared);
                JOBS_HELPED.fetch_add(1, Ordering::Relaxed);
                // This thread's own fork, continued on this thread, is
                // not a loan: piece k may use what piece 0 warmed up.
                if own.is_none() {
                    loan.get_or_insert_with(Loan::open);
                }
                execute(job, me);
                shared = POOL.lock();
            }
            None => {
                shared = POOL.sleep(shared);
                slept = true;
            }
        }
    }
    // A push may have spent its one wake-up on this thread just as its
    // latch completed; hand it on rather than leave a job unattended.
    if slept && !shared.queue.is_empty() && shared.sleepers > 0 {
        POOL.wake.notify_one();
    }
    drop(shared);
    drop(loan); // closes the loan outside the lock
}

/// Run `body(0), …, body(pieces − 1)`, piece 0 on the calling thread and
/// the rest queued; returns when all have finished. `pieces` is already
/// capped by the caller's budget. A panic in any piece is re-raised
/// here after the others have drained.
pub(crate) fn fork(pieces: usize, body: &(dyn Fn(usize) + Sync)) {
    if pieces <= 1 {
        if pieces == 1 {
            body(0);
        }
        return;
    }
    let latch = Latch::new(pieces - 1);
    let budget = current_budget();
    // SAFETY (lifetime erasure): the queued jobs hold `body` and
    // `latch` as raw pointers. Both stay alive until `wait_helping`
    // returns, which it does only once every queued piece has run and
    // been counted off; nothing below unwinds before that (piece 0's
    // panic is caught and re-raised afterwards).
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
    };
    POOL.push((1..pieces).map(|idx| Job {
        body: erased,
        idx,
        latch: &latch,
        budget,
    }));
    let first = catch_unwind(AssertUnwindSafe(|| body(0)));
    wait_helping(&latch);
    if let Err(payload) = first {
        resume_unwind(payload);
    }
    latch.propagate();
}
