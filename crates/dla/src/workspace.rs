//! Reusable per-thread scratch arenas for the hot sequential kernels.
//!
//! A [`Workspace`] is a pool of `Vec<f64>` buffers with checkout/return
//! semantics: [`Workspace::take`] hands out a zeroed buffer (reusing a
//! pooled allocation with sufficient capacity when one exists) and
//! [`Workspace::put`] returns it. After a warm-up pass over a kernel's
//! buffer-size profile the pool's capacities converge and steady-state
//! execution performs **zero heap allocations** — the property the
//! bulge-chase pipeline needs, since it runs `O(n²/bh)` ops each wanting
//! half a dozen scratch panels.
//!
//! Arenas live in a thread-local *checkout stack* ([`with_ws`]); every
//! real thread — the caller's, each worker thread of the `ca-service`
//! job scheduler, each worker of the runtime's persistent pool — owns
//! its own stack, so no synchronization is ever needed. Entry points
//! acquire an arena via [`with_ws`] and pass `&mut Workspace` down the
//! call tree. The checkout is **re-entrant**: a nested [`with_ws`] (an
//! entry point reached from inside another entry point's scope — a
//! thread that waits for a fork and meanwhile runs somebody else's
//! piece) checks out its own arena from the stack.
//! Arenas return to the stack LIFO, so repeated workloads at any
//! nesting depth reuse the same warm arenas and steady-state execution
//! stays allocation-free.
//!
//! **Arenas and the persistent pool.** Threads are no longer created
//! per parallel call, so an arena no longer dies with the fork that
//! warmed it. For a thread's *own* work that is the point: the caller's
//! and a service worker's arenas stay warm across supersteps and jobs.
//! But a thread also *lends* itself to queued jobs — a pool worker
//! always, any other thread while it waits for a fork and runs queued
//! pieces meanwhile — and what such a job needs depends
//! on which job it happened to be. Arenas that kept those buffers made
//! the process's peak heap 8 % larger than with per-fork threads and
//! different from run to run. So guest arenas live exactly as long as
//! the loan (hooks registered with the runtime's `on_lend` on first
//! checkout): a waiting thread sets its own stack aside before the
//! first queued job it runs — other than a piece of its own fork, which
//! is its own work and finds the arenas piece 0 warmed — and drops
//! whatever the jobs parked when the wait is over (`begin_loan`,
//! `end_loan`), and a pool worker drops its stack each time it runs
//! out of work and goes to sleep ("release on park"). With that the
//! peak is the same, to the byte, as before the pool, and repeats
//! exactly. The price is paid by short forks: a worker that parks
//! between two of them re-faults its packing panels at each (DESIGN.md
//! §6b, measured when full→band's rank bodies were still queued).
//!
//! Determinism: buffer reuse never changes numerics — [`Workspace::take`]
//! zero-fills, so a kernel sees bitwise the same initial state as with a
//! fresh allocation.

use std::cell::RefCell;

// Trace counters (live only when `CA_TRACE ≥ 1`; otherwise one relaxed
// load each — the steady-state allocation tests run with tracing off
// and still see zero heap traffic here).
static WS_CHECKOUTS: ca_obs::Counter = ca_obs::Counter::new("workspace.checkouts");
static WS_GROWS: ca_obs::Counter = ca_obs::Counter::new("workspace.grows");
static WS_HIGH_WATER: ca_obs::Counter = ca_obs::Counter::new("workspace.high_water_words");

/// Checkout counters exposed for the steady-state allocation tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkspaceStats {
    /// Total number of `take` calls.
    pub checkouts: u64,
    /// Number of `take` calls that had to allocate or grow a buffer.
    /// Constant across repeated identical workloads ⇒ steady state is
    /// allocation-free.
    pub grows: u64,
    /// Buffers currently sitting in the pool.
    pub pooled: usize,
}

/// A bump-style pool of reusable `f64` buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
    checkouts: u64,
    grows: u64,
}

impl Workspace {
    /// Empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a zeroed buffer of exactly `len` elements. Prefers the
    /// pooled buffer with the smallest sufficient capacity; if none
    /// fits, grows the largest pooled buffer (or allocates afresh when
    /// the pool is empty), counting a `grow`.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.take_scratch(len);
        buf.fill(0.0);
        buf
    }

    /// [`take`](Self::take) without the zero-fill: `len` elements whose
    /// values are whatever an earlier checkout left behind. Only for a
    /// caller that writes every element before reading any (the GEMM
    /// packing panels), so that reuse still cannot change a result.
    pub fn take_scratch(&mut self, len: usize) -> Vec<f64> {
        self.checkouts += 1;
        WS_CHECKOUTS.add(1);
        WS_HIGH_WATER.record_max(len as u64);
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        let mut largest: Option<(usize, usize)> = None;
        for (idx, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            if largest.is_none_or(|(_, c)| cap > c) {
                largest = Some((idx, cap));
            }
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((idx, cap));
            }
        }
        let mut buf = match best.or(largest) {
            Some((idx, _)) => self.pool.swap_remove(idx),
            None => Vec::new(),
        };
        if buf.capacity() < len {
            self.grows += 1;
            WS_GROWS.add(1);
        }
        buf.resize(len, 0.0);
        buf
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, buf: Vec<f64>) {
        self.pool.push(buf);
    }

    /// Current counters.
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            checkouts: self.checkouts,
            grows: self.grows,
            pooled: self.pool.len(),
        }
    }
}

thread_local! {
    /// Parked arenas available for checkout on this thread (LIFO).
    /// Depth > 1 only materializes under nested [`with_ws`] scopes; the
    /// common case is a single arena parked between entry points.
    static THREAD_WS: RefCell<Vec<Workspace>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with exclusive access to an arena checked out from this
/// thread's stack.
///
/// Entry points call this; helpers below them must thread the
/// `&mut Workspace` through instead (each nested `with_ws` checks out a
/// *separate* arena, so scratch buffers pooled by the outer scope are
/// invisible to the inner one — correct, but it forfeits the warm-pool
/// reuse that makes steady state allocation-free within one scope).
/// The checkout is re-entrant and panic-safe: if `f` unwinds, the
/// arena is dropped rather than returned, and the next checkout simply
/// starts cold.
pub fn with_ws<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    let mut ws = THREAD_WS
        .with(|cell| cell.borrow_mut().pop())
        .unwrap_or_else(|| {
            // Cold path (first checkout on this thread, or first of a
            // loan): make sure guest arenas end with their loan.
            rayon::on_lend(begin_loan, end_loan);
            Workspace::default()
        });
    let r = f(&mut ws);
    THREAD_WS.with(|cell| cell.borrow_mut().push(ws));
    r
}

thread_local! {
    /// This thread's own parked arenas, set aside while it is on loan
    /// to queued jobs (see the module docs).
    static OWN_WS: RefCell<Vec<Workspace>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread starts running jobs that are not its own: set its
/// parked arenas aside so the jobs cannot grow them. Arenas checked out
/// by frames below are unaffected.
fn begin_loan() {
    let own = THREAD_WS.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    OWN_WS.with(|cell| *cell.borrow_mut() = own);
}

/// The loan is over (or, on a pool worker, the queue ran dry): drop
/// every arena the jobs parked on this thread, returning their memory,
/// and put the thread's own arenas back.
fn end_loan() {
    let own = OWN_WS.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
    // Swap first so the buffers are freed outside the `RefCell` borrow.
    let guests = THREAD_WS.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), own));
    drop(guests);
}

/// Summed counters over every arena currently parked on this thread's
/// stack (for tests and diagnostics). Arenas inside an active
/// [`with_ws`] scope are counted once they return to the stack.
pub fn thread_ws_stats() -> WorkspaceStats {
    THREAD_WS.with(|cell| {
        let mut agg = WorkspaceStats::default();
        for ws in cell.borrow().iter() {
            let s = ws.stats();
            agg.checkouts += s.checkouts;
            agg.grows += s.grows;
            agg.pooled += s.pooled;
        }
        agg
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroes_and_reuses() {
        let mut ws = Workspace::new();
        let mut a = ws.take(16);
        a.iter_mut().for_each(|v| *v = 3.0);
        ws.put(a);
        let b = ws.take(8);
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer not zeroed");
        assert_eq!(
            ws.stats().grows,
            1,
            "second take must reuse the first buffer"
        );
        ws.put(b);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut ws = Workspace::new();
        // Warm-up pass over a mixed size profile.
        for &len in &[32usize, 7, 64, 15] {
            let b = ws.take(len);
            ws.put(b);
        }
        let grows_after_warmup = ws.stats().grows;
        // Steady state: the same profile must not grow anything.
        for _ in 0..10 {
            for &len in &[32usize, 7, 64, 15] {
                let b = ws.take(len);
                ws.put(b);
            }
        }
        assert_eq!(ws.stats().grows, grows_after_warmup);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let big = ws.take(100);
        let small = ws.take(10);
        ws.put(big);
        ws.put(small);
        let got = ws.take(5);
        assert!(
            got.capacity() < 100,
            "best-fit should pick the small buffer"
        );
        ws.put(got);
    }

    #[test]
    fn thread_local_arena_accumulates() {
        let before = thread_ws_stats().checkouts;
        with_ws(|ws| {
            let b = ws.take(4);
            ws.put(b);
        });
        assert_eq!(thread_ws_stats().checkouts, before + 1);
    }

    #[test]
    fn nested_checkout_is_reentrant_and_isolated() {
        with_ws(|outer| {
            let a = outer.take(32);
            // A nested entry point (e.g. a whole solver invocation
            // running inside a service batch scope) must get its own
            // arena, not panic and not see the outer pool.
            let inner_pooled = with_ws(|inner| {
                let b = inner.take(16);
                assert!(b.iter().all(|&v| v == 0.0));
                inner.put(b);
                inner.stats().pooled
            });
            assert_eq!(inner_pooled, 1);
            outer.put(a);
        });
        // Both arenas parked again; a fresh checkout reuses the warm
        // one pushed last (the outer arena) without growing.
        with_ws(|ws| {
            let grows = ws.stats().grows;
            let buf = ws.take(32);
            assert_eq!(ws.stats().grows, grows, "warm arena must not grow for 32");
            ws.put(buf);
        });
    }

    #[test]
    fn guest_arenas_end_with_the_loan_and_own_arenas_survive_it() {
        std::thread::spawn(|| {
            // The thread's own warm arena: one 64-word buffer.
            with_ws(|ws| {
                let b = ws.take(64);
                ws.put(b);
            });
            let own = thread_ws_stats();
            assert_eq!((own.pooled, own.grows), (1, 1));

            begin_loan();
            assert_eq!(thread_ws_stats(), WorkspaceStats::default());
            with_ws(|ws| {
                let b = ws.take(1 << 16);
                assert_eq!(ws.stats().grows, 1, "a guest arena starts cold");
                ws.put(b);
            });
            end_loan();

            // Back to the own arena, untouched by the guest's big take.
            assert_eq!(thread_ws_stats(), own);
            with_ws(|ws| {
                let b = ws.take(64);
                assert_eq!(ws.stats().grows, 1, "own arena must still be warm");
                assert!(b.capacity() < 1 << 16);
                ws.put(b);
            });

            // A pool worker has no own arenas: `end_loan` alone empties it.
            end_loan();
            end_loan();
            assert_eq!(thread_ws_stats().pooled, 0);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn steady_state_across_scopes_reuses_one_arena() {
        // Repeated non-nested scopes (the service worker-loop shape)
        // keep hitting the same warm arena: grows stay constant after
        // the first pass.
        for _ in 0..3 {
            with_ws(|ws| {
                let b = ws.take(64);
                ws.put(b);
            });
        }
        let grows = thread_ws_stats().grows;
        for _ in 0..10 {
            with_ws(|ws| {
                let b = ws.take(64);
                ws.put(b);
            });
        }
        assert_eq!(thread_ws_stats().grows, grows);
    }
}
