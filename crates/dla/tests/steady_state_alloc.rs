//! Steady-state allocation check for the zero-copy chase engine.
//!
//! A counting global allocator wraps `System`; after one warm-up pass
//! over a full `h = 1` chase plan (which converges the thread arena's
//! buffer-size profile), replaying the identical plan on a fresh band
//! copy must perform **zero** heap allocations — every scratch panel
//! comes out of the arena and every GEMM in this regime sits below the
//! packing threshold. The same holds when the plan runs as a forked
//! piece on a worker of the runtime's persistent pool, and when the
//! forking thread takes a queued piece of its own fork.
//!
//! Single test in this file on purpose: the counter is process-global
//! and libtest runs sibling tests concurrently.

use ca_dla::bulge::{chase_plan_to, execute_chase};
use ca_dla::{gen, rt, BandedSym};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run the full `h = 1` chase plan on a fresh copy of `dense`; with
/// `counted`, return how many heap allocations the pass performed.
fn chase_pass(dense: &ca_dla::Matrix, b: usize, counted: bool) -> u64 {
    let n = dense.rows();
    let cap = (2 * b).min(n - 1);
    let plan = chase_plan_to(n, b, 1);
    assert!(
        plan.len() > 100,
        "plan too small to be a meaningful workload"
    );
    let mut band = BandedSym::from_dense(dense, b, cap);
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(counted, Ordering::SeqCst);
    for op in &plan {
        execute_chase(&mut band, op);
    }
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Run the chase plan twice on fresh copies of `dense` — a warm-up that
/// converges this thread's arena to the plan's size profile, then the
/// identical plan again; return how many heap allocations the second
/// pass performed.
fn second_pass_allocations(dense: &ca_dla::Matrix, b: usize) -> u64 {
    chase_pass(dense, b, false);
    chase_pass(dense, b, true)
}

#[test]
fn steady_state_chase_is_allocation_free() {
    // A pool of two, so the second half below has a worker to land on
    // whatever the host. Nothing has read the pool size yet: this is the
    // only test of the binary and the first runtime call comes later.
    std::env::set_var("RAYON_NUM_THREADS", "2");

    let (n, b) = (96usize, 8usize);
    let mut rng = StdRng::seed_from_u64(4242);
    let dense = gen::random_banded(&mut rng, n, b);

    // On the calling thread.
    let count = second_pass_allocations(&dense, b);
    assert_eq!(
        count, 0,
        "steady-state chase performed {count} heap allocations"
    );

    // As a forked piece on a pool worker: threads are not created per
    // fork any more, so a worker's arena, too, survives from one pass to
    // the next for as long as the worker stays busy. The first closure
    // of the join runs here and blocks until the second has finished,
    // which forces the second onto the pool's worker — and keeps this
    // thread from allocating while the count is live.
    assert_eq!(rt::current_num_threads(), 2);
    let caller = std::thread::current().id();
    let finished = (Mutex::new(false), Condvar::new());
    let ((), (count, ran_on)) = rayon::join(
        || {
            let (lock, cv) = &finished;
            let mut done = lock.lock().unwrap();
            while !*done {
                done = cv.wait(done).unwrap();
            }
        },
        || {
            let count = second_pass_allocations(&dense, b);
            let (lock, cv) = &finished;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            (count, std::thread::current().id())
        },
    );
    assert_ne!(
        ran_on, caller,
        "the piece was meant to run on a pool worker"
    );
    assert_eq!(
        count, 0,
        "steady-state chase on a pool worker performed {count} heap allocations"
    );

    // As a *queued* piece of the caller's own fork, run by the caller:
    // with the pool's one worker kept busy, this thread runs the first
    // half of a join and then takes the second off the queue itself.
    // That is its own work continued, not a loan to strangers' jobs: the
    // second half must find the arena the first half warmed.
    let gate = (Mutex::new((false, false)), Condvar::new()); // (worker busy, release it)
    let ((first_on, (count, second_on)), ()) = rayon::join(
        || {
            let (lock, cv) = &gate;
            drop(cv.wait_while(lock.lock().unwrap(), |g| !g.0).unwrap());
            let halves = rayon::join(
                || {
                    chase_pass(&dense, b, false);
                    std::thread::current().id()
                },
                || (chase_pass(&dense, b, true), std::thread::current().id()),
            );
            lock.lock().unwrap().1 = true;
            cv.notify_all();
            halves
        },
        || {
            let (lock, cv) = &gate;
            lock.lock().unwrap().0 = true;
            cv.notify_all();
            drop(cv.wait_while(lock.lock().unwrap(), |g| !g.1).unwrap());
        },
    );
    assert_eq!(
        (first_on, second_on),
        (caller, caller),
        "both halves were meant to run on the forking thread"
    );
    assert_eq!(
        count, 0,
        "the forking thread's own queued piece performed {count} heap allocations"
    );
}
