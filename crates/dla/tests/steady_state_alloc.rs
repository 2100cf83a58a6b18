//! Steady-state allocation check for the zero-copy chase engine and
//! for GEMM's packing panels.
//!
//! A counting global allocator wraps `System`; after one warm-up pass
//! over a full `h = 1` chase plan (which converges the thread arena's
//! buffer-size profile), replaying the identical plan on a fresh band
//! copy must perform **zero** heap allocations — every scratch panel,
//! GEMM's packed `B` panel included, comes out of the arena. So must a
//! second pass over a blocked-size product in all four orientations
//! (packed `B` panel, and a packed `A` block for the transposed `A`),
//! and so must the recursive QR at the sizes the solver gives it: a
//! halving chase at (n, b) = (512, 128) on the band allocates nothing,
//! and a 512×256 `qr_factor` allocates its four results (the working
//! copy, `U`, `T`, `R`) and nothing else — `qr_inplace` underneath it is
//! crate-private, and its `n₁ × n₂` temporaries, the leaf's panel and
//! GEMM's packing buffers are all lent by the arena.
//! The finale's band → tridiagonal function on the values path obeys the
//! same rule: at (n, b) = (512, 64) — the fused sweep alone, its plan
//! iterated lazily, its slab and its three vectors lent by the arena — a
//! warmed `band_to_tridiagonal` allocates the `(d, e)` it returns and
//! nothing else; at (512, 224), where one block-reflector pass runs
//! first, one allocation more: that pass's wide slab, which is freed
//! before the sweep instead of staying resident in the arena.
//! The recursive triangular family (`ca_dla::lu`) obeys it too: in place
//! on views at order 256 — LU plain and signed, a left and a right solve,
//! an inverse into a caller's buffer — a warmed call allocates nothing;
//! the copies that feed a GEMM from a column block of its own output are
//! arena scratch.
//! The same holds when the work runs as a forked piece on a worker of
//! the runtime's persistent pool, and when the forking thread takes a
//! queued piece of its own fork.
//!
//! Single test in this file on purpose: the counter is process-global
//! and libtest runs sibling tests concurrently.

use ca_dla::bulge::{chase_plan_iter, execute_chase};
use ca_dla::lu::{lu_inplace, tri_inverse_view, trsm_left_view, trsm_right_view, Diag, Triangle};
use ca_dla::qr::qr_factor;
use ca_dla::tridiag::band_to_tridiagonal;
use ca_dla::workspace::with_ws;
use ca_dla::{gemm, gen, rt, BandedSym, Matrix, Trans};
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
    let plan: Vec<_> = chase_plan_iter(n, b, 1).collect();
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

/// A 160×96×160 product — well above the packing thresholds, below the
/// fork threshold — in all four orientations, every operand built
/// outside the counted section.
struct BlockedProduct {
    a: [Matrix; 2],
    b: [Matrix; 2],
    c: Matrix,
}

impl BlockedProduct {
    fn new() -> Self {
        let (m, k, n) = (160usize, 96usize, 160usize);
        let mut rng = StdRng::seed_from_u64(77);
        Self {
            a: [
                gen::random_matrix(&mut rng, m, k),
                gen::random_matrix(&mut rng, k, m),
            ],
            b: [
                gen::random_matrix(&mut rng, k, n),
                gen::random_matrix(&mut rng, n, k),
            ],
            c: Matrix::zeros(m, n),
        }
    }

    /// Multiply in all four orientations; with `counted`, return how
    /// many heap allocations that took.
    fn pass(&mut self, counted: bool) -> u64 {
        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(counted, Ordering::SeqCst);
        for (ia, ta) in [Trans::N, Trans::T].into_iter().enumerate() {
            for (ib, tb) in [Trans::N, Trans::T].into_iter().enumerate() {
                gemm(1.0, &self.a[ia], ta, &self.b[ib], tb, 0.5, &mut self.c);
            }
        }
        COUNTING.store(false, Ordering::SeqCst);
        ALLOCS.load(Ordering::SeqCst)
    }

    /// Warm-up pass, then the counted one.
    fn second_pass_allocations(&mut self) -> u64 {
        self.pass(false);
        self.pass(true)
    }
}

/// Run `work` twice; return how many heap allocations the second run
/// performed.
fn second_run_allocations(mut work: impl FnMut()) -> u64 {
    work();
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    work();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// The recursive QR at solver sizes: the first halving chase of
/// (n, b) = (512, 128) on the band (a 128×64 QR block, `U` and `T` in
/// the arena), and a 512×256 `qr_factor`. The second runs under a core
/// budget of one: its products are large enough to fork, and what a
/// fork allocates (job records, the worker's guest arena) is the
/// runtime's, not the kernel's scratch this test is about.
fn recursive_qr_allocations() -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(515);
    let (n, b) = (512usize, 128usize);
    let band = BandedSym::from_dense(&gen::random_banded(&mut rng, n, b), b, 2 * b);
    let op = chase_plan_iter(n, b, b / 2).next().unwrap();
    assert_eq!((op.nr(), op.h()), (128, 64));
    let mut copies = vec![band.clone(), band];
    let chase = second_run_allocations(|| {
        execute_chase(&mut copies.pop().expect("one copy per run"), &op);
    });

    let a = gen::random_matrix(&mut rng, 512, 256);
    let factor = second_run_allocations(|| {
        rt::with_budget(1, || qr_factor(&a, usize::MAX));
    });
    (chase, factor)
}

/// The values-path finale at a band the sweep takes directly and at one
/// that takes the block-reflector pass first, each under a core budget
/// of one (the pass's products are large enough to fork; see
/// [`recursive_qr_allocations`]).
fn finale_allocations() -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(516);
    let n = 512usize;
    let mut count = |b: usize| {
        let band = BandedSym::from_dense(&gen::random_banded(&mut rng, n, b), b, b);
        second_run_allocations(|| {
            rt::with_budget(1, || std::hint::black_box(band_to_tridiagonal(&band, None)));
        })
    };
    (count(64), count(224))
}

/// The in-place forms of the triangular family at order 256 (four
/// recursion levels above the leaf), under a core budget of one like the
/// QR above. Every operand and output lives outside the counted section;
/// the factorisations run on a buffer refilled by a plain copy.
fn triangular_family_allocations() -> u64 {
    let n = 256usize;
    let mut rng = StdRng::seed_from_u64(517);
    let mut a = gen::random_matrix(&mut rng, n, n);
    a.scale(0.5 / n as f64);
    let rhs = gen::random_matrix(&mut rng, n, n);
    let (mut w, mut x, mut inv) = (a.clone(), rhs.clone(), Matrix::zeros(n, n));
    let mut signs = vec![0.0; n];
    second_run_allocations(|| {
        rt::with_budget(1, || {
            with_ws(|ws| {
                w.data_mut().copy_from_slice(a.data());
                for i in 0..n {
                    w.add_to(i, i, 2.0);
                }
                lu_inplace(&mut w.view_mut(), None, ws);
                w.data_mut().copy_from_slice(a.data());
                lu_inplace(&mut w.view_mut(), Some(&mut signs), ws);
                // `w` is now a packed (L, U): both triangles at once.
                x.data_mut().copy_from_slice(rhs.data());
                trsm_left_view(
                    &w.view(),
                    Triangle::Lower,
                    Diag::Unit,
                    true,
                    &mut x.view_mut(),
                );
                trsm_right_view(
                    &w.view(),
                    Triangle::Upper,
                    Diag::NonUnit,
                    false,
                    &mut x.view_mut(),
                    ws,
                );
                tri_inverse_view(
                    &w.view(),
                    Triangle::Upper,
                    Diag::NonUnit,
                    &mut inv.view_mut(),
                    ws,
                );
            })
        });
    })
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
    let mut product = BlockedProduct::new();
    let count = product.second_pass_allocations();
    assert_eq!(
        count, 0,
        "a blocked-size product's second pass performed {count} heap allocations"
    );

    assert_eq!(
        recursive_qr_allocations(),
        (0, 4),
        "a warmed halving chase at (512, 128) allocates nothing, a warmed 512×256 qr_factor its four results"
    );

    assert_eq!(
        triangular_family_allocations(),
        0,
        "warmed in-place LU, triangular solves and inversion at order 256 allocate nothing"
    );

    assert_eq!(
        finale_allocations(),
        (2, 3),
        "a warmed band_to_tridiagonal allocates its two results at (512, 64), and the pass's slab besides at (512, 224)"
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
    let ((), (count, gemm_count, ran_on)) = rayon::join(
        || {
            let (lock, cv) = &finished;
            let mut done = lock.lock().unwrap();
            while !*done {
                done = cv.wait(done).unwrap();
            }
        },
        || {
            let count = second_pass_allocations(&dense, b);
            let gemm_count = product.second_pass_allocations();
            let (lock, cv) = &finished;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            (count, gemm_count, std::thread::current().id())
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
    assert_eq!(
        gemm_count, 0,
        "a blocked-size product's second pass on a pool worker performed {gemm_count} heap allocations"
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
