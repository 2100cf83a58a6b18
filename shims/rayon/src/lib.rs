//! The workspace's threading runtime, under `rayon`'s names.
//!
//! The build environment has no access to crates.io, so this package
//! stands where the `rayon` crate would — and since every parallel call
//! in the workspace already goes through it, it is also where the one
//! runtime lives: a persistent pool of `current_num_threads() − 1`
//! workers behind a single queue ([`pool`]), shared by the data-parallel
//! adaptors below and by [`join`]. No thread is created per parallel
//! call; [`spawn_worker`] is the only thread-creation site, and
//! [`stats`]`().spawns` counts its uses.
//!
//! Supported surface:
//! * `(a..b).into_par_iter()` with `for_each`, `map(..).collect::<Vec<_>>()`
//! * `slice.par_iter()` / `slice.par_iter_mut()` (+ `enumerate`)
//! * `slice.par_chunks_mut(n)` (+ `enumerate`)
//! * [`join`], [`current_num_threads`]
//! * beyond `rayon`: the per-thread core budget ([`with_budget`],
//!   [`current_budget`]), [`spawn_worker`], [`on_lend`] and the
//!   counters ([`stats`])
//!
//! Work is split into one contiguous block per piece, at most
//! [`current_budget`] pieces; which thread runs a piece is the pool's
//! business, which indices a piece covers is fixed by the split alone.
//! With a budget of 1 (a single hardware thread, or a batch-service
//! worker on a host with no cores to spare) every operation is an
//! inline sequential loop and nothing is queued.
//!
//! `RAYON_NUM_THREADS` sets the pool size (workers + the forking
//! thread); it is read once, on first use, and defaults to the
//! available hardware parallelism.

mod pool;

pub use pool::{
    current_budget, current_num_threads, on_lend, spawn_worker, stats, with_budget, RtStats,
};

use std::sync::Mutex;

/// Take the value a piece owns out of its slot.
fn claim<P>(slot: &Mutex<Option<P>>) -> P {
    slot.lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("a fork piece ran twice")
}

/// The value a finished piece left in its slot.
fn finished<R>(slot: Mutex<Option<R>>) -> R {
    slot.into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .expect("a fork piece did not run")
}

/// Run `f(w, part)` for every part, one piece each.
fn fork_owned<P: Send>(parts: Vec<P>, f: impl Fn(usize, P) + Sync) {
    let slots: Vec<Mutex<Option<P>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    pool::fork(slots.len(), &|w| f(w, claim(&slots[w])));
}

/// Run `a` and `b` potentially in parallel, returning both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_budget() <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let (a, b) = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let (ra, rb) = (Mutex::new(None), Mutex::new(None));
    pool::fork(2, &|w| {
        if w == 0 {
            let out = claim(&a)();
            *ra.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        } else {
            let out = claim(&b)();
            *rb.lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        }
    });
    (finished(ra), finished(rb))
}

/// Number of pieces a fork over `n` items splits into.
fn pieces_for(n: usize) -> usize {
    current_budget().min(n)
}

/// Run `f(lo, hi)` over a contiguous partition of `0..n`, one block per
/// piece.
fn run_partitioned<F: Fn(usize, usize) + Sync>(n: usize, f: F) {
    let k = pieces_for(n);
    pool::fork(k, &|w| f(w * n / k, (w + 1) * n / k));
}

/// `map(..).collect::<Vec<_>>()` engine: evaluate `f(i)` for `i ∈ 0..n`
/// in parallel, preserving index order.
fn map_collect<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let k = pieces_for(n);
    if k <= 1 {
        return (0..n).map(f).collect();
    }
    let blocks: Vec<Mutex<Vec<T>>> = (0..k).map(|_| Mutex::new(Vec::new())).collect();
    pool::fork(k, &|w| {
        let block: Vec<T> = (w * n / k..(w + 1) * n / k).map(&f).collect();
        *blocks[w].lock().unwrap_or_else(|e| e.into_inner()) = block;
    });
    let mut out = Vec::with_capacity(n);
    for block in blocks {
        out.extend(block.into_inner().unwrap_or_else(|e| e.into_inner()));
    }
    out
}

/// Collection target of [`Map::collect`] (only `Vec<T>` is supported).
pub trait FromParallelIterator<T> {
    /// Build the collection from index-ordered results.
    fn from_ordered_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(v: Vec<T>) -> Self {
        v
    }
}

/// Parallel iterator over `usize` indices (from a range).
pub struct IndexedParIter {
    start: usize,
    end: usize,
}

impl IndexedParIter {
    /// Apply `f` to every index in parallel.
    pub fn for_each<F: Fn(usize) + Sync>(self, f: F) {
        let start = self.start;
        run_partitioned(self.end.saturating_sub(start), |lo, hi| {
            for i in lo..hi {
                f(start + i);
            }
        });
    }

    /// Map every index through `f` (lazily; consume with `collect`).
    pub fn map<T, F: Fn(usize) -> T + Sync>(self, f: F) -> Map<F> {
        Map {
            start: self.start,
            end: self.end,
            f,
        }
    }
}

/// Lazy parallel map over an index range.
pub struct Map<F> {
    start: usize,
    end: usize,
    f: F,
}

impl<F> Map<F> {
    /// Evaluate in parallel, preserving order.
    pub fn collect<C, T>(self) -> C
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
        C: FromParallelIterator<T>,
    {
        let start = self.start;
        let f = self.f;
        C::from_ordered_vec(map_collect(self.end.saturating_sub(start), |i| f(start + i)))
    }

    /// Apply the mapped function for its effects only.
    pub fn for_each<T, G: Fn(T) + Sync>(self, g: G)
    where
        F: Fn(usize) -> T + Sync,
    {
        let start = self.start;
        let f = &self.f;
        run_partitioned(self.end.saturating_sub(start), |lo, hi| {
            for i in lo..hi {
                g(f(start + i));
            }
        });
    }
}

/// Conversion into a parallel iterator (ranges of `usize`).
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = IndexedParIter;
    fn into_par_iter(self) -> IndexedParIter {
        IndexedParIter {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Parallel shared iterator over slice elements.
pub struct ParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Apply `f` to every element in parallel.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        let slice = self.slice;
        run_partitioned(slice.len(), |lo, hi| {
            for item in &slice[lo..hi] {
                f(item);
            }
        });
    }

    /// Pair every element with its index.
    pub fn enumerate(self) -> EnumParIter<'a, T> {
        EnumParIter { slice: self.slice }
    }
}

/// Enumerated variant of [`ParIter`].
pub struct EnumParIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> EnumParIter<'a, T> {
    /// Apply `f((index, &item))` in parallel.
    pub fn for_each<F: Fn((usize, &'a T)) + Sync>(self, f: F) {
        let slice = self.slice;
        run_partitioned(slice.len(), |lo, hi| {
            for (i, item) in slice[lo..hi].iter().enumerate() {
                f((lo + i, item));
            }
        });
    }
}

/// Split `items` into consecutive parts of whole `unit`-element units
/// (the last unit may be short), one part per piece, and run
/// `f(first_unit, part)` on each.
fn for_each_split<T, F>(items: &mut [T], unit: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let len = items.len();
    let n = len.div_ceil(unit);
    let k = pieces_for(n);
    if k <= 1 {
        if n > 0 {
            f(0, items);
        }
        return;
    }
    let mut parts = Vec::with_capacity(k);
    let mut rest = items;
    for w in 0..k {
        let (lo, hi) = (w * n / k, (w + 1) * n / k);
        let (part, tail) = rest.split_at_mut((hi * unit).min(len) - lo * unit);
        parts.push((lo, part));
        rest = tail;
    }
    fork_owned(parts, |_, (lo, part)| f(lo, part));
}

/// Parallel exclusive iterator over slice elements.
pub struct ParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParIterMut<'a, T> {
    /// Apply `f` to every element in parallel.
    pub fn for_each<F: Fn(&mut T) + Sync>(self, f: F) {
        for_each_split(self.slice, 1, |_, piece| {
            for item in piece.iter_mut() {
                f(item);
            }
        });
    }

    /// Pair every element with its index.
    pub fn enumerate(self) -> EnumParIterMut<'a, T> {
        EnumParIterMut { slice: self.slice }
    }
}

/// Enumerated variant of [`ParIterMut`].
pub struct EnumParIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> EnumParIterMut<'a, T> {
    /// Apply `f((index, &mut item))` in parallel.
    pub fn for_each<F: Fn((usize, &mut T)) + Sync>(self, f: F) {
        for_each_split(self.slice, 1, |off, piece| {
            for (i, item) in piece.iter_mut().enumerate() {
                f((off + i, item));
            }
        });
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Apply `f` to every chunk in parallel.
    pub fn for_each<F: Fn(&mut [T]) + Sync>(self, f: F) {
        self.enumerate().for_each(|(_, c)| f(c));
    }

    /// Pair every chunk with its chunk index.
    pub fn enumerate(self) -> EnumParChunksMut<'a, T> {
        EnumParChunksMut {
            slice: self.slice,
            size: self.size,
        }
    }
}

/// Enumerated variant of [`ParChunksMut`].
pub struct EnumParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> EnumParChunksMut<'a, T> {
    /// Apply `f((chunk_index, chunk))` in parallel.
    pub fn for_each<F: Fn((usize, &mut [T])) + Sync>(self, f: F) {
        let size = self.size;
        assert!(size > 0, "par_chunks_mut: chunk size must be positive");
        for_each_split(self.slice, size, |chunk0, part| {
            for (i, chunk) in part.chunks_mut(size).enumerate() {
                f((chunk0 + i, chunk));
            }
        });
    }
}

/// `.par_iter()` on shared slices.
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item;
    /// Parallel iterator type.
    type Iter;
    /// Convert.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = ParIter<'a, T>;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { slice: self }
    }
}

/// `.par_iter_mut()` on exclusive slices.
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item;
    /// Parallel iterator type.
    type Iter;
    /// Convert.
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = &'a mut T;
    type Iter = ParIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = &'a mut T;
    type Iter = ParIterMut<'a, T>;
    fn par_iter_mut(&'a mut self) -> ParIterMut<'a, T> {
        ParIterMut { slice: self }
    }
}

/// `.par_chunks_mut(n)` on exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over mutable `chunk_size`-sized chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

/// Common imports, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    // libtest runs these concurrently on one shared pool, which is the
    // point: forks from several threads interleave on the one queue.
    // Every test passes for any pool size; the queued paths need
    // `current_num_threads() ≥ 2` (CI also runs `RAYON_NUM_THREADS=4`).

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        assert!(v.iter().enumerate().all(|(i, &x)| x == 2 * i));
    }

    #[test]
    fn range_for_each_visits_every_index_once() {
        let sum = AtomicU64::new(0);
        (0..257).into_par_iter().for_each(|i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 256 * 257 / 2);
    }

    #[test]
    fn par_chunks_mut_enumerate_covers_slice() {
        let mut data = vec![0usize; 103];
        data.par_chunks_mut(10).enumerate().for_each(|(i, chunk)| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = i * 10 + k;
            }
        });
        assert!(data.iter().enumerate().all(|(i, &x)| x == i));
    }

    #[test]
    fn par_iter_mut_enumerate() {
        let mut data = vec![0usize; 37];
        data.par_iter_mut().enumerate().for_each(|(i, v)| *v = i + 1);
        assert!(data.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn empty_inputs_are_noops() {
        let v: Vec<usize> = (5..5).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
        let mut e: Vec<u8> = Vec::new();
        e.par_chunks_mut(4).for_each(|_| panic!("no chunks expected"));
    }

    /// The message a caught panic carried.
    fn message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p
                .downcast::<&'static str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    /// After a contained panic the same pool must serve the next fork.
    fn pool_still_works() {
        let v: Vec<usize> = (0..300).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v.iter().sum::<usize>(), 300 * 301 / 2);
    }

    #[test]
    fn panic_in_the_first_piece_is_reraised_after_the_rest_ran() {
        let ran = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            (0..64).into_par_iter().for_each(|i| {
                if i == 0 {
                    panic!("first piece, index {i}");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }))
        .expect_err("the panic must reach the forking thread");
        assert_eq!(message(err), "first piece, index 0");
        // The other pieces borrow this frame, so they were drained, not
        // abandoned (the panicking piece itself stops at index 0).
        let pieces = super::current_budget().min(64);
        assert_eq!(ran.load(Ordering::Relaxed), 64 - 64 / pieces);
        pool_still_works();
    }

    #[test]
    fn panic_in_a_queued_piece_carries_its_payload_to_the_forking_thread() {
        let err = catch_unwind(|| {
            super::join(|| 7, || -> usize { panic!("second closure") });
        })
        .expect_err("the panic must reach the forking thread");
        assert_eq!(message(err), "second closure");

        let mut data = vec![0u32; 64];
        let err = catch_unwind(AssertUnwindSafe(|| {
            data.par_iter_mut().enumerate().for_each(|(i, v)| {
                assert!(i != 63, "last piece, index {i}");
                *v = 1;
            });
        }))
        .expect_err("the panic must reach the forking thread");
        assert_eq!(message(err), "last piece, index 63");
        assert_eq!(data.iter().sum::<u32>(), 63);
        pool_still_works();
    }

    #[test]
    fn panic_in_a_nested_fork_drains_both_levels_first() {
        // The panicking closure is the last one of the depth-first order,
        // so the other three run under every budget, inline included.
        let done = AtomicUsize::new(0);
        let ok = || {
            done.fetch_add(1, Ordering::Relaxed);
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            super::join(
                || super::join(ok, ok),
                || super::join(ok, || panic!("grandchild 1.1")),
            );
        }))
        .expect_err("the panic must reach the outer fork's owner");
        assert_eq!(message(err), "grandchild 1.1");
        assert_eq!(
            done.load(Ordering::Relaxed),
            3,
            "every other piece still ran"
        );
        pool_still_works();
    }

    #[test]
    fn budget_one_runs_everything_inline() {
        let here = std::thread::current().id();
        super::with_budget(1, || {
            assert_eq!(super::current_budget(), 1);
            (0..100).into_par_iter().for_each(|_| {
                assert_eq!(std::thread::current().id(), here);
            });
            let (a, b) = super::join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            assert_eq!((a, b), (here, here));
        });
        assert_eq!(super::current_budget(), super::current_num_threads());
    }

    #[test]
    fn jobs_run_under_their_creators_budget() {
        // Wider than the pool is capped; a queued piece sees the budget
        // of the thread that forked it, wherever it runs.
        let cap = super::current_num_threads();
        super::with_budget(cap + 5, || assert_eq!(super::current_budget(), cap));
        let want = cap.min(2);
        super::with_budget(want, || {
            let seen: Vec<usize> = (0..64)
                .into_par_iter()
                .map(|_| super::current_budget())
                .collect();
            assert!(seen.iter().all(|&b| b == want), "{seen:?}");
        });
    }

    #[test]
    fn a_fork_keeps_at_most_budget_pieces_in_flight() {
        let budget = super::current_num_threads().min(2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        super::with_budget(budget, || {
            (0..24).into_par_iter().for_each(|_| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                running.fetch_sub(1, Ordering::SeqCst);
            });
        });
        assert!(peak.load(Ordering::SeqCst) <= budget);
    }

    #[test]
    fn forks_nested_in_pieces_complete() {
        // Pieces that fork inside themselves while their siblings wait
        // in the same queue: the shape of a rank fan-out whose bodies
        // call GEMM. Must neither deadlock nor lose work.
        let total = AtomicU64::new(0);
        (0..6).into_par_iter().for_each(|t| {
            let (a, b): (Vec<u64>, u64) = super::join(
                || (0..50).into_par_iter().map(|i| i as u64).collect(),
                || t as u64,
            );
            total.fetch_add(a.iter().sum::<u64>() + b, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 1225 + 15);
    }

    thread_local! {
        /// (open loans, loans begun, loans ended) on this thread.
        static LOANS: std::cell::Cell<(u32, u32, u32)> = const { std::cell::Cell::new((0, 0, 0)) };
    }

    fn loan_begins() {
        LOANS.with(|l| {
            let (open, begun, ended) = l.get();
            assert_eq!(open, 0, "a loan began inside a loan");
            l.set((1, begun + 1, ended));
        });
    }

    fn loan_ends() {
        LOANS.with(|l| {
            let (open, begun, ended) = l.get();
            // A pool worker is on loan for life: it only ever ends.
            l.set((0, begun, ended + open));
        });
    }

    #[test]
    fn loans_of_a_waiting_thread_pair_up_and_do_not_nest() {
        // Process-wide hooks; the other tests' threads run them too,
        // which only makes the in-hook assertion bite more often.
        super::on_lend(loan_begins, loan_ends);
        for round in 0..200u64 {
            let total = AtomicU64::new(0);
            (0..4).into_par_iter().for_each(|t| {
                // A wait nested in a piece this thread may be running
                // on loan already.
                let (a, b) = super::join(|| t as u64, || round);
                total.fetch_add(a + b, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 6 + 4 * round);
            let (open, begun, ended) = LOANS.with(|l| l.get());
            assert_eq!(open, 0, "a loan outlived its wait");
            assert_eq!(begun, ended);
            // This thread runs at most the four outer pieces itself, and
            // each one's `join` is one outermost wait.
            assert!(
                begun <= 4 * (round as u32 + 1),
                "at most one loan per outermost wait"
            );
        }
    }

    #[test]
    fn no_thread_is_created_after_the_pool_started() {
        pool_still_works(); // starts the workers if there are any
        let before = super::stats();
        assert!(before.spawns <= super::current_num_threads() as u64);
        for _ in 0..200 {
            pool_still_works();
        }
        let after = super::stats();
        assert_eq!(after.spawns, before.spawns);
        if super::current_num_threads() > 1 {
            assert!(after.jobs_run > before.jobs_run, "forks were queued");
        }
    }
}
