//! `ca-obs`: a lightweight tracing/metrics layer for the
//! communication-avoiding eigensolver.
//!
//! Span-based stage instrumentation ([`span`]/[`kernel_span`]) feeds one
//! process-global, bounded, lock-guarded event sink, drained with
//! [`drain`] and exported as chrome-trace JSON or a per-stage summary
//! table ([`export`]); [`counters`] holds the named counters and
//! [`alloc`] an allocation-counting global allocator.
//!
//! ## Trace levels
//!
//! The repo's one `CA_*` environment variable, `CA_TRACE` (an unsigned
//! integer, default `0`), selects how much is recorded. It is parsed
//! once, on the first read of [`level`]; a malformed value
//! (`CA_TRACE=verbose`) warns once on stderr and falls back to `0`.
//!
//! | level | meaning |
//! |-------|---------|
//! | 0     | off — spans are inert, counters are no-ops |
//! | 1     | stage-level spans ([`span`]) + counters |
//! | 2     | adds kernel-detail spans ([`kernel_span`]): GEMM/QR, stage drivers, pseudocode lines |
//!
//! Stage spans and kernel spans are split so a deep kernel trace can
//! never evict the handful of stage spans the conformance checks rely
//! on: at level 1 the kernel call sites don't even read the clock.
//!
//! ## Overhead
//!
//! [`level`] is the only switch. Disabled (level 0, the default), every
//! instrumentation point is one relaxed atomic load and a predictable
//! branch — measured end-to-end overhead on the solver is within noise
//! of a build with the `off` feature, under which [`level`] is the
//! constant `0` and every instrumentation point compiles to nothing
//! (enable it from a leaf binary with `--features ca-obs/off`).

#![warn(missing_docs)]

pub mod alloc;
pub mod counters;
pub mod export;
mod span;

pub use counters::Counter;
pub use span::{Event, SpanGuard};

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

/// Sentinel meaning "not yet initialized from `CA_TRACE`".
const UNSET: u32 = u32::MAX;
static LEVEL: AtomicU32 = AtomicU32::new(UNSET);

/// The active trace level (see the crate docs): the constant `0` under
/// the `off` feature, else initialized from `CA_TRACE` on first read
/// and overridable with [`set_level`].
// Must inline across crates: this load guards every instrumentation
// point, and an out-of-line call per GEMM/workspace checkout is exactly
// the disabled-mode overhead the 2% gate forbids.
#[inline]
pub fn level() -> u32 {
    if cfg!(feature = "off") {
        return 0;
    }
    let cur = LEVEL.load(Ordering::Relaxed);
    if cur != UNSET {
        return cur;
    }
    init_level()
}

/// Parse `CA_TRACE` — once per process, so a malformed value warns
/// once — unless [`set_level`] got there first.
#[cold]
fn init_level() -> u32 {
    static PARSE: Once = Once::new();
    PARSE.call_once(|| {
        let parsed = match std::env::var("CA_TRACE") {
            Ok(raw) => raw.trim().parse::<usize>().unwrap_or_else(|_| {
                eprintln!(
                    "warning: ignoring malformed CA_TRACE={raw:?} \
                     (expected an unsigned integer; using default)"
                );
                0
            }),
            Err(_) => 0,
        };
        let parsed = parsed.min(UNSET as usize - 1) as u32;
        let _ = LEVEL.compare_exchange(UNSET, parsed, Ordering::Relaxed, Ordering::Relaxed);
    });
    LEVEL.load(Ordering::Relaxed)
}

/// Override the trace level in-process (exporter binaries and tests;
/// normal runs just set `CA_TRACE`). No effect under the `off` feature.
pub fn set_level(level: u32) {
    LEVEL.store(level.min(UNSET - 1), Ordering::Relaxed);
}

/// True when tracing is on (level ≥ 1); gates counter updates.
#[inline]
pub fn enabled() -> bool {
    level() >= 1
}

/// Open a stage-level span (live at level ≥ 1).
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if level() >= 1 {
        SpanGuard::begin(name)
    } else {
        SpanGuard::inert()
    }
}

/// Open a kernel-detail span (live only at level ≥ 2).
#[inline]
pub fn kernel_span(name: &str) -> SpanGuard {
    if level() >= 2 {
        SpanGuard::begin(name)
    } else {
        SpanGuard::inert()
    }
}

/// The event collector: completed events in FIFO order behind one lock.
///
/// Spans complete on whatever thread ran them — pool workers and the
/// service's included — and a traced run closes a few per stage, so one
/// short critical section per event is cheap. The buffer reserves its
/// whole capacity on the first push, so a traced run allocates for the
/// sink once and a push never allocates after that; untraced runs never
/// touch it. When it is full (a deep `CA_TRACE=2` kernel trace can
/// outrun the drain), new events are **dropped and counted** rather than
/// growing without bound; [`take_dropped`] reports how many, and the
/// exporters surface the count so a truncated trace is never mistaken
/// for a complete one.
struct Sink {
    cap: usize,
    /// `(queued events, events dropped since the last take)`.
    state: Mutex<(Vec<Event>, u64)>,
}

impl Sink {
    const fn new(cap: usize) -> Self {
        Self {
            cap,
            state: Mutex::new((Vec::new(), 0)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, (Vec<Event>, u64)> {
        // Every update is one push, one increment or one drain, so a
        // holder that panicked left the state valid: keep tracing.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, ev: Event) {
        let (events, dropped) = &mut *self.lock();
        if events.len() == self.cap {
            *dropped += 1;
            return;
        }
        if events.capacity() == 0 {
            events.reserve_exact(self.cap);
        }
        events.push(ev);
    }

    fn drain(&self) -> Vec<Event> {
        self.lock().0.drain(..).collect()
    }

    fn take_dropped(&self) -> u64 {
        std::mem::take(&mut self.lock().1)
    }
}

static SINK: Sink = Sink::new(1 << 16);

/// Push a completed event to the global sink (spans do this on drop).
pub(crate) fn push_event(ev: Event) {
    SINK.push(ev);
}

/// Drain every queued event from the global sink, FIFO.
pub fn drain() -> Vec<Event> {
    SINK.drain()
}

/// Read and reset the count of events dropped on sink overflow.
pub fn take_dropped() -> u64 {
    SINK.take_dropped()
}

/// Serialises the unit tests that change the process-global level:
/// `cargo test` runs tests on concurrent threads, and one test's
/// `set_level` would otherwise change what another's assertions see.
#[cfg(all(test, not(feature = "off")))]
pub(crate) fn lock_level() -> MutexGuard<'static, ()> {
    static LEVEL_LOCK: Mutex<()> = Mutex::new(());
    LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// Under `off` the level is the constant 0, so the tests that raise it
// are compiled out with it.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_drop_counting() {
        let sink = Sink::new(4);
        for i in 0..4 {
            sink.push(Event::named(&format!("e{i}")));
        }
        sink.push(Event::named("overflow"));
        let drained = sink.drain();
        assert_eq!(
            drained.iter().map(Event::name).collect::<Vec<_>>(),
            vec!["e0", "e1", "e2", "e3"]
        );
        assert!(sink.drain().is_empty());
        // Space reclaimed after the drain.
        sink.push(Event::named("again"));
        assert_eq!(sink.take_dropped(), 1);
        assert_eq!(sink.take_dropped(), 0);
        assert_eq!(sink.drain().len(), 1);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn span_liveness_follows_level() {
        let _serial = lock_level();
        let before = level();
        set_level(0);
        assert!(!span("idle").is_active());
        assert!(!kernel_span("idle.kernel").is_active());
        set_level(1);
        assert!(span("stage").is_active());
        assert!(!kernel_span("kernel").is_active());
        set_level(2);
        assert!(kernel_span("kernel").is_active());
        set_level(before);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn spans_land_in_the_global_ring() {
        let _serial = lock_level();
        let before = level();
        set_level(1);
        {
            let mut g = span("lib-test-stage");
            g.set_costs(11, 22, 33, 44);
        }
        set_level(before);
        let drained = drain();
        let ev = drained
            .iter()
            .find(|e| e.name() == "lib-test-stage")
            .expect("span must be recorded");
        assert_eq!(
            (ev.flops, ev.horizontal_words, ev.vertical_words, ev.supersteps),
            (11, 22, 33, 44)
        );
        assert!(ev.end_ns >= ev.start_ns);
    }

    /// Spans closed inside pool pieces — on the runtime's `ca-rt-*`
    /// workers and on the forking thread — all land in the global sink
    /// or are counted as dropped, and none is duplicated.
    #[cfg(not(feature = "off"))]
    #[test]
    fn concurrent_pushes_all_land_or_count() {
        use rayon::prelude::*;
        const PIECES: usize = 1600;
        let _serial = lock_level();
        let before = level();
        set_level(1);
        take_dropped();
        (0..PIECES).into_par_iter().for_each(|i| {
            let mut g = span("concurrent-piece");
            g.set_costs(i as u64, 0, 0, 0);
        });
        set_level(before);
        let landed: Vec<u64> = drain()
            .iter()
            .filter(|e| e.name() == "concurrent-piece")
            .map(|e| e.flops)
            .collect();
        assert_eq!(landed.len() as u64 + take_dropped(), PIECES as u64);
        // No event duplicated or corrupted.
        let mut seen = landed.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), landed.len(), "duplicated event payloads");
    }
}
