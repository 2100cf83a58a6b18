//! `ca-obs`: a lightweight tracing/metrics layer for the
//! communication-avoiding eigensolver, and the parser of its one knob.
//!
//! 1. **Knobs** ([`knobs`]): the single parser for `CA_*` environment
//!    variables — there is one, `CA_TRACE`, read through
//!    [`knobs::usize_env`].
//! 2. **Tracing** ([`span`]/[`kernel_span`], [`counters`], [`export`]):
//!    span-based stage instrumentation feeding a process-global
//!    lock-free ring, exported as chrome-trace JSON or a per-stage
//!    summary table.
//!
//! ## Trace levels
//!
//! The `CA_TRACE` knob (an unsigned integer, default `0`) selects how
//! much is recorded:
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
//! Disabled (level 0, the default), every instrumentation point is one
//! relaxed atomic load and a predictable branch — measured end-to-end
//! overhead on the solver is within noise of a build with the `off`
//! feature, which compiles the subsystem down to inert stubs (enable it
//! from a leaf binary with `--features ca-obs/off`).

#![warn(missing_docs)]

pub mod alloc;
pub mod counters;
pub mod export;
pub mod knobs;
// With `off`, the ring and the live span constructor are compiled but
// unreachable; that is the point of the feature, not dead weight to
// warn about.
#[cfg_attr(feature = "off", allow(dead_code))]
mod ring;
#[cfg_attr(feature = "off", allow(dead_code))]
mod span;

pub use counters::Counter;
pub use ring::{Event, NAME_CAP};
pub use span::{thread_tid, SpanGuard};

#[cfg(not(feature = "off"))]
mod live {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::OnceLock;

    /// Sentinel meaning "not yet initialized from `CA_TRACE`".
    const UNSET: u32 = u32::MAX;
    static LEVEL: AtomicU32 = AtomicU32::new(UNSET);

    // Must inline across crates: this load guards every instrumentation
    // point, and an out-of-line call per GEMM/workspace checkout is
    // exactly the disabled-mode overhead the 2% gate forbids.
    #[inline]
    pub fn level() -> u32 {
        let cur = LEVEL.load(Ordering::Relaxed);
        if cur != UNSET {
            return cur;
        }
        init_level()
    }

    #[cold]
    fn init_level() -> u32 {
        let parsed = knobs::usize_env("CA_TRACE").unwrap_or(0).min(u32::MAX as usize - 1) as u32;
        // Racing first reads all parse the same env value; last store
        // wins with an identical result.
        LEVEL.store(parsed, Ordering::Relaxed);
        parsed
    }

    pub fn set_level(level: u32) {
        LEVEL.store(level.min(UNSET - 1), Ordering::Relaxed);
    }

    fn global_ring() -> &'static ring::Ring {
        static RING: OnceLock<ring::Ring> = OnceLock::new();
        RING.get_or_init(|| ring::Ring::new(1 << 16))
    }

    pub fn push_event(ev: Event) {
        global_ring().push(ev);
    }

    pub fn drain() -> Vec<Event> {
        global_ring().drain()
    }

    pub fn take_dropped() -> u64 {
        global_ring().take_dropped()
    }

    pub fn dropped_events() -> u64 {
        global_ring().dropped()
    }
}

#[cfg(not(feature = "off"))]
pub use live_api::*;

#[cfg(not(feature = "off"))]
mod live_api {
    use super::*;

    /// The active trace level (see the crate docs). Initialized from
    /// `CA_TRACE` on first read; overridable with [`set_level`].
    #[inline]
    pub fn level() -> u32 {
        live::level()
    }

    /// Override the trace level in-process (exporter binaries and tests;
    /// normal runs just set `CA_TRACE`).
    pub fn set_level(level: u32) {
        live::set_level(level);
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

    /// Push a completed event to the global ring (spans do this on
    /// drop; markers may call it directly).
    pub fn push_event(ev: Event) {
        live::push_event(ev);
    }

    /// Drain every queued event from the global ring, FIFO.
    pub fn drain() -> Vec<Event> {
        live::drain()
    }

    /// Read and reset the count of events dropped on ring overflow.
    pub fn take_dropped() -> u64 {
        live::take_dropped()
    }

    /// Events dropped on ring overflow since the last [`take_dropped`].
    pub fn dropped_events() -> u64 {
        live::dropped_events()
    }
}

#[cfg(feature = "off")]
pub use off_api::*;

#[cfg(feature = "off")]
mod off_api {
    use super::*;

    /// Always 0: the `off` feature compiles tracing out.
    #[inline]
    pub fn level() -> u32 {
        0
    }

    /// No-op with the `off` feature.
    pub fn set_level(_level: u32) {}

    /// Always false: the `off` feature compiles tracing out.
    #[inline]
    pub fn enabled() -> bool {
        false
    }

    /// Always inert with the `off` feature.
    #[inline]
    pub fn span(_name: &str) -> SpanGuard {
        SpanGuard::inert()
    }

    /// Always inert with the `off` feature.
    #[inline]
    pub fn kernel_span(_name: &str) -> SpanGuard {
        SpanGuard::inert()
    }

    /// Discards the event with the `off` feature.
    pub fn push_event(_ev: Event) {}

    /// Always empty with the `off` feature.
    pub fn drain() -> Vec<Event> {
        Vec::new()
    }

    /// Always 0 with the `off` feature.
    pub fn take_dropped() -> u64 {
        0
    }

    /// Always 0 with the `off` feature.
    pub fn dropped_events() -> u64 {
        0
    }
}

#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    #[test]
    fn span_liveness_follows_level() {
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

    #[test]
    fn spans_land_in_the_global_ring() {
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
}
