//! Span guards and the events they record.
//!
//! A [`SpanGuard`] captures its entry time on creation and pushes one
//! completed [`Event`] to the global sink when dropped.
//! When tracing is disabled the guard is *inert*: no clock read, no
//! event, no thread-local traffic — construction and drop optimize down
//! to a branch on one relaxed atomic load, which is what keeps the
//! disabled-mode overhead unmeasurable.
//!
//! Each thread carries a stable small id and a nesting-depth counter,
//! so exporters can rebuild the span tree (chrome-trace stacks spans of
//! one `tid` by interval containment; the pin tests assert the
//! intervals really do nest).

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Inline capacity of an event's name. Longer names are truncated at a
/// UTF-8 boundary.
pub(crate) const NAME_CAP: usize = 56;

/// One completed span (or marker), `Copy` with an inline name so the
/// sink never holds heap data. Times are nanoseconds since the process
/// trace epoch.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    name_buf: [u8; NAME_CAP],
    name_len: u8,
    /// Stable small id of the emitting thread.
    pub tid: u32,
    /// Span-nesting depth on the emitting thread (0 = top level).
    pub depth: u16,
    /// Span entry time, ns since the trace epoch.
    pub start_ns: u64,
    /// Span exit time, ns since the trace epoch.
    pub end_ns: u64,
    /// Metered `F` delta over the span (0 when the caller has no ledger).
    pub flops: u64,
    /// Metered `W` delta over the span.
    pub horizontal_words: u64,
    /// Metered `Q` delta over the span.
    pub vertical_words: u64,
    /// Metered `S` delta (superstep count) over the span.
    pub supersteps: u64,
}

impl Event {
    /// Build an event with the given name (truncated to 56 bytes at a
    /// char boundary); all numeric fields zero.
    pub fn named(name: &str) -> Self {
        let mut buf = [0u8; NAME_CAP];
        let mut len = name.len().min(NAME_CAP);
        while len > 0 && !name.is_char_boundary(len) {
            len -= 1;
        }
        buf[..len].copy_from_slice(&name.as_bytes()[..len]);
        Self {
            name_buf: buf,
            name_len: len as u8,
            tid: 0,
            depth: 0,
            start_ns: 0,
            end_ns: 0,
            flops: 0,
            horizontal_words: 0,
            vertical_words: 0,
            supersteps: 0,
        }
    }

    /// The span name.
    pub fn name(&self) -> &str {
        // The constructor only ever stores a char-boundary prefix of a
        // valid &str, so this cannot fail.
        std::str::from_utf8(&self.name_buf[..self.name_len as usize]).unwrap_or("")
    }

    /// Wall duration of the span in seconds.
    pub fn wall_secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The process trace epoch: all event timestamps are nanoseconds since
/// this instant.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static THREAD_TID: Cell<u32> = const { Cell::new(u32::MAX) };
    static THREAD_DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// `(tid, OS thread name)` of every named thread that has been given a
/// tid. Threads are long-lived (the runtime's pool workers `ca-rt-<i>`,
/// the service's `ca-service-<i>`, `main`), so this stays small.
static THREAD_NAMES: Mutex<Vec<(u32, String)>> = Mutex::new(Vec::new());

/// Stable small id of the calling thread (assigned on first use, when
/// the thread's name, if it has one, is recorded for the exporters).
pub(crate) fn thread_tid() -> u32 {
    THREAD_TID.with(|cell| {
        let cur = cell.get();
        if cur != u32::MAX {
            return cur;
        }
        static NEXT: AtomicU32 = AtomicU32::new(1);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        if let Some(name) = std::thread::current().name() {
            THREAD_NAMES
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((id, name.to_string()));
        }
        id
    })
}

/// The recorded `(tid, name)` pairs, in tid order of first use.
pub(crate) fn thread_names() -> Vec<(u32, String)> {
    THREAD_NAMES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// A scoped span. Create with [`crate::span`] (stage level) or
/// [`crate::kernel_span`] (kernel detail level); attach metered cost
/// deltas with [`SpanGuard::set_costs`] before it drops.
#[must_use = "a span records its interval when dropped"]
pub struct SpanGuard {
    /// `None` when tracing was disabled at creation: drop is a no-op.
    event: Option<Event>,
}

impl SpanGuard {
    /// An inert guard (tracing disabled).
    #[inline]
    pub(crate) fn inert() -> Self {
        Self { event: None }
    }

    /// A live guard: stamps entry time, thread id and nesting depth.
    pub(crate) fn begin(name: &str) -> Self {
        let mut event = Event::named(name);
        event.tid = thread_tid();
        event.depth = THREAD_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth.saturating_add(1));
            depth
        });
        event.start_ns = now_ns();
        Self { event: Some(event) }
    }

    /// True when this guard will record an event on drop.
    pub fn is_active(&self) -> bool {
        self.event.is_some()
    }

    /// Attach the metered `F/W/Q/S` deltas accumulated over the span
    /// (typically `Machine::costs_since` of a snapshot taken at entry).
    pub fn set_costs(&mut self, flops: u64, horizontal: u64, vertical: u64, supersteps: u64) {
        if let Some(ev) = self.event.as_mut() {
            ev.flops = flops;
            ev.horizontal_words = horizontal;
            ev.vertical_words = vertical;
            ev.supersteps = supersteps;
        }
    }
}

impl Drop for SpanGuard {
    // Inlined so the inert case (the default) is one branch at the call
    // site; the live tail is outlined to keep that branch small.
    #[inline]
    fn drop(&mut self) {
        if self.event.is_some() {
            finish(self);
        }
        #[cold]
        fn finish(guard: &mut SpanGuard) {
            if let Some(mut ev) = guard.event.take() {
                ev.end_ns = now_ns();
                THREAD_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
                crate::push_event(ev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_guard_never_records() {
        let mut g = SpanGuard::inert();
        assert!(!g.is_active());
        g.set_costs(1, 2, 3, 4);
        drop(g); // must not touch the sink or the depth counter
        assert_eq!(THREAD_DEPTH.with(Cell::get), 0);
    }

    #[test]
    fn depth_tracks_nesting() {
        let a = SpanGuard::begin("outer");
        let b = SpanGuard::begin("inner");
        assert_eq!(a.event.as_ref().unwrap().depth, 0);
        assert_eq!(b.event.as_ref().unwrap().depth, 1);
        drop(b);
        drop(a);
        assert_eq!(THREAD_DEPTH.with(Cell::get), 0);
    }

    #[test]
    fn tids_are_stable_per_thread_and_distinct() {
        let here = thread_tid();
        assert_eq!(here, thread_tid());
        let there = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn name_truncates_at_char_boundary() {
        let long = "p̄".repeat(40); // multi-byte chars
        let ev = Event::named(&long);
        assert!(ev.name().len() <= NAME_CAP);
        assert!(long.starts_with(ev.name()));
    }
}
