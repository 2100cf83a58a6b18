//! The process-global event collector: a lock-free bounded ring buffer.
//!
//! Spans complete on whatever thread ran them — pool workers and the
//! service's included — so the collector must accept
//! concurrent pushes without a lock. This is the classic Vyukov bounded
//! MPMC queue: each slot carries a sequence stamp that hands it back
//! and forth between producers and consumers, every transition a single
//! CAS or release store. [`Event`] is `Copy` with an inline name
//! buffer, so slots never own heap data and a push never allocates.
//!
//! When the ring is full (a deep `CA_TRACE=2` kernel trace can outrun
//! the drain), new events are **dropped and counted** rather than
//! blocking the hot path; [`Ring::dropped`] reports how many, and the
//! exporters surface the count so a truncated trace is never mistaken
//! for a complete one.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Inline capacity of an event's name. Longer names are truncated at a
/// UTF-8 boundary.
pub const NAME_CAP: usize = 56;

/// One completed span (or marker), `Copy` so the ring never drops heap
/// data. Times are nanoseconds since the process trace epoch.
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
    /// Build an event with the given name (truncated to [`NAME_CAP`]
    /// bytes at a char boundary); all numeric fields zero.
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

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Event>>,
}

// The sequence-stamp protocol guarantees exclusive access to `value`
// between the CAS that claims a slot and the release store that
// publishes it, so sharing slots across threads is sound.
unsafe impl Sync for Slot {}

/// Lock-free bounded MPMC event queue (Vyukov layout).
pub struct Ring {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    dropped: AtomicU64,
}

impl Ring {
    /// A ring holding up to `capacity` events; `capacity` is rounded up
    /// to a power of two (minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot]> = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Push an event; returns `false` (and counts a drop) when full.
    pub fn push(&self, ev: Event) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // Claimed: we have exclusive access until the
                        // release store below publishes the slot.
                        unsafe { (*slot.value.get()).write(ev) };
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest event, if any.
    pub fn pop(&self) -> Option<Event> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - (pos + 1) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let ev = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return Some(ev);
                    }
                    Err(cur) => pos = cur,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Drain every queued event in FIFO order.
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(ev) = self.pop() {
            out.push(ev);
        }
        out
    }

    /// Events dropped because the ring was full, since the last
    /// [`Ring::take_dropped`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Read and reset the dropped-event count.
    pub fn take_dropped(&self) -> u64 {
        self.dropped.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_drop_counting() {
        let ring = Ring::new(4);
        for i in 0..4 {
            assert!(ring.push(Event::named(&format!("e{i}"))));
        }
        assert!(!ring.push(Event::named("overflow")));
        assert_eq!(ring.dropped(), 1);
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(Event::name).collect::<Vec<_>>(),
            vec!["e0", "e1", "e2", "e3"]
        );
        assert!(ring.pop().is_none());
        // Space reclaimed after the drain.
        assert!(ring.push(Event::named("again")));
        assert_eq!(ring.take_dropped(), 1);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_pushes_all_land_or_count() {
        let ring = Ring::new(1024);
        const THREADS: usize = 8;
        const PER: usize = 200;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..PER {
                        let mut ev = Event::named("c");
                        ev.flops = (t * PER + i) as u64;
                        ring.push(ev);
                    }
                });
            }
        });
        let drained = ring.drain();
        assert_eq!(drained.len() as u64 + ring.dropped(), (THREADS * PER) as u64);
        // No event duplicated or corrupted.
        let mut seen: Vec<u64> = drained.iter().map(|e| e.flops).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), drained.len(), "duplicated event payloads");
    }

    #[test]
    fn name_truncates_at_char_boundary() {
        let long = "p̄".repeat(40); // multi-byte chars
        let ev = Event::named(&long);
        assert!(ev.name().len() <= NAME_CAP);
        assert!(long.starts_with(ev.name()));
    }
}
