//! Deterministic future-event list.
//!
//! [`EventQueue`] guarantees FIFO delivery of events scheduled for the same
//! instant, independent of any internal (unspecified) ordering of equal
//! keys. Determinism matters here: wormhole-routing outcomes (which message
//! wins a channel) depend on event order, and the reproduction pins exact
//! results for seeded runs.
//!
//! The queue is a [`std::collections::BinaryHeap`] of `(time, seq)` keys:
//! fully general, events may be scheduled at any time. [`QueueKind`] picks
//! what a [`crate::Schedule`] puts in front of it:
//!
//! * [`QueueKind::Heap`] — nothing: every event goes through the heap. The
//!   reference the equivalence suites compare against.
//! * [`QueueKind::Bucket`] — one FIFO lane per constant delay passed to
//!   [`crate::Schedule::after`]. The clock and the sequence counter only
//!   grow, so events scheduled a fixed delay from "now" arrive already in
//!   pop order; a lane is a ring buffer, and only events at arbitrary
//!   instants pay for the heap.
//!
//! Both pop the minimum `(time, seq)` over everything pending, so their pop
//! sequences are identical by construction — property-tested in
//! `tests/queue_properties.rs` and pinned end-to-end by the workspace
//! golden-regression suite.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event tagged with its firing time and a tie-breaking sequence number.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Absolute firing instant.
    pub time: Time,
    /// Monotone per-queue sequence number; earlier scheduling wins ties.
    pub seq: u64,
    /// The caller's payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// The `(time, seq)` pair pop order is a pure function of.
    #[inline]
    pub(crate) fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) pair on top.
        other.key().cmp(&self.key())
    }
}

/// What a [`crate::Schedule`] (or a simulator built on one) puts in front
/// of its [`EventQueue`]. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// The heap alone — the reference implementation.
    Heap,
    /// Constant-delay FIFO lanes in front of the heap — the fast default.
    /// (The name, and the `"bucket"` spec value, predate the lanes.)
    #[default]
    Bucket,
}

/// A priority queue of timestamped events with deterministic tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_next_seq(0)
    }

    /// An empty queue whose sequence counter starts at `next_seq` (a
    /// restored [`crate::Schedule`]'s).
    pub(crate) fn with_next_seq(next_seq: u64) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq,
        }
    }

    /// Hands out the next sequence number without filing an event: the
    /// caller keeps the event elsewhere (a [`crate::Schedule`] lane) but
    /// its order against this queue's events stays exact.
    #[inline]
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Makes room for `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` to fire at absolute time `time`.
    pub fn schedule(&mut self, time: Time, event: E) {
        let seq = self.take_seq();
        self.heap.push(ScheduledEvent { time, seq, event });
    }

    /// Files an event whose sequence number was already handed out.
    #[inline]
    pub(crate) fn push(&mut self, s: ScheduledEvent<E>) {
        debug_assert!(s.seq < self.next_seq, "seq beyond the counter");
        self.heap.push(s);
    }

    /// Removes and returns the earliest event, FIFO among equal timestamps.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// [`Self::pop`], keeping the sequence number.
    #[inline]
    pub(crate) fn pop_scheduled(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
    }

    /// The earliest pending event, if any.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&ScheduledEvent<E>> {
        self.heap.peek()
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Drops all pending events (the sequence counter keeps advancing so
    /// determinism is preserved across a clear).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Every pending event, in an arbitrary order. Pop order is a pure
    /// function of `(time, seq)`, so these plus
    /// [`EventQueue::scheduled_count`] are the queue's complete observable
    /// state.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ScheduledEvent<E>> {
        self.heap.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Duration, Schedule};

    fn both() -> [Schedule<u32>; 2] {
        [
            Schedule::with_kind(QueueKind::Heap),
            Schedule::with_kind(QueueKind::Bucket),
        ]
    }

    fn ns(n: u64) -> Duration {
        Duration::from_ns(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(50), 'c');
        q.schedule(Time::from_ns(20), 'a');
        q.schedule(Time::from_ns(30), 'b');
        assert_eq!(q.pop(), Some((Time::from_ns(20), 'a')));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 'b')));
        assert_eq!(q.pop(), Some((Time::from_ns(50), 'c')));
        assert_eq!(q.pop(), None);
        // Three delays, three lanes under `Bucket`: the heads are merged.
        for mut s in both() {
            s.after(ns(50), 3);
            s.after(ns(20), 1);
            s.after(ns(30), 2);
            s.at(Time::from_ns(25), 9);
            let order: Vec<_> = std::iter::from_fn(|| s.next()).collect();
            let want = [(20, 1), (25, 9), (30, 2), (50, 3)].map(|(t, e)| (Time::from_ns(t), e));
            assert_eq!(order, want);
        }
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        for mut s in both() {
            // Half through a lane, half through the heap, interleaved.
            for i in 0..1000u32 {
                if i % 2 == 0 {
                    s.after(ns(7), i);
                } else {
                    s.at(Time::from_ns(7), i);
                }
            }
            for i in 0..1000u32 {
                assert_eq!(s.next(), Some((Time::from_ns(7), i)));
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_within_instant() {
        for mut s in both() {
            s.after(ns(10), 1);
            s.at(Time::from_ns(10), 2);
            assert_eq!(s.next().unwrap().1, 1);
            // Scheduling later at the same instant must come after 2.
            s.after(ns(0), 3);
            assert_eq!(s.next().unwrap().1, 2);
            assert_eq!(s.next().unwrap().1, 3);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        for mut s in both() {
            assert_eq!(s.peek_time(), None);
            s.after(ns(70_000), 0);
            s.after(ns(3), 1);
            assert_eq!(s.peek_time(), Some(Time::from_ns(3)));
            assert_eq!(s.len(), 2);
            assert!(!s.is_empty());
            assert_eq!(s.next().unwrap().0, Time::from_ns(3));
            assert_eq!(s.peek_time(), Some(Time::from_ns(70_000)));
        }
    }

    #[test]
    fn scheduled_count_is_monotone_across_clear() {
        let mut q = EventQueue::new();
        q.schedule(Time::ZERO, 0);
        q.schedule(Time::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_count(), 2);
        q.schedule(Time::ZERO, 2);
        assert_eq!(q.scheduled_count(), 3);
        for mut s in both() {
            s.after(ns(1), 0);
            s.at(Time::from_ns(1), 1);
            assert_eq!(s.scheduled_count(), 2);
        }
    }

    #[test]
    fn snapshot_restore_preserves_pop_order_mid_stream() {
        for kind in [QueueKind::Heap, QueueKind::Bucket] {
            // Lanes and heap both populated, a few popped, then restored
            // in a scrambled order: the remaining pop sequence and what
            // is scheduled after it must be identical.
            let mut s = Schedule::with_kind(kind);
            for i in 0..20u32 {
                s.after(ns(40), i); // same-instant burst
            }
            s.after(ns(10), 100);
            s.at(Time::from_ns(5000), 101);
            s.at(Time::from_ns(1 << 40), 102);
            for _ in 0..5 {
                s.next().unwrap();
            }
            s.at(Time::from_ns(40), 103); // joins the burst late

            let mut reference = s.clone();
            let mut pending = Vec::new();
            s.pending_by_seq(&mut pending);
            assert!(pending.windows(2).all(|w| w[0].seq < w[1].seq));
            let mut restored = Schedule::restore_empty(kind, s.now(), s.scheduled_count());
            // Restore must not depend on insertion order.
            for p in pending.into_iter().rev() {
                restored.insert_restored(p.time, p.seq, p.event);
            }
            assert_eq!(restored.len(), reference.len());
            assert_eq!(restored.scheduled_count(), reference.scheduled_count());
            for sched in [&mut reference, &mut restored] {
                sched.after(ns(40), 104);
            }
            loop {
                let (a, b) = (reference.next(), restored.next());
                assert_eq!(a, b, "kind {kind:?} diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn default_is_heap_and_kind_reports() {
        assert_eq!(Schedule::<u32>::new().queue_kind(), QueueKind::Heap);
        assert_eq!(
            Schedule::<u32>::with_kind(QueueKind::Bucket).queue_kind(),
            QueueKind::Bucket
        );
        assert_eq!(QueueKind::default(), QueueKind::Bucket);
    }
}
