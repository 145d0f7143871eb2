//! Deterministic future-event list.
//!
//! [`EventQueue`] guarantees FIFO delivery of events scheduled for the same
//! instant, independent of any internal (unspecified) ordering of equal
//! keys. Determinism matters here: wormhole-routing outcomes (which message
//! wins a channel) depend on event order, and the reproduction pins exact
//! results for seeded runs.
//!
//! Two interchangeable implementations live behind the one API, selected by
//! [`QueueKind`]:
//!
//! * [`QueueKind::Heap`] — a [`std::collections::BinaryHeap`] of
//!   `(time, seq)` keys. Fully general: events may be scheduled at any
//!   time, including before already-popped instants.
//! * [`QueueKind::Bucket`] — a hierarchical timing wheel
//!   ([`crate::bucket::BucketQueue`]) keyed directly on the integer
//!   nanosecond timestamp: O(1) array indexing instead of heap
//!   comparisons on the simulator's hot path. Requires the discrete-event
//!   clock invariant (never schedule before the last popped time), which
//!   [`crate::Schedule`] enforces anyway.
//!
//! Both produce identical pop sequences on any schedule a [`crate::Schedule`]
//! can express — property-tested in `tests/queue_properties.rs` and pinned
//! end-to-end by the workspace golden-regression suite.

use crate::bucket::{BucketQueue, QueueOccupancy};
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

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which future-event-list implementation an [`EventQueue`] (or a
/// [`crate::Schedule`], or a simulator built on one) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueueKind {
    /// Binary heap of `(time, seq)` keys — fully general.
    Heap,
    /// Hierarchical timing wheel keyed on the integer timestamp — the
    /// fast path for discrete-event use (monotone clock).
    #[default]
    Bucket,
}

/// The classic comparison-based implementation.
#[derive(Debug, Clone)]
struct HeapQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
}

impl<E> HeapQueue<E> {
    fn schedule(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { time, seq, event });
    }
}

#[derive(Debug, Clone)]
enum Imp<E> {
    Heap(HeapQueue<E>),
    // Boxed: the wheel's slot tables are ~3 KB of inline arrays, and an
    // EventQueue should stay cheap to move.
    Bucket(Box<BucketQueue<E>>),
}

/// A priority queue of timestamped events with deterministic tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    imp: Imp<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty heap-backed queue (the fully general
    /// implementation; see [`Self::with_kind`] for the bucketed one).
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Heap)
    }

    /// Creates an empty queue backed by the chosen implementation.
    pub fn with_kind(kind: QueueKind) -> Self {
        let imp = match kind {
            QueueKind::Heap => Imp::Heap(HeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
            }),
            QueueKind::Bucket => Imp::Bucket(Box::default()),
        };
        EventQueue { imp }
    }

    /// Creates an empty heap-backed queue with room for `cap` events
    /// before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            imp: Imp::Heap(HeapQueue {
                heap: BinaryHeap::with_capacity(cap),
                next_seq: 0,
            }),
        }
    }

    /// Which implementation backs this queue.
    pub fn kind(&self) -> QueueKind {
        match &self.imp {
            Imp::Heap(_) => QueueKind::Heap,
            Imp::Bucket(_) => QueueKind::Bucket,
        }
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// On a [`QueueKind::Bucket`] queue, `time` must not precede the last
    /// popped timestamp (the discrete-event clock invariant).
    pub fn schedule(&mut self, time: Time, event: E) {
        match &mut self.imp {
            Imp::Heap(q) => q.schedule(time, event),
            Imp::Bucket(q) => q.schedule(time, event),
        }
    }

    /// Removes and returns the earliest event, FIFO among equal timestamps.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        match &mut self.imp {
            Imp::Heap(q) => q.heap.pop().map(|s| (s.time, s.event)),
            Imp::Bucket(q) => q.pop(),
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.imp {
            Imp::Heap(q) => q.heap.peek().map(|s| s.time),
            Imp::Bucket(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            Imp::Heap(q) => q.heap.len(),
            Imp::Bucket(q) => q.len(),
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        match &self.imp {
            Imp::Heap(q) => q.next_seq,
            Imp::Bucket(q) => q.scheduled_count(),
        }
    }

    /// Constant-time occupancy snapshot for telemetry. A bucket queue
    /// reports occupied slots per wheel level plus its overflow list; a
    /// heap queue has no levels, so only `len` is populated.
    pub fn occupancy(&self) -> QueueOccupancy {
        match &self.imp {
            Imp::Heap(q) => QueueOccupancy {
                len: q.heap.len(),
                ..QueueOccupancy::default()
            },
            Imp::Bucket(q) => q.occupancy(),
        }
    }

    /// Drops all pending events (the sequence counter keeps advancing so
    /// determinism is preserved across a clear).
    pub fn clear(&mut self) {
        match &mut self.imp {
            Imp::Heap(q) => q.heap.clear(),
            Imp::Bucket(q) => q.clear(),
        }
    }

    /// Visits every pending event with its `(time, seq)` key, in an
    /// arbitrary order. Pop order is a pure function of `(time, seq)`, so
    /// this plus [`EventQueue::scheduled_count`] is the queue's complete
    /// observable state — what the snapshot layer persists.
    pub fn snapshot_each(&self, mut f: impl FnMut(Time, u64, &E)) {
        match &self.imp {
            Imp::Heap(q) => {
                for s in q.heap.iter() {
                    f(s.time, s.seq, &s.event);
                }
            }
            Imp::Bucket(q) => q.snapshot_each(|when, seq, e| f(Time::from_ns(when), seq, e)),
        }
    }

    /// An empty queue primed for restore: the chosen implementation with
    /// its clock floor (bucket) and sequence counter pre-set, ready for
    /// [`EventQueue::insert_restored`].
    pub fn restore_empty(kind: QueueKind, floor: Time, next_seq: u64) -> Self {
        let imp = match kind {
            QueueKind::Heap => Imp::Heap(HeapQueue {
                heap: BinaryHeap::new(),
                next_seq,
            }),
            QueueKind::Bucket => Imp::Bucket(Box::new(BucketQueue::restore_empty(
                floor.as_ns(),
                next_seq,
            ))),
        };
        EventQueue { imp }
    }

    /// Re-files an event captured by [`EventQueue::snapshot_each`] under
    /// its original sequence number, preserving exact pop order.
    pub fn insert_restored(&mut self, time: Time, seq: u64, event: E) {
        match &mut self.imp {
            Imp::Heap(q) => {
                debug_assert!(seq < q.next_seq, "restored seq beyond the counter");
                q.heap.push(ScheduledEvent { time, seq, event });
            }
            Imp::Bucket(q) => q.insert_restored(time.as_ns(), seq, event),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [EventQueue<u32>; 2] {
        [
            EventQueue::with_kind(QueueKind::Heap),
            EventQueue::with_kind(QueueKind::Bucket),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in [
            EventQueue::with_kind(QueueKind::Heap),
            EventQueue::with_kind(QueueKind::Bucket),
        ] {
            q.schedule(Time::from_ns(50), 'c');
            q.schedule(Time::from_ns(20), 'a');
            q.schedule(Time::from_ns(30), 'b');
            assert_eq!(q.pop(), Some((Time::from_ns(20), 'a')));
            assert_eq!(q.pop(), Some((Time::from_ns(30), 'b')));
            assert_eq!(q.pop(), Some((Time::from_ns(50), 'c')));
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        for mut q in both() {
            let t = Time::from_ns(7);
            for i in 0..1000u32 {
                q.schedule(t, i);
            }
            for i in 0..1000u32 {
                assert_eq!(q.pop(), Some((t, i)));
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_within_instant() {
        for mut q in both() {
            q.schedule(Time::from_ns(10), 1);
            q.schedule(Time::from_ns(10), 2);
            assert_eq!(q.pop().unwrap().1, 1);
            // Scheduling later at the same instant must come after 2.
            q.schedule(Time::from_ns(10), 3);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop().unwrap().1, 3);
        }
    }

    #[test]
    fn peek_does_not_consume() {
        for mut q in both() {
            assert_eq!(q.peek_time(), None);
            q.schedule(Time::from_ns(3), 0);
            assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
        }
    }

    #[test]
    fn scheduled_count_is_monotone_across_clear() {
        for mut q in both() {
            q.schedule(Time::ZERO, 0);
            q.schedule(Time::ZERO, 1);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.scheduled_count(), 2);
            q.schedule(Time::ZERO, 2);
            assert_eq!(q.scheduled_count(), 3);
        }
    }

    #[test]
    fn snapshot_restore_preserves_pop_order_mid_stream() {
        for kind in [QueueKind::Heap, QueueKind::Bucket] {
            // Build a queue with a mix of near, same-instant, cascaded and
            // overflow events, pop a few, then snapshot/restore and check
            // the remaining pop sequence is identical.
            let mut q = EventQueue::with_kind(kind);
            for i in 0..20u32 {
                q.schedule(Time::from_ns(40), i); // same-instant burst
            }
            q.schedule(Time::from_ns(10), 100);
            q.schedule(Time::from_ns(5000), 101); // coarser wheel level
            q.schedule(Time::from_ns(1 << 40), 102); // overflow
            for _ in 0..5 {
                q.pop().unwrap();
            }
            q.schedule(Time::from_ns(40), 103); // joins the burst late

            let mut reference = q.clone();
            let floor = q.peek_time().unwrap();
            let mut restored = EventQueue::restore_empty(kind, floor, q.scheduled_count());
            let mut pending = Vec::new();
            q.snapshot_each(|t, seq, &e| pending.push((t, seq, e)));
            // Deliberately insert in a scrambled order: restore must not
            // depend on insertion order.
            pending.reverse();
            for (t, seq, e) in pending {
                restored.insert_restored(t, seq, e);
            }
            assert_eq!(restored.len(), reference.len());
            assert_eq!(restored.scheduled_count(), reference.scheduled_count());
            loop {
                let (a, b) = (reference.pop(), restored.pop());
                assert_eq!(a, b, "kind {kind:?} diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn default_is_heap_and_kind_reports() {
        assert_eq!(EventQueue::<u32>::new().kind(), QueueKind::Heap);
        assert_eq!(
            EventQueue::<u32>::with_kind(QueueKind::Bucket).kind(),
            QueueKind::Bucket
        );
        assert_eq!(QueueKind::default(), QueueKind::Bucket);
    }
}
