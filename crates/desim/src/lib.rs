#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # desim — deterministic discrete-event simulation engine
//!
//! A minimal, allocation-conscious discrete-event core used by the
//! flit-level wormhole simulator ([`wormsim`]). It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulation clock value,
//! * [`EventQueue`] — a deterministic future-event list: events scheduled
//!   for the same instant are delivered in scheduling order (FIFO),
//! * [`Schedule`] — a small façade combining the clock and the queue.
//!
//! Determinism is a hard requirement for the reproduction: the paper reports
//! means with tight confidence intervals, and regression tests pin exact
//! latency values for seeded runs. The queue therefore breaks ties in the
//! event heap with a monotonically increasing sequence number rather than
//! relying on [`std::collections::BinaryHeap`]'s unspecified equal-key order.
//!
//! ```
//! use desim::{EventQueue, Time};
//!
//! let mut q = EventQueue::new();
//! q.schedule(Time::from_ns(30), "c");
//! q.schedule(Time::from_ns(10), "a");
//! q.schedule(Time::from_ns(10), "b"); // same instant: FIFO with "a"
//! let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
//! assert_eq!(order, vec!["a", "b", "c"]);
//! ```

pub mod bucket;
pub mod queue;
pub mod tick;
pub mod time;

pub use bucket::{BucketQueue, QueueOccupancy, WHEEL_LEVELS, WHEEL_SPAN_NS};
pub use queue::{EventQueue, QueueKind, ScheduledEvent};
pub use tick::Ticker;
pub use time::{Duration, Time};

/// A façade bundling the current simulation time with the future-event list.
///
/// `Schedule` enforces the fundamental discrete-event invariant: time never
/// moves backwards, and events cannot be scheduled in the past.
#[derive(Debug, Clone)]
pub struct Schedule<E> {
    now: Time,
    queue: EventQueue<E>,
}

impl<E> Default for Schedule<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Schedule<E> {
    /// Creates an empty schedule with the clock at time zero, backed by
    /// the heap queue.
    pub fn new() -> Self {
        Self {
            now: Time::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Creates an empty schedule backed by the chosen queue
    /// implementation. `Schedule` never schedules into the past, so both
    /// kinds are always legal here; [`QueueKind::Bucket`] is the fast
    /// choice for event-dense simulations.
    pub fn with_kind(kind: QueueKind) -> Self {
        Self {
            now: Time::ZERO,
            queue: EventQueue::with_kind(kind),
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn after(&mut self, delay: Duration, event: E) {
        self.queue.schedule(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: scheduling into the
    /// past is always a simulator bug.
    pub fn at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "attempted to schedule an event at {at} but the clock is already at {now}",
            now = self.now
        );
        self.queue.schedule(at, event);
    }

    /// Schedules `event` at the absolute instant `at`, clamped to the
    /// current time: an instant already in the past becomes "now". This is
    /// the right call for externally supplied schedules (e.g. a fault
    /// timeline installed while a simulation is running) where a stale
    /// timestamp should mean "immediately", not a crash.
    pub fn at_or_now(&mut self, at: Time, event: E) {
        self.queue.schedule(at.max(self.now), event);
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the event list is exhausted.
    ///
    /// Named `next` deliberately (the discrete-event idiom); `Schedule` is
    /// not an `Iterator` because firing an event mutates the clock.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Time, E)> {
        let (t, e) = self.queue.pop()?;
        debug_assert!(t >= self.now, "event queue yielded an event from the past");
        self.now = t;
        Some((t, e))
    }

    /// Peeks at the timestamp of the next pending event without firing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Total number of events ever scheduled (monotone counter; useful for
    /// progress/watchdog diagnostics).
    pub fn scheduled_count(&self) -> u64 {
        self.queue.scheduled_count()
    }

    /// Constant-time occupancy snapshot of the backing queue (see
    /// [`EventQueue::occupancy`]).
    pub fn queue_occupancy(&self) -> bucket::QueueOccupancy {
        self.queue.occupancy()
    }

    /// Which queue implementation backs this schedule.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Visits every pending event with its `(time, seq)` key (arbitrary
    /// order; see [`EventQueue::snapshot_each`]). Together with
    /// [`Schedule::now`] and [`Schedule::scheduled_count`] this is the
    /// schedule's complete observable state.
    pub fn snapshot_each(&self, f: impl FnMut(Time, u64, &E)) {
        self.queue.snapshot_each(f);
    }

    /// An empty schedule primed for restore: clock at `now`, sequence
    /// counter at `next_seq`, queue of the chosen kind ready for
    /// [`Schedule::insert_restored`]. Pending events always fire at or
    /// after the last popped instant, so `now` is a valid queue floor.
    pub fn restore_empty(kind: QueueKind, now: Time, next_seq: u64) -> Self {
        Self {
            now,
            queue: EventQueue::restore_empty(kind, now, next_seq),
        }
    }

    /// Re-files an event captured by [`Schedule::snapshot_each`] under its
    /// original sequence number, preserving exact pop order.
    pub fn insert_restored(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(at >= self.now, "restored event in the past");
        self.queue.insert_restored(at, seq, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_advances_clock_monotonically() {
        let mut s: Schedule<u32> = Schedule::new();
        s.after(Duration::from_ns(5), 1);
        s.after(Duration::from_ns(3), 2);
        let (t1, e1) = s.next().unwrap();
        assert_eq!((t1, e1), (Time::from_ns(3), 2));
        assert_eq!(s.now(), Time::from_ns(3));
        let (t2, e2) = s.next().unwrap();
        assert_eq!((t2, e2), (Time::from_ns(5), 1));
        assert!(s.next().is_none());
        assert_eq!(s.now(), Time::from_ns(5), "clock stays at last event");
    }

    #[test]
    fn after_is_relative_to_current_time() {
        let mut s: Schedule<&str> = Schedule::new();
        s.after(Duration::from_ns(10), "first");
        s.next().unwrap();
        s.after(Duration::from_ns(10), "second");
        let (t, _) = s.next().unwrap();
        assert_eq!(t, Time::from_ns(20));
    }

    #[test]
    fn at_or_now_clamps_past_instants_to_now() {
        let mut s: Schedule<&str> = Schedule::new();
        s.at(Time::from_ns(10), "tick");
        s.next();
        // 5 ns is in the past; the event fires at the current time (10 ns),
        // after anything already queued for that instant.
        s.at_or_now(Time::from_ns(5), "stale");
        s.at_or_now(Time::from_ns(20), "future");
        let (t1, e1) = s.next().unwrap();
        assert_eq!((t1, e1), (Time::from_ns(10), "stale"));
        let (t2, e2) = s.next().unwrap();
        assert_eq!((t2, e2), (Time::from_ns(20), "future"));
    }

    #[test]
    #[should_panic(expected = "schedule an event at")]
    fn scheduling_in_the_past_panics() {
        let mut s: Schedule<()> = Schedule::new();
        s.at(Time::from_ns(10), ());
        s.next();
        s.at(Time::from_ns(5), ());
    }

    #[test]
    fn same_instant_events_fire_fifo() {
        let mut s: Schedule<u32> = Schedule::new();
        for i in 0..100 {
            s.at(Time::from_ns(42), i);
        }
        let fired: Vec<u32> = std::iter::from_fn(|| s.next()).map(|(_, e)| e).collect();
        assert_eq!(fired, (0..100).collect::<Vec<_>>());
    }
}
