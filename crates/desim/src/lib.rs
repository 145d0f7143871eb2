#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # desim — deterministic discrete-event simulation engine
//!
//! A minimal, allocation-conscious discrete-event core used by the
//! flit-level wormhole simulator (`wormsim`). It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulation clock value,
//! * [`EventQueue`] — a deterministic future-event list: events scheduled
//!   for the same instant are delivered in scheduling order (FIFO),
//! * [`Schedule`] — the clock and the queue together, with FIFO lanes in
//!   front of the queue for events scheduled a constant delay from now.
//!   It caches its head — the least pending `(time, seq)` and the source
//!   (heap or lane) holding it — and the runner-up, the least key over
//!   every other source, so a peek reads a field and a pop compares one
//!   new front with the runner-up instead of scanning every source.
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

pub mod queue;
pub mod tick;
pub mod time;

pub use queue::{EventQueue, QueueKind, ScheduledEvent};
pub use tick::Ticker;
pub use time::{Duration, Time};

use std::collections::VecDeque;

/// Most distinct [`Schedule::after`] delays a [`QueueKind::Bucket`]
/// schedule keeps a lane for; later delays go to the heap.
pub const MAX_LANES: usize = 4;

/// Events scheduled one constant delay after "now", in pop order.
#[derive(Debug, Clone)]
struct Lane<E> {
    delay: Duration,
    events: VecDeque<ScheduledEvent<E>>,
}

/// A pending event's `(time, seq)` in one integer, so that one comparison
/// orders two keys: pop order is ascending key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    /// Nothing pending. No event has this key: its sequence number would
    /// be `u64::MAX`, and every one handed out is below the counter.
    const NONE: Key = Key(u128::MAX);

    #[inline]
    fn of<E>(s: &ScheduledEvent<E>) -> Key {
        Key(u128::from(s.time.as_ns()) << 64 | u128::from(s.seq))
    }

    #[inline]
    fn time(self) -> Time {
        Time::from_ns((self.0 >> 64) as u64)
    }
}

/// Where an event waits: a lane's index, or this for the heap.
const HEAP: usize = MAX_LANES;

/// The least pending key, the source holding it, and the least key over
/// every other source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Front {
    head: Key,
    from: usize,
    runner_up: Key,
}

impl Front {
    const EMPTY: Front = Front {
        head: Key::NONE,
        from: HEAP,
        runner_up: Key::NONE,
    };

    /// Takes in `key`, just filed in source `from`. Taking in each
    /// source's least key in turn builds the front from [`Front::EMPTY`].
    #[inline]
    fn note(&mut self, key: Key, from: usize) {
        if key < self.head {
            // The old head stays the least of the other sources, unless
            // it waits in the same one.
            if from != self.from {
                self.runner_up = self.head;
            }
            self.head = key;
            self.from = from;
        } else if from != self.from && key < self.runner_up {
            self.runner_up = key;
        }
    }
}

/// A façade bundling the current simulation time with the future-event list.
///
/// `Schedule` enforces the fundamental discrete-event invariant: time never
/// moves backwards, and events cannot be scheduled in the past. Under
/// [`QueueKind::Bucket`] an [`Schedule::after`] event joins the FIFO lane
/// of its delay: `now` and the sequence counter only grow, so each lane is
/// sorted by `(time, seq)` as it is filled, and popping the least of the
/// lane heads and the heap head pops exactly what the heap alone would.
///
/// The schedule keeps its head: the least pending key with the source
/// (the heap or a lane) that holds it, and the runner-up, the least key
/// over every other source. Filing an event updates both with one
/// comparison, [`Schedule::peek_time`] reads a field, and a pop compares
/// the popped source's new front with the runner-up. Only when the head
/// moves to another source — a few times per instant in the engine — does
/// a pop scan the heap and every lane.
#[derive(Debug, Clone)]
pub struct Schedule<E> {
    now: Time,
    queue: EventQueue<E>,
    kind: QueueKind,
    /// The first `open` are in use, each for its own delay.
    lanes: [Lane<E>; MAX_LANES],
    open: usize,
    front: Front,
    /// The key of the last pop, for the order assertion.
    #[cfg(debug_assertions)]
    last_pop: Option<Key>,
}

impl<E> Default for Schedule<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Schedule<E> {
    /// Creates an empty schedule with the clock at time zero, backed by
    /// the heap alone.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Heap)
    }

    /// Creates an empty schedule of the chosen kind; [`QueueKind::Bucket`]
    /// is the fast choice for simulations whose events mostly follow a few
    /// fixed delays.
    pub fn with_kind(kind: QueueKind) -> Self {
        Self::restore_empty(kind, Time::ZERO, 0)
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        let lanes: usize = self.lanes[..self.open].iter().map(|l| l.events.len()).sum();
        self.queue.len() + lanes
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Makes room for `additional` more events in the heap: the events
    /// [`Schedule::at`] files, such as a stream's message starts.
    pub fn reserve(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn after(&mut self, delay: Duration, event: E) {
        let s = ScheduledEvent {
            time: self.now + delay,
            seq: self.queue.take_seq(),
            event,
        };
        let from = self.lane(delay);
        self.file(s, from);
    }

    /// The lane for `delay`, opened on first use while there is room;
    /// [`HEAP`] sends the event to the heap.
    #[inline]
    fn lane(&mut self, delay: Duration) -> usize {
        match self.lanes[..self.open]
            .iter()
            .position(|l| l.delay == delay)
        {
            Some(i) => i,
            None if self.kind == QueueKind::Bucket && self.open < MAX_LANES => {
                // A lane carries a hot event kind: skip its first doublings.
                self.lanes[self.open] = Lane {
                    delay,
                    events: VecDeque::with_capacity(16),
                };
                self.open += 1;
                self.open - 1
            }
            None => HEAP,
        }
    }

    /// Files `s` in lane `from` (or the heap) and keeps the front.
    #[inline]
    fn file(&mut self, s: ScheduledEvent<E>, from: usize) {
        let key = Key::of(&s);
        if from == HEAP {
            self.queue.push(s);
        } else {
            let events = &mut self.lanes[from].events;
            debug_assert!(events.back().is_none_or(|b| Key::of(b) < key));
            events.push_back(s);
        }
        self.front.note(key, from);
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
        self.file_at(at, event);
    }

    /// Schedules `event` at the absolute instant `at`, clamped to the
    /// current time: an instant already in the past becomes "now". This is
    /// the right call for externally supplied schedules (e.g. a fault
    /// timeline installed while a simulation is running) where a stale
    /// timestamp should mean "immediately", not a crash.
    pub fn at_or_now(&mut self, at: Time, event: E) {
        self.file_at(at.max(self.now), event);
    }

    /// Files `event` at `at` in the heap under the next sequence number.
    fn file_at(&mut self, at: Time, event: E) {
        let s = ScheduledEvent {
            time: at,
            seq: self.queue.take_seq(),
            event,
        };
        self.file(s, HEAP);
    }

    /// The front by a scan of the heap and every lane.
    fn scan(&self) -> Front {
        let mut front = Front::EMPTY;
        if let Some(s) = self.queue.peek() {
            front.note(Key::of(s), HEAP);
        }
        for (i, lane) in self.lanes[..self.open].iter().enumerate() {
            if let Some(s) = lane.events.front() {
                front.note(Key::of(s), i);
            }
        }
        front
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Returns `None` when the event list is exhausted.
    ///
    /// Named `next` deliberately (the discrete-event idiom); `Schedule` is
    /// not an `Iterator` because firing an event mutates the clock.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(Time, E)> {
        if self.front.head == Key::NONE {
            return None;
        }
        let from = self.front.from;
        let (s, next) = if from == HEAP {
            let s = self.queue.pop_scheduled()?;
            (s, self.queue.peek())
        } else {
            let events = &mut self.lanes[from].events;
            (events.pop_front()?, events.front())
        };
        let next = next.map_or(Key::NONE, Key::of);
        if next < self.front.runner_up {
            // The popped source still holds the least key.
            self.front.head = next;
        } else {
            self.front = self.scan();
        }
        debug_assert_eq!(self.front, self.scan(), "cached front out of step");
        debug_assert!(
            s.time >= self.now,
            "event queue yielded an event from the past"
        );
        // Pop order is `(time, seq)` order, so one instant pops in
        // scheduling order.
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_pop.is_none_or(|k| k < Key::of(&s)),
                "event {} at {} popped after {:?}",
                s.seq,
                s.time,
                self.last_pop
            );
            self.last_pop = Some(Key::of(&s));
        }
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Peeks at the timestamp of the next pending event without firing it.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        (self.front.head != Key::NONE).then(|| self.front.head.time())
    }

    /// Total number of events ever scheduled (monotone counter; useful for
    /// progress/watchdog diagnostics).
    pub fn scheduled_count(&self) -> u64 {
        self.queue.scheduled_count()
    }

    /// Which queue arrangement backs this schedule.
    pub fn queue_kind(&self) -> QueueKind {
        self.kind
    }

    /// Fills `out` with every pending event, sorted by sequence number —
    /// the canonical order, the same under either kind. Together with
    /// [`Schedule::now`] and [`Schedule::scheduled_count`] this is the
    /// schedule's complete observable state. `out`'s capacity is reused.
    pub fn pending_by_seq(&self, out: &mut Vec<ScheduledEvent<E>>)
    where
        E: Clone,
    {
        out.clear();
        out.reserve(self.len());
        out.extend(self.queue.iter().cloned());
        for lane in &self.lanes[..self.open] {
            out.extend(lane.events.iter().cloned());
        }
        out.sort_unstable_by_key(|s| s.seq);
    }

    /// An empty schedule primed for restore: clock at `now`, sequence
    /// counter at `next_seq`, ready for [`Schedule::insert_restored`].
    pub fn restore_empty(kind: QueueKind, now: Time, next_seq: u64) -> Self {
        Self {
            now,
            queue: EventQueue::with_next_seq(next_seq),
            kind,
            lanes: std::array::from_fn(|_| Lane {
                delay: Duration::ZERO,
                events: VecDeque::new(),
            }),
            open: 0,
            front: Front::EMPTY,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Re-files a pending event under its original sequence number, in any
    /// order, preserving exact pop order. Restored events wait in the
    /// heap; only what is scheduled afterwards fills lanes. `seq` must be
    /// below the counter the schedule was primed with.
    pub fn insert_restored(&mut self, at: Time, seq: u64, event: E) {
        debug_assert!(at >= self.now, "restored event in the past");
        let s = ScheduledEvent {
            time: at,
            seq,
            event,
        };
        self.file(s, HEAP);
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

    #[test]
    fn dense_simulation_like_stream_stays_sorted() {
        // Mimic the engine: pop one, schedule a few at +10/+40/+10_000,
        // and the odd one past the lane cap.
        let mut s = Schedule::with_kind(QueueKind::Bucket);
        s.at(Time::ZERO, 0u64);
        let mut id = 1u64;
        let mut popped = Vec::new();
        while let Some((t, e)) = s.next() {
            popped.push((t.as_ns(), e));
            if id < 300 {
                for d in [10, 40, 10_000, 10 + id % 7] {
                    s.after(Duration::from_ns(d), id);
                    id += 1;
                }
            }
        }
        assert_eq!(s.open, MAX_LANES, "the stream opened every lane");
        // Ids were handed out in scheduling order: FIFO among equal times.
        let mut expect = popped.clone();
        expect.sort_unstable();
        assert_eq!(popped, expect);
        assert_eq!(popped.len() as u64, s.scheduled_count());
    }
}

/// [`QueueKind::Bucket`] on its own: events that only ever travel through
/// lanes, the heap left empty.
#[cfg(test)]
mod bucket {
    mod tests {
        use crate::{Duration, QueueKind, Schedule, Time};

        fn lanes_only<E>() -> Schedule<E> {
            Schedule::with_kind(QueueKind::Bucket)
        }

        #[test]
        fn pops_in_time_order() {
            let mut s = lanes_only();
            for (d, e) in [(50, 'c'), (20, 'a'), (30, 'b')] {
                s.after(Duration::from_ns(d), e);
            }
            assert_eq!((s.open, s.queue.len()), (3, 0));
            assert_eq!(s.next(), Some((Time::from_ns(20), 'a')));
            assert_eq!(s.next(), Some((Time::from_ns(30), 'b')));
            assert_eq!(s.next(), Some((Time::from_ns(50), 'c')));
            assert_eq!(s.next(), None);
        }

        #[test]
        fn equal_timestamps_are_fifo() {
            let mut s = lanes_only();
            for i in 0..1000u32 {
                s.after(Duration::from_ns(7), i);
            }
            assert_eq!((s.open, s.queue.len()), (1, 0));
            for i in 0..1000u32 {
                assert_eq!(s.next(), Some((Time::from_ns(7), i)));
            }
        }

        #[test]
        fn interleaved_schedule_and_pop_keeps_fifo_within_instant() {
            let mut s = lanes_only();
            s.after(Duration::from_ns(10), "x1");
            s.after(Duration::from_ns(10), "x2");
            assert_eq!(s.next().unwrap().1, "x1");
            // Same instant through a second lane: must come after x2.
            s.after(Duration::ZERO, "x3");
            assert_eq!(s.next().unwrap().1, "x2");
            assert_eq!(s.next().unwrap().1, "x3");
            assert_eq!(s.open, 2);
        }

        #[test]
        fn peek_does_not_consume_and_matches_pop() {
            let mut s = lanes_only();
            assert_eq!(s.peek_time(), None);
            s.after(Duration::from_ns(70_000), ());
            s.after(Duration::from_ns(3), ());
            assert_eq!(s.peek_time(), Some(Time::from_ns(3)));
            assert_eq!(s.len(), 2);
            assert_eq!(s.next().unwrap().0, Time::from_ns(3));
            assert_eq!(s.peek_time(), Some(Time::from_ns(70_000)));
            assert_eq!(s.next().unwrap().0, Time::from_ns(70_000));
            assert!(s.is_empty());
        }

        #[test]
        fn scheduled_count_is_monotone_across_clear() {
            let mut s = lanes_only();
            s.after(Duration::ZERO, ());
            s.after(Duration::from_ns(1 << 37), ());
            // A schedule's clear: an empty restore at the same counter.
            let mut s = Schedule::restore_empty(QueueKind::Bucket, s.now(), s.scheduled_count());
            assert!(s.is_empty());
            assert_eq!(s.scheduled_count(), 2);
            s.after(Duration::ZERO, ());
            assert_eq!(s.scheduled_count(), 3);
            assert_eq!(s.next().unwrap().0, Time::ZERO);
        }
    }
}
