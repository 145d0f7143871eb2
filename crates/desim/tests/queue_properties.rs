//! Property tests: the event queue is a stable priority queue — its output
//! equals a stable sort of its input by timestamp, under arbitrary
//! interleavings of schedule and pop operations — and a `Schedule` with
//! constant-delay lanes in front of its heap is observationally identical
//! to one without, through snapshot and restore included. Each kind is
//! also checked against a plain list popped by minimum.

use desim::{Duration, EventQueue, QueueKind, Schedule, ScheduledEvent, Time, MAX_LANES};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Offsets from "now": same-instant bursts, the engine's 10 / 40 ns,
/// near neighbours, and instants far past any horizon. Seven distinct
/// delays, more than a schedule keeps lanes for.
const DELTAS: [u64; 7] = [0, 1, 10, 40, 4_096, 20_000_000, 1 << 37];
const _: () = assert!(DELTAS.len() > MAX_LANES);

/// One scheduling or popping step, applied to every schedule in `both`
/// with payload `id`. Ops 0–2 schedule through `after`, `at` and
/// `at_or_now` (which a past instant clamps to now); the rest pop, and
/// the popped events must agree.
fn step(
    both: &mut [Schedule<usize>; 2],
    (op, delta): (u8, usize),
    id: usize,
) -> Result<(), TestCaseError> {
    let d = DELTAS[delta % DELTAS.len()];
    for s in both.iter_mut() {
        let now = s.now().as_ns();
        match op {
            0 => s.after(Duration::from_ns(d), id),
            1 => s.at(Time::from_ns(now + d), id),
            2 if delta % 2 == 0 => s.at_or_now(Time::from_ns(now.saturating_sub(d)), id),
            2 => s.at_or_now(Time::from_ns(now + d), id),
            _ => {}
        }
    }
    if op > 2 {
        let [heap, lanes] = both;
        prop_assert_eq!(heap.next(), lanes.next(), "pop #{} diverged", id);
    }
    let [heap, lanes] = both;
    prop_assert_eq!(heap.len(), lanes.len());
    prop_assert_eq!(heap.peek_time(), lanes.peek_time());
    prop_assert_eq!(heap.now(), lanes.now());
    Ok(())
}

/// Pops both schedules dry; the tails must agree event for event.
fn drain(both: &mut [Schedule<usize>; 2]) -> Result<(), TestCaseError> {
    loop {
        let [heap, lanes] = both;
        let a = heap.next();
        prop_assert_eq!(&a, &lanes.next(), "drain diverged");
        if a.is_none() {
            return Ok(());
        }
    }
}

fn keys(pending: &[ScheduledEvent<usize>]) -> Vec<(Time, u64, usize)> {
    pending.iter().map(|s| (s.time, s.seq, s.event)).collect()
}

fn pair() -> [Schedule<usize>; 2] {
    [
        Schedule::with_kind(QueueKind::Heap),
        Schedule::with_kind(QueueKind::Bucket),
    ]
}

/// A schedule of `kind` restored from `pending`, filed in an order that
/// `shuffle` scrambles.
fn restore_shuffled(
    kind: QueueKind,
    source: &Schedule<usize>,
    mut pending: Vec<ScheduledEvent<usize>>,
    shuffle: &[u64],
) -> Schedule<usize> {
    let mut restored = Schedule::restore_empty(kind, source.now(), source.scheduled_count());
    pending.sort_by_key(|s| shuffle[s.seq as usize % shuffle.len()] ^ s.seq);
    for s in pending {
        restored.insert_restored(s.time, s.seq, s.event);
    }
    restored
}

/// The reference schedule: every pending `(time, seq, id)` in a plain
/// list, a pop taking the least `(time, seq)`; the clock is the last
/// popped time and the counter numbers every event filed.
#[derive(Debug, Default)]
struct Model {
    pending: Vec<(u64, u64, usize)>,
    now: u64,
    next_seq: u64,
}

impl Model {
    fn file(&mut self, at: u64, id: usize) {
        self.pending.push((at, self.next_seq, id));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, usize)> {
        let (i, _) = self
            .pending
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(t, seq, _))| (t, seq))?;
        let (t, _, id) = self.pending.swap_remove(i);
        self.now = t;
        Some((Time::from_ns(t), id))
    }

    fn peek_time(&self) -> Option<Time> {
        self.pending.iter().map(|&(t, _, _)| Time::from_ns(t)).min()
    }

    /// [`step`] against the model: the same op on the model and on every
    /// schedule, then pop, peek, length and clock compared with it.
    fn step(
        &mut self,
        scheds: &mut [Schedule<usize>; 2],
        (op, delta): (u8, usize),
        id: usize,
    ) -> Result<(), TestCaseError> {
        let d = DELTAS[delta % DELTAS.len()];
        let now = self.now;
        match op {
            // `at_or_now` clamps a past instant to now.
            2 if delta % 2 == 0 => self.file(now, id),
            0..=2 => self.file(now + d, id),
            _ => {}
        }
        let want = if op > 2 { self.pop() } else { None };
        for s in scheds.iter_mut() {
            let kind = s.queue_kind();
            match op {
                0 => s.after(Duration::from_ns(d), id),
                1 => s.at(Time::from_ns(now + d), id),
                2 if delta % 2 == 0 => s.at_or_now(Time::from_ns(now.saturating_sub(d)), id),
                2 => s.at_or_now(Time::from_ns(now + d), id),
                _ => prop_assert_eq!(s.next(), want, "{:?} pop #{}", kind, id),
            }
            prop_assert_eq!(s.len(), self.pending.len(), "{:?} len", kind);
            prop_assert_eq!(s.peek_time(), self.peek_time(), "{:?} peek", kind);
            prop_assert_eq!(s.now().as_ns(), self.now, "{:?} clock", kind);
            prop_assert_eq!(s.scheduled_count(), self.next_seq, "{:?} counter", kind);
        }
        Ok(())
    }
}

proptest! {
    // Cheap cases, and the lane merge has few ways to go wrong that a
    // short operation list reaches: run many.
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn drain_equals_stable_sort(times in prop::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_ns(t), i);
        }
        let drained: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_ns(), e)).collect();
        let mut expect: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t); // stable: ties keep insertion order
        prop_assert_eq!(drained, expect);
    }

    #[test]
    fn interleaved_ops_never_go_backwards(
        ops in prop::collection::vec((any::<bool>(), 0u64..500), 1..300),
    ) {
        // The heap on its own, scheduling anywhere: every pop is the least
        // pending time.
        let mut q = EventQueue::new();
        let mut pending: Vec<u64> = Vec::new();
        for (i, &(is_pop, t)) in ops.iter().enumerate() {
            if is_pop {
                let min = pending.iter().copied().min();
                prop_assert_eq!(q.pop().map(|(pt, _)| pt.as_ns()), min);
                if let Some(m) = min {
                    let at = pending.iter().position(|&p| p == m).unwrap();
                    pending.swap_remove(at);
                }
            } else {
                q.schedule(Time::from_ns(t), i);
                pending.push(t);
            }
        }
    }

    #[test]
    fn bucket_queue_matches_heap_queue_pop_for_pop(
        before in prop::collection::vec((0u8..6, 0usize..DELTAS.len()), 1..400),
        shuffle in prop::collection::vec(any::<u64>(), 1..64),
        after in prop::collection::vec((0u8..6, 0usize..DELTAS.len()), 0..200),
    ) {
        let mut both = pair();
        for (id, &op) in before.iter().enumerate() {
            step(&mut both, op, id)?;
        }
        // Mid-stream snapshot: both kinds hold the same pending set, in the
        // same canonical order.
        let [heap, lanes] = both;
        let (mut on_heap, mut pending) = (Vec::new(), Vec::new());
        heap.pending_by_seq(&mut on_heap);
        lanes.pending_by_seq(&mut pending);
        prop_assert_eq!(keys(&on_heap), keys(&pending));
        // Restore the lanes' side in a scrambled order and keep going
        // against the heap that never stopped: lanes refill beside the
        // restored events.
        let restored = restore_shuffled(QueueKind::Bucket, &lanes, pending, &shuffle);
        let mut both = [heap, restored];
        for (i, &op) in after.iter().enumerate() {
            step(&mut both, op, before.len() + i)?;
        }
        drain(&mut both)?;
    }

    #[test]
    fn wheel_restored_in_shuffled_order_matches_heap(
        ops in prop::collection::vec((0u8..6, 0usize..DELTAS.len()), 1..300),
        shuffle in prop::collection::vec(any::<u64>(), 300),
        after in prop::collection::vec((0u8..6, 0usize..DELTAS.len()), 0..100),
    ) {
        // The one path that files events out of sequence order: a pending
        // set restored in arbitrary order. A history that never had lanes,
        // restored into a `Bucket` schedule, must pop in `(time, seq)`
        // order, and keep doing so as lanes open beside the restored events.
        let mut both = [Schedule::with_kind(QueueKind::Heap), Schedule::with_kind(QueueKind::Heap)];
        for (id, &op) in ops.iter().enumerate() {
            step(&mut both, op, id)?;
        }
        let [heap, source] = both;
        let mut pending = Vec::new();
        source.pending_by_seq(&mut pending);
        let restored = restore_shuffled(QueueKind::Bucket, &source, pending, &shuffle);
        prop_assert_eq!(restored.len(), heap.len());
        let mut both = [heap, restored];
        for (i, &op) in after.iter().enumerate() {
            step(&mut both, op, ops.len() + i)?;
        }
        drain(&mut both)?;
    }

    #[test]
    fn bucket_queue_same_instant_bursts_stay_fifo(
        bursts in prop::collection::vec((0usize..DELTAS.len(), 1usize..20), 1..50),
    ) {
        // Bursts of `after` (one delay, one lane) and `at` (the heap) at
        // the same instants, popped about half-way after each: FIFO within
        // each instant must hold across the lane and the heap alike.
        let mut both = pair();
        let mut id = 0;
        for &(delta, burst) in &bursts {
            for _ in 0..burst {
                step(&mut both, (if id % 3 == 0 { 1 } else { 0 }, delta), id)?;
                id += 1;
            }
            for _ in 0..burst / 2 {
                step(&mut both, (5, 0), id)?;
            }
        }
        drain(&mut both)?;
    }

    #[test]
    fn both_kinds_match_a_sorted_list_model(
        before in prop::collection::vec((0u8..6, 0usize..DELTAS.len()), 1..300),
        shuffle in prop::collection::vec(any::<u64>(), 1..64),
        after in prop::collection::vec((0u8..6, 0usize..DELTAS.len()), 0..200),
    ) {
        // Both kinds share the cached head and runner-up, so comparing
        // them with each other cannot see a bug there: compare each with
        // a list popped by minimum, through a mid-stream restore that
        // files the pending set in a scrambled order.
        let mut model = Model::default();
        let mut both = pair();
        for (id, &op) in before.iter().enumerate() {
            model.step(&mut both, op, id)?;
        }
        let mut want: Vec<_> = model.pending.clone();
        want.sort_unstable_by_key(|&(_, seq, _)| seq);
        let both = both.map(|s| {
            let mut pending = Vec::new();
            s.pending_by_seq(&mut pending);
            let got: Vec<_> = pending.iter().map(|p| (p.time.as_ns(), p.seq, p.event)).collect();
            (restore_shuffled(s.queue_kind(), &s, pending, &shuffle), got)
        });
        let [(heap, on_heap), (lanes, on_lanes)] = both;
        prop_assert_eq!(&on_heap, &want);
        prop_assert_eq!(&on_lanes, &want);
        let mut both = [heap, lanes];
        for (i, &op) in after.iter().enumerate() {
            model.step(&mut both, op, before.len() + i)?;
        }
        while !model.pending.is_empty() {
            model.step(&mut both, (5, 0), usize::MAX)?;
        }
        for s in &mut both {
            prop_assert_eq!(s.next(), None);
        }
    }

    #[test]
    fn schedule_clock_matches_event_times(
        delays in prop::collection::vec(1u64..100, 1..100),
    ) {
        let mut s: Schedule<usize> = Schedule::new();
        // Chain: each event schedules nothing, but we feed them up front
        // with increasing absolute times.
        let mut t = Time::ZERO;
        for (i, &d) in delays.iter().enumerate() {
            t += Duration::from_ns(d);
            s.at(t, i);
        }
        let mut prev = Time::ZERO;
        let mut count = 0;
        while let Some((at, _)) = s.next() {
            prop_assert!(at >= prev);
            prop_assert_eq!(s.now(), at);
            prev = at;
            count += 1;
        }
        prop_assert_eq!(count, delays.len());
    }
}
