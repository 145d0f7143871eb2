//! Property tests: the event queue is a stable priority queue — its output
//! equals a stable sort of its input by timestamp, under arbitrary
//! interleavings of schedule and pop operations — and the bucketed
//! timing-wheel implementation is observationally identical to the
//! reference binary heap on every schedule a `Schedule` can express.

use desim::{Duration, EventQueue, QueueKind, Schedule, Time, WHEEL_SPAN_NS};
use proptest::prelude::*;

/// Deltas spanning every wheel level: same-instant bursts, level-0
/// neighbors, level-1/2 boundaries, a mid-wheel jump, and beyond-the-span
/// overflow territory.
const DELTAS: [u64; 12] = [
    0,
    1,
    10,
    40,
    63,
    64,
    100,
    4_095,
    4_096,
    100_000,
    20_000_000,
    1 << 37,
];

proptest! {
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
        let mut q = EventQueue::new();
        let mut last_popped: Option<u64> = None;
        let mut pending_min: Option<u64> = None;
        for (i, &(is_pop, t)) in ops.iter().enumerate() {
            if is_pop {
                if let Some((pt, _)) = q.pop() {
                    // Popped time can never precede an earlier pop *unless*
                    // a later schedule legitimately inserted an earlier
                    // event; the queue invariant we can always check is
                    // that the popped element is the minimum pending.
                    if let Some(pm) = pending_min {
                        prop_assert!(pt.as_ns() <= pm || pm == u64::MAX);
                    }
                    last_popped = Some(pt.as_ns());
                    pending_min = None; // recomputed lazily below
                }
            } else {
                q.schedule(Time::from_ns(t), i);
                pending_min = Some(pending_min.map_or(t, |m| m.min(t)));
            }
        }
        let _ = last_popped;
    }

    #[test]
    fn bucket_queue_matches_heap_queue_pop_for_pop(
        ops in prop::collection::vec((any::<bool>(), 0usize..DELTAS.len()), 1..400),
    ) {
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut wheel = EventQueue::with_kind(QueueKind::Bucket);
        // The discrete-event clock invariant both queues run under: never
        // schedule before the last popped instant.
        let mut floor = 0u64;
        for (i, &(is_pop, delta_idx)) in ops.iter().enumerate() {
            if is_pop {
                let a = heap.pop();
                let b = wheel.pop();
                prop_assert_eq!(&a, &b, "pop #{} diverged", i);
                if let Some((t, _)) = a {
                    floor = t.as_ns();
                }
            } else {
                let t = Time::from_ns(floor + DELTAS[delta_idx % DELTAS.len()]);
                heap.schedule(t, i);
                wheel.schedule(t, i);
            }
            prop_assert_eq!(heap.len(), wheel.len());
            prop_assert_eq!(heap.peek_time(), wheel.peek_time());
        }
        // Drain whatever is left: the tails must agree event for event.
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            prop_assert_eq!(&a, &b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn bucket_queue_same_instant_bursts_stay_fifo(
        bursts in prop::collection::vec((0usize..DELTAS.len(), 1usize..20), 1..50),
    ) {
        // Schedule bursts at increasing instants, interleaving pops, and
        // check FIFO order within each instant against the heap.
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut wheel = EventQueue::with_kind(QueueKind::Bucket);
        let mut t = 0u64;
        let mut payload = 0u64;
        for &(delta_idx, burst) in &bursts {
            t += DELTAS[delta_idx % DELTAS.len()];
            for _ in 0..burst {
                heap.schedule(Time::from_ns(t), payload);
                wheel.schedule(Time::from_ns(t), payload);
                payload += 1;
            }
            // Pop roughly half after each burst to interleave.
            for _ in 0..burst / 2 {
                prop_assert_eq!(heap.pop(), wheel.pop());
            }
            if let Some(pt) = heap.peek_time() {
                t = t.max(pt.as_ns());
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_overflow_list_matches_heap(
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..4, 0u64..200), 1..300,
        ),
    ) {
        // Events landing past the wheel's span (~68.7 s of simulated
        // time) park on an overflow list and re-ingest as the wheel
        // advances. Keep a standing population of far-future events —
        // 0, 1, 2, or 3 whole spans out, plus near-instant jitter — and
        // interleave pops, so draining constantly migrates events from
        // the overflow list back into live slots. The heap has no such
        // list; any divergence is an overflow-path bug.
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut wheel = EventQueue::with_kind(QueueKind::Bucket);
        let mut floor = 0u64;
        for (i, &(is_pop, spans, jitter)) in ops.iter().enumerate() {
            if is_pop {
                let a = heap.pop();
                let b = wheel.pop();
                prop_assert_eq!(&a, &b, "pop #{} diverged", i);
                if let Some((t, _)) = a {
                    floor = t.as_ns();
                }
            } else {
                let t = Time::from_ns(floor + spans * WHEEL_SPAN_NS + jitter);
                heap.schedule(t, i);
                wheel.schedule(t, i);
            }
            prop_assert_eq!(heap.peek_time(), wheel.peek_time());
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            prop_assert_eq!(&a, &b, "overflow drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn storm_burst_boundaries_stay_fifo_across_the_span(
        windows in prop::collection::vec(
            (0u64..3, 1usize..12, 1usize..12), 1..30,
        ),
    ) {
        // A fault-storm schedule in miniature: at each window boundary a
        // burst of same-instant teardown events lands together with a
        // burst one wheel-span later (the relabel/horizon tail). FIFO
        // order within each instant and heap/wheel agreement must both
        // survive the boundary straddling the overflow list — the exact
        // shape a storm spec with a long horizon produces.
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut wheel = EventQueue::with_kind(QueueKind::Bucket);
        let mut t = 0u64;
        let mut payload = 0u64;
        for &(gap_spans, burst_now, burst_far) in &windows {
            // Window boundary: just before, at, and just after a span
            // multiple — the three instants a storm's `window_end` can
            // land relative to the wheel horizon.
            t += gap_spans * WHEEL_SPAN_NS + (WHEEL_SPAN_NS / 2);
            for instant in [t.saturating_sub(1), t, t + 1] {
                for _ in 0..burst_now {
                    heap.schedule(Time::from_ns(instant), payload);
                    wheel.schedule(Time::from_ns(instant), payload);
                    payload += 1;
                }
            }
            let far = t + WHEEL_SPAN_NS;
            for _ in 0..burst_far {
                heap.schedule(Time::from_ns(far), payload);
                wheel.schedule(Time::from_ns(far), payload);
                payload += 1;
            }
            // Drain the near bursts; the far burst stays parked.
            for _ in 0..(3 * burst_now) {
                let a = heap.pop();
                let b = wheel.pop();
                prop_assert_eq!(&a, &b, "near-burst pop diverged");
                if let Some((pt, _)) = a {
                    t = t.max(pt.as_ns());
                }
            }
        }
        loop {
            let a = heap.pop();
            let b = wheel.pop();
            prop_assert_eq!(&a, &b, "far-tail drain diverged");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_restored_in_shuffled_order_matches_heap(
        ops in prop::collection::vec((any::<bool>(), 0usize..DELTAS.len()), 1..300),
        shuffle in prop::collection::vec(any::<u64>(), 300),
        after in prop::collection::vec((any::<bool>(), 0usize..DELTAS.len()), 0..100),
    ) {
        // The one path that files events out of sequence order: a pending
        // set restored in arbitrary order (a snapshot walks the wheel's
        // pool, not its chains). Every slot it lands in — any level, or
        // the overflow list — must still pop in `(time, seq)` order, and
        // keep doing so as new events join the restored ones.
        let mut heap = EventQueue::with_kind(QueueKind::Heap);
        let mut floor = 0u64;
        for (i, &(is_pop, delta_idx)) in ops.iter().enumerate() {
            if is_pop {
                if let Some((t, _)) = heap.pop() {
                    floor = t.as_ns();
                }
            } else {
                heap.schedule(Time::from_ns(floor + DELTAS[delta_idx]), i);
            }
        }
        let mut pending = Vec::new();
        heap.snapshot_each(|t, seq, &e| pending.push((t, seq, e)));
        pending.sort_by_key(|&(_, seq, _)| shuffle[seq as usize % shuffle.len()] ^ seq);
        let now = Time::from_ns(floor);
        let mut wheel = EventQueue::restore_empty(QueueKind::Bucket, now, heap.scheduled_count());
        for &(t, seq, e) in &pending {
            wheel.insert_restored(t, seq, e);
        }
        for (i, &(is_pop, delta_idx)) in after.iter().enumerate() {
            if is_pop {
                let a = heap.pop();
                prop_assert_eq!(&a, &wheel.pop(), "pop #{} after restore diverged", i);
                if let Some((t, _)) = a {
                    floor = t.as_ns();
                }
            } else {
                let t = Time::from_ns(floor + DELTAS[delta_idx]);
                heap.schedule(t, ops.len() + i);
                wheel.schedule(t, ops.len() + i);
            }
            prop_assert_eq!(heap.peek_time(), wheel.peek_time());
        }
        loop {
            let a = heap.pop();
            prop_assert_eq!(&a, &wheel.pop(), "restored drain diverged");
            if a.is_none() {
                break;
            }
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
