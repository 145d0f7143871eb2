//! A bucketed (hierarchical timing-wheel) future-event list keyed on the
//! integer nanosecond clock.
//!
//! The discrete-event loop of a saturating wormhole simulation schedules
//! almost exclusively near-future events (channel propagation 10 ns,
//! router setup 40 ns) and pops them in bursts at identical instants. A
//! comparison-based heap pays `O(log n)` pointer-chasing comparisons per
//! operation; this wheel pays an array index: an event lands in the slot
//! addressed by the bits of its timestamp, and the pop path finds the next
//! occupied slot with one `trailing_zeros` per level.
//!
//! Layout: [`LEVELS`] wheels of 64 slots each. Level `k` slots are
//! `64^k` ns wide, so level 0 resolves exact instants within the current
//! 64 ns window and the wheels together cover ~68 simulated seconds ahead
//! of the clock; anything farther sits in an overflow list that is folded
//! back in when the clock approaches (rare: once per 68 simulated
//! seconds). When a coarse slot comes due, its events *cascade* down into
//! finer wheels — each event cascades at most [`LEVELS`] times.
//!
//! Storage is a single entry pool with intrusive singly-linked slot
//! chains and a free list: slots hold `u32` chain heads, cascading relinks
//! pointers, and a popped entry's pool cell is recycled. The pool grows to
//! the maximum number of outstanding events and is then never touched by
//! the allocator again — the queue performs **zero heap allocations at
//! steady state**, which the workspace pins with a counting-allocator
//! test.
//!
//! Determinism contract (same as the heap queue): pops are globally
//! ordered by `(time, scheduling sequence)`, so same-instant events come
//! out FIFO. A level-0 slot holds exactly one instant, so it is enough
//! that every slot chain stays in sequence order, and it does without a
//! sort: a direct schedule appends the highest sequence number yet, and a
//! cascade (or an overflow refill) only ever fills levels that are empty,
//! in the order of the chain it takes apart. Only
//! [`BucketQueue::insert_restored`] files events out of order; it marks
//! the slot it lands in, and a marked slot is re-sorted by sequence number
//! the first time it is popped or cascaded.
//!
//! One restriction the heap does not have: events must not be scheduled
//! before the last popped timestamp (`debug_assert`ed). The [`Schedule`]
//! facade already enforces exactly this clock invariant, and discrete-event
//! simulation is the only client.
//!
//! [`Schedule`]: crate::Schedule

use crate::time::Time;

/// A constant-time snapshot of where a [`BucketQueue`]'s pending events
/// sit: occupied slots per wheel level, overflow-list length, and the
/// total pending count. Heap-backed queues report the total only (their
/// levels are all zero) — see [`crate::EventQueue::occupancy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueOccupancy {
    /// Occupied (non-empty) slots per wheel level, finest first.
    pub levels: [u32; WHEEL_LEVELS],
    /// Events parked beyond the wheels' span.
    pub overflow: usize,
    /// Total pending events.
    pub len: usize,
}

/// Number of wheel levels.
const LEVELS: usize = 6;
/// log2(slots per level).
const BITS: u32 = 6;
/// Horizon of the wheel proper: an event scheduled at or beyond
/// `now + WHEEL_SPAN_NS` (more precisely, whose timestamp differs from the
/// clock above bit `LEVELS * BITS`) lands on the overflow list instead of
/// a slot. Exported so clients (the wormhole engine's coverage signals,
/// overflow-targeting tests) can reason about the boundary without
/// duplicating the wheel geometry.
pub const WHEEL_SPAN_NS: u64 = 1 << (LEVELS as u32 * BITS);
/// Number of wheel levels, exported for occupancy-snapshot consumers
/// (telemetry wants one gauge per level without guessing the geometry).
pub const WHEEL_LEVELS: usize = LEVELS;
/// Slots per level.
const SLOTS: usize = 1 << BITS;
/// Slot-index mask.
const MASK: u64 = (SLOTS - 1) as u64;
/// Null link in the intrusive chains.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct PoolEntry<E> {
    when: u64,
    seq: u64,
    next: u32,
    /// `None` while the cell sits on the free list.
    val: Option<E>,
}

#[derive(Debug, Clone)]
struct Level {
    /// Bit `s` set ⇔ slot `s` non-empty.
    occupied: u64,
    /// Chain head per slot (pool index or [`NIL`]).
    head: [u32; SLOTS],
    /// Chain tail per slot, for O(1) FIFO append.
    tail: [u32; SLOTS],
}

impl Level {
    fn new() -> Self {
        Level {
            occupied: 0,
            head: [NIL; SLOTS],
            tail: [NIL; SLOTS],
        }
    }
}

/// A deterministic bucketed event queue. See the module docs; the API
/// mirrors [`crate::EventQueue`]'s heap implementation.
#[derive(Debug, Clone)]
pub struct BucketQueue<E> {
    levels: [Level; LEVELS],
    pool: Vec<PoolEntry<E>>,
    /// Free-list head into `pool`.
    free: u32,
    /// Pool indices of events beyond the wheels' span, in sequence order;
    /// folded back in on demand.
    overflow: Vec<u32>,
    /// Per level, the slots a restored event landed in out of sequence
    /// order since their last sort.
    unsorted: [u64; LEVELS],
    /// Scratch for sorting a slot (capacity retained).
    sort_scratch: Vec<(u64, u32)>,
    /// Monotone lower bound on every pending event (the last popped time).
    floor: u64,
    /// `(time, sequence)` of the last pop, for the order assertion.
    last_pop: Option<(u64, u64)>,
    next_seq: u64,
    len: usize,
}

/// The wheel level an event `when` belongs to, given the current floor:
/// the highest 6-bit digit in which `when` and `floor` differ.
/// `>= LEVELS` means "beyond the wheels, use the overflow list".
#[inline]
fn level_for(floor: u64, when: u64) -> usize {
    let masked = when ^ floor;
    if masked < SLOTS as u64 {
        0
    } else {
        ((63 - masked.leading_zeros()) / BITS) as usize
    }
}

impl<E> BucketQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BucketQueue {
            levels: std::array::from_fn(|_| Level::new()),
            pool: Vec::new(),
            free: NIL,
            overflow: Vec::new(),
            unsorted: [0; LEVELS],
            sort_scratch: Vec::new(),
            floor: 0,
            last_pop: None,
            next_seq: 0,
            len: 0,
        }
    }

    /// Takes a pool cell for `(when, seq, event)` off the free list (or
    /// grows the pool) and returns its index.
    fn alloc_cell(&mut self, when: u64, seq: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let cell = &mut self.pool[idx as usize];
            self.free = cell.next;
            cell.when = when;
            cell.seq = seq;
            cell.next = NIL;
            debug_assert!(cell.val.is_none());
            cell.val = Some(event);
            idx
        } else {
            // Cell links are `u32`: four billion events pending at once
            // is past any memory this simulator is given, so a longer pool
            // is a bug to stop on, not a condition to report.
            #[allow(clippy::expect_used)]
            let idx = u32::try_from(self.pool.len()).expect("pool capped at u32 cells");
            self.pool.push(PoolEntry {
                when,
                seq,
                next: NIL,
                val: Some(event),
            });
            idx
        }
    }

    /// Returns a popped cell to the free list and hands out its key and
    /// payload.
    fn free_cell(&mut self, idx: u32) -> (u64, u64, E) {
        let cell = &mut self.pool[idx as usize];
        let (when, seq) = (cell.when, cell.seq);
        // Only indices taken off a slot chain or the overflow list get
        // here, and a cell on either holds its event until this call.
        #[allow(clippy::expect_used)]
        let val = cell.val.take().expect("freeing a live cell");
        cell.next = self.free;
        self.free = idx;
        (when, seq, val)
    }

    /// Schedules `event` at absolute `time`.
    ///
    /// Must not be earlier than the last popped timestamp (the
    /// discrete-event clock invariant; `debug_assert`ed).
    pub fn schedule(&mut self, time: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let idx = self.alloc_cell(time.as_ns(), seq, event);
        self.link(idx);
    }

    /// Files pool cell `idx` behind everything already in the wheel slot
    /// (or on the overflow list) for its `when`. Returns the level and
    /// slot it landed in, or `None` for the overflow list.
    #[inline]
    fn link(&mut self, idx: u32) -> Option<(usize, usize)> {
        let when = self.pool[idx as usize].when;
        debug_assert!(
            when >= self.floor,
            "event at {when} scheduled before the queue floor {}",
            self.floor
        );
        let lvl = level_for(self.floor, when);
        if lvl >= LEVELS {
            self.overflow.push(idx);
            return None;
        }
        let slot = ((when >> (BITS * lvl as u32)) & MASK) as usize;
        self.pool[idx as usize].next = NIL;
        let level = &mut self.levels[lvl];
        if level.head[slot] == NIL {
            level.head[slot] = idx;
        } else {
            self.pool[level.tail[slot] as usize].next = idx;
        }
        level.tail[slot] = idx;
        level.occupied |= 1 << slot;
        Some((lvl, slot))
    }

    /// Removes and returns the earliest event, FIFO among equal
    /// timestamps.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Fast path: an exact-instant slot in the current 64 ns window.
            if self.levels[0].occupied != 0 {
                let slot = self.levels[0].occupied.trailing_zeros() as usize;
                if self.unsorted[0] & (1 << slot) != 0 {
                    self.sort_slot(0, slot);
                }
                let idx = self.levels[0].head[slot];
                let next = self.pool[idx as usize].next;
                self.levels[0].head[slot] = next;
                if next == NIL {
                    self.levels[0].tail[slot] = NIL;
                    self.levels[0].occupied &= !(1 << slot);
                }
                let (when, seq, e) = self.free_cell(idx);
                debug_assert!(when >= self.floor);
                // The invariant the module docs derive: a slot chain is in
                // sequence order, so one instant pops in scheduling order.
                debug_assert!(
                    self.last_pop.is_none_or(|(t, s)| t < when || s < seq),
                    "event {seq} at {when} popped after {:?}",
                    self.last_pop
                );
                self.last_pop = Some((when, seq));
                self.floor = when;
                self.len -= 1;
                return Some((Time::from_ns(when), e));
            }
            if self.cascade_lowest() {
                continue;
            }
            self.refill_from_overflow();
        }
    }

    /// Re-sorts a slot chain by sequence number (stable FIFO order), using
    /// the retained scratch buffer.
    fn sort_slot(&mut self, lvl: usize, slot: usize) {
        let mut scratch = std::mem::take(&mut self.sort_scratch);
        scratch.clear();
        let level = &mut self.levels[lvl];
        let mut cur = level.head[slot];
        while cur != NIL {
            let cell = &self.pool[cur as usize];
            scratch.push((cell.seq, cur));
            cur = cell.next;
        }
        scratch.sort_unstable();
        let mut head = NIL;
        let mut tail = NIL;
        for &(_, idx) in &scratch {
            if head == NIL {
                head = idx;
            } else {
                self.pool[tail as usize].next = idx;
            }
            tail = idx;
        }
        if tail != NIL {
            self.pool[tail as usize].next = NIL;
        }
        level.head[slot] = head;
        level.tail[slot] = tail;
        self.unsorted[lvl] &= !(1 << slot);
        self.sort_scratch = scratch;
    }

    /// Finds the lowest occupied coarse level, advances the floor to that
    /// slot's window, and redistributes its events into finer wheels.
    /// Returns false when all wheels are empty.
    fn cascade_lowest(&mut self) -> bool {
        for lvl in 1..LEVELS {
            if self.levels[lvl].occupied == 0 {
                continue;
            }
            let slot = self.levels[lvl].occupied.trailing_zeros() as usize;
            if self.unsorted[lvl] & (1 << slot) != 0 {
                self.sort_slot(lvl, slot);
            }
            let width_bits = BITS * lvl as u32;
            // The absolute start of this slot's window under the current
            // floor's higher digits (no wrap: pending slots are never
            // below the floor's own index at their level).
            let slot_start =
                (self.floor & !((1u64 << (width_bits + BITS)) - 1)) | ((slot as u64) << width_bits);
            self.floor = self.floor.max(slot_start);
            let mut chain = self.levels[lvl].head[slot];
            self.levels[lvl].head[slot] = NIL;
            self.levels[lvl].tail[slot] = NIL;
            self.levels[lvl].occupied &= !(1 << slot);
            while chain != NIL {
                let next = self.pool[chain as usize].next;
                // Against the advanced floor every entry lands strictly
                // below `lvl`, so cascading terminates; every level below
                // `lvl` is empty, so each slot it fills gets a subsequence
                // of this (sorted) chain.
                debug_assert!(level_for(self.floor, self.pool[chain as usize].when) < lvl);
                self.link(chain);
                chain = next;
            }
            return true;
        }
        false
    }

    /// All wheels empty: jump the floor to the earliest overflow event and
    /// fold every overflow entry within the wheels' new span back in
    /// (stable, so same-instant overflow events stay in sequence order).
    fn refill_from_overflow(&mut self) {
        debug_assert!(!self.overflow.is_empty(), "len > 0 but nothing pending");
        // `pop` only gets here with events pending and every wheel empty,
        // so they are all on the overflow list; returning quietly instead
        // would spin its loop.
        #[allow(clippy::expect_used)]
        let min_when = self
            .overflow
            .iter()
            .map(|&i| self.pool[i as usize].when)
            .min()
            .expect("overflow non-empty");
        debug_assert!(min_when >= self.floor);
        self.floor = min_when;
        // Stable in-place partition: fold near entries into the wheels,
        // compact the rest (no allocation).
        let mut kept = 0;
        for i in 0..self.overflow.len() {
            let idx = self.overflow[i];
            if level_for(self.floor, self.pool[idx as usize].when) >= LEVELS {
                self.overflow[kept] = idx;
                kept += 1;
            } else {
                self.link(idx);
            }
        }
        self.overflow.truncate(kept);
    }

    /// Timestamp of the earliest pending event, if any (non-destructive:
    /// coarse wheels are scanned, not cascaded).
    pub fn peek_time(&self) -> Option<Time> {
        if self.len == 0 {
            return None;
        }
        if self.levels[0].occupied != 0 {
            let slot = self.levels[0].occupied.trailing_zeros() as u64;
            return Some(Time::from_ns((self.floor & !MASK) | slot));
        }
        for lvl in 1..LEVELS {
            if self.levels[lvl].occupied == 0 {
                continue;
            }
            let slot = self.levels[lvl].occupied.trailing_zeros() as usize;
            let mut cur = self.levels[lvl].head[slot];
            let mut min = u64::MAX;
            while cur != NIL {
                let cell = &self.pool[cur as usize];
                min = min.min(cell.when);
                cur = cell.next;
            }
            return Some(Time::from_ns(min));
        }
        self.overflow
            .iter()
            .map(|&i| self.pool[i as usize].when)
            .min()
            .map(Time::from_ns)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Occupancy snapshot: the number of *occupied slots* per wheel level
    /// plus the overflow-list length. Constant time (one `count_ones` per
    /// level, no chain walks), so telemetry can sample it densely.
    pub fn occupancy(&self) -> QueueOccupancy {
        let mut levels = [0u32; LEVELS];
        for (k, level) in self.levels.iter().enumerate() {
            levels[k] = level.occupied.count_ones();
        }
        QueueOccupancy {
            levels,
            overflow: self.overflow.len(),
            len: self.len,
        }
    }

    /// Visits every pending event with its `(when, seq)` key, in pool
    /// order (arbitrary). Non-destructive: used by the snapshot layer,
    /// which re-sorts by `seq` — pop order is a pure function of
    /// `(time, seq)`, so the wheel's internal arrangement need not be
    /// serialized.
    pub fn snapshot_each(&self, mut f: impl FnMut(u64, u64, &E)) {
        for cell in &self.pool {
            if let Some(v) = &cell.val {
                f(cell.when, cell.seq, v);
            }
        }
    }

    /// The monotone floor (last popped timestamp).
    pub fn floor_ns(&self) -> u64 {
        self.floor
    }

    /// An empty queue whose floor and sequence counter are pre-set, ready
    /// to receive [`BucketQueue::insert_restored`] events.
    pub fn restore_empty(floor: u64, next_seq: u64) -> Self {
        let mut q = Self::new();
        q.floor = floor;
        q.next_seq = next_seq;
        q
    }

    /// Re-files an event captured by [`BucketQueue::snapshot_each`] under
    /// its original sequence number, in any order: the slot it lands in is
    /// marked for the lazy sort, and on the overflow list it takes its
    /// place by sequence number.
    pub fn insert_restored(&mut self, when: u64, seq: u64, event: E) {
        debug_assert!(when >= self.floor, "restored event below the floor");
        debug_assert!(seq < self.next_seq, "restored seq beyond the counter");
        self.len += 1;
        let idx = self.alloc_cell(when, seq, event);
        match self.link(idx) {
            Some((lvl, slot)) => self.unsorted[lvl] |= 1 << slot,
            None => {
                // `link` appended it; move it back to its place.
                self.overflow.pop();
                let pool = &self.pool;
                let at = self
                    .overflow
                    .partition_point(|&i| pool[i as usize].seq < seq);
                self.overflow.insert(at, idx);
            }
        }
    }

    /// Drops all pending events (the sequence counter and the clock floor
    /// keep advancing so determinism is preserved across a clear).
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.occupied = 0;
            level.head = [NIL; SLOTS];
            level.tail = [NIL; SLOTS];
        }
        self.pool.clear();
        self.free = NIL;
        self.overflow.clear();
        self.unsorted = [0; LEVELS];
        self.len = 0;
    }
}

impl<E> Default for BucketQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BucketQueue::new();
        q.schedule(Time::from_ns(50), 'c');
        q.schedule(Time::from_ns(20), 'a');
        q.schedule(Time::from_ns(30), 'b');
        assert_eq!(q.pop(), Some((Time::from_ns(20), 'a')));
        assert_eq!(q.pop(), Some((Time::from_ns(30), 'b')));
        assert_eq!(q.pop(), Some((Time::from_ns(50), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_timestamps_are_fifo() {
        let mut q = BucketQueue::new();
        let t = Time::from_ns(7);
        for i in 0..1000u32 {
            q.schedule(t, i);
        }
        for i in 0..1000u32 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_within_instant() {
        let mut q = BucketQueue::new();
        q.schedule(Time::from_ns(10), "x1");
        q.schedule(Time::from_ns(10), "x2");
        assert_eq!(q.pop().unwrap().1, "x1");
        // Scheduling later at the same instant must come after x2.
        q.schedule(Time::from_ns(10), "x3");
        assert_eq!(q.pop().unwrap().1, "x2");
        assert_eq!(q.pop().unwrap().1, "x3");
    }

    #[test]
    fn fifo_survives_a_cascade() {
        let mut q = BucketQueue::new();
        // Scheduled while 5000 is "far" (level >= 1), so it cascades...
        q.schedule(Time::from_ns(5000), "early-seq");
        q.schedule(Time::from_ns(4990), "advance");
        assert_eq!(q.pop().unwrap().1, "advance");
        // ... and this one lands directly in a fine slot first.
        q.schedule(Time::from_ns(5000), "late-seq");
        assert_eq!(q.pop().unwrap().1, "early-seq", "sequence order wins");
        assert_eq!(q.pop().unwrap().1, "late-seq");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_goes_through_overflow_and_back() {
        let mut q = BucketQueue::new();
        let far = 1u64 << 40; // beyond the 2^36 ns wheel span
        q.schedule(Time::from_ns(far + 3), 1);
        q.schedule(Time::from_ns(far), 0);
        q.schedule(Time::from_ns(5), 99);
        assert_eq!(q.pop(), Some((Time::from_ns(5), 99)));
        assert_eq!(q.pop(), Some((Time::from_ns(far), 0)));
        assert_eq!(q.pop(), Some((Time::from_ns(far + 3), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_overflow_events_stay_fifo() {
        let mut q = BucketQueue::new();
        let far = (1u64 << 38) + 123;
        for i in 0..10u32 {
            q.schedule(Time::from_ns(far), i);
        }
        for i in 0..10u32 {
            assert_eq!(q.pop(), Some((Time::from_ns(far), i)));
        }
    }

    #[test]
    fn peek_does_not_consume_and_matches_pop() {
        let mut q = BucketQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from_ns(70_000), ());
        q.schedule(Time::from_ns(3), ());
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().0, Time::from_ns(3));
        assert_eq!(q.peek_time(), Some(Time::from_ns(70_000)));
        assert_eq!(q.pop().unwrap().0, Time::from_ns(70_000));
        assert!(q.is_empty());
    }

    #[test]
    fn scheduled_count_is_monotone_across_clear() {
        let mut q = BucketQueue::new();
        q.schedule(Time::ZERO, ());
        q.schedule(Time::from_ns(1 << 37), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_count(), 2);
        q.schedule(Time::ZERO, ());
        assert_eq!(q.scheduled_count(), 3);
        assert_eq!(q.pop().unwrap().0, Time::ZERO);
    }

    #[test]
    fn pool_cells_are_recycled() {
        let mut q = BucketQueue::new();
        for round in 0..50u64 {
            for i in 0..8u64 {
                q.schedule(Time::from_ns(round * 100 + i), (round, i));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // 8 outstanding at a time -> the pool never grew past 8 cells.
        assert!(q.pool.len() <= 8, "pool grew to {}", q.pool.len());
    }

    #[test]
    fn occupancy_tracks_levels_and_overflow() {
        let mut q = BucketQueue::new();
        assert_eq!(q.occupancy(), QueueOccupancy::default());
        q.schedule(Time::from_ns(1), 'a'); // level 0
        q.schedule(Time::from_ns(2), 'b'); // level 0, distinct slot
        q.schedule(Time::from_ns(5000), 'c'); // coarser level
        q.schedule(Time::from_ns(1 << 40), 'd'); // beyond the span
        let occ = q.occupancy();
        assert_eq!(occ.len, 4);
        assert_eq!(occ.levels[0], 2);
        assert_eq!(occ.levels.iter().sum::<u32>(), 3);
        assert_eq!(occ.overflow, 1);
        while q.pop().is_some() {}
        let drained = q.occupancy();
        assert_eq!(drained.len, 0);
        assert_eq!(drained.overflow, 0);
        assert_eq!(drained.levels, [0; WHEEL_LEVELS]);
    }

    #[test]
    fn dense_simulation_like_stream_stays_sorted() {
        // Mimic the engine: pop one, schedule a few at +10/+40/+10_000.
        let mut q = BucketQueue::new();
        q.schedule(Time::from_ns(0), 0u64);
        let mut seq = 1u64;
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t.as_ns(), id));
            if seq < 300 {
                for d in [10, 40, 10_000] {
                    q.schedule(Time::from_ns(t.as_ns() + d), seq);
                    seq += 1;
                }
            }
        }
        let mut expect = popped.clone();
        expect.sort_by_key(|&(t, _)| t); // stable: FIFO among equal times
        assert_eq!(popped, expect);
        assert_eq!(popped.len() as u64, q.scheduled_count());
    }
}
