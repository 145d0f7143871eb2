//! A generation-indexed slot map.

use std::fmt;

/// Handle to a value stored in a [`Slab`]: a slot index plus the
/// generation the slot had when the value was inserted.
///
/// A `SlotId` held after its value was removed goes *stale*: the slot's
/// generation has moved on, so `get`/`get_mut`/`remove` through the stale
/// id return `None` even if the slot was reused. This is what lets the
/// simulation engine keep cheap copies of segment handles in queues and
/// candidate lists without use-after-free hazards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId {
    idx: u32,
    gen: u32,
}

impl SlotId {
    /// The raw slot index (stable while the id is live; reused after
    /// removal). Exposed for diagnostics only.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }

    /// The generation the slot had when this id was issued.
    #[inline]
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Rebuilds a handle from its raw `(index, generation)` pair, as
    /// produced by [`SlotId::index`]/[`SlotId::generation`]. Intended for
    /// snapshot restore: a raw pair pointing at a slot whose generation
    /// has moved on simply yields a stale (harmless) handle.
    #[inline]
    pub fn from_raw(idx: u32, gen: u32) -> Self {
        SlotId { idx, gen }
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot{}g{}", self.idx, self.gen)
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    entry: Entry<T>,
}

/// What a slot holds: its value, or its two links in the free list.
#[derive(Debug, Clone)]
enum Entry<T> {
    Occupied(T),
    /// `below` is reused after this slot, `above` before it; [`NIL`] past
    /// either end of the list.
    Vacant {
        below: u32,
        above: u32,
    },
}

/// The end of the free list, and the index no slot may take.
const NIL: u32 = u32::MAX;

/// A slab allocator / slot map with generation-checked handles.
///
/// `insert` is O(1) (pop a free slot or push), `remove`/`get`/`get_mut`
/// are an array index plus a generation compare. Freed slots are reused
/// LIFO, so steady-state workloads (the simulator allocates and frees one
/// segment per worm-router traversal) touch a small, cache-hot prefix and
/// never grow the backing storage.
///
/// The free list lives in the vacant slots themselves, linked both ways:
/// popping follows `below` from the top, and [`Slab::free_list`] follows
/// `above` from the bottom. `remove` therefore never allocates, and the
/// slab is one array.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// The free list's ends: `top` is reused next, `bottom` last.
    top: u32,
    bottom: u32,
    len: usize,
}

impl<T> Slab<T> {
    /// Bytes one slot takes in the backing array, live or vacant.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// An empty slab.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty slab with room for `cap` values before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            top: NIL,
            bottom: NIL,
            len: 0,
        }
    }

    /// Number of live values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no values are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, returning its handle.
    pub fn insert(&mut self, value: T) -> SlotId {
        self.len += 1;
        if let Some(idx) = self.pop_free() {
            let slot = &mut self.slots[idx as usize];
            slot.entry = Entry::Occupied(value);
            SlotId { idx, gen: slot.gen }
        } else {
            // Handles index with a `u32`: four billion live slots is past
            // any memory the simulator is given, so a longer arena is a bug
            // to stop on, not a condition to report.
            #[allow(clippy::expect_used)]
            let idx = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("slab capped at u32 slots");
            self.slots.push(Slot {
                gen: 0,
                entry: Entry::Occupied(value),
            });
            SlotId { idx, gen: 0 }
        }
    }

    /// Removes and returns the value behind `id`; `None` if `id` is stale
    /// or was never live.
    pub fn remove(&mut self, id: SlotId) -> Option<T> {
        let slot = self.slots.get_mut(id.idx as usize)?;
        if slot.gen != id.gen || !matches!(slot.entry, Entry::Occupied(_)) {
            return None;
        }
        // Bump the generation on removal so every outstanding copy of `id`
        // goes stale immediately.
        slot.gen = slot.gen.wrapping_add(1);
        self.len -= 1;
        match self.push_free(id.idx) {
            Entry::Occupied(v) => Some(v),
            Entry::Vacant { .. } => None,
        }
    }

    /// Takes the top of the free list, if there is one.
    fn pop_free(&mut self) -> Option<u32> {
        let idx = self.top;
        let Entry::Vacant { below, .. } = self.slots.get(idx as usize)?.entry else {
            unreachable!("the free list holds a live slot");
        };
        self.top = below;
        match self.slots.get_mut(below as usize) {
            Some(Slot {
                entry: Entry::Vacant { above, .. },
                ..
            }) => *above = NIL,
            _ => self.bottom = NIL,
        }
        Some(idx)
    }

    /// Puts slot `idx` on top of the free list, returning what it held.
    fn push_free(&mut self, idx: u32) -> Entry<T> {
        let vacant = Entry::Vacant {
            below: self.top,
            above: NIL,
        };
        let old = std::mem::replace(&mut self.slots[idx as usize].entry, vacant);
        match self.slots.get_mut(self.top as usize) {
            Some(Slot {
                entry: Entry::Vacant { above, .. },
                ..
            }) => *above = idx,
            _ => self.bottom = idx,
        }
        self.top = idx;
        old
    }

    /// Shared access to the value behind `id` (`None` if stale).
    #[inline]
    pub fn get(&self, id: SlotId) -> Option<&T> {
        match self.slots.get(id.idx as usize)? {
            Slot {
                gen,
                entry: Entry::Occupied(v),
            } if *gen == id.gen => Some(v),
            _ => None,
        }
    }

    /// Mutable access to the value behind `id` (`None` if stale).
    #[inline]
    pub fn get_mut(&mut self, id: SlotId) -> Option<&mut T> {
        match self.slots.get_mut(id.idx as usize)? {
            Slot {
                gen,
                entry: Entry::Occupied(v),
            } if *gen == id.gen => Some(v),
            _ => None,
        }
    }

    /// True when `id` refers to a live value.
    #[inline]
    pub fn contains(&self, id: SlotId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates over live `(id, value)` pairs in ascending slot order
    /// (deterministic: depends only on the operation sequence).
    pub fn iter(&self) -> impl Iterator<Item = (SlotId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match &s.entry {
                Entry::Occupied(v) => Some((
                    SlotId {
                        idx: i as u32,
                        gen: s.gen,
                    },
                    v,
                )),
                Entry::Vacant { .. } => None,
            })
    }

    /// Removes all values (generations advance, so old ids stay stale).
    /// The freed slots go on the free list in ascending index order.
    pub fn clear(&mut self) {
        for i in 0..self.slots.len() {
            let slot = &mut self.slots[i];
            if matches!(slot.entry, Entry::Occupied(_)) {
                slot.gen = slot.gen.wrapping_add(1);
                self.push_free(i as u32);
            }
        }
        self.len = 0;
    }

    /// Total physical slots (live + vacant).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The vacant slots in free-list order, bottom first: future inserts
    /// take them from the *end*, so this order is observable through the
    /// ids they return and must survive a snapshot round-trip
    /// byte-exactly.
    pub fn free_list(&self) -> FreeList<'_, T> {
        FreeList {
            slots: &self.slots,
            next: self.bottom,
            left: self.slots.len() - self.len,
        }
    }

    /// Visits every physical slot in index order — vacant ones included —
    /// yielding its generation counter and its value, if live. Together
    /// with [`Slab::free_list`] this is the complete observable state.
    pub fn snapshot_slots(&self, mut f: impl FnMut(u32, Option<&T>)) {
        for slot in &self.slots {
            match &slot.entry {
                Entry::Occupied(v) => f(slot.gen, Some(v)),
                Entry::Vacant { .. } => f(slot.gen, None),
            }
        }
    }

    /// Rebuilds a slab from raw parts captured by [`Slab::snapshot_slots`]
    /// and [`Slab::free_list`]. Validates the structural invariants — the
    /// free list must index each vacant slot exactly once and no live one
    /// — and reports a violation as a typed error instead of panicking, so
    /// corrupted snapshot input cannot construct an inconsistent arena.
    pub fn from_raw_parts(
        slots: Vec<(u32, Option<T>)>,
        free: Vec<u32>,
    ) -> Result<Self, &'static str> {
        let live = slots.iter().filter(|(_, v)| v.is_some()).count();
        if free.len() != slots.len() - live {
            return Err("slab free list length disagrees with vacant slot count");
        }
        let mut slab = Slab {
            slots: slots
                .into_iter()
                .map(|(gen, val)| Slot {
                    gen,
                    entry: val.map_or(
                        Entry::Vacant {
                            below: NIL,
                            above: NIL,
                        },
                        Entry::Occupied,
                    ),
                })
                .collect(),
            top: NIL,
            bottom: NIL,
            len: live,
        };
        for idx in free {
            // A vacant slot is on the list once it is the top or has a
            // slot above it.
            match slab.slots.get(idx as usize) {
                None => return Err("slab free list indexes past the slot array"),
                Some(Slot {
                    entry: Entry::Occupied(_),
                    ..
                }) => return Err("slab free list indexes a live slot"),
                Some(Slot {
                    entry: Entry::Vacant { above, .. },
                    ..
                }) if idx == slab.top || *above != NIL => {
                    return Err("slab free list repeats a slot")
                }
                Some(_) => {
                    slab.push_free(idx);
                }
            }
        }
        Ok(slab)
    }
}

/// The vacant slots of a [`Slab`] in free-list order, bottom first: what
/// [`Slab::free_list`] returns.
#[derive(Debug, Clone)]
pub struct FreeList<'a, T> {
    slots: &'a [Slot<T>],
    next: u32,
    left: usize,
}

impl<T> Iterator for FreeList<'_, T> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let idx = self.next;
        let Entry::Vacant { above, .. } = self.slots.get(idx as usize)?.entry else {
            unreachable!("the free list holds a live slot");
        };
        self.next = above;
        self.left -= 1;
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for FreeList<'_, T> {}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None, "removed handle is stale");
    }

    #[test]
    fn stale_ids_never_alias_reused_slots() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // Same physical slot, different generation.
        assert_eq!(a.index(), b.index());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get_mut(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
        assert!(s.contains(b));
        assert!(!s.contains(a));
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut s = Slab::new();
        let ids: Vec<SlotId> = (0..4).map(|i| s.insert(i)).collect();
        s.remove(ids[1]);
        s.remove(ids[3]);
        let x = s.insert(10);
        let y = s.insert(11);
        assert_eq!(x.index(), 3, "last freed, first reused");
        assert_eq!(y.index(), 1);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn iter_is_in_slot_order_and_skips_holes() {
        let mut s = Slab::new();
        let ids: Vec<SlotId> = (0..5).map(|i| s.insert(i * 10)).collect();
        s.remove(ids[2]);
        let seen: Vec<(usize, u32)> = s.iter().map(|(id, &v)| (id.index(), v)).collect();
        assert_eq!(seen, vec![(0, 0), (1, 10), (3, 30), (4, 40)]);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut s = Slab::new();
        let a = s.insert(5u32);
        *s.get_mut(a).unwrap() += 1;
        assert_eq!(s.get(a), Some(&6));
    }

    #[test]
    fn clear_stales_everything() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(a), None);
        assert_eq!(s.get(b), None);
        let c = s.insert(3);
        assert_eq!(s.get(c), Some(&3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn raw_parts_round_trip_preserves_everything_observable() {
        let mut s = Slab::new();
        let ids: Vec<SlotId> = (0..6).map(|i| s.insert(i * 7)).collect();
        s.remove(ids[1]);
        s.remove(ids[4]);
        s.remove(ids[2]);

        let mut slots = Vec::new();
        s.snapshot_slots(|gen, v| slots.push((gen, v.copied())));
        let rebuilt = Slab::from_raw_parts(slots, s.free_list().collect()).unwrap();

        assert_eq!(rebuilt.len(), s.len());
        assert_eq!(rebuilt.num_slots(), s.num_slots());
        for &id in &[ids[0], ids[3], ids[5]] {
            assert_eq!(rebuilt.get(id), s.get(id));
        }
        for &stale in &[ids[1], ids[2], ids[4]] {
            assert_eq!(rebuilt.get(stale), None);
        }
        // LIFO reuse order is part of the observable state: the next two
        // inserts must hand out the same slots in both slabs.
        let (mut a, mut b) = (s, rebuilt);
        for _ in 0..3 {
            assert_eq!(a.insert(99), b.insert(99));
        }
    }

    #[test]
    fn raw_parts_rejects_inconsistent_free_lists() {
        // Free list pointing at a live slot.
        assert!(Slab::from_raw_parts(vec![(0, Some(1u32))], vec![0]).is_err());
        // Free list shorter than the vacant count.
        assert!(Slab::<u32>::from_raw_parts(vec![(1, None)], vec![]).is_err());
        // Free list indexing out of bounds.
        assert!(Slab::<u32>::from_raw_parts(vec![(1, None)], vec![5]).is_err());
        // Duplicate free entries.
        assert!(Slab::<u32>::from_raw_parts(vec![(1, None), (1, None)], vec![0, 0]).is_err());
        // A consistent vacant-only slab is fine.
        let ok = Slab::<u32>::from_raw_parts(vec![(3, None), (0, Some(9))], vec![0]).unwrap();
        assert_eq!(ok.len(), 1);
        assert_eq!(ok.get(SlotId::from_raw(1, 0)), Some(&9));
        assert_eq!(ok.get(SlotId::from_raw(0, 2)), None, "stale raw id");
    }

    #[test]
    fn slot_id_raw_round_trip() {
        let id = SlotId::from_raw(7, 3);
        assert_eq!(id.index(), 7);
        assert_eq!(id.generation(), 3);
        assert_eq!(SlotId::from_raw(7, 3), id);
    }

    #[test]
    fn mixed_churn_keeps_len_consistent() {
        let mut s = Slab::new();
        let mut live = Vec::new();
        for round in 0..100u32 {
            live.push(s.insert(round));
            if round % 3 == 0 {
                let id = live.remove((round as usize) % live.len());
                assert!(s.remove(id).is_some());
            }
        }
        assert_eq!(s.len(), live.len());
        for id in live {
            assert!(s.contains(id));
        }
    }
}
