//! Property test: a [`Slab`], whose free list lives in its vacant slots,
//! hands out the same ids, frees in the same order and round-trips through
//! its raw parts exactly like a reference model whose free list is a
//! `Vec` used as a stack.

use proptest::prelude::*;
use spam_collections::{Slab, SlotId};

/// The reference: every slot's generation and value, and the free list as
/// a stack whose end is reused next.
#[derive(Default)]
struct Model {
    slots: Vec<(u32, Option<u32>)>,
    free: Vec<u32>,
}

impl Model {
    fn insert(&mut self, v: u32) -> SlotId {
        if let Some(idx) = self.free.pop() {
            let slot = &mut self.slots[idx as usize];
            slot.1 = Some(v);
            SlotId::from_raw(idx, slot.0)
        } else {
            self.slots.push((0, Some(v)));
            SlotId::from_raw(self.slots.len() as u32 - 1, 0)
        }
    }

    fn remove(&mut self, id: SlotId) -> Option<u32> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.0 != id.generation() {
            return None;
        }
        let v = slot.1.take()?;
        slot.0 = slot.0.wrapping_add(1);
        self.free.push(id.index() as u32);
        Some(v)
    }

    fn get(&self, id: SlotId) -> Option<u32> {
        let slot = self.slots.get(id.index())?;
        (slot.0 == id.generation()).then_some(slot.1).flatten()
    }

    fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.1.take().is_some() {
                slot.0 = slot.0.wrapping_add(1);
                self.free.push(i as u32);
            }
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// The slab's raw parts: every slot's generation and value, then its free
/// list bottom first — what a snapshot writes.
fn raw_parts(slab: &Slab<u32>) -> (Vec<(u32, Option<u32>)>, Vec<u32>) {
    let mut slots = Vec::new();
    slab.snapshot_slots(|gen, v| slots.push((gen, v.copied())));
    (slots, slab.free_list().collect())
}

proptest! {
    #[test]
    fn slab_matches_a_vec_stack_model(
        ops in prop::collection::vec((0u8..8, 0usize..64), 1..400),
    ) {
        let mut slab = Slab::new();
        let mut model = Model::default();
        // Every id either side ever issued, stale ones included.
        let mut ids: Vec<SlotId> = Vec::new();
        for (i, &(op, pick)) in ops.iter().enumerate() {
            let value = i as u32;
            match op {
                // Inserts and removes three times as likely as the rest,
                // so the slab both fills and frees.
                0..=2 => {
                    let id = slab.insert(value);
                    prop_assert_eq!(id, model.insert(value));
                    ids.push(id);
                }
                3..=5 => {
                    if let Some(&id) = ids.get(pick % ids.len().max(1)) {
                        prop_assert_eq!(slab.remove(id), model.remove(id));
                    }
                }
                6 => {
                    slab.clear();
                    model.clear();
                }
                _ => {
                    let (slots, free) = raw_parts(&slab);
                    slab = Slab::from_raw_parts(slots, free).unwrap();
                }
            }
            prop_assert_eq!(slab.len(), model.len());
            prop_assert_eq!(slab.is_empty(), model.len() == 0);
            prop_assert_eq!(slab.num_slots(), model.slots.len());
            let (slots, free) = raw_parts(&slab);
            prop_assert_eq!(&slots, &model.slots);
            prop_assert_eq!(&free, &model.free);
            prop_assert_eq!(slab.free_list().len(), model.free.len());
            for &id in &ids {
                prop_assert_eq!(slab.get(id).copied(), model.get(id));
                prop_assert_eq!(slab.contains(id), model.get(id).is_some());
            }
            let live: Vec<(SlotId, u32)> = slab.iter().map(|(id, &v)| (id, v)).collect();
            let want: Vec<(SlotId, u32)> = model
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, &(gen, v))| Some((SlotId::from_raw(i as u32, gen), v?)))
                .collect();
            prop_assert_eq!(live, want);
        }
    }

    #[test]
    fn raw_parts_reject_what_no_model_could_hold(
        gens in prop::collection::vec((0u32..4, any::<bool>()), 0..24),
        free in prop::collection::vec(0u32..32, 0..24),
    ) {
        let slots: Vec<(u32, Option<u32>)> =
            gens.iter().map(|&(g, live)| (g, live.then_some(g))).collect();
        let vacant = slots.iter().filter(|s| s.1.is_none()).count();
        let mut seen = vec![false; slots.len()];
        let valid = free.len() == vacant
            && free.iter().all(|&i| {
                let ok = slots.get(i as usize).is_some_and(|s| s.1.is_none())
                    && !seen[i as usize];
                if ok {
                    seen[i as usize] = true;
                }
                ok
            });
        match Slab::from_raw_parts(slots.clone(), free.clone()) {
            Ok(slab) => {
                prop_assert!(valid, "accepted an impossible free list {:?}", free);
                let (s, f) = raw_parts(&slab);
                prop_assert_eq!(s, slots);
                prop_assert_eq!(f, free);
            }
            Err(_) => prop_assert!(!valid, "rejected a consistent free list {:?}", free),
        }
    }
}
