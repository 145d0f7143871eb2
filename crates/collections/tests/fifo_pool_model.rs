//! Property test: a [`FifoPool`] with several queues behaves exactly like
//! that many independent `VecDeque`s under any interleaving of the
//! operations the engine performs on its channel buffers.

use proptest::prelude::*;
use spam_collections::{Fifo, FifoPool};
use std::collections::VecDeque;

const QUEUES: usize = 4;

proptest! {
    #[test]
    fn pooled_queues_match_a_vecdeque_model(
        ops in prop::collection::vec((0u8..6, 0usize..QUEUES, 0u32..8), 1..400),
    ) {
        let mut pool = FifoPool::new();
        let mut qs = [Fifo::<u32>::new(); QUEUES];
        let mut model: [VecDeque<u32>; QUEUES] = Default::default();
        let mut live_max = 0;
        for (i, &(op, q, arg)) in ops.iter().enumerate() {
            let (h, m) = (&mut qs[q], &mut model[q]);
            match op {
                // Pushes twice as likely as any one removal, so queues
                // actually fill.
                0 | 1 => {
                    pool.push_back(h, i as u32);
                    m.push_back(i as u32);
                }
                2 => prop_assert_eq!(pool.pop_front(h), m.pop_front()),
                3 => {
                    pool.retain(h, |v| v % 8 != arg);
                    m.retain(|v| v % 8 != arg);
                }
                4 => {
                    pool.truncate(h, arg as usize);
                    m.truncate(arg as usize);
                }
                _ => {
                    pool.clear(h);
                    m.clear();
                }
            }
            for (h, m) in qs.iter().zip(&model) {
                prop_assert_eq!(h.len(), m.len());
                prop_assert_eq!(h.is_empty(), m.is_empty());
                prop_assert_eq!(h.front(), m.front());
                prop_assert!(pool.iter(h).eq(m.iter()));
            }
            // Each queue's oldest value rides in its handle.
            let pooled = model.iter().map(|m| m.len().saturating_sub(1)).sum::<usize>();
            live_max = live_max.max(pooled);
            prop_assert_eq!(pool.cells(), live_max, "cells = high-water mark of pooled values");
        }
    }
}
