//! Ring-buffered gauge time-series.
//!
//! A [`GaugeSample`] is one instant's snapshot of every engine gauge the
//! telemetry layer tracks; a [`GaugeSeries`] holds samples in a
//! preallocated ring. The ring never reallocates after construction —
//! when full it overwrites the oldest sample and keeps counting — so
//! sampling stays zero-alloc at steady state no matter how long the run
//! is (pinned by `wormsim`'s counting-allocator test target).

/// One sampling instant's gauge snapshot. Plain `Copy` data so recording
/// a sample is a store, never an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSample {
    /// Sampling instant (sim time, ns).
    pub at_ns: u64,
    /// Pending events in the engine's schedule (the same under either
    /// queue kind).
    pub queue_len: usize,
    /// Messages with at least one in-flight worm.
    pub live_worms: u32,
    /// Live worm segments across all messages.
    pub live_segments: u32,
    /// Total OCRQ entries across all channels.
    pub ocrq_total: u32,
    /// Deepest single OCRQ at this instant.
    pub ocrq_max: u32,
    /// Routing epoch in effect (number of fault boundaries passed).
    pub epoch: u32,
    /// Running total of fully delivered messages.
    pub delivered: u64,
    /// Running total of messages torn down by live reconfiguration.
    pub torn_down: u64,
    /// Running total of messages with unreachable destinations.
    pub unreachable: u64,
}

/// A fixed-capacity ring of [`GaugeSample`]s in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSeries {
    buf: Vec<GaugeSample>,
    cap: usize,
    /// Index of the oldest sample once the ring has wrapped.
    head: usize,
    /// Samples ever recorded, including overwritten ones.
    total: u64,
}

impl GaugeSeries {
    /// An empty series that will retain at most `cap` samples. The full
    /// backing store is allocated here, up front.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn with_capacity(cap: usize) -> Self {
        assert!(
            cap > 0,
            "a GaugeSeries needs capacity for at least one sample"
        );
        GaugeSeries {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Records a sample; overwrites the oldest once full. Never allocates
    /// (capacity was reserved at construction).
    #[inline]
    pub fn push(&mut self, s: GaugeSample) {
        if self.buf.len() < self.cap {
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        self.total += 1;
    }

    /// Advances the ring as `n` pushes would — the overwrite cursor and
    /// the running total — without writing them, in O(1): a slot one of
    /// them would have filled for the first time holds a default sample.
    /// Meant for a jump whose samples the ring could not keep anyway:
    /// followed by [`GaugeSeries::capacity`] pushes, which overwrite every
    /// slot, the ring equals the one `n + capacity()` pushes leave. Never
    /// allocates.
    pub fn skip(&mut self, n: u64) {
        let fresh = (self.cap - self.buf.len()).min(usize::try_from(n).unwrap_or(usize::MAX));
        self.buf
            .resize(self.buf.len() + fresh, GaugeSample::default());
        let cap = self.cap as u64;
        let overwritten = (n - fresh as u64) % cap;
        self.head = ((self.head as u64 + overwritten) % cap) as usize;
        self.total = self.total.saturating_add(n);
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Samples ever recorded, including any the ring has overwritten.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// True when recording has overwritten at least one sample.
    pub fn wrapped(&self) -> bool {
        self.total > self.cap as u64
    }

    /// Retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &GaugeSample> {
        let (tail, front) = self.buf.split_at(self.head);
        front.iter().chain(tail.iter())
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<&GaugeSample> {
        if self.buf.is_empty() {
            None
        } else if self.buf.len() < self.cap {
            self.buf.last()
        } else {
            let i = if self.head == 0 {
                self.cap - 1
            } else {
                self.head - 1
            };
            Some(&self.buf[i])
        }
    }

    /// The maximum of `key` over retained samples (`None` when empty).
    pub fn peak<K: Ord + Copy>(&self, key: impl Fn(&GaugeSample) -> K) -> Option<K> {
        self.iter().map(key).max()
    }

    /// The ring's complete raw state — `(capacity, head, total, buffer in
    /// physical order)` — for snapshots. Pair with
    /// [`GaugeSeries::from_raw_parts`].
    pub fn raw_parts(&self) -> (usize, usize, u64, &[GaugeSample]) {
        (self.cap, self.head, self.total, &self.buf)
    }

    /// Rebuilds a ring from [`GaugeSeries::raw_parts`] state, restoring the
    /// physical buffer layout (and therefore iteration order and the
    /// overwrite cursor) exactly. Errors on states `push` could never have
    /// produced, so corrupted snapshot input surfaces as a typed error.
    pub fn from_raw_parts(
        cap: usize,
        head: usize,
        total: u64,
        buf: Vec<GaugeSample>,
    ) -> Result<Self, &'static str> {
        if cap == 0 {
            return Err("gauge series capacity must be non-zero");
        }
        if buf.len() > cap {
            return Err("gauge series buffer exceeds its capacity");
        }
        if buf.len() < cap && head != 0 {
            return Err("gauge series head set before the ring wrapped");
        }
        if buf.len() == cap && head >= cap {
            return Err("gauge series head out of bounds");
        }
        if total < buf.len() as u64 {
            return Err("gauge series total below retained count");
        }
        // `cap` is a word of the input: a capacity no allocator can
        // grant is an error to report, not an abort.
        let mut buf = buf;
        buf.try_reserve_exact(cap - buf.len())
            .map_err(|_| "gauge series capacity cannot be allocated")?;
        Ok(GaugeSeries {
            buf,
            cap,
            head,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> GaugeSample {
        GaugeSample {
            at_ns: ns,
            ..GaugeSample::default()
        }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut s = GaugeSeries::with_capacity(3);
        assert!(s.is_empty());
        assert_eq!(s.latest(), None);
        for ns in 1..=5 {
            s.push(at(ns * 10));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.total_recorded(), 5);
        assert!(s.wrapped());
        let times: Vec<u64> = s.iter().map(|g| g.at_ns).collect();
        assert_eq!(times, vec![30, 40, 50], "oldest first, oldest two evicted");
        assert_eq!(s.latest().unwrap().at_ns, 50);
    }

    #[test]
    fn under_capacity_is_in_push_order() {
        let mut s = GaugeSeries::with_capacity(8);
        s.push(at(1));
        s.push(at(2));
        assert!(!s.wrapped());
        assert_eq!(s.iter().map(|g| g.at_ns).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.latest().unwrap().at_ns, 2);
        assert_eq!(s.peak(|g| g.at_ns), Some(2));
    }

    #[test]
    fn push_never_allocates_after_construction() {
        let mut s = GaugeSeries::with_capacity(4);
        let cap_ptr = s.buf.capacity();
        for ns in 0..100 {
            s.push(at(ns));
        }
        assert_eq!(s.buf.capacity(), cap_ptr, "ring must not reallocate");
        assert_eq!(s.total_recorded(), 100);
    }

    #[test]
    fn exact_boundary_wrap() {
        let mut s = GaugeSeries::with_capacity(2);
        s.push(at(1));
        s.push(at(2));
        assert!(!s.wrapped());
        assert_eq!(s.latest().unwrap().at_ns, 2);
        s.push(at(3));
        assert!(s.wrapped());
        assert_eq!(s.iter().map(|g| g.at_ns).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(s.latest().unwrap().at_ns, 3);
    }

    #[test]
    fn skip_then_a_full_ring_of_pushes_equals_pushing_everything() {
        for (cap, before, n) in [
            (3, 0, 1),
            (3, 1, 2),
            (3, 2, 7),
            (4, 6, 9),
            (5, 5, 0),
            (1, 0, 4),
        ] {
            let mut slow = GaugeSeries::with_capacity(cap);
            let mut fast = GaugeSeries::with_capacity(cap);
            for ns in 0..before {
                slow.push(at(ns));
                fast.push(at(ns));
            }
            let fills = slow.buf.capacity();
            for ns in before..before + n {
                slow.push(at(ns));
            }
            fast.skip(n);
            assert_eq!(fast.total_recorded(), slow.total_recorded());
            for ns in before + n..before + n + cap as u64 {
                slow.push(at(ns));
                fast.push(at(ns));
            }
            assert_eq!(
                fast.raw_parts(),
                slow.raw_parts(),
                "cap {cap}, {before} + {n}"
            );
            assert_eq!(fast.buf.capacity(), fills, "skip must not reallocate");
        }
        // A jump no loop could walk.
        let mut s = GaugeSeries::with_capacity(4);
        s.skip(1 << 40);
        assert_eq!((s.len(), s.total_recorded()), (4, 1 << 40));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_capacity_panics() {
        GaugeSeries::with_capacity(0);
    }

    #[test]
    fn raw_parts_round_trip_preserves_ring_exactly() {
        let mut s = GaugeSeries::with_capacity(3);
        for ns in 1..=5 {
            s.push(at(ns * 10));
        }
        let (cap, head, total, buf) = s.raw_parts();
        let mut r = GaugeSeries::from_raw_parts(cap, head, total, buf.to_vec()).unwrap();
        assert_eq!(r, s);
        // The restored ring keeps overwriting from the same cursor.
        s.push(at(60));
        r.push(at(60));
        assert_eq!(r, s);
        assert_eq!(r.buf.capacity(), cap, "restored ring is fully reserved");
    }

    #[test]
    fn raw_parts_rejects_impossible_states() {
        assert!(GaugeSeries::from_raw_parts(0, 0, 0, vec![]).is_err());
        assert!(GaugeSeries::from_raw_parts(2, 0, 3, vec![at(1), at(2), at(3)]).is_err());
        assert!(GaugeSeries::from_raw_parts(3, 1, 1, vec![at(1)]).is_err());
        assert!(GaugeSeries::from_raw_parts(2, 2, 2, vec![at(1), at(2)]).is_err());
        assert!(GaugeSeries::from_raw_parts(2, 0, 1, vec![at(1), at(2)]).is_err());
        assert!(GaugeSeries::from_raw_parts(usize::MAX, 0, 1, vec![at(1)]).is_err());
    }
}
