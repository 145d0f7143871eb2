//! Per-target `u16` rows that are built the first time they are asked for
//! and shared from then on.
//!
//! A routing precompute indexed by target (SPAM's residual distances, the
//! up*/down* baseline's) costs one pass per phase over the labeling's
//! `(level, id)` order per row, and a run only ever reads the rows of the
//! targets its messages aim at. [`LazyRows`]
//! holds one [`OnceLock`] per target: readers on any thread get the same
//! row, the builder runs once per row, and an untouched row is an empty slot.

use std::sync::OnceLock;

/// One lazily built, immutable `u16` row per target.
#[derive(Debug)]
pub struct LazyRows {
    rows: Box<[OnceLock<Box<[u16]>>]>,
}

impl LazyRows {
    /// `targets` rows, none built.
    pub fn new(targets: usize) -> Self {
        LazyRows {
            rows: (0..targets).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Number of targets covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no target is covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `target`, running `build` first if no reader has asked for it
    /// yet. Concurrent first readers block on one builder; the row is
    /// never built twice and never moves.
    #[inline]
    pub fn get_or_build(&self, target: usize, build: impl FnOnce() -> Vec<u16>) -> &[u16] {
        self.rows[target].get_or_init(|| build().into_boxed_slice())
    }

    /// Number of rows built so far.
    pub fn resident(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// Heap bytes held by the rows built so far plus the slot array.
    pub fn resident_bytes(&self) -> usize {
        let cells: usize = self
            .rows
            .iter()
            .filter_map(|r| r.get())
            .map(|r| r.len())
            .sum();
        cells * 2 + Self::full_bytes(self.rows.len(), 0)
    }

    /// What [`Self::resident_bytes`] reads once every one of `targets`
    /// rows, `row_len` cells each, is built — the figure to charge for a
    /// store up front.
    pub fn full_bytes(targets: usize, row_len: usize) -> usize {
        targets * (std::mem::size_of::<OnceLock<Box<[u16]>>>() + row_len * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn rows_start_absent_and_are_kept_once_built() {
        let rows = LazyRows::new(4);
        assert_eq!((rows.len(), rows.resident()), (4, 0));
        let first = rows.get_or_build(2, || vec![7, 8, 9]).as_ptr();
        // A second ask must not run its builder and must see the same row.
        let again = rows.get_or_build(2, || unreachable!("row 2 is already built"));
        assert_eq!(again, [7, 8, 9]);
        assert_eq!(again.as_ptr(), first);
        assert_eq!(rows.resident(), 1);
        assert_eq!(
            rows.resident_bytes(),
            6 + 4 * std::mem::size_of::<OnceLock<Box<[u16]>>>()
        );
    }

    #[test]
    fn racing_readers_build_each_row_once_and_share_it() {
        const THREADS: usize = 8;
        const TARGETS: usize = 6;
        let rows = LazyRows::new(TARGETS);
        let builds: Vec<AtomicUsize> = (0..TARGETS).map(|_| AtomicUsize::new(0)).collect();
        // All threads leave the barrier together and walk overlapping
        // target windows, so every row has several first-time askers.
        let barrier = Barrier::new(THREADS);
        let seen: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (rows, builds, barrier) = (&rows, &builds, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (0..4)
                            .map(|k| {
                                let t = (i + k) % TARGETS;
                                let row = rows.get_or_build(t, || {
                                    builds[t].fetch_add(1, Ordering::SeqCst);
                                    vec![t as u16; 16]
                                });
                                assert_eq!(row, [t as u16; 16]);
                                (t, row.as_ptr() as usize)
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect()
        });
        for (t, b) in builds.iter().enumerate() {
            assert_eq!(b.load(Ordering::SeqCst), 1, "row {t} built more than once");
        }
        // Every thread was handed the one allocation of each row.
        for &(t, ptr) in seen.iter().flatten() {
            assert_eq!(ptr, rows.get_or_build(t, Vec::new).as_ptr() as usize);
        }
        assert_eq!(rows.resident(), TARGETS);
    }
}
