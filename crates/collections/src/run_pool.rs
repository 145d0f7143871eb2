//! Many short lists whose values share one buffer, each list one
//! contiguous run of it.

/// Capacity of the smallest run.
const MIN_RUN: u32 = 4;

/// One list of a [`RunPool`]: the run of the pool's buffer its values
/// occupy. An empty list owns no run, so a structure holding thousands of
/// empty lists costs no allocation per list.
///
/// A handle is only meaningful with the pool its values were pushed into,
/// and must be emptied (or [`RunPool::clear`]ed) before it is dropped, or
/// its run stays off the free lists for the pool's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run {
    at: u32,
    len: u32,
    /// The run holds `MIN_RUN << class` values (meaningful when `len > 0`).
    class: u32,
}

impl Run {
    /// An empty list.
    pub const fn new() -> Self {
        Run {
            at: 0,
            len: 0,
            class: 0,
        }
    }

    /// Number of values in the list.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Backing store for any number of [`Run`] lists of `Copy` values: one
/// `Vec` cut into runs whose capacities are powers of two. A list that
/// fills its run moves to a run twice as long; the run it leaves, like the
/// run of a list that empties, goes on the free list of its capacity, and
/// the next list that needs that capacity takes it. A steady workload so
/// stops growing the buffer, and every list stays one slice: scanning it
/// and `swap_remove` cost what they cost on a `Vec`.
///
/// Where a run sits is an implementation detail: a list's order depends
/// only on the pushes and removals made on it.
#[derive(Debug, Clone)]
pub struct RunPool<T> {
    slots: Vec<T>,
    /// Starts of the free runs, per capacity class.
    free: Vec<Vec<u32>>,
}

impl<T: Copy + Default> RunPool<T> {
    /// An empty pool (allocates nothing until a value is pushed).
    pub const fn new() -> Self {
        RunPool {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Values the buffer has ever grown to — runs in use and free alike.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The values of `run`, in list order.
    #[inline]
    pub fn as_slice(&self, run: &Run) -> &[T] {
        &self.slots[run.at as usize..][..run.len as usize]
    }

    /// The values of `run`, in list order, to reorder in place.
    #[inline]
    pub fn as_mut_slice(&mut self, run: &Run) -> &mut [T] {
        &mut self.slots[run.at as usize..][..run.len as usize]
    }

    /// Appends `val` to `run`.
    #[inline]
    pub fn push(&mut self, run: &mut Run, val: T) {
        if run.len == 0 || run.len == MIN_RUN << run.class {
            self.grow(run);
        }
        self.slots[(run.at + run.len) as usize] = val;
        run.len += 1;
    }

    /// Removes and returns the value at `pos`, moving the last one into
    /// its place (`Vec::swap_remove`'s order).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of bounds.
    #[inline]
    pub fn swap_remove(&mut self, run: &mut Run, pos: usize) -> T {
        let values = &mut self.slots[run.at as usize..][..run.len as usize];
        let val = values[pos];
        values[pos] = values[values.len() - 1];
        run.len -= 1;
        if run.len == 0 {
            self.release(run.at, run.class);
        }
        val
    }

    /// Empties `run`, returning its run to the free lists.
    pub fn clear(&mut self, run: &mut Run) {
        if run.len > 0 {
            self.release(run.at, run.class);
        }
        *run = Run::new();
    }

    /// Moves `run`'s values into a run of the next capacity (the smallest
    /// when it holds none), reusing a free one when there is one.
    fn grow(&mut self, run: &mut Run) {
        let class = if run.len == 0 { 0 } else { run.class + 1 };
        let at = match self.free.get_mut(class as usize).and_then(Vec::pop) {
            Some(at) => at,
            None => {
                let at = self.slots.len();
                self.slots
                    .resize(at + (MIN_RUN << class) as usize, T::default());
                // Starts are `u32`: four billion values in short lists is
                // past any memory the simulator is given, so a longer
                // buffer is a bug to stop on.
                #[allow(clippy::expect_used)]
                let at = u32::try_from(at).expect("run pool capped at u32 slots");
                at
            }
        };
        if run.len > 0 {
            let from = run.at as usize;
            self.slots
                .copy_within(from..from + run.len as usize, at as usize);
            self.release(run.at, run.class);
        }
        run.at = at;
        run.class = class;
    }

    fn release(&mut self, at: u32, class: u32) {
        let class = class as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(at);
    }
}

impl<T: Copy + Default> Default for RunPool<T> {
    fn default() -> Self {
        RunPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_keep_push_order_across_growth() {
        let mut pool = RunPool::new();
        let (mut a, mut b) = (Run::new(), Run::new());
        assert!(a.is_empty());
        assert_eq!(pool.slots(), 0, "an empty list owns no run");
        // Interleaved pushes make both lists outgrow runs of 4 and 8.
        for v in 0..20u32 {
            pool.push(&mut a, v);
            pool.push(&mut b, 100 + v);
        }
        assert_eq!(a.len(), 20);
        assert_eq!(pool.as_slice(&a), (0..20).collect::<Vec<_>>());
        assert_eq!(pool.as_slice(&b), (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn swap_remove_leaves_vec_order() {
        for n in 1..12u32 {
            for pos in 0..n as usize {
                let mut pool = RunPool::new();
                let mut run = Run::new();
                let mut expect: Vec<u32> = (0..n).collect();
                for v in 0..n {
                    pool.push(&mut run, v);
                }
                assert_eq!(pool.swap_remove(&mut run, pos), expect.swap_remove(pos));
                assert_eq!(pool.as_slice(&run), expect);
            }
        }
    }

    #[test]
    fn freed_runs_serve_the_next_lists() {
        let mut pool = RunPool::new();
        let mut run = Run::new();
        for v in 0..30u32 {
            pool.push(&mut run, v);
        }
        // Runs of 4, 8, 16 and 32 were taken in turn; the first three are
        // free again.
        assert_eq!(pool.slots(), 4 + 8 + 16 + 32);
        pool.clear(&mut run);
        assert!(run.is_empty());
        // A steady stream of lists, each emptied by removals or a clear,
        // never grows the buffer again.
        for round in 0..50u32 {
            let mut other = Run::new();
            for v in 0..=round % 32 {
                pool.push(&mut run, v);
                pool.push(&mut other, v);
            }
            while !run.is_empty() {
                pool.swap_remove(&mut run, 0);
            }
            pool.clear(&mut other);
        }
        assert_eq!(pool.slots(), 2 * (4 + 8 + 16 + 32));
    }
}
