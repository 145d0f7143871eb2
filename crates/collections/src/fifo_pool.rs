//! Many small FIFO queues whose overflow shares one cell pool.

/// Null link in the intrusive chains.
const NIL: u32 = u32::MAX;

/// One queue of a [`FifoPool`]. The oldest value sits in the handle
/// itself; only the values queued *behind* it occupy pool cells, as a
/// chain whose ends the handle records. A queue that never holds more
/// than one value — a single-flit channel buffer, an uncontended request
/// queue — therefore never touches the pool at all, and an empty queue
/// owns nothing, so a structure holding thousands of mostly-empty queues
/// costs no allocation per queue.
///
/// A handle is only meaningful with the pool its values were pushed
/// into, and must be drained (or [`FifoPool::clear`]ed) before it is
/// dropped, or its cells stay off the free list for the pool's lifetime.
#[derive(Debug, Clone, Copy)]
pub struct Fifo<T> {
    first: Option<T>,
    /// Chain of the values behind `first` (meaningful when `len > 1`).
    head: u32,
    tail: u32,
    len: u32,
}

impl<T> Fifo<T> {
    /// An empty queue.
    pub const fn new() -> Self {
        Fifo {
            first: None,
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of queued values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The oldest value, if any.
    #[inline]
    pub fn front(&self) -> Option<&T> {
        self.first.as_ref()
    }
}

impl<T> Default for Fifo<T> {
    fn default() -> Self {
        Fifo::new()
    }
}

#[derive(Debug, Clone)]
struct Cell<T> {
    /// Next cell of the queue's chain, or of the free list.
    next: u32,
    /// Stale (but initialised) while the cell sits on the free list.
    val: T,
}

/// Backing store for the overflow of any number of [`Fifo`] queues of
/// `Copy` values: intrusive singly-linked chains through one `Vec` of
/// cells plus a LIFO free list. The pool grows to the largest number of values
/// queued *behind a first* at once across all its queues and is then
/// never touched by the allocator again; a freed cell is the next one
/// handed out, so a steady workload keeps hitting the same cache-hot
/// cells.
///
/// Cell indices are an implementation detail: every observable order
/// (`pop_front`, `iter`) depends only on the sequence of pushes and
/// removals on that queue, never on where its cells happen to sit.
#[derive(Debug, Clone)]
pub struct FifoPool<T> {
    cells: Vec<Cell<T>>,
    /// Free-list head into `cells`.
    free: u32,
}

impl<T: Copy> FifoPool<T> {
    /// An empty pool (allocates nothing until a queue first overflows
    /// its handle).
    pub const fn new() -> Self {
        FifoPool {
            cells: Vec::new(),
            free: NIL,
        }
    }

    /// Cells the pool has ever grown to — the high-water mark of values
    /// queued behind a first, not the sum of any per-queue capacity.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// Appends `val` to `q`.
    #[inline]
    pub fn push_back(&mut self, q: &mut Fifo<T>, val: T) {
        q.len += 1;
        if q.len == 1 {
            q.first = Some(val);
            return;
        }
        let idx = if self.free != NIL {
            let idx = self.free;
            let cell = &mut self.cells[idx as usize];
            self.free = cell.next;
            *cell = Cell { next: NIL, val };
            idx
        } else {
            // `NIL` itself is never a valid index. Links are `u32`: four
            // billion values queued behind their firsts is past any memory
            // the simulator is given, so a longer pool is a bug to stop on.
            #[allow(clippy::expect_used)]
            let idx = u32::try_from(self.cells.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fifo pool capped at u32 cells");
            self.cells.push(Cell { next: NIL, val });
            idx
        };
        if q.len == 2 {
            q.head = idx;
        } else {
            self.cells[q.tail as usize].next = idx;
        }
        q.tail = idx;
    }

    /// Removes and returns the oldest value of `q`; the next oldest, if
    /// any, moves from its cell into the handle.
    #[inline]
    pub fn pop_front(&mut self, q: &mut Fifo<T>) -> Option<T> {
        let val = q.first.take()?;
        q.len -= 1;
        if q.len > 0 {
            let idx = q.head;
            let cell = &mut self.cells[idx as usize];
            q.first = Some(cell.val);
            q.head = cell.next;
            cell.next = self.free;
            self.free = idx;
        }
        Some(val)
    }

    /// The values of `q`, oldest first (the order `pop_front` would
    /// return them in).
    pub fn iter<'a>(&'a self, q: &'a Fifo<T>) -> impl Iterator<Item = &'a T> {
        let mut next = q.head;
        let rest = (1..q.len).map(move |_| {
            let cell = &self.cells[next as usize];
            next = cell.next;
            &cell.val
        });
        q.first.iter().chain(rest)
    }

    /// Keeps only the values `keep` accepts, preserving their order.
    /// One rotation through the queue: every popped cell is the one the
    /// next push takes, so the pool does not grow.
    pub fn retain(&mut self, q: &mut Fifo<T>, mut keep: impl FnMut(&T) -> bool) {
        for _ in 0..q.len {
            match self.pop_front(q) {
                Some(val) if keep(&val) => self.push_back(q, val),
                _ => {}
            }
        }
    }

    /// Drops everything behind the first `keep` values of `q`.
    pub fn truncate(&mut self, q: &mut Fifo<T>, keep: usize) {
        let mut kept = 0;
        self.retain(q, |_| {
            kept += 1;
            kept <= keep
        });
    }

    /// Empties `q`, returning its cells to the free list.
    pub fn clear(&mut self, q: &mut Fifo<T>) {
        self.truncate(q, 0);
    }
}

impl<T: Copy> Default for FifoPool<T> {
    fn default() -> Self {
        FifoPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(pool: &mut FifoPool<u32>, q: &mut Fifo<u32>) -> Vec<u32> {
        std::iter::from_fn(|| pool.pop_front(q)).collect()
    }

    #[test]
    fn a_queue_pops_in_push_order() {
        let mut pool = FifoPool::new();
        let mut q = Fifo::new();
        assert!(q.is_empty());
        assert_eq!(q.front(), None);
        assert_eq!(pool.pop_front(&mut q), None);
        for v in 0..5 {
            pool.push_back(&mut q, v);
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.front(), Some(&0));
        assert_eq!(drain(&mut pool, &mut q), [0, 1, 2, 3, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_queues_do_not_mix() {
        let mut pool = FifoPool::new();
        let mut qs = [Fifo::new(); 3];
        // Round-robin pushes interleave the three chains cell by cell.
        for v in 0..12u32 {
            pool.push_back(&mut qs[(v % 3) as usize], v);
        }
        assert_eq!(pool.pop_front(&mut qs[1]), Some(1));
        pool.push_back(&mut qs[0], 100);
        assert_eq!(drain(&mut pool, &mut qs[0]), [0, 3, 6, 9, 100]);
        assert_eq!(drain(&mut pool, &mut qs[1]), [4, 7, 10]);
        assert_eq!(drain(&mut pool, &mut qs[2]), [2, 5, 8, 11]);
    }

    #[test]
    fn freed_cells_are_reused_before_the_pool_grows() {
        let mut pool = FifoPool::new();
        let (mut a, mut b) = (Fifo::new(), Fifo::new());
        for v in 0..4 {
            pool.push_back(&mut a, v);
        }
        assert_eq!(pool.cells(), 3, "the oldest value rides in the handle");
        // Steady state: as many pops as pushes, on either queue.
        for v in 0..100 {
            pool.pop_front(&mut a);
            pool.push_back(&mut b, v);
            pool.pop_front(&mut b);
            pool.push_back(&mut a, v);
        }
        assert_eq!(pool.cells(), 3, "pool follows values in flight");
        assert_eq!(drain(&mut pool, &mut a), [96, 97, 98, 99]);
    }

    #[test]
    fn clear_and_truncate_return_cells_to_the_free_list() {
        let mut pool = FifoPool::new();
        let (mut a, mut b) = (Fifo::new(), Fifo::new());
        for v in 0..6 {
            pool.push_back(&mut a, v);
            pool.push_back(&mut b, 10 + v);
        }
        pool.truncate(&mut a, 9);
        assert_eq!(a.len(), 6, "truncating past the end is a no-op");
        pool.truncate(&mut a, 2);
        assert_eq!(pool.iter(&a).copied().collect::<Vec<_>>(), [0, 1]);
        pool.push_back(&mut a, 7);
        assert_eq!(pool.iter(&a).copied().collect::<Vec<_>>(), [0, 1, 7]);
        pool.clear(&mut b);
        assert!(b.is_empty());
        pool.clear(&mut b);
        // `a` keeps 2 of the 10 cells; the other 8 are free again.
        for v in 0..9 {
            pool.push_back(&mut b, v);
        }
        assert_eq!(pool.cells(), 10);
        assert_eq!(drain(&mut pool, &mut a), [0, 1, 7]);
        assert_eq!(drain(&mut pool, &mut b), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn retain_drops_head_middle_and_tail() {
        let mut pool = FifoPool::new();
        let mut q = Fifo::new();
        for v in 0..7 {
            pool.push_back(&mut q, v);
        }
        pool.retain(&mut q, |&v| v != 0 && v != 3 && v != 6);
        assert_eq!(pool.iter(&q).copied().collect::<Vec<_>>(), [1, 2, 4, 5]);
        // Appends land behind the last kept value.
        pool.push_back(&mut q, 8);
        assert_eq!(pool.cells(), 6);
        pool.retain(&mut q, |_| false);
        assert!(q.is_empty());
        pool.push_back(&mut q, 9);
        assert_eq!(drain(&mut pool, &mut q), [9]);
    }

    #[test]
    fn iteration_order_is_pop_order() {
        let mut pool = FifoPool::new();
        let (mut a, mut b) = (Fifo::new(), Fifo::new());
        // Churn first so the chains thread the cells out of index order.
        for v in 0..8 {
            pool.push_back(&mut a, v);
            pool.push_back(&mut b, v);
            if v % 3 == 0 {
                pool.pop_front(&mut a);
            }
        }
        let seen: Vec<u32> = pool.iter(&a).copied().collect();
        assert_eq!(seen.len(), a.len());
        assert_eq!(seen, drain(&mut pool, &mut a));
    }
}
