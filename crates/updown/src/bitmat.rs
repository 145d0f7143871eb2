//! A dense square bit matrix used for reachability relations. Row `u` is
//! the set of nodes standing in the relation with `u` (e.g. "all nodes
//! `u` is an extended ancestor of").
//!
//! The cost is `n² / 8` bytes: 8 KiB at the paper's 256 nodes, 512 KiB
//! for a 1024-switch fabric (2048 nodes), 8 MiB at 4096 switches. A query
//! is one bit test — precomputing beats per-query graph walks by orders of
//! magnitude in the routing hot path — and rows are filled a word at a
//! time ([`BitMatrix::set_range`], [`BitMatrix::or_row_into`]), so
//! building one costs `n / 64` word operations per closure step, not `n`
//! bit writes.

/// Dense `n × n` bit matrix with `u64` words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMatrix {
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// All-zero `n × n` matrix.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        BitMatrix {
            n,
            words_per_row,
            bits: vec![0; n * words_per_row],
        }
    }

    /// Side length.
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// Heap bytes held: `n` rows of `n` bits, each padded to whole words.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&self.bits[..])
    }

    /// Sets bit `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.n && col < self.n);
        self.bits[row * self.words_per_row + col / 64] |= 1u64 << (col % 64);
    }

    /// Reads bit `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.n && col < self.n);
        self.bits[row * self.words_per_row + col / 64] & (1u64 << (col % 64)) != 0
    }

    /// Sets bits `lo..hi` of `row`, whole words at a time. An empty range
    /// (`lo >= hi`) sets nothing.
    pub fn set_range(&mut self, row: usize, lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        assert!(row < self.n && hi <= self.n, "bit range outside the row");
        let words = &mut self.bits[row * self.words_per_row..][..self.words_per_row];
        let (first, last) = (lo / 64, (hi - 1) / 64);
        // Bits `lo % 64..` of the first word, bits `..=(hi - 1) % 64` of
        // the last; when they are one word, the intersection of the two.
        let head = u64::MAX << (lo % 64);
        let tail = u64::MAX >> (63 - (hi - 1) % 64);
        if first == last {
            words[first] |= head & tail;
        } else {
            words[first] |= head;
            words[first + 1..last].fill(u64::MAX);
            words[last] |= tail;
        }
    }

    /// ORs row `src` into row `dst` (`dst |= src`); the transitive-closure
    /// work-horse. No-op when `dst == src`.
    pub fn or_row_into(&mut self, src: usize, dst: usize) {
        if src == dst {
            return;
        }
        debug_assert!(src < self.n && dst < self.n);
        let w = self.words_per_row;
        let (a, b) = (src * w, dst * w);
        // Split-borrow the two disjoint rows.
        if a < b {
            let (lo, hi) = self.bits.split_at_mut(b);
            for (d, s) in hi[..w].iter_mut().zip(&lo[a..a + w]) {
                *d |= *s;
            }
        } else {
            let (lo, hi) = self.bits.split_at_mut(a);
            for (s, d) in hi[..w].iter().zip(&mut lo[b..b + w]) {
                *d |= *s;
            }
        }
    }

    /// Iterates over the set column indices of `row`, ascending.
    pub fn row_ones(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        debug_assert!(row < self.n);
        let w = self.words_per_row;
        let words = &self.bits[row * w..(row + 1) * w];
        words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut rem = word;
            std::iter::from_fn(move || {
                if rem == 0 {
                    None
                } else {
                    let bit = rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }

    /// Number of set bits in `row`.
    pub fn row_count(&self, row: usize) -> usize {
        let w = self.words_per_row;
        self.bits[row * w..(row + 1) * w]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut m = BitMatrix::new(130); // spans 3 words per row
        assert!(!m.get(0, 0));
        m.set(0, 0);
        m.set(5, 64);
        m.set(129, 129);
        assert!(m.get(0, 0));
        assert!(m.get(5, 64));
        assert!(m.get(129, 129));
        assert!(!m.get(5, 65));
        assert_eq!(m.size(), 130);
    }

    #[test]
    fn or_row_into_merges() {
        let mut m = BitMatrix::new(70);
        m.set(1, 3);
        m.set(1, 69);
        m.set(2, 10);
        m.or_row_into(1, 2);
        assert!(m.get(2, 3) && m.get(2, 69) && m.get(2, 10));
        assert!(!m.get(1, 10), "source row untouched");
        // dst < src direction
        m.or_row_into(2, 0);
        assert!(m.get(0, 3) && m.get(0, 10));
        // self-merge is a no-op
        let before = m.clone();
        m.or_row_into(2, 2);
        assert_eq!(m, before);
    }

    #[test]
    fn set_range_sets_exactly_the_range() {
        // Every (lo, hi) pair over the word boundaries of rows one, two,
        // three and four words long — empty, single-bit, word-aligned,
        // straddling and whole-row ranges — against a bit-at-a-time fill.
        for n in [1usize, 63, 64, 65, 128, 130, 200] {
            let edges: Vec<usize> = [0, 1, 63, 64, 65, 127, 128, n]
                .into_iter()
                .filter(|&e| e <= n)
                .collect();
            for &lo in &edges {
                for &hi in &edges {
                    let row = n / 2;
                    let mut fast = BitMatrix::new(n);
                    // A bit already set outside the range must survive.
                    fast.set(row, n - 1);
                    let mut slow = fast.clone();
                    fast.set_range(row, lo, hi);
                    for col in lo..hi {
                        slow.set(row, col);
                    }
                    assert_eq!(fast, slow, "n = {n}, range {lo}..{hi}");
                    let expected = (lo..hi).len() + usize::from(!(lo..hi).contains(&(n - 1)));
                    assert_eq!(fast.row_count(row), expected, "n = {n}, range {lo}..{hi}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bit range outside the row")]
    fn set_range_past_the_row_end_panics() {
        BitMatrix::new(70).set_range(0, 60, 71);
    }

    #[test]
    fn row_ones_ascending_and_counted() {
        let mut m = BitMatrix::new(200);
        for c in [0usize, 63, 64, 127, 128, 199] {
            m.set(7, c);
        }
        let ones: Vec<usize> = m.row_ones(7).collect();
        assert_eq!(ones, vec![0, 63, 64, 127, 128, 199]);
        assert_eq!(m.row_count(7), 6);
        assert_eq!(m.row_count(8), 0);
    }

    #[test]
    fn empty_matrix() {
        let m = BitMatrix::new(0);
        assert_eq!(m.size(), 0);
    }
}
