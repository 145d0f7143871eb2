//! Irregular NOW topologies on an integer lattice (§4 of the paper).
//!
//! > "In order to simulate physical proximity of connected switches,
//! > switches were randomly selected from points on an integer lattice and
//! > connected only to adjacent lattice points. Thus, at most 4 ports per
//! > switch were used for connections to other switches. In order to
//! > maximize the probability of contention between messages, each switch
//! > was connected to only one processor."
//!
//! Two sampling strategies are provided:
//!
//! * [`LatticeStrategy::ConnectedGrowth`] (default) grows the occupied cell
//!   set one random frontier cell at a time, guaranteeing a connected
//!   network in a single pass — the practical choice for large sweeps.
//! * [`LatticeStrategy::UniformRetry`] samples cells uniformly at random
//!   (closest to the paper's literal wording) and retries with a fresh seed
//!   derivation until the induced adjacency graph is connected.
//!
//! Both attach exactly one processor per switch and respect the 8-port
//! budget (≤ 4 lattice neighbors + 1 processor).

use crate::algo;
use crate::ids::NodeId;
use crate::topology::{Topology, TopologyBuilder};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How lattice cells are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatticeStrategy {
    /// Grow a connected blob: start from a random cell and repeatedly occupy
    /// a uniformly random unoccupied cell adjacent to the blob.
    ConnectedGrowth,
    /// Sample cells uniformly without replacement; retry (bounded) until the
    /// induced graph is connected.
    UniformRetry,
}

/// Configuration for irregular lattice topology generation.
#[derive(Debug, Clone, Copy)]
pub struct IrregularConfig {
    /// Number of switches (= number of processors; one per switch).
    pub switches: usize,
    /// Lattice side length. Cells = `side * side`; must hold ≥ `switches`.
    /// A side of `ceil(sqrt(switches / 0.6))` gives the ~60 % occupancy used
    /// by [`IrregularConfig::with_switches`].
    pub side: usize,
    /// Cell-selection strategy.
    pub strategy: LatticeStrategy,
    /// Max attempts for [`LatticeStrategy::UniformRetry`] before falling
    /// back to keeping the largest component's complement cells re-rolled.
    pub max_retries: usize,
}

/// Lattice placement of a generated irregular network: which cell each
/// switch occupies. Needed by spatially correlated fault models (a failed
/// rack/region takes out *adjacent* switches) and by visualization.
#[derive(Debug, Clone)]
pub struct LatticeLayout {
    /// Lattice side length.
    pub side: usize,
    /// `cell[s]` is the cell index (`row * side + col`) of switch node
    /// `s`; indexed by switch node id (switches are ids `0..switches`).
    pub cell: Vec<usize>,
}

impl LatticeLayout {
    /// `(row, col)` of switch `s`.
    pub fn position(&self, s: NodeId) -> (usize, usize) {
        let c = self.cell[s.index()];
        (c / self.side, c % self.side)
    }

    /// Manhattan (L1) lattice distance between two switches.
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> usize {
        let (ra, ca) = self.position(a);
        let (rb, cb) = self.position(b);
        ra.abs_diff(rb) + ca.abs_diff(cb)
    }
}

impl IrregularConfig {
    /// The paper's setup for `n` switches: ~60 % lattice occupancy,
    /// connected-growth sampling.
    pub fn with_switches(n: usize) -> Self {
        let side = ((n as f64 / 0.6).sqrt().ceil() as usize).max(1);
        IrregularConfig {
            switches: n,
            side,
            strategy: LatticeStrategy::ConnectedGrowth,
            max_retries: 64,
        }
    }

    /// Replaces the sampling strategy.
    pub fn strategy(mut self, s: LatticeStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Generates a topology with randomness drawn from `seed`.
    ///
    /// The result is always connected, has exactly one processor per switch,
    /// and every switch has at most 4 switch links (8-port switches with 4
    /// lattice neighbors max + 1 processor port, as in §4).
    ///
    /// # Panics
    ///
    /// Panics if `side * side < switches`.
    pub fn generate(&self, seed: u64) -> Topology {
        self.generate_with_layout(seed).0
    }

    /// Like [`IrregularConfig::generate`], but also returns the
    /// [`LatticeLayout`] (cell of every switch) — the hook spatially
    /// correlated fault models need. Same seed, same topology as
    /// `generate`.
    ///
    /// # Panics
    ///
    /// Panics if `side * side < switches`, or if `side * side` overflows.
    pub fn generate_with_layout(&self, seed: u64) -> (Topology, LatticeLayout) {
        assert!(
            self.cells() >= self.switches,
            "lattice too small: {}x{} < {} switches",
            self.side,
            self.side,
            self.switches
        );
        match self.strategy {
            LatticeStrategy::ConnectedGrowth => self.generate_growth(seed),
            LatticeStrategy::UniformRetry => self.generate_uniform(seed),
        }
    }

    /// Number of lattice cells. Checked, because an unchecked product
    /// wraps in release builds: a huge side would pass the size assert and
    /// go on to ask for `side * side` cells of memory.
    fn cells(&self) -> usize {
        self.side.checked_mul(self.side).unwrap_or_else(|| {
            panic!(
                "lattice side {} is too large: side * side overflows",
                self.side
            )
        })
    }

    fn cell_neighbors(&self, cell: usize) -> impl Iterator<Item = usize> + '_ {
        let side = self.side;
        let (r, c) = (cell / side, cell % side);
        [
            (r.wrapping_sub(1), c),
            (r + 1, c),
            (r, c.wrapping_sub(1)),
            (r, c + 1),
        ]
        .into_iter()
        .filter(move |&(rr, cc)| rr < side && cc < side)
        .map(move |(rr, cc)| rr * side + cc)
    }

    fn generate_growth(&self, seed: u64) -> (Topology, LatticeLayout) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cells = self.cells();
        let mut occupied = vec![false; cells];
        let mut chosen = Vec::with_capacity(self.switches);
        // Every chosen cell adds at most its 4 lattice neighbors, and a
        // draw only ever removes: 4 entries per switch bound the frontier.
        let mut frontier: Vec<usize> = Vec::with_capacity(4 * self.switches);

        let start = rng.gen_range(0..cells);
        occupied[start] = true;
        chosen.push(start);
        frontier.extend(self.cell_neighbors(start));

        while chosen.len() < self.switches {
            // Draw a random frontier cell; the frontier may contain already
            // occupied or duplicate entries, so filter lazily (swap-remove
            // keeps this O(1) amortized).
            debug_assert!(!frontier.is_empty(), "lattice frontier exhausted");
            let i = rng.gen_range(0..frontier.len());
            let cell = frontier.swap_remove(i);
            if occupied[cell] {
                continue;
            }
            occupied[cell] = true;
            chosen.push(cell);
            frontier.extend(self.cell_neighbors(cell).filter(|c| !occupied[*c]));
        }
        chosen.sort_unstable(); // node ids independent of growth order
        (
            self.assemble(&chosen),
            LatticeLayout {
                side: self.side,
                cell: chosen,
            },
        )
    }

    fn generate_uniform(&self, seed: u64) -> (Topology, LatticeLayout) {
        let cells: Vec<usize> = (0..self.cells()).collect();
        for attempt in 0..self.max_retries {
            // Derive a fresh stream per attempt so retries are independent
            // but the whole procedure stays a pure function of `seed`.
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attempt as u64 + 1),
            );
            let mut pick = cells.clone();
            pick.shuffle(&mut rng);
            pick.truncate(self.switches);
            pick.sort_unstable();
            let topo = self.assemble(&pick);
            if algo::is_connected(&topo) {
                let layout = LatticeLayout {
                    side: self.side,
                    cell: pick,
                };
                return (topo, layout);
            }
        }
        // Deterministic fallback: a connected instance is always available.
        self.generate_growth(seed)
    }

    /// Builds the topology from a sorted list of occupied cells.
    // Every node is fresh, a cell pair is linked once (`j > i`) and each
    // processor once to its own switch: `link` has nothing to reject.
    #[allow(clippy::unwrap_used)]
    fn assemble(&self, chosen: &[usize]) -> Topology {
        // A switch and its processor per cell; per cell at most two links
        // to later cells (right and down) and one to its processor.
        let mut b = TopologyBuilder::with_capacity(2 * chosen.len(), 3 * chosen.len());
        let switch_ids: Vec<NodeId> = chosen.iter().map(|_| b.add_switch()).collect();
        // Map cell -> switch index for adjacency lookups.
        let mut cell_to_switch = vec![usize::MAX; self.cells()];
        for (i, &cell) in chosen.iter().enumerate() {
            cell_to_switch[cell] = i;
        }
        for (i, &cell) in chosen.iter().enumerate() {
            for nb in self.cell_neighbors(cell) {
                let j = cell_to_switch[nb];
                if j != usize::MAX && j > i {
                    b.link(switch_ids[i], switch_ids[j]).unwrap();
                }
            }
        }
        for &s in &switch_ids {
            let p = b.add_processor();
            b.link(p, s).unwrap();
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::is_connected;

    #[test]
    fn growth_generates_connected_valid_networks() {
        for seed in 0..10 {
            let t = IrregularConfig::with_switches(64).generate(seed);
            assert_eq!(t.num_switches(), 64);
            assert_eq!(t.num_processors(), 64);
            t.validate(8).unwrap();
            assert!(is_connected(&t));
        }
    }

    #[test]
    fn uniform_retry_generates_connected_valid_networks() {
        for seed in 0..5 {
            let t = IrregularConfig::with_switches(32)
                .strategy(LatticeStrategy::UniformRetry)
                .generate(seed);
            assert_eq!(t.num_switches(), 32);
            t.validate(8).unwrap();
            assert!(is_connected(&t));
        }
    }

    #[test]
    fn switch_links_capped_at_four() {
        let t = IrregularConfig::with_switches(128).generate(42);
        for s in t.switches() {
            let switch_links = t.neighbors(s).filter(|n| t.is_switch(*n)).count();
            assert!(switch_links <= 4, "lattice adjacency limits switch links");
            // 8-port budget: ≤4 switch links + 1 processor.
            assert!(t.degree(s) <= 5);
        }
    }

    #[test]
    fn one_processor_per_switch() {
        let t = IrregularConfig::with_switches(50).generate(7);
        for s in t.switches() {
            assert!(t.processor_of(s).is_some());
        }
        for p in t.processors() {
            assert!(t.is_switch(t.switch_of(p)));
        }
    }

    #[test]
    fn same_seed_same_topology() {
        let a = IrregularConfig::with_switches(40).generate(123);
        let b = IrregularConfig::with_switches(40).generate(123);
        assert_eq!(a.num_channels(), b.num_channels());
        for c in a.channel_ids() {
            assert_eq!(a.channel(c), b.channel(c));
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let a = IrregularConfig::with_switches(40).generate(1);
        let b = IrregularConfig::with_switches(40).generate(2);
        // Same node count but the link sets should not coincide.
        let links_a: Vec<_> = a.channel_ids().map(|c| a.channel(c)).collect();
        let links_b: Vec<_> = b.channel_ids().map(|c| b.channel(c)).collect();
        assert_ne!(links_a, links_b);
    }

    #[test]
    fn layout_matches_topology_adjacency() {
        let cfg = IrregularConfig::with_switches(40);
        let (t, layout) = cfg.generate_with_layout(9);
        assert_eq!(layout.cell.len(), 40);
        assert_eq!(layout.side, cfg.side);
        // Same seed without layout gives the identical topology.
        let t2 = cfg.generate(9);
        assert_eq!(t.num_channels(), t2.num_channels());
        for c in t.channel_ids() {
            assert_eq!(t.channel(c), t2.channel(c));
        }
        // Switches are linked iff their cells are lattice-adjacent.
        for a in t.switches() {
            for b in t.switches() {
                if a >= b {
                    continue;
                }
                let adjacent = layout.manhattan(a, b) == 1;
                assert_eq!(t.channel_between(a, b).is_some(), adjacent, "{a} vs {b}");
            }
        }
        // All occupied cells are distinct and in range.
        let mut cells = layout.cell.clone();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 40);
        assert!(cells.iter().all(|&c| c < layout.side * layout.side));
    }

    #[test]
    #[should_panic(expected = "lattice too small")]
    fn too_small_lattice_panics() {
        IrregularConfig {
            switches: 10,
            side: 3,
            strategy: LatticeStrategy::ConnectedGrowth,
            max_retries: 4,
        }
        .generate(0);
    }

    /// Holds in debug and in release: an unchecked product would panic
    /// only where overflow checks are compiled in, and wrap elsewhere.
    #[test]
    #[should_panic(expected = "side * side overflows")]
    fn overflowing_side_panics_before_allocating() {
        IrregularConfig {
            switches: 10,
            side: (1usize << (usize::BITS / 2)) + 1,
            strategy: LatticeStrategy::UniformRetry,
            max_retries: 1,
        }
        .generate(0);
    }

    #[test]
    fn single_switch_network() {
        let t = IrregularConfig {
            switches: 1,
            side: 1,
            strategy: LatticeStrategy::ConnectedGrowth,
            max_retries: 1,
        }
        .generate(0);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.num_processors(), 1);
        t.validate(8).unwrap();
    }
}
