//! Static analyses of a SPAM routing instance — the quantities behind the
//! §5 discussion rather than timed simulation outputs:
//!
//! * **root transit probability** — "As the number of destinations
//!   increases, the probability that the worm must pass through the root
//!   of the underlying spanning tree increases, resulting in potential
//!   hot-spot effects"; computed exactly over sampled destination sets.
//! * **adaptivity** — how many legal channels the partially adaptive
//!   unicast stage has per hop, on average.
//! * **path stretch** — SPAM-legal shortest distance vs unconstrained BFS.

use crate::routing::SpamRouting;
use crate::tables::Phase;
use netgraph::{NodeId, Topology};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use updown::UpDownLabeling;

/// Result of [`root_transit_probability`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootTransit {
    /// Fraction of sampled multicasts whose LCA *is* the root (the whole
    /// worm necessarily crosses it).
    pub lca_is_root: f64,
    /// Fraction whose tree stage passes through the root's down-tree
    /// channels (identical to `lca_is_root` for SPAM, since the split
    /// stage starts at the LCA) **or** whose unicast stage must climb to
    /// the root (no shorter legal route exists).
    pub must_cross_root: f64,
    /// Samples taken.
    pub samples: u32,
}

/// Estimates how often a k-destination multicast from a random source is
/// forced through the spanning-tree root (§5's hot-spot argument).
pub fn root_transit_probability(
    topo: &Topology,
    ud: &UpDownLabeling,
    spam: &SpamRouting<'_>,
    k: usize,
    samples: u32,
    seed: u64,
) -> RootTransit {
    let procs: Vec<NodeId> = topo.processors().collect();
    assert!(k < procs.len(), "k must leave a source out");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut lca_root = 0u32;
    let mut cross_root = 0u32;
    for _ in 0..samples {
        let src = procs[rng.gen_range(0..procs.len())];
        let mut dests: Vec<NodeId> = procs.iter().copied().filter(|&p| p != src).collect();
        dests.shuffle(&mut rng);
        dests.truncate(k);
        let Some(lca) = ud.lca_of(&dests) else {
            // k == 0: no destinations, no transit — skip the sample.
            continue;
        };
        if lca == ud.root() {
            lca_root += 1;
            cross_root += 1;
            continue;
        }
        // The unicast stage is forced through the root iff every legal
        // route from the source's state to the LCA passes it — detectable
        // from the distance tables: if the best next hop at the source
        // region always climbs to the root. Exact check: simulate the
        // greedy min-distance walk and see whether it visits the root.
        if greedy_walk_visits(topo, spam, src, lca, ud.root()) {
            cross_root += 1;
        }
    }
    RootTransit {
        lca_is_root: lca_root as f64 / samples as f64,
        must_cross_root: cross_root as f64 / samples as f64,
        samples,
    }
}

/// Walks the min-residual-distance route from `src` (a processor) to
/// `target`, returning true if it visits `probe`.
fn greedy_walk_visits(
    topo: &Topology,
    spam: &SpamRouting<'_>,
    src: NodeId,
    target: NodeId,
    probe: NodeId,
) -> bool {
    let mut node = topo.switch_of(src);
    let mut phase = Phase::Up;
    let mut hops = 0;
    while node != target {
        if node == probe {
            return true;
        }
        let legal = spam.legal_moves(node, phase, target);
        // SPAM totality (the paper's liveness theorem): on a labeled
        // fault-free component the legal set is never empty.
        #[allow(clippy::expect_used)]
        let (ch, next) = legal
            .into_iter()
            .min_by_key(|&(c, ph)| {
                let v = topo.channel(c).dst;
                (spam.dist(target, v, ph), c)
            })
            .expect("SPAM totality");
        node = topo.channel(ch).dst;
        phase = next;
        hops += 1;
        assert!(hops <= topo.num_nodes() * 3, "walk failed to terminate");
    }
    node == probe
}

/// Mean number of legal moves per (switch, Up-phase, target) triple — the
/// degree of partial adaptivity SPAM's unicast stage actually offers.
pub fn mean_adaptivity(topo: &Topology, spam: &SpamRouting<'_>) -> f64 {
    let mut total = 0usize;
    let mut count = 0usize;
    for s in topo.switches() {
        for t in topo.processors() {
            total += spam.legal_moves(s, Phase::Up, t).len();
            count += 1;
        }
    }
    total as f64 / count as f64
}

/// Mean and max stretch of SPAM-legal shortest routes versus plain BFS
/// distance, over all processor pairs.
pub fn path_stretch(topo: &Topology, spam: &SpamRouting<'_>) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut n = 0usize;
    for a in topo.processors() {
        let bfs = netgraph::algo::bfs_distances(topo, a);
        for b in topo.processors() {
            if a == b {
                continue;
            }
            let legal = spam.dist(b, a, Phase::Up) as f64;
            let direct = bfs[b.index()] as f64;
            let stretch = legal / direct;
            sum += stretch;
            max = max.max(stretch);
            n += 1;
        }
    }
    (sum / n as f64, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;
    use updown::RootSelection;

    fn setup() -> (Topology, UpDownLabeling) {
        let t = IrregularConfig::with_switches(32).generate(3);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        (t, ud)
    }

    #[test]
    fn root_transit_grows_with_destination_count() {
        let (t, ud) = setup();
        let spam = SpamRouting::new(&t, &ud);
        let small = root_transit_probability(&t, &ud, &spam, 2, 300, 1);
        let large = root_transit_probability(&t, &ud, &spam, 24, 300, 1);
        assert!(small.lca_is_root <= large.lca_is_root + 1e-9);
        assert!(
            large.lca_is_root > 0.5,
            "24 of 31 destinations nearly always straddle the root: {large:?}"
        );
        assert!(large.must_cross_root >= large.lca_is_root);
        assert_eq!(large.samples, 300);
    }

    #[test]
    fn broadcasts_always_cross_the_root() {
        let (t, ud) = setup();
        let spam = SpamRouting::new(&t, &ud);
        let r = root_transit_probability(&t, &ud, &spam, 31, 50, 2);
        // LCA of all processors is the root itself (its own processor is a
        // destination whenever the source isn't... in any case every
        // broadcast must cross it).
        assert_eq!(r.must_cross_root, 1.0);
    }

    #[test]
    fn adaptivity_is_at_least_one_and_realistic() {
        let (t, ud) = setup();
        let spam = SpamRouting::new(&t, &ud);
        let a = mean_adaptivity(&t, &spam);
        assert!(a >= 1.0, "totality implies at least one legal move");
        assert!(a < 8.0, "bounded by the port count");
    }

    #[test]
    fn stretch_is_at_least_one() {
        let (t, ud) = setup();
        let spam = SpamRouting::new(&t, &ud);
        let (mean, max) = path_stretch(&t, &spam);
        assert!(mean >= 1.0);
        assert!(max >= mean);
        assert!(mean < 3.0, "up*/down* stretch should be modest: {mean}");
    }
}
