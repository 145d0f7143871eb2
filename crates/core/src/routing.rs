//! The SPAM routing algorithm as a [`wormsim::RoutingAlgorithm`].

use crate::tables::{Phase, RoutingTables, UNREACHABLE};
use netgraph::{ChannelId, NodeId, Topology};
use spam_collections::InlineVec;
use std::sync::Arc;
use updown::{ChannelClass, UpDownLabeling};
use wormsim::{
    MessageSpec, RouteDecision, RouteError, RoutingAlgorithm, SnapReader, SnapWriter, SnapshotError,
};

/// Reusable working memory for SPAM's per-hop decision: the legal-move
/// candidate set of the unicast stage. Owned by the simulation engine and
/// threaded through every [`RoutingAlgorithm::route`] call, so the hot
/// path allocates nothing (the inline capacity covers the paper's 8-port
/// switches; larger degrees spill once and the capacity is retained).
#[derive(Debug, Default)]
pub struct RouteScratch {
    legal: InlineVec<(ChannelId, Phase), 8>,
}

/// How the partially adaptive unicast stage picks among legal channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// The §4 policy: prefer the channel whose endpoint is closest to the
    /// target (exact residual SPAM distance), ties broken by channel id.
    /// Strictly distance-decreasing, hence livelock-free by construction.
    #[default]
    MinResidualDistance,
    /// Lowest channel id among legal candidates — a deliberately naive
    /// policy for the selection-function ablation. Still livelock-free
    /// (every legal move strictly descends the up*/down* partial order)
    /// but can take far-from-shortest routes.
    FirstLegal,
    /// Deterministically pseudo-random choice among the legal candidates,
    /// keyed on (message tag, router) — models an unbiased adaptive
    /// selector without RNG state in the router.
    RandomLegal {
        /// Seed mixed into the per-decision hash.
        seed: u64,
    },
}

/// Header state carried by a SPAM worm (in hardware: header-flit fields).
#[derive(Debug, Clone)]
pub struct SpamHeader {
    /// Destination processors (shared, immutable).
    pub dests: Arc<[NodeId]>,
    /// The split point: LCA of the destinations (the destination itself
    /// for a unicast).
    pub lca: NodeId,
    /// Channel-ordering phase of the unicast stage.
    pub phase: Phase,
    /// True once the worm has passed the LCA and is in the tree stage.
    pub in_tree: bool,
}

/// SPAM — Single Phase Adaptive Multicast (§3 of the paper).
///
/// Borrows the topology and labeling and shares the [`RoutingTables`]
/// built over them (constructed internally unless handed in; the tables'
/// distance rows fill in as targets are first routed to). One instance
/// drives arbitrarily many messages; it is `Sync`, so sweep harnesses can
/// share it across threads.
#[derive(Debug, Clone)]
pub struct SpamRouting<'a> {
    topo: &'a Topology,
    ud: &'a UpDownLabeling,
    tables: Arc<RoutingTables>,
    policy: SelectionPolicy,
}

impl<'a> SpamRouting<'a> {
    /// Builds SPAM over a labeling.
    pub fn new(topo: &'a Topology, ud: &'a UpDownLabeling) -> Self {
        Self::with_tables(topo, ud, Arc::new(RoutingTables::build(topo, ud)))
    }

    /// Builds SPAM over a labeling of a degraded network that keeps the
    /// base topology's channel ids: channels marked dead in `alive` are
    /// never requested and never count as legal moves, and residual
    /// distances are computed over the surviving subgraph only. This is
    /// the post-fault epoch router of live reconfiguration — the labeling
    /// should come from [`updown::UpDownLabeling::relabel_after`].
    pub fn new_masked(topo: &'a Topology, ud: &'a UpDownLabeling, alive: &[bool]) -> Self {
        let tables = RoutingTables::build_masked(topo, ud, Some(alive));
        Self::with_tables(topo, ud, Arc::new(tables))
    }

    /// Builds SPAM over *already built* tables — the artifact-cache entry
    /// point. `tables` must have been produced by [`RoutingTables::build`]
    /// or [`RoutingTables::build_masked`] for exactly this `(topo, ud)`
    /// pair (the liveness mask travels with them); behavior is then
    /// identical to [`Self::new`] / [`Self::new_masked`], and every
    /// distance row an earlier router over the same tables built is
    /// already there.
    pub fn with_tables(
        topo: &'a Topology,
        ud: &'a UpDownLabeling,
        tables: Arc<RoutingTables>,
    ) -> Self {
        assert_eq!(
            tables.num_nodes(),
            topo.num_nodes(),
            "tables cover every node of the topology"
        );
        SpamRouting {
            topo,
            ud,
            tables,
            policy: SelectionPolicy::default(),
        }
    }

    /// Same labeling, different selection policy (shares the tables).
    pub fn with_policy(&self, policy: SelectionPolicy) -> Self {
        SpamRouting {
            policy,
            ..self.clone()
        }
    }

    /// The labeling this router uses.
    pub fn labeling(&self) -> &UpDownLabeling {
        self.ud
    }

    /// The routing tables (exposed for analyses and benchmarks).
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Residual SPAM-legal distance from `(node, phase)` to `target`, in
    /// channels; [`UNREACHABLE`] when no legal completion exists. The
    /// first question about a `target` builds its row.
    #[inline]
    pub fn dist(&self, target: NodeId, node: NodeId, phase: Phase) -> u16 {
        self.tables.dist(self.ud, target, node, phase)
    }

    /// All SPAM-legal `(channel, successor phase)` moves from `node` in
    /// `phase` towards `target` (§3.1 rules 1–3). Public for tests and for
    /// the adaptivity analyses in the benchmark harness; the simulation
    /// hot path uses [`Self::legal_moves_into`] with reused scratch
    /// storage instead.
    pub fn legal_moves(
        &self,
        node: NodeId,
        phase: Phase,
        target: NodeId,
    ) -> Vec<(ChannelId, Phase)> {
        let mut out = InlineVec::new();
        self.legal_moves_into(node, phase, target, &mut out);
        out.to_vec()
    }

    /// Allocation-free variant of [`Self::legal_moves`]: writes the legal
    /// set into `out` (cleared first). Iterates the routing tables'
    /// precomputed per-node move slice — channel, endpoint, and class come
    /// from one contiguous record, and masked-out (dead) channels were
    /// excluded at table-build time.
    fn legal_moves_into(
        &self,
        node: NodeId,
        phase: Phase,
        target: NodeId,
        out: &mut InlineVec<(ChannelId, Phase), 8>,
    ) {
        out.clear();
        for m in self.tables.moves(node) {
            let next = match (m.class, phase) {
                // Rule 1: up channels while still in the up phase.
                (ChannelClass::UpTree | ChannelClass::UpCross, Phase::Up) => Some(Phase::Up),
                // Rule 2: down cross channels before any down tree use,
                // endpoint an extended ancestor of the target.
                (ChannelClass::DownCross, Phase::Up | Phase::DownCross)
                    if self.ud.is_extended_ancestor(m.dst, target) =>
                {
                    Some(Phase::DownCross)
                }
                // Rule 3: down tree channels anywhere, endpoint an
                // ancestor of the target.
                (ChannelClass::DownTree, _) if self.ud.is_ancestor(m.dst, target) => {
                    Some(Phase::DownTree)
                }
                _ => None,
            };
            if let Some(nph) = next {
                out.push((m.channel, nph));
            }
        }
    }

    /// Applies the selection policy to a non-empty legal set.
    //
    // Caller contract (checked at every call site): `legal` comes from
    // `legal_moves` and was tested non-empty before dispatching here, so
    // the `min_by_key` reductions below cannot see an empty iterator.
    #[allow(clippy::expect_used)]
    fn select(
        &self,
        legal: &[(ChannelId, Phase)],
        target: NodeId,
        node: NodeId,
        tag: u64,
    ) -> (ChannelId, Phase) {
        match self.policy {
            SelectionPolicy::MinResidualDistance => {
                // Resolve the target's row once; each candidate then
                // costs one indexed load.
                let row = self.tables.row(self.ud, target);
                legal
                    .iter()
                    .copied()
                    .min_by_key(|&(c, ph)| {
                        let v = self.topo.channel(c).dst;
                        (row[RoutingTables::cell(v, ph)], c)
                    })
                    .expect("legal set is non-empty")
            }
            SelectionPolicy::FirstLegal => legal
                .iter()
                .copied()
                .min_by_key(|&(c, _)| c)
                .expect("legal set is non-empty"),
            SelectionPolicy::RandomLegal { seed } => {
                // Finite legal sets are never routed in circles: any legal
                // move strictly descends the up*/down* order, so a hash
                // pick is safe. SplitMix64 over (seed, tag, node).
                let mut x = seed
                    ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ ((node.0 as u64) << 32 | node.0 as u64);
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                legal[(x % legal.len() as u64) as usize]
            }
        }
    }

    /// The tree-stage request set at `node`: one down tree channel per
    /// child subtree containing destinations (processor children included —
    /// delivery channels are down tree channels like any other). Test and
    /// analysis API; the hot path is [`Self::tree_requests_into`].
    pub fn tree_requests(&self, node: NodeId, header: &SpamHeader) -> Vec<(ChannelId, SpamHeader)> {
        let mut out = RouteDecision::default();
        self.tree_requests_into(node, header, &mut out);
        out.requests
    }

    /// Allocation-free tree stage: pushes the per-subtree requests into
    /// `out`. Successor headers share the destination set behind an `Arc`,
    /// so each branch header is a refcount bump, not a heap copy.
    fn tree_requests_into(
        &self,
        node: NodeId,
        header: &SpamHeader,
        out: &mut RouteDecision<SpamHeader>,
    ) {
        for &child in self.ud.tree_children(node) {
            if header.dests.iter().any(|&d| self.ud.is_ancestor(child, d)) {
                // `tree_children` enumerates spanning-tree edges, and the
                // spanning tree is a subgraph of the topology's links.
                #[allow(clippy::expect_used)]
                let ch = self
                    .topo
                    .channel_between(node, child)
                    .expect("tree edges are links");
                debug_assert!(
                    self.tables.is_alive(ch),
                    "a relabeled spanning tree only uses surviving links"
                );
                out.push(
                    ch,
                    SpamHeader {
                        dests: header.dests.clone(),
                        lca: header.lca,
                        phase: Phase::DownTree,
                        in_tree: true,
                    },
                );
            }
        }
    }
}

impl RoutingAlgorithm for SpamRouting<'_> {
    type Header = SpamHeader;
    type Scratch = RouteScratch;

    fn initial_header(&self, spec: &MessageSpec) -> Result<SpamHeader, RouteError> {
        // On a degraded network the source's island may have been severed
        // from the routable component: it can reach nothing. Reject before
        // any flit moves (rule 1 would otherwise let the worm wander its
        // island's up channels with no completion existing).
        if !self.ud.is_labeled(spec.src) {
            return Err(RouteError::SourceDisconnected { src: spec.src });
        }
        // Likewise a destination may have been lost to the dead zone: no
        // labeling covers it, no LCA exists, and no routing algorithm
        // could reach it.
        if let Some(&dead) = spec.dests.iter().find(|&&d| !self.ud.is_labeled(d)) {
            return Err(RouteError::UnreachableDestination { dest: dead });
        }
        // The engine rejects empty destination sets at submit, and the
        // labeled-ness of every destination was just checked above.
        #[allow(clippy::expect_used)]
        let lca = self
            .ud
            .lca_of(&spec.dests)
            .expect("validated specs have labeled destinations");
        Ok(SpamHeader {
            dests: Arc::from(spec.dests.as_slice()),
            lca,
            phase: Phase::Up,
            in_tree: false,
        })
    }

    fn snapshot_name(&self) -> &'static str {
        "spam"
    }

    fn encode_header(&self, h: &SpamHeader, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        w.put_len(h.dests.len());
        for d in h.dests.iter() {
            w.put_u32(d.0);
        }
        w.put_u32(h.lca.0);
        w.put_u8(h.phase as u8);
        w.put_bool(h.in_tree);
        Ok(())
    }

    fn decode_header(&self, r: &mut SnapReader) -> Result<SpamHeader, SnapshotError> {
        // `route` indexes the labeling with every node id here.
        let nodes = self.topo.num_nodes();
        let node = |r: &mut SnapReader| match r.get_u32()? {
            id if (id as usize) < nodes => Ok(NodeId(id)),
            _ => Err(SnapshotError::Corrupt("node id outside the topology")),
        };
        // Collected straight into the `Arc` (a mapped range has an exact
        // length, so that is one allocation); the first error is kept and
        // returned after.
        let mut bad = Ok(());
        let dests: Arc<[NodeId]> = (0..r.get_len()?)
            .map(|_| {
                node(r).unwrap_or_else(|e| {
                    bad = bad.and(Err(e));
                    NodeId(0)
                })
            })
            .collect();
        bad?;
        Ok(SpamHeader {
            dests,
            lca: node(r)?,
            phase: match r.get_u8()? {
                0 => Phase::Up,
                1 => Phase::DownCross,
                2 => Phase::DownTree,
                _ => return Err(SnapshotError::Corrupt("unknown SPAM routing phase")),
            },
            in_tree: r.get_bool()?,
        })
    }

    fn route(
        &self,
        node: NodeId,
        _in_ch: ChannelId,
        header: &SpamHeader,
        spec: &MessageSpec,
        scratch: &mut RouteScratch,
        out: &mut RouteDecision<SpamHeader>,
    ) -> Result<(), RouteError> {
        // Tree stage: at or below the LCA, split along down tree channels.
        if header.in_tree || node == header.lca {
            self.tree_requests_into(node, header, out);
            if out.requests.is_empty() {
                // Theorem 1 guarantees this never fires on a labeled
                // connected component; it surfaces stale labelings and
                // out-of-component destinations on degraded networks.
                return Err(RouteError::NoDestinationSubtree { node });
            }
            return Ok(());
        }
        // Unicast stage towards the LCA.
        self.legal_moves_into(node, header.phase, header.lca, &mut scratch.legal);
        if scratch.legal.is_empty() {
            return Err(RouteError::NoLegalMove {
                node,
                target: header.lca,
            });
        }
        let (ch, next_phase) = self.select(scratch.legal.as_slice(), header.lca, node, spec.tag);
        debug_assert_ne!(
            self.dist(header.lca, self.topo.channel(ch).dst, next_phase),
            UNREACHABLE,
            "selected a dead-end channel"
        );
        out.push(
            ch,
            SpamHeader {
                dests: header.dests.clone(),
                lca: header.lca,
                phase: next_phase,
                in_tree: false,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::fixtures::figure1;
    use updown::RootSelection;
    use wormsim::{NetworkSim, SimConfig};

    fn fig1() -> (
        Topology,
        netgraph::gen::fixtures::Figure1Labels,
        UpDownLabeling,
    ) {
        let (t, l) = figure1();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(1).unwrap()));
        (t, l, ud)
    }

    /// Channel endpoints of a legal-move / request list — the quantity
    /// every routing test asserts on (one helper instead of six ad-hoc
    /// `map(..).collect()` chains).
    fn dsts<T>(t: &Topology, items: &[(ChannelId, T)]) -> Vec<NodeId> {
        items.iter().map(|(c, _)| t.channel(*c).dst).collect()
    }

    #[test]
    fn decoded_header_node_ids_are_held_against_the_topology() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let spec = MessageSpec::unicast(l.by_label(5).unwrap(), l.by_label(8).unwrap(), 16);
        let good = spam.initial_header(&spec).unwrap();
        let outside = NodeId(t.num_nodes() as u32);
        let lca_outside = SpamHeader {
            lca: outside,
            ..good.clone()
        };
        let dest_outside = SpamHeader {
            dests: Arc::from([good.dests[0], outside].as_slice()),
            ..good.clone()
        };
        for (h, ok) in [(good, true), (lca_outside, false), (dest_outside, false)] {
            let mut w = SnapWriter::new();
            w.begin();
            spam.encode_header(&h, &mut w).unwrap();
            let bytes = w.seal().to_vec();
            let back = spam.decode_header(&mut SnapReader::open(&bytes).unwrap());
            match back {
                Ok(back) => assert!(ok && back.lca == h.lca && back.dests == h.dests),
                Err(e) => {
                    assert!(!ok && e == SnapshotError::Corrupt("node id outside the topology"))
                }
            }
        }
    }

    #[test]
    fn initial_header_computes_lca() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let spec = MessageSpec::multicast(by(5), vec![by(8), by(9), by(10), by(11)], 128);
        let h = spam.initial_header(&spec).unwrap();
        assert_eq!(h.lca, by(4));
        assert_eq!(h.phase, Phase::Up);
        assert!(!h.in_tree);
        // Unicast: LCA is the destination itself (§3.2).
        let u = spam
            .initial_header(&MessageSpec::unicast(by(5), by(8), 8))
            .unwrap();
        assert_eq!(u.lca, by(8));
    }

    #[test]
    fn legal_moves_respect_rules_at_node2() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        // Routing towards LCA 4 from node 2 in Up phase: legal channels are
        // the up channel (2,1), the down cross (2,3) (3 ext-anc of 4), and
        // the down tree (2,4) (4 anc of itself). Not (2,5): 5 is a leaf
        // processor, not an ancestor of 4.
        let legal = spam.legal_moves(by(2), Phase::Up, by(4));
        let up_dsts = dsts(&t, &legal);
        assert!(up_dsts.contains(&by(1)));
        assert!(up_dsts.contains(&by(3)));
        assert!(up_dsts.contains(&by(4)));
        assert!(!up_dsts.contains(&by(5)));
        // In DownCross phase the up channel disappears.
        let dsts_dc = dsts(&t, &spam.legal_moves(by(2), Phase::DownCross, by(4)));
        assert!(!dsts_dc.contains(&by(1)));
        assert!(dsts_dc.contains(&by(3)));
        assert!(dsts_dc.contains(&by(4)));
        // In DownTree phase only the tree descent remains.
        let dsts_dt = dsts(&t, &spam.legal_moves(by(2), Phase::DownTree, by(4)));
        assert_eq!(dsts_dt, vec![by(4)]);
    }

    #[test]
    fn min_distance_selection_takes_shortest_route() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let legal = spam.legal_moves(by(2), Phase::Up, by(4));
        let (ch, ph) = spam.select(&legal, by(4), by(2), 0);
        assert_eq!(t.channel(ch).dst, by(4), "direct down tree hop wins");
        assert_eq!(ph, Phase::DownTree);
    }

    #[test]
    fn tree_requests_split_per_subtree() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let header = SpamHeader {
            dests: vec![by(8), by(9), by(11)].into(),
            lca: by(4),
            phase: Phase::Up,
            in_tree: false,
        };
        let reqs = spam.tree_requests(by(4), &header);
        assert_eq!(dsts(&t, &reqs), vec![by(6), by(7)]);
        // Below, node 6 fans out to exactly the destination processors.
        let reqs6 = spam.tree_requests(by(6), &reqs[0].1);
        assert_eq!(dsts(&t, &reqs6), vec![by(8), by(9)]);
    }

    #[test]
    fn paper_example_multicast_delivers() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let mut sim = NetworkSim::new(&t, spam, SimConfig::paper());
        sim.submit(MessageSpec::multicast(
            by(5),
            vec![by(8), by(9), by(10), by(11)],
            128,
        ))
        .unwrap();
        let out = sim.run();
        assert!(out.all_delivered());
        // Shortest legal header route: 5 -> 2 (up), 2 -> 4 (down tree),
        // then the splits 4 -> {6,7}, 6 -> {8,9,10}, 7 -> 11. Deepest
        // destination path = 4 channels, 3 switches:
        // 10_000 + 4*10 + 3*40 + 127*10 = 11_430 ns.
        assert_eq!(out.messages[0].latency().unwrap().as_ns(), 11_430);
        // Balanced subtrees, uncontended: no bubbles needed.
        assert_eq!(out.counters.bubbles_created, 0);
    }

    #[test]
    fn all_unicast_pairs_deliver_on_figure1() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let procs: Vec<NodeId> = t.processors().collect();
        for &a in &procs {
            for &b in &procs {
                if a == b {
                    continue;
                }
                let mut sim = NetworkSim::new(&t, spam.clone(), SimConfig::paper());
                sim.submit(MessageSpec::unicast(a, b, 32)).unwrap();
                let out = sim.run();
                assert!(
                    out.all_delivered(),
                    "unicast {} -> {} failed",
                    l.label_of(a).unwrap(),
                    l.label_of(b).unwrap()
                );
            }
        }
    }

    #[test]
    fn all_selection_policies_deliver() {
        let (t, _, ud) = fig1();
        let base = SpamRouting::new(&t, &ud);
        let procs: Vec<NodeId> = t.processors().collect();
        for policy in [
            SelectionPolicy::MinResidualDistance,
            SelectionPolicy::FirstLegal,
            SelectionPolicy::RandomLegal { seed: 42 },
        ] {
            let spam = base.with_policy(policy);
            let mut sim = NetworkSim::new(&t, spam, SimConfig::paper());
            sim.submit(MessageSpec::multicast(procs[0], procs[1..].to_vec(), 64))
                .unwrap();
            let out = sim.run();
            assert!(out.all_delivered(), "{policy:?} failed to deliver");
        }
    }
}
