//! The SPAM routing algorithm as a [`wormsim::RoutingAlgorithm`].

use crate::tables::{Phase, RoutingTables, Row, UNREACHABLE};
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

/// Header state carried by a SPAM worm: what changes as it moves. The
/// destinations are the message's own (`MessageSpec::dests`, which every
/// routing call is handed); on the wire they cost
/// `SimConfig::extra_header_flits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpamHeader {
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
    /// pair (the dead channels they leave out travel with them); behavior
    /// is then identical to [`Self::new`] / [`Self::new_masked`], and
    /// every distance row an earlier router over the same tables built is
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

    /// Residual SPAM-legal distance from `(node, phase)` to `target`, in
    /// channels; [`UNREACHABLE`] when no legal completion exists. The
    /// first question about a `target` builds its row.
    #[inline]
    pub fn dist(&self, target: NodeId, node: NodeId, phase: Phase) -> u16 {
        self.tables
            .row(self.topo, self.ud, target)
            .dist(node, phase)
    }

    /// All SPAM-legal `(channel, successor phase)` moves from `node` in
    /// `phase` towards `target` (§3.1 rules 1–3). Public for tests and for
    /// the adaptivity analyses in the benchmark harness; the simulation
    /// hot path writes the same set into reused scratch storage instead.
    ///
    /// Rule 2 reads `target`'s distance row, so the first question about a
    /// `target` builds it: `4 · switches` bytes, kept with the tables for
    /// their lifetime. A sweep over every target makes every row resident.
    pub fn legal_moves(
        &self,
        node: NodeId,
        phase: Phase,
        target: NodeId,
    ) -> Vec<(ChannelId, Phase)> {
        let mut out = InlineVec::new();
        let row = self.tables.row(self.topo, self.ud, target);
        self.legal_moves_into(node, phase, target, row, &mut out);
        out.to_vec()
    }

    /// Allocation-free variant of [`Self::legal_moves`]: writes the legal
    /// set into `out` (cleared first). `row` is `target`'s distance row.
    /// Iterates the routing tables' precomputed per-node move slice —
    /// channel, endpoint, and class come from one contiguous record, and
    /// masked-out (dead) channels were excluded at table-build time.
    fn legal_moves_into(
        &self,
        node: NodeId,
        phase: Phase,
        target: NodeId,
        row: Row<'_>,
        out: &mut InlineVec<(ChannelId, Phase), 8>,
    ) {
        out.clear();
        for m in self.tables.moves(node) {
            let next = match (m.class, phase) {
                // Rule 1: up channels while still in the up phase.
                (ChannelClass::UpTree | ChannelClass::UpCross, Phase::Up) => Some(Phase::Up),
                // Rule 2: down cross channels before any down tree use,
                // endpoint an extended ancestor of the target — which is
                // what a finite DownCross cell of the target's row says.
                (ChannelClass::DownCross, Phase::Up | Phase::DownCross)
                    if row.dist(m.dst, Phase::DownCross) != UNREACHABLE =>
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

    /// Applies the selection policy to a non-empty legal set; `row` is the
    /// target's distance row.
    //
    // Caller contract (checked at every call site): `legal` comes from
    // `legal_moves` and was tested non-empty before dispatching here, so
    // the `min_by_key` reductions below cannot see an empty iterator.
    #[allow(clippy::expect_used)]
    fn select(
        &self,
        legal: &[(ChannelId, Phase)],
        row: Row<'_>,
        node: NodeId,
        tag: u64,
    ) -> (ChannelId, Phase) {
        match self.policy {
            // Each candidate costs one row cell (a switch rank and a
            // load) or, moving down the tree, a level difference.
            SelectionPolicy::MinResidualDistance => legal
                .iter()
                .copied()
                .min_by_key(|&(c, ph)| {
                    let v = self.topo.channel(c).dst;
                    (row.dist(v, ph), c)
                })
                .expect("legal set is non-empty"),
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

    /// The tree-stage request set at `node` of a worm bound for `dests`
    /// and split at `lca`: one down tree channel per child subtree
    /// containing destinations (processor children included — delivery
    /// channels are down tree channels like any other). Test and analysis
    /// API; the hot path writes the same set into the engine's reused
    /// decision buffer.
    pub fn tree_requests(
        &self,
        node: NodeId,
        dests: &[NodeId],
        lca: NodeId,
    ) -> Vec<(ChannelId, SpamHeader)> {
        let mut out = RouteDecision::default();
        self.tree_requests_into(node, dests, lca, &mut out);
        out.requests
    }

    /// Allocation-free tree stage: pushes the per-subtree requests into
    /// `out`.
    fn tree_requests_into(
        &self,
        node: NodeId,
        dests: &[NodeId],
        lca: NodeId,
        out: &mut RouteDecision<SpamHeader>,
    ) {
        for &child in self.ud.tree_children(node) {
            if dests.iter().any(|&d| self.ud.is_ancestor(child, d)) {
                // `tree_children` enumerates spanning-tree edges, and the
                // spanning tree is a subgraph of the topology's links.
                #[allow(clippy::expect_used)]
                let ch = self
                    .topo
                    .channel_between(node, child)
                    .expect("tree edges are links");
                out.push(
                    ch,
                    SpamHeader {
                        lca,
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
            lca,
            phase: Phase::Up,
            in_tree: false,
        })
    }

    fn snapshot_name(&self) -> &'static str {
        "spam"
    }

    fn encode_header(&self, h: &SpamHeader, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        w.put_u32(h.lca.0);
        w.put_u8(h.phase as u8);
        w.put_bool(h.in_tree);
        Ok(())
    }

    fn decode_header(&self, r: &mut SnapReader) -> Result<SpamHeader, SnapshotError> {
        // `route` indexes the labeling with the LCA.
        let lca = r.get_u32()?;
        if lca as usize >= self.topo.num_nodes() {
            return Err(SnapshotError::Corrupt("node id outside the topology"));
        }
        Ok(SpamHeader {
            lca: NodeId(lca),
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
            self.tree_requests_into(node, &spec.dests, header.lca, out);
            if out.requests.is_empty() {
                // Theorem 1 guarantees this never fires on a labeled
                // connected component; it surfaces stale labelings and
                // out-of-component destinations on degraded networks.
                return Err(RouteError::NoDestinationSubtree { node });
            }
            return Ok(());
        }
        // Unicast stage towards the LCA, whose row the legality filter and
        // the selection both read.
        let row = self.tables.row(self.topo, self.ud, header.lca);
        self.legal_moves_into(node, header.phase, header.lca, row, &mut scratch.legal);
        if scratch.legal.is_empty() {
            return Err(RouteError::NoLegalMove {
                node,
                target: header.lca,
            });
        }
        let (ch, next_phase) = self.select(scratch.legal.as_slice(), row, node, spec.tag);
        debug_assert_ne!(
            row.dist(self.topo.channel(ch).dst, next_phase),
            UNREACHABLE,
            "selected a dead-end channel"
        );
        out.push(
            ch,
            SpamHeader {
                phase: next_phase,
                ..*header
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
        let lca_outside = SpamHeader {
            lca: NodeId(t.num_nodes() as u32),
            ..good
        };
        for (h, ok) in [(good, true), (lca_outside, false)] {
            let mut w = SnapWriter::new();
            w.begin();
            spam.encode_header(&h, &mut w).unwrap();
            let bytes = w.seal().to_vec();
            let back = spam.decode_header(&mut SnapReader::open(&bytes).unwrap());
            match back {
                Ok(back) => assert!(ok && back == h),
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

    /// Endpoints of the rule-2 (down-cross) moves from `node` in the Up
    /// phase towards `target`.
    fn rule_2(spam: &SpamRouting, node: NodeId, target: NodeId) -> Vec<NodeId> {
        let moves = spam.legal_moves(node, Phase::Up, target);
        let cross: Vec<_> = moves
            .into_iter()
            .filter(|&(_, ph)| ph == Phase::DownCross)
            .collect();
        dsts(spam.topo, &cross)
    }

    #[test]
    fn figure1_rule_2_admits_exactly_the_extended_ancestors() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let ext = |u: u32, v: u32| spam.dist(by(v), by(u), Phase::DownCross) != UNREACHABLE;
        // 4 is an ancestor, hence an extended ancestor, of 11: the down
        // cross (3,4) is legal towards 11.
        assert_eq!(rule_2(&spam, by(3), by(11)), [by(4)]);
        // 3 reaches 4 by a down-cross channel, hence is an extended
        // ancestor of the whole subtree under 4 — this is what legalizes
        // the path 5,2,3,4.
        for v in [4, 8, 11] {
            assert!(ext(3, v));
            assert_eq!(rule_2(&spam, by(2), by(v)), [by(3)], "2 -> 3 towards {v}");
        }
        // 2 reaches 3 by a down-cross channel, then 3 reaches 4.
        assert!(ext(2, 8));
        // But 6 can never reach 11, and 7 is not an extended ancestor of 8.
        assert!(!ext(6, 11));
        assert!(!ext(7, 8));
        // 3 is an extended ancestor of neither 1 nor 5: no down cross
        // into it towards them.
        assert!(rule_2(&spam, by(2), by(1)).is_empty());
        assert!(rule_2(&spam, by(2), by(5)).is_empty());
    }

    #[test]
    fn a_dead_cross_link_grants_no_rule_2_move() {
        let (t, l, ud) = fig1();
        let by = |x: u32| l.by_label(x).unwrap();
        let mut view = netgraph::DegradedTopology::new(&t);
        view.kill_link(t.channel_between(by(3), by(4)).unwrap());
        let (nu, _) = ud.relabel_after(&view).unwrap();
        let before = SpamRouting::new(&t, &ud);
        let after = SpamRouting::new_masked(&t, &nu, &view.alive_channel_mask());
        // 3 could reach 4's subtree only through the dead (3,4) channel.
        assert_ne!(before.dist(by(8), by(3), Phase::DownCross), UNREACHABLE);
        assert_eq!(after.dist(by(8), by(3), Phase::DownCross), UNREACHABLE);
        assert_eq!(rule_2(&before, by(2), by(8)), [by(3)]);
        assert!(rule_2(&after, by(2), by(8)).is_empty());
        // Towards 3 itself the surviving cross (2,3) is still legal.
        assert_eq!(rule_2(&after, by(2), by(3)), [by(3)]);
    }

    #[test]
    fn min_distance_selection_takes_shortest_route() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let legal = spam.legal_moves(by(2), Phase::Up, by(4));
        let row = spam.tables.row(&t, &ud, by(4));
        let (ch, ph) = spam.select(&legal, row, by(2), 0);
        assert_eq!(t.channel(ch).dst, by(4), "direct down tree hop wins");
        assert_eq!(ph, Phase::DownTree);
    }

    #[test]
    fn tree_requests_split_per_subtree() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let dests = [by(8), by(9), by(11)];
        let reqs = spam.tree_requests(by(4), &dests, by(4));
        assert_eq!(dsts(&t, &reqs), vec![by(6), by(7)]);
        assert!(reqs.iter().all(|(_, h)| h.in_tree && h.lca == by(4)));
        // Below, node 6 fans out to exactly the destination processors.
        let reqs6 = spam.tree_requests(by(6), &dests, by(4));
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
