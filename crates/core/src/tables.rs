//! Phase-layered residual-distance tables.
//!
//! SPAM's legality rules form a three-layer digraph over states
//! `(node, phase)` with monotone phase order `Up → DownCross → DownTree`.
//! For every target node `t`, `dist(t, node, phase)` is the length of the
//! shortest SPAM-legal completion from that state to `t` — the quantity the
//! §4 selection function needs ("prioritizes channels according to the
//! distance from the endpoint of the channel to the LCA node"), made exact.
//!
//! Because every hop chosen by a min-distance selection strictly decreases
//! the residual distance, the tables double as a constructive livelock-
//! freedom proof for the default policy.
//!
//! A run only ever asks for the rows of the targets its messages aim at
//! (one LCA per multicast), so nothing per target is computed at
//! construction. [`RoutingTables::build`] gathers the O(channels) per-node
//! move records and the liveness mask; the row of target `t`, `3 · nodes`
//! cells, is built the first time a distance to `t` is asked for and
//! shared from then on (across threads, runs and cache hits: the tables
//! sit behind an `Arc`). The layered graph is acyclic in the labeling's
//! `(level, id)` order ([`UpDownLabeling::by_depth`]) — up channels lead
//! earlier in it, down channels later, and phases only advance — so a row
//! is two sweeps over that order, each reading every alive move once: in
//! reverse for DownTree and DownCross, forward for Up. The row is the
//! only allocation. The per-hop routing decision resolves its LCA's row
//! once and then reads one cell per candidate channel. A fabric whose
//! every row is resident holds `6 · nodes²` bytes (1.5 MB at 512 nodes,
//! 25 MB at 2048); one that carried a single multicast holds one row.

use netgraph::{ChannelId, NodeId, Topology};
use updown::{ChannelClass, LazyRows, UpDownLabeling};

/// Routing phase of a SPAM worm's unicast stage (§3.1 channel ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// Still in the up subnetwork; any up channel is allowed.
    #[default]
    Up = 0,
    /// Has used a down cross channel; up channels are forbidden.
    DownCross = 1,
    /// Has used a down tree channel; only down tree channels remain.
    DownTree = 2,
}

impl Phase {
    /// All phases, in constraint order.
    pub const ALL: [Phase; 3] = [Phase::Up, Phase::DownCross, Phase::DownTree];

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Sentinel for "no SPAM-legal completion exists from this state".
pub const UNREACHABLE: u16 = u16::MAX;

/// One precomputed outgoing move of a node: the channel, its endpoint, and
/// its up*/down* class — everything the per-hop legality check needs,
/// gathered into one contiguous record so the routing hot path touches a
/// single cache line instead of three separate tables.
#[derive(Debug, Clone, Copy)]
pub struct NodeMove {
    /// The outgoing channel.
    pub channel: ChannelId,
    /// The channel's endpoint.
    pub dst: NodeId,
    /// The channel's up*/down* class under the labeling the tables were
    /// built with.
    pub class: ChannelClass,
}

/// Exact residual SPAM distances for every (target, node, phase) triple —
/// each target's row built on first use — plus the per-node legal-channel
/// slices and the liveness mask gathered at build time.
///
/// The tables do not borrow the labeling they were built over; the router
/// that owns that borrow ([`crate::SpamRouting`]) passes it back in
/// whenever a row may have to be filled, for its `(level, id)` order.
#[derive(Debug)]
pub struct RoutingTables {
    /// `rows[target][3 * node + phase]`.
    rows: LazyRows,
    /// Flat per-node move records (masked-out channels excluded), in
    /// topology channel order; sliced by `move_bounds`.
    moves: Vec<NodeMove>,
    /// `moves` range of node `v` is `move_bounds[v] .. move_bounds[v+1]`.
    move_bounds: Vec<u32>,
    /// Per-channel liveness for degraded-but-not-renumbered networks
    /// (live reconfiguration); `None` means every channel is usable.
    mask: Option<Box<[bool]>>,
}

impl RoutingTables {
    /// Tables over a fully alive topology.
    pub fn build(topo: &Topology, ud: &UpDownLabeling) -> Self {
        Self::build_masked(topo, ud, None)
    }

    /// Tables optionally restricted to the channels marked alive in
    /// `mask` — the live-reconfiguration case, where routing runs on the
    /// base topology but must never count a dead channel as a legal (or
    /// distance-reducing) move. Gathers the move records and copies the
    /// mask; no distance row is built here.
    pub fn build_masked(topo: &Topology, ud: &UpDownLabeling, mask: Option<&[bool]>) -> Self {
        if let Some(m) = mask {
            assert_eq!(m.len(), topo.num_channels(), "mask covers every channel");
        }
        let n = topo.num_nodes();
        let mut moves = Vec::with_capacity(topo.num_channels());
        let mut move_bounds = Vec::with_capacity(n + 1);
        move_bounds.push(0);
        for v in topo.nodes() {
            for &c in topo.out_channels(v) {
                if mask.is_some_and(|m| !m[c.index()]) {
                    continue; // a dead channel is never a legal move
                }
                moves.push(NodeMove {
                    channel: c,
                    dst: topo.channel(c).dst,
                    class: ud.class(c),
                });
            }
            move_bounds.push(moves.len() as u32);
        }
        RoutingTables {
            rows: LazyRows::new(n),
            moves,
            move_bounds,
            mask: mask.map(Into::into),
        }
    }

    /// The precomputed (alive) outgoing moves of `node`, in topology
    /// channel order.
    #[inline]
    pub fn moves(&self, node: NodeId) -> &[NodeMove] {
        let lo = self.move_bounds[node.index()] as usize;
        let hi = self.move_bounds[node.index() + 1] as usize;
        &self.moves[lo..hi]
    }

    /// True when channel `c` may carry traffic under the mask the tables
    /// were built with.
    #[inline]
    pub fn is_alive(&self, c: ChannelId) -> bool {
        self.mask.as_ref().is_none_or(|m| m[c.index()])
    }

    /// The residual-distance row of `target` (`row[3 * node + phase]`),
    /// built now if this is the first time it is asked for. `ud` must be
    /// the labeling the tables were built over.
    #[inline]
    pub(crate) fn row(&self, ud: &UpDownLabeling, target: NodeId) -> &[u16] {
        self.rows
            .get_or_build(target.index(), || self.build_for_target(ud, target))
    }

    /// Residual SPAM-legal distance from `(node, phase)` to `target`, in
    /// channels; [`UNREACHABLE`] when no legal completion exists.
    #[inline]
    pub(crate) fn dist(
        &self,
        ud: &UpDownLabeling,
        target: NodeId,
        node: NodeId,
        phase: Phase,
    ) -> u16 {
        self.row(ud, target)[Self::cell(node, phase)]
    }

    /// Index of `(node, phase)` within a target's row.
    #[inline]
    pub(crate) fn cell(node: NodeId, phase: Phase) -> usize {
        3 * node.index() + phase.idx()
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Heap footprint in bytes as of now: the distance rows built so far,
    /// the move records and the mask. A ceiling for it (every row
    /// resident) is what an artifact cache charges up front.
    pub fn approx_bytes(&self) -> usize {
        self.rows.resident_bytes()
            + self.moves.len() * std::mem::size_of::<NodeMove>()
            + self.move_bounds.len() * 4
            + self.mask.as_ref().map_or(0, |m| m.len())
    }

    /// The row of `target`, one pass per phase over `ud.by_depth()`.
    ///
    /// Down channels lead later in that `(level, id)` order and up
    /// channels earlier, and only up channels keep a worm in the Up
    /// phase. So a node's DownTree and DownCross cells depend only on
    /// cells of nodes after it, final when the reverse pass reaches it,
    /// and its Up cell only on its own DownCross cell and the Up cells of
    /// nodes before it, final in the forward pass. A DownTree cell is
    /// finite only along the target's parent chain, where it is
    /// `level(t) − level(v)`; a finite DownCross cell already makes its
    /// node an extended ancestor of the target (Definition 1), so neither
    /// rule's relation is searched.
    fn build_for_target(&self, ud: &UpDownLabeling, target: NodeId) -> Vec<u16> {
        let cell = Self::cell;
        let mut d = vec![UNREACHABLE; 3 * self.num_nodes()];
        for ph in Phase::ALL {
            d[cell(target, ph)] = 0;
        }
        // One hop further than a cell; `UNREACHABLE` saturates to itself.
        let hop = |x: u16| x.saturating_add(1);
        let order = ud.by_depth();
        for &v in order.iter().rev().filter(|&&v| v != target) {
            let (mut tree, mut cross) = (UNREACHABLE, UNREACHABLE);
            for m in self.moves(v) {
                match m.class {
                    ChannelClass::DownTree => {
                        tree = tree.min(hop(d[cell(m.dst, Phase::DownTree)]));
                    }
                    ChannelClass::DownCross => {
                        let dc = d[cell(m.dst, Phase::DownCross)];
                        debug_assert!(dc == UNREACHABLE || ud.is_extended_ancestor(m.dst, target));
                        cross = cross.min(hop(dc));
                    }
                    ChannelClass::UpTree | ChannelClass::UpCross => {}
                }
            }
            debug_assert!(tree == UNREACHABLE || ud.is_ancestor(v, target));
            d[cell(v, Phase::DownTree)] = tree;
            d[cell(v, Phase::DownCross)] = tree.min(cross);
        }
        for &v in order {
            d[cell(v, Phase::Up)] = self
                .moves(v)
                .iter()
                .filter(|m| m.class.is_up())
                .map(|m| hop(d[cell(m.dst, Phase::Up)]))
                .fold(d[cell(v, Phase::DownCross)], u16::min);
        }
        d
    }

    /// Reverse BFS over the phase-layered graph from `(target, *)`, each
    /// incoming channel's legality re-derived from Definition 1: the
    /// reference the tests hold [`Self::build_for_target`] against.
    #[cfg(test)]
    fn bfs_for_target(
        topo: &Topology,
        ud: &UpDownLabeling,
        target: NodeId,
        mask: Option<&[bool]>,
    ) -> Vec<u16> {
        use std::collections::VecDeque;
        let n = topo.num_nodes();
        let mut d = vec![UNREACHABLE; 3 * n];
        let mut q = VecDeque::new();
        for ph in Phase::ALL {
            // Arriving at the target in any phase terminates the route.
            d[3 * target.index() + ph.idx()] = 0;
            q.push_back((target, ph));
        }
        while let Some((v, ph_v)) = q.pop_front() {
            let dv = d[3 * v.index() + ph_v.idx()];
            // Find predecessor states (u, ph_u) with a legal edge into
            // (v, ph_v); legality depends on the *edge*, so enumerate v's
            // incoming channels and check which phases could have used them.
            for &c in topo.in_channels(v) {
                if mask.is_some_and(|m| !m[c.index()]) {
                    continue; // a dead channel is never a legal edge
                }
                let u = topo.channel(c).src;
                let preds: &[Phase] = match ud.class(c) {
                    // Up channels keep the worm in the up phase.
                    ChannelClass::UpTree | ChannelClass::UpCross => {
                        if ph_v == Phase::Up {
                            &[Phase::Up]
                        } else {
                            &[]
                        }
                    }
                    // A down cross hop lands in DownCross phase and needs
                    // its endpoint to be an extended ancestor of target.
                    ChannelClass::DownCross => {
                        if ph_v == Phase::DownCross && ud.is_extended_ancestor(v, target) {
                            &[Phase::Up, Phase::DownCross]
                        } else {
                            &[]
                        }
                    }
                    // A down tree hop lands in DownTree phase and needs its
                    // endpoint to be an ancestor of target.
                    ChannelClass::DownTree => {
                        if ph_v == Phase::DownTree && ud.is_ancestor(v, target) {
                            &[Phase::Up, Phase::DownCross, Phase::DownTree]
                        } else {
                            &[]
                        }
                    }
                };
                for &ph_u in preds {
                    let slot = &mut d[3 * u.index() + ph_u.idx()];
                    if *slot == UNREACHABLE {
                        *slot = dv + 1;
                        q.push_back((u, ph_u));
                    }
                }
            }
        }
        d
    }

    /// The table for all targets at once — what construction computed
    /// before rows were built on first use. Kept as the reference the
    /// tests hold the lazily built rows against.
    #[cfg(test)]
    fn build_all_targets(
        topo: &Topology,
        ud: &UpDownLabeling,
        mask: Option<&[bool]>,
    ) -> Vec<Vec<u16>> {
        topo.nodes()
            .map(|t| Self::bfs_for_target(topo, ud, t, mask))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpamRouting;
    use netgraph::gen::fixtures::figure1;
    use netgraph::gen::lattice::IrregularConfig;
    use netgraph::DegradedTopology;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::{Arc, Barrier};
    use updown::RootSelection;

    /// A post-fault routing epoch over `t`: every `stride`-th
    /// switch-to-switch link dead, the labeling relabeled in place.
    fn damaged_epoch(
        t: &Topology,
        ud: &UpDownLabeling,
        stride: usize,
    ) -> (UpDownLabeling, Vec<bool>) {
        let mut view = DegradedTopology::new(t);
        let links = t.channel_ids().filter(|&c| {
            let ch = t.channel(c);
            t.is_switch(ch.src) && t.is_switch(ch.dst)
        });
        for c in links.step_by(stride) {
            view.kill_link(c);
        }
        let (next, _) = ud.relabel_after(&view).expect("switches survive");
        (next, view.alive_channel_mask())
    }

    /// Pristine and damaged `(topology, labeling, mask)` cases over
    /// random 16–32-switch lattices.
    fn fabrics() -> Vec<(Topology, UpDownLabeling, Option<Vec<bool>>)> {
        let mut out = Vec::new();
        for (seed, switches) in [(1, 16), (2, 21), (3, 27), (4, 32)] {
            let t = IrregularConfig::with_switches(switches).generate(seed);
            let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
            let (next, mask) = damaged_epoch(&t, &ud, 5);
            out.push((t.clone(), ud, None));
            out.push((t, next, Some(mask)));
        }
        out
    }

    /// A view of `t` with `kills` links dead, drawn by an xorshift64
    /// stream from `seed` — so a larger `kills` kills a superset.
    fn kill_links(t: &Topology, kills: usize, seed: u64) -> DegradedTopology<'_> {
        let mut view = DegradedTopology::new(t);
        let links = t.num_channels() as u64 / 2;
        let mut x = seed | 1;
        for _ in 0..kills {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            view.kill_link(ChannelId(2 * (x % links) as u32));
        }
        view
    }

    /// Cases per property: `PROPTEST_CASES` when set, else 16.
    fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(16)
    }

    /// Every cell of every target's lazily built row against the reverse
    /// BFS.
    fn assert_rows_equal_the_bfs(t: &Topology, ud: &UpDownLabeling, mask: Option<&[bool]>) {
        let tb = RoutingTables::build_masked(t, ud, mask);
        for target in t.nodes() {
            let bfs = RoutingTables::bfs_for_target(t, ud, target, mask);
            assert_eq!(tb.row(ud, target), &bfs[..], "row {target}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Over random lattices and root policies: pristine; after each
        /// of a chain of relabels, masked to the channels still alive;
        /// and on a split network whose partial labeling leaves a piece
        /// unlabeled (level `u32::MAX`, last in `by_depth` by id), which
        /// no fixed fabric above reaches.
        #[test]
        fn swept_rows_equal_the_reverse_bfs(
            switches in 16usize..=64,
            seed in any::<u64>(),
            policy in 0usize..4,
            kills in 1usize..12,
            epochs in 1usize..=3,
        ) {
            let t = IrregularConfig::with_switches(switches).generate(seed);
            let root = [
                RootSelection::LowestId,
                RootSelection::MaxDegree,
                RootSelection::MinEccentricity,
                RootSelection::RandomSeeded(seed),
            ][policy];
            let mut ud = UpDownLabeling::build(&t, root);
            assert_rows_equal_the_bfs(&t, &ud, None);
            let root = ud.root();
            for e in 1..=epochs {
                let view = kill_links(&t, e * kills, seed);
                let (next, _) = ud.relabel_after(&view).expect("links died, no switch did");
                assert_rows_equal_the_bfs(&t, &next, Some(&view.alive_channel_mask()));
                ud = next;
            }
            // Cut a third of the links, and every switch-to-switch link of
            // the highest-id switch but the root, so a piece is split off.
            let mut view = kill_links(&t, t.num_channels() / 6, seed);
            let cut = t.switches().filter(|&s| s != root).last().expect("16+ switches");
            for &c in t.out_channels(cut) {
                if t.is_switch(t.channel(c).dst) {
                    view.kill_link(c);
                }
            }
            let (split, _) = view.masked_topology();
            let partial = UpDownLabeling::build_partial(&split, root);
            prop_assert!(partial.num_labeled() < split.num_nodes());
            assert_rows_equal_the_bfs(&split, &partial, None);
        }
    }

    #[test]
    fn lazy_rows_equal_the_all_targets_reference() {
        for (t, ud, mask) in fabrics() {
            let reference = RoutingTables::build_all_targets(&t, &ud, mask.as_deref());
            let tb = RoutingTables::build_masked(&t, &ud, mask.as_deref());
            assert_eq!(tb.rows.resident(), 0, "construction builds no row");
            let idle = tb.approx_bytes();
            // Ask out of row order (odd targets, then even), every third
            // target twice.
            let n = t.num_nodes();
            let order = (1..n).step_by(2).chain((0..n).step_by(2));
            for (asked, i) in order.enumerate() {
                let target = NodeId(i as u32);
                assert_eq!(tb.row(&ud, target), &reference[i][..], "row {i}");
                if i % 3 == 0 {
                    assert_eq!(tb.row(&ud, target), &reference[i][..]);
                }
                assert_eq!(tb.rows.resident(), asked + 1, "one row per new target");
            }
            for u in t.nodes() {
                for ph in Phase::ALL {
                    let cell = reference[n - 1][RoutingTables::cell(u, ph)];
                    assert_eq!(tb.dist(&ud, NodeId(n as u32 - 1), u, ph), cell);
                }
            }
            assert_eq!(tb.approx_bytes(), idle + n * 3 * n * 2);
        }
    }

    #[test]
    fn every_cell_equals_a_forward_search_over_legal_moves() {
        // The rows come from sweeps over the `(level, id)` order that
        // never ask Definition 1's relations. The oracle shares none of
        // that: it expands `legal_moves` forward from each state until it
        // stands on the target.
        for (t, ud, mask) in fabrics() {
            let spam = match &mask {
                Some(m) => SpamRouting::new_masked(&t, &ud, m),
                None => SpamRouting::new(&t, &ud),
            };
            let states = 3 * t.num_nodes();
            for target in t.nodes() {
                let mut succ: Vec<Vec<usize>> = Vec::with_capacity(states);
                for v in t.nodes() {
                    for ph in Phase::ALL {
                        let moves = spam.legal_moves(v, ph, target);
                        let next = |&(c, nph)| RoutingTables::cell(t.channel(c).dst, nph);
                        succ.push(moves.iter().map(next).collect());
                    }
                }
                for v in t.nodes() {
                    for ph in Phase::ALL {
                        let mut depth = vec![UNREACHABLE; states];
                        let mut queue = VecDeque::from([RoutingTables::cell(v, ph)]);
                        depth[queue[0]] = 0;
                        let mut found = UNREACHABLE;
                        while let Some(s) = queue.pop_front() {
                            if s / 3 == target.index() {
                                found = depth[s];
                                break;
                            }
                            for &w in &succ[s] {
                                if depth[w] == UNREACHABLE {
                                    depth[w] = depth[s] + 1;
                                    queue.push_back(w);
                                }
                            }
                        }
                        assert_eq!(
                            spam.dist(target, v, ph),
                            found,
                            "({v}, {ph:?}) -> {target}, masked: {}",
                            mask.is_some()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn racing_threads_see_one_shared_row_per_target() {
        const THREADS: usize = 4;
        let (t, ud, mask) = fabrics().pop().expect("a damaged 32-switch fabric");
        let reference = RoutingTables::build_all_targets(&t, &ud, mask.as_deref());
        let tb = Arc::new(RoutingTables::build_masked(&t, &ud, mask.as_deref()));
        let n = t.num_nodes();
        // Thread `i` walks targets i, i+1, … so neighbours overlap on all
        // but one target and leave the barrier asking together.
        let barrier = Barrier::new(THREADS);
        let seen: Vec<Vec<(usize, usize)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|i| {
                    let (ud, tb, reference, barrier) = (&ud, &tb, &reference, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (i..i + n / 2)
                            .map(|k| {
                                let row = tb.row(ud, NodeId(k as u32));
                                assert_eq!(row, &reference[k][..], "row {k}");
                                (k, row.as_ptr() as usize)
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
        for &(k, ptr) in seen.iter().flatten() {
            let row = tb.row(&ud, NodeId(k as u32));
            assert_eq!(ptr, row.as_ptr() as usize, "row {k} was allocated twice");
        }
        assert_eq!(tb.rows.resident(), n / 2 + THREADS - 1);
    }

    fn fig1() -> (
        Topology,
        netgraph::gen::fixtures::Figure1Labels,
        UpDownLabeling,
    ) {
        let (t, l) = figure1();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(1).unwrap()));
        (t, l, ud)
    }

    #[test]
    fn distance_zero_at_target_any_phase() {
        let (t, l, ud) = fig1();
        let tb = RoutingTables::build(&t, &ud);
        let four = l.by_label(4).unwrap();
        for ph in Phase::ALL {
            assert_eq!(tb.dist(&ud, four, four, ph), 0);
        }
    }

    #[test]
    fn figure1_distances_to_lca4() {
        let (t, l, ud) = fig1();
        let tb = RoutingTables::build(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let lca = by(4);
        // From node 2 in Up phase: down tree channel (2,4) directly.
        assert_eq!(tb.dist(&ud, lca, by(2), Phase::Up), 1);
        // From node 3 in DownCross phase: the cross channel (3,4).
        assert_eq!(tb.dist(&ud, lca, by(3), Phase::DownCross), 1);
        // From the source processor 5: 5 -> 2 (up) -> 4 (down tree) = 2.
        assert_eq!(tb.dist(&ud, lca, by(5), Phase::Up), 2);
        // From node 6 in DownTree phase the LCA is unreachable (no up moves
        // allowed, 6 is below 4).
        assert_eq!(tb.dist(&ud, lca, by(6), Phase::DownTree), UNREACHABLE);
        // But in Up phase node 6 can climb: 6 -> 4 = 1 hop up... up channel
        // (6,4) ends at the target.
        assert_eq!(tb.dist(&ud, lca, by(6), Phase::Up), 1);
    }

    #[test]
    fn downtree_phase_distance_is_tree_depth_difference() {
        let (t, l, ud) = fig1();
        let tb = RoutingTables::build(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        // 4 -> 6 -> 8 strictly down tree.
        assert_eq!(tb.dist(&ud, by(8), by(4), Phase::DownTree), 2);
        assert_eq!(tb.dist(&ud, by(8), by(6), Phase::DownTree), 1);
        // Sibling subtree is unreachable once in DownTree phase.
        assert_eq!(tb.dist(&ud, by(11), by(6), Phase::DownTree), UNREACHABLE);
    }

    #[test]
    fn up_phase_always_reaches_everything() {
        // From any node in Up phase a SPAM route to any other node exists
        // (climb to the root, descend the tree) — the routing-function
        // totality that underlies delivery guarantees.
        let (t, _, ud) = fig1();
        let tb = RoutingTables::build(&t, &ud);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_ne!(
                    tb.dist(&ud, v, u, Phase::Up),
                    UNREACHABLE,
                    "no SPAM route {u} -> {v}"
                );
            }
        }
    }

    #[test]
    fn up_phase_totality_on_random_irregular_networks() {
        for seed in 0..5 {
            let t = IrregularConfig::with_switches(24).generate(seed);
            let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
            let tb = RoutingTables::build(&t, &ud);
            for u in t.nodes() {
                for v in t.nodes() {
                    assert_ne!(tb.dist(&ud, v, u, Phase::Up), UNREACHABLE);
                }
            }
        }
    }

    #[test]
    fn distances_dominate_bfs_lower_bound() {
        // SPAM-legal routes can never be shorter than unconstrained BFS.
        let t = IrregularConfig::with_switches(20).generate(3);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let tb = RoutingTables::build(&t, &ud);
        for v in t.nodes() {
            let bfs = netgraph::algo::bfs_distances(&t, v);
            for u in t.nodes() {
                let d = tb.dist(&ud, v, u, Phase::Up);
                assert!(d as u32 >= bfs[u.index()], "SPAM beat BFS {u}->{v}");
            }
        }
    }

    #[test]
    fn min_distance_neighbor_always_exists() {
        // Constructive livelock freedom: from any state at distance k >= 1,
        // some legal move reaches a state at distance k - 1.
        let (t, _, ud) = fig1();
        let tb = RoutingTables::build(&t, &ud);
        for target in t.nodes() {
            for u in t.nodes() {
                for ph in Phase::ALL {
                    let k = tb.dist(&ud, target, u, ph);
                    if k == 0 || k == UNREACHABLE {
                        continue;
                    }
                    let mut found = false;
                    for &c in t.out_channels(u) {
                        let v = t.channel(c).dst;
                        let next = match (ud.class(c), ph) {
                            (ChannelClass::UpTree | ChannelClass::UpCross, Phase::Up) => {
                                Some(Phase::Up)
                            }
                            (ChannelClass::DownCross, Phase::Up | Phase::DownCross)
                                if ud.is_extended_ancestor(v, target) =>
                            {
                                Some(Phase::DownCross)
                            }
                            (ChannelClass::DownTree, _) if ud.is_ancestor(v, target) => {
                                Some(Phase::DownTree)
                            }
                            _ => None,
                        };
                        if let Some(nph) = next {
                            if tb.dist(&ud, target, v, nph) == k - 1 {
                                found = true;
                                break;
                            }
                        }
                    }
                    assert!(found, "no descent from ({u}, {ph:?}) toward {target}");
                }
            }
        }
    }
}
