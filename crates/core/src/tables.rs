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
//! A row's DownCross cells *are* rule 2's relation for its target: the
//! DownCross cell of `v` is finite exactly when zero or more alive
//! down-cross hops and then zero or more down-tree hops lead from `v` to
//! `t`, i.e. when `v` is an extended ancestor of `t` (Definition 1) over
//! the channels the tables hold alive. [`crate::SpamRouting`] answers
//! rule 2 from that cell; no other copy of the relation is kept.
//!
//! A run only ever asks for the rows of the targets its messages aim at
//! (one LCA per multicast), so nothing per target is computed at
//! construction. [`RoutingTables::build`] gathers the O(channels) per-node
//! move records, dead channels left out; the row of target `t` is built
//! the first time a distance to `t` is asked for and shared from then on
//! (across threads, runs and cache hits: the tables sit behind an `Arc`).
//!
//! A row keeps only the cells routing decides by: the Up and DownCross
//! cells of each switch, `2 · switches` cells indexed by
//! [`Topology::switch_rank`]. Every other cell is derived where it is
//! read. A DownTree move is legal exactly when its endpoint is a tree
//! ancestor of the target (rule 3), so a DownTree cell is the level
//! difference to the target or [`UNREACHABLE`]. A processor is a leaf
//! where routing never decides: its cells follow from its one link, when
//! the link is alive, and its switch's cells.
//!
//! The layered graph is acyclic in the labeling's `(level, id)` order
//! ([`UpDownLabeling::by_depth`]) — up channels lead earlier in it, down
//! channels later, and phases only advance — so a row is two sweeps over
//! the switches in that order: in reverse for DownCross, forward for Up.
//! The row is the only allocation. The per-hop routing decision resolves
//! its LCA's row once and then reads one cell per candidate channel. A
//! fabric whose every row is resident holds `4 · nodes · switches` bytes
//! (0.5 MB at 256 switches, 8 MB at 1024); one that carried a single
//! multicast holds one row.

use netgraph::{ChannelId, NodeId, Topology};
use updown::{hop, sweep_row, ChannelClass, LazyRows, UpDownLabeling};

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
}

/// Sentinel for "no SPAM-legal completion exists from this state".
pub use updown::UNREACHABLE;

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
/// slices gathered at build time.
///
/// The tables do not borrow the topology and labeling they were built
/// over; the router that owns those borrows ([`crate::SpamRouting`])
/// passes them back in whenever a row is read, for switch ranks, levels,
/// ancestry and the `(level, id)` order.
#[derive(Debug)]
pub struct RoutingTables {
    /// `rows[target][2 * switch_rank + phase]`, Up and DownCross only.
    rows: LazyRows,
    /// Flat per-node move records (masked-out channels excluded), in
    /// topology channel order; sliced by `move_bounds`.
    moves: Vec<NodeMove>,
    /// `moves` range of node `v` is `move_bounds[v] .. move_bounds[v+1]`.
    move_bounds: Vec<u32>,
}

impl RoutingTables {
    /// Tables over a fully alive topology.
    pub fn build(topo: &Topology, ud: &UpDownLabeling) -> Self {
        Self::build_masked(topo, ud, None)
    }

    /// Tables optionally restricted to the channels marked alive in
    /// `mask` — the live-reconfiguration case, where routing runs on the
    /// base topology but must never count a dead channel as a legal (or
    /// distance-reducing) move. Gathers the alive channels' move records;
    /// no distance row is built here. Every tree edge of `ud` must be
    /// alive, as rule 3 assumes (a labeling from
    /// [`UpDownLabeling::relabel_after`] over the same faults is).
    pub fn build_masked(topo: &Topology, ud: &UpDownLabeling, mask: Option<&[bool]>) -> Self {
        if let Some(m) = mask {
            assert_eq!(m.len(), topo.num_channels(), "mask covers every channel");
            debug_assert!(
                topo.channel_ids()
                    .all(|c| ud.class(c) != ChannelClass::DownTree || m[c.index()]),
                "a tree edge of the labeling is dead"
            );
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

    /// The residual-distance row of `target`, built now if this is the
    /// first time it is asked for. `topo` and `ud` must be the topology
    /// and labeling the tables were built over.
    #[inline]
    pub(crate) fn row<'a>(
        &'a self,
        topo: &'a Topology,
        ud: &'a UpDownLabeling,
        target: NodeId,
    ) -> Row<'a> {
        let cells = self
            .rows
            .get_or_build(target.index(), || self.build_for_target(topo, ud, target));
        self.view(topo, ud, target, cells)
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Heap footprint in bytes as of now: the distance rows built so far
    /// and the move records. A ceiling for it (every row
    /// resident) is what an artifact cache charges up front.
    pub fn approx_bytes(&self) -> usize {
        self.rows.resident_bytes()
            + self.moves.len() * std::mem::size_of::<NodeMove>()
            + self.move_bounds.len() * 4
    }

    /// The row of `target` ([`sweep_row`]): DownCross cells in the
    /// reverse pass, Up cells in the forward one. A DownCross cell is
    /// finite exactly on the target's extended ancestors (Definition 1),
    /// which is how rule 2 is answered, so neither rule's relation is
    /// searched.
    fn build_for_target(&self, topo: &Topology, ud: &UpDownLabeling, target: NodeId) -> Vec<u16> {
        sweep_row(
            topo,
            ud,
            |cells, v| self.view(topo, ud, target, cells).down_cross(v),
            |cells, v| self.view(topo, ud, target, cells).up(v),
        )
    }

    /// `cells` read as `target`'s row (the sweep reads the one it fills).
    #[inline]
    fn view<'a>(
        &'a self,
        topo: &'a Topology,
        ud: &'a UpDownLabeling,
        target: NodeId,
        cells: &'a [u16],
    ) -> Row<'a> {
        Row {
            tables: self,
            topo,
            ud,
            target,
            cells,
        }
    }
}

/// One target's distance row, resolved: the stored switch cells and
/// what the other cells are derived from. [`Self::dist`] is a switch rank
/// and one load for a switch's Up or DownCross cell.
#[derive(Clone, Copy)]
pub(crate) struct Row<'a> {
    tables: &'a RoutingTables,
    topo: &'a Topology,
    ud: &'a UpDownLabeling,
    target: NodeId,
    cells: &'a [u16],
}

impl Row<'_> {
    /// Residual SPAM-legal distance from `(node, phase)` to the target,
    /// in channels; [`UNREACHABLE`] when no legal completion exists.
    #[inline]
    pub(crate) fn dist(&self, node: NodeId, phase: Phase) -> u16 {
        match (phase, self.topo.switch_rank(node)) {
            (Phase::DownTree, _) => self.down_tree(node),
            (_, Some(r)) => self.cells[2 * r + phase as usize],
            _ => self.processor_dist(node, phase),
        }
    }

    /// A processor's Up or DownCross cell, from its one link. Routing
    /// never decides at a processor, and the moves it weighs lead to
    /// switches (or down the tree), so this stays out of line and
    /// [`Self::dist`] inlines into the sweep and the per-hop decision.
    #[cold]
    #[inline(never)]
    fn processor_dist(&self, p: NodeId, phase: Phase) -> u16 {
        match phase {
            Phase::Up => self.up(p),
            _ => self.down_cross(p),
        }
    }

    /// Only down tree hops remain, each to an ancestor of the target
    /// (rule 3), and every tree edge is alive: the level difference when
    /// `v` is an ancestor of the target, else no route.
    #[inline]
    fn down_tree(&self, v: NodeId) -> u16 {
        if self.ud.is_ancestor(v, self.target) {
            (self.ud.level(self.target) - self.ud.level(v)) as u16
        } else {
            UNREACHABLE
        }
    }

    /// Down cross hops, then down tree hops: the DownCross cell of `v`
    /// from the cells of the nodes its down cross moves lead to.
    fn down_cross(&self, v: NodeId) -> u16 {
        self.tables
            .moves(v)
            .iter()
            .filter(|m| m.class == ChannelClass::DownCross)
            .map(|m| hop(self.dist(m.dst, Phase::DownCross)))
            .fold(self.down_tree(v), u16::min)
    }

    /// Up hops, then a turn down: the Up cell of `v` from its own
    /// DownCross cell and the cells of the nodes its up moves lead to.
    fn up(&self, v: NodeId) -> u16 {
        self.tables
            .moves(v)
            .iter()
            .filter(|m| m.class.is_up())
            .map(|m| hop(self.dist(m.dst, Phase::Up)))
            .fold(self.dist(v, Phase::DownCross), u16::min)
    }
}

#[cfg(test)]
impl RoutingTables {
    /// Reverse BFS over the phase-layered graph from `(target, *)`, each
    /// incoming channel's legality re-derived from Definition 1 (`ext`
    /// from [`extended_ancestors_ref`]), indexed by [`state`]: the
    /// reference the tests hold every cell of a row against.
    fn bfs_for_target(
        topo: &Topology,
        ud: &UpDownLabeling,
        ext: &[Vec<bool>],
        target: NodeId,
        mask: Option<&[bool]>,
    ) -> Vec<u16> {
        use std::collections::VecDeque;
        let n = topo.num_nodes();
        let mut d = vec![UNREACHABLE; 3 * n];
        let mut q = VecDeque::new();
        for ph in Phase::ALL {
            // Arriving at the target in any phase terminates the route.
            d[state(target, ph)] = 0;
            q.push_back((target, ph));
        }
        while let Some((v, ph_v)) = q.pop_front() {
            let dv = d[state(v, ph_v)];
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
                        if ph_v == Phase::DownCross && ext[v.index()][target.index()] {
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
                    let slot = &mut d[state(u, ph_u)];
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
    fn build_all_targets(
        topo: &Topology,
        ud: &UpDownLabeling,
        mask: Option<&[bool]>,
    ) -> Vec<Vec<u16>> {
        let ext = extended_ancestors_ref(topo, ud, mask);
        topo.nodes()
            .map(|t| Self::bfs_for_target(topo, ud, &ext, t, mask))
            .collect()
    }
}

/// Index of `(node, phase)` in a reference row of every node and phase.
#[cfg(test)]
fn state(v: NodeId, ph: Phase) -> usize {
    3 * v.index() + ph as usize
}

/// Definition 1 by graph walks, independent of the rows: `ext[u][v]` ⇔ `u`
/// is an extended ancestor of `v` over the channels alive in `mask`.
#[cfg(test)]
pub(crate) fn extended_ancestors_ref(
    topo: &Topology,
    ud: &UpDownLabeling,
    mask: Option<&[bool]>,
) -> Vec<Vec<bool>> {
    topo.nodes()
        .map(|u| extended_descendants_ref(topo, ud, mask, u))
        .collect()
}

/// One row of Definition 1: the nodes `u` reaches over alive down-cross
/// channels, then for every `v` whether its parent chain meets that set.
#[cfg(test)]
fn extended_descendants_ref(
    topo: &Topology,
    ud: &UpDownLabeling,
    mask: Option<&[bool]>,
    u: NodeId,
) -> Vec<bool> {
    use std::collections::VecDeque;
    let alive = |c: ChannelId| mask.is_none_or(|m| m[c.index()]);
    let mut reached = vec![false; topo.num_nodes()];
    let mut q = VecDeque::new();
    reached[u.index()] = true;
    q.push_back(u);
    while let Some(x) = q.pop_front() {
        for &c in topo.out_channels(x) {
            let w = topo.channel(c).dst;
            if ud.class(c) == ChannelClass::DownCross && alive(c) && !reached[w.index()] {
                reached[w.index()] = true;
                q.push_back(w);
            }
        }
    }
    topo.nodes()
        .map(|v| {
            let mut cur = Some(v);
            while let Some(x) = cur {
                if reached[x.index()] {
                    return true;
                }
                cur = ud.parent(x);
            }
            false
        })
        .collect()
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

    /// Pristine and damaged `(topology, labeling, mask)` cases: Figure 1,
    /// whose processor ids sit between switch ids (so a switch's rank is
    /// not its id), and random 16–32-switch lattices.
    fn fabrics() -> Vec<(Topology, UpDownLabeling, Option<Vec<bool>>)> {
        let (fig, _, fig_ud) = fig1();
        let lattices = [(1, 16), (2, 21), (3, 27), (4, 32)].map(|(seed, switches)| {
            let t = IrregularConfig::with_switches(switches).generate(seed);
            let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
            (t, ud)
        });
        let mut out = Vec::new();
        for (t, ud) in std::iter::once((fig, fig_ud)).chain(lattices) {
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

    /// `dist` for every (node, phase) of `target`'s row — stored, derived
    /// and processor cells alike — against `reference`, indexed by
    /// [`state`].
    fn assert_row_is(row: Row<'_>, t: &Topology, reference: &[u16]) {
        for v in t.nodes() {
            for ph in Phase::ALL {
                let want = reference[state(v, ph)];
                assert_eq!(row.dist(v, ph), want, "({v}, {ph:?}) -> {}", row.target);
            }
        }
    }

    /// Every (target, node, phase) of the lazily built rows against the
    /// reverse BFS.
    fn assert_rows_equal_the_bfs(t: &Topology, ud: &UpDownLabeling, mask: Option<&[bool]>) {
        let tb = RoutingTables::build_masked(t, ud, mask);
        let ext = extended_ancestors_ref(t, ud, mask);
        for target in t.nodes() {
            let bfs = RoutingTables::bfs_for_target(t, ud, &ext, target, mask);
            assert_row_is(tb.row(t, ud, target), t, &bfs);
        }
    }

    /// Rule 2's set from every state toward every target — what
    /// `legal_moves` admits through a down-cross channel — and the
    /// finiteness of every DownCross cell, against Definition 1 walked
    /// over the graph.
    fn assert_rule_2_is_definition_1(t: &Topology, ud: &UpDownLabeling, mask: Option<&[bool]>) {
        let spam = match mask {
            Some(m) => SpamRouting::new_masked(t, ud, m),
            None => SpamRouting::new(t, ud),
        };
        let ext = extended_ancestors_ref(t, ud, mask);
        let alive = |c: ChannelId| mask.is_none_or(|m| m[c.index()]);
        for target in t.nodes() {
            let is_ext = |v: NodeId| ext[v.index()][target.index()];
            for v in t.nodes() {
                let finite = spam.dist(target, v, Phase::DownCross) != UNREACHABLE;
                assert_eq!(finite, is_ext(v), "DownCross cell of {v} toward {target}");
                for ph in Phase::ALL {
                    let rule_2: Vec<ChannelId> = spam
                        .legal_moves(v, ph, target)
                        .into_iter()
                        .filter(|&(_, nph)| nph == Phase::DownCross)
                        .map(|(c, _)| c)
                        .collect();
                    let reference: Vec<ChannelId> = t
                        .out_channels(v)
                        .iter()
                        .copied()
                        .filter(|&c| {
                            ph != Phase::DownTree
                                && ud.class(c) == ChannelClass::DownCross
                                && alive(c)
                                && is_ext(t.channel(c).dst)
                        })
                        .collect();
                    assert_eq!(rule_2, reference, "rule 2 at ({v}, {ph:?}) toward {target}");
                }
            }
        }
    }

    /// Runs `check` over a random lattice and root policy: pristine;
    /// after each of a chain of relabels, masked to the channels still
    /// alive; and on a split network whose partial labeling leaves a
    /// piece unlabeled (level `u32::MAX`, last in `by_depth` by id), which
    /// no fixed fabric of [`fabrics`] reaches.
    fn for_each_drawn_fabric(
        switches: usize,
        seed: u64,
        policy: usize,
        kills: usize,
        epochs: usize,
        check: fn(&Topology, &UpDownLabeling, Option<&[bool]>),
    ) {
        let t = IrregularConfig::with_switches(switches).generate(seed);
        let root = [
            RootSelection::LowestId,
            RootSelection::MaxDegree,
            RootSelection::MinEccentricity,
            RootSelection::RandomSeeded(seed),
        ][policy];
        let mut ud = UpDownLabeling::build(&t, root);
        check(&t, &ud, None);
        let root = ud.root();
        for e in 1..=epochs {
            let view = kill_links(&t, e * kills, seed);
            let (next, _) = ud.relabel_after(&view).expect("links died, no switch did");
            check(&t, &next, Some(&view.alive_channel_mask()));
            ud = next;
        }
        // Cut a third of the links, and every switch-to-switch link of
        // the highest-id switch but the root, so a piece is split off.
        let mut view = kill_links(&t, t.num_channels() / 6, seed);
        let cut = t
            .switches()
            .filter(|&s| s != root)
            .last()
            .expect("16+ switches");
        for &c in t.out_channels(cut) {
            if t.is_switch(t.channel(c).dst) {
                view.kill_link(c);
            }
        }
        let (split, _) = view.masked_topology();
        let partial = UpDownLabeling::build_partial(&split, root);
        assert!(partial.num_labeled() < split.num_nodes());
        check(&split, &partial, None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Every (target, node, phase) against the reverse BFS.
        #[test]
        fn swept_rows_equal_the_reverse_bfs(
            switches in 16usize..=64,
            seed in any::<u64>(),
            policy in 0usize..4,
            kills in 1usize..12,
            epochs in 1usize..=3,
        ) {
            for_each_drawn_fabric(switches, seed, policy, kills, epochs, assert_rows_equal_the_bfs);
        }

        /// Rule 2 reads the rows; Definition 1 is walked over the graph.
        #[test]
        fn rule_2_is_definition_1_over_alive_channels(
            switches in 16usize..=64,
            seed in any::<u64>(),
            policy in 0usize..4,
            kills in 1usize..12,
            epochs in 1usize..=3,
        ) {
            for_each_drawn_fabric(switches, seed, policy, kills, epochs, assert_rule_2_is_definition_1);
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
            let (n, switches) = (t.num_nodes(), t.num_switches());
            let order = (1..n).step_by(2).chain((0..n).step_by(2));
            for (asked, i) in order.enumerate() {
                let target = NodeId(i as u32);
                assert_row_is(tb.row(&t, &ud, target), &t, &reference[i]);
                if i % 3 == 0 {
                    assert_row_is(tb.row(&t, &ud, target), &t, &reference[i]);
                }
                assert_eq!(tb.rows.resident(), asked + 1, "one row per new target");
            }
            // Two cells of two bytes per switch and target.
            assert_eq!(tb.approx_bytes(), idle + n * 2 * switches * 2);
        }
    }

    #[test]
    fn every_cell_equals_a_forward_search_over_legal_moves() {
        // The rows come from sweeps over the `(level, id)` order. The
        // oracle expands `legal_moves` forward from each state until it
        // stands on the target. Rule 2 in `legal_moves` reads the rows'
        // DownCross cells, so this holds the other cells against them;
        // `rule_2_is_definition_1_over_alive_channels` holds those
        // against Definition 1 walked over the graph.
        for (t, ud, mask) in fabrics() {
            let spam = match &mask {
                Some(m) => SpamRouting::new_masked(&t, &ud, m),
                None => SpamRouting::new(&t, &ud),
            };
            let states = 3 * t.num_nodes();
            let state_of = |c: ChannelId, ph| state(t.channel(c).dst, ph);
            for target in t.nodes() {
                let mut succ: Vec<Vec<usize>> = Vec::with_capacity(states);
                for v in t.nodes() {
                    for ph in Phase::ALL {
                        let moves = spam.legal_moves(v, ph, target);
                        succ.push(moves.iter().map(|&(c, nph)| state_of(c, nph)).collect());
                    }
                }
                for v in t.nodes() {
                    for ph in Phase::ALL {
                        let mut depth = vec![UNREACHABLE; states];
                        let mut queue = VecDeque::from([state(v, ph)]);
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
                    let (t, ud, tb, reference, barrier) = (&t, &ud, &tb, &reference, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        (i..i + n / 2)
                            .map(|k| {
                                let row = tb.row(t, ud, NodeId(k as u32));
                                assert_row_is(row, t, &reference[k]);
                                (k, row.cells.as_ptr() as usize)
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
            let row = tb.row(&t, &ud, NodeId(k as u32));
            assert_eq!(
                ptr,
                row.cells.as_ptr() as usize,
                "row {k} was allocated twice"
            );
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
        let spam = SpamRouting::new(&t, &ud);
        let four = l.by_label(4).unwrap();
        for ph in Phase::ALL {
            assert_eq!(spam.dist(four, four, ph), 0);
        }
    }

    #[test]
    fn figure1_distances_to_lca4() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let lca = by(4);
        // From node 2 in Up phase: down tree channel (2,4) directly.
        assert_eq!(spam.dist(lca, by(2), Phase::Up), 1);
        // From node 3 in DownCross phase: the cross channel (3,4).
        assert_eq!(spam.dist(lca, by(3), Phase::DownCross), 1);
        // From the source processor 5: 5 -> 2 (up) -> 4 (down tree) = 2.
        assert_eq!(spam.dist(lca, by(5), Phase::Up), 2);
        // From node 6 in DownTree phase the LCA is unreachable (no up moves
        // allowed, 6 is below 4).
        assert_eq!(spam.dist(lca, by(6), Phase::DownTree), UNREACHABLE);
        // But in Up phase node 6 can climb: 6 -> 4 = 1 hop up... up channel
        // (6,4) ends at the target.
        assert_eq!(spam.dist(lca, by(6), Phase::Up), 1);
    }

    #[test]
    fn downtree_phase_distance_is_tree_depth_difference() {
        let (t, l, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        // 4 -> 6 -> 8 strictly down tree.
        assert_eq!(spam.dist(by(8), by(4), Phase::DownTree), 2);
        assert_eq!(spam.dist(by(8), by(6), Phase::DownTree), 1);
        // Sibling subtree is unreachable once in DownTree phase.
        assert_eq!(spam.dist(by(11), by(6), Phase::DownTree), UNREACHABLE);
    }

    #[test]
    fn up_phase_always_reaches_everything() {
        // From any node in Up phase a SPAM route to any other node exists
        // (climb to the root, descend the tree) — the routing-function
        // totality that underlies delivery guarantees.
        let (t, _, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        for u in t.nodes() {
            for v in t.nodes() {
                assert_ne!(
                    spam.dist(v, u, Phase::Up),
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
            let spam = SpamRouting::new(&t, &ud);
            for u in t.nodes() {
                for v in t.nodes() {
                    assert_ne!(spam.dist(v, u, Phase::Up), UNREACHABLE);
                }
            }
        }
    }

    #[test]
    fn distances_dominate_bfs_lower_bound() {
        // SPAM-legal routes can never be shorter than unconstrained BFS.
        let t = IrregularConfig::with_switches(20).generate(3);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let spam = SpamRouting::new(&t, &ud);
        for v in t.nodes() {
            let bfs = netgraph::algo::bfs_distances(&t, v);
            for u in t.nodes() {
                let d = spam.dist(v, u, Phase::Up);
                assert!(d as u32 >= bfs[u.index()], "SPAM beat BFS {u}->{v}");
            }
        }
    }

    #[test]
    fn min_distance_neighbor_always_exists() {
        // Constructive livelock freedom: from any state at distance k >= 1,
        // some legal move reaches a state at distance k - 1.
        let (t, _, ud) = fig1();
        let spam = SpamRouting::new(&t, &ud);
        let ext = extended_ancestors_ref(&t, &ud, None);
        for target in t.nodes() {
            for u in t.nodes() {
                for ph in Phase::ALL {
                    let k = spam.dist(target, u, ph);
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
                                if ext[v.index()][target.index()] =>
                            {
                                Some(Phase::DownCross)
                            }
                            (ChannelClass::DownTree, _) if ud.is_ancestor(v, target) => {
                                Some(Phase::DownTree)
                            }
                            _ => None,
                        };
                        if let Some(nph) = next {
                            if spam.dist(target, v, nph) == k - 1 {
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
