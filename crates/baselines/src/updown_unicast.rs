//! Classic up*/down* unicast routing (Schroeder et al., Autonet).
//!
//! A worm uses zero or more **up** channels followed by zero or more
//! **down** channels — with *no* distinction between down tree and down
//! cross channels. A down channel `(u, v)` is legal only if the target is
//! still reachable from `v` through down channels alone (otherwise the worm
//! would strand itself in the down subnetwork) — exactly when `v`'s Down
//! cell in the target's residual-distance row is finite, so the row
//! answers legality too. A row keeps the Up and Down cells of each switch,
//! `2 · switches` cells indexed by [`Topology::switch_rank`]; a
//! processor's cells follow from its one link and its switch's cells.
//!
//! This is the routing SPAM generalizes; it serves two roles here: the
//! unicast baseline for ablation D, and — together with SPAM's unicast
//! stage — a measure of how much SPAM's extra ordering restriction
//! (down-cross before down-tree) costs on unicast traffic.

use netgraph::{ChannelId, NodeId, Topology};
use std::sync::Arc;
use updown::{hop, sweep_row, ChannelClass, LazyRows, UpDownLabeling, UNREACHABLE};
use wormsim::{
    MessageSpec, RouteDecision, RouteError, RoutingAlgorithm, SnapReader, SnapWriter, SnapshotError,
};

/// Routing phase: up channels first, then down channels only. It is the
/// worm's whole header: the target is the message's one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdPhase {
    /// May still use any channel (up moves allowed).
    Up,
    /// Committed to the down subnetwork.
    Down,
}

/// Up*/down* unicast routing with a min-residual-distance selection
/// function (the same selection discipline the SPAM implementation uses,
/// so comparisons isolate the routing-function difference).
#[derive(Debug, Clone)]
pub struct UpDownUnicastRouting<'a> {
    topo: &'a Topology,
    ud: &'a UpDownLabeling,
    pre: UpDownPrecomp,
}

/// Index of the `phase` cell of the switch ranked `rank` within a
/// target's distance row.
#[inline]
fn cell(rank: usize, ph: UdPhase) -> usize {
    2 * rank + (ph == UdPhase::Down) as usize
}

/// One target's distance row, resolved: the stored switch cells and what
/// a processor's cells are derived from.
#[derive(Clone, Copy)]
struct Row<'a> {
    router: &'a UpDownUnicastRouting<'a>,
    target: NodeId,
    cells: &'a [u16],
}

impl Row<'_> {
    /// Residual legal distance from `(v, phase)` to the target.
    #[inline]
    fn dist(&self, v: NodeId, phase: UdPhase) -> u16 {
        match self.router.topo.switch_rank(v) {
            Some(r) => self.cells[cell(r, phase)],
            None => self.processor_dist(v, phase),
        }
    }

    /// A processor's cell, from its one link: out of line, so that
    /// [`Self::dist`] inlines into the sweep and the per-hop decision.
    #[inline(never)]
    fn processor_dist(&self, p: NodeId, phase: UdPhase) -> u16 {
        match phase {
            UdPhase::Down => self.down(p),
            UdPhase::Up => self.up(p),
        }
    }

    /// Whether the target is reachable from `v` through down channels
    /// alone — its Down cell is finite.
    #[inline]
    fn down_reaches(&self, v: NodeId) -> bool {
        self.dist(v, UdPhase::Down) != UNREACHABLE
    }

    /// The Down cell of `v` from the Down cells its down channels lead
    /// to.
    fn down(&self, v: NodeId) -> u16 {
        if v == self.target {
            return 0;
        }
        let UpDownUnicastRouting { topo, ud, .. } = self.router;
        topo.out_channels(v)
            .iter()
            .filter(|&&c| ud.class(c).is_down())
            .map(|&c| hop(self.dist(topo.channel(c).dst, UdPhase::Down)))
            .fold(UNREACHABLE, u16::min)
    }

    /// The Up cell of `v` from the Up cells its up channels lead to — at
    /// most its Down cell, since it may turn down right away.
    fn up(&self, v: NodeId) -> u16 {
        let UpDownUnicastRouting { topo, ud, .. } = self.router;
        topo.out_channels(v)
            .iter()
            .filter(|&&c| ud.class(c).is_up())
            .map(|&c| hop(self.dist(topo.channel(c).dst, UdPhase::Up)))
            .fold(self.dist(v, UdPhase::Down), u16::min)
    }
}

/// The router's shareable state — the residual distances, one row per
/// target built the first time that target is routed to — detached from
/// the topology borrow, so an artifact cache can keep it alive across
/// runs and re-attach it with [`UpDownUnicastRouting::with_precomp`].
/// Nothing is computed up front: a row is two passes over the labeling's
/// `(level, id)` order, `4 · switches` bytes, and its Down cells also
/// answer which down moves are legal. Cloning is a refcount bump; clones
/// share every row.
#[derive(Debug, Clone)]
pub struct UpDownPrecomp {
    /// `dist[target][2 * switch_rank + phase]` residual legal distances.
    dist: Arc<LazyRows>,
}

impl UpDownPrecomp {
    /// Heap footprint in bytes as of now: the distance rows built so far.
    pub fn approx_bytes(&self) -> usize {
        self.dist.resident_bytes()
    }
}

impl<'a> UpDownUnicastRouting<'a> {
    /// Builds the router; no distance row is built here.
    pub fn new(topo: &'a Topology, ud: &'a UpDownLabeling) -> Self {
        UpDownUnicastRouting {
            topo,
            ud,
            pre: UpDownPrecomp {
                dist: Arc::new(LazyRows::new(topo.num_nodes())),
            },
        }
    }

    /// Builds the router from an *already computed* [`UpDownPrecomp`] —
    /// the artifact-cache entry point. `precomp` must have been taken
    /// (via [`Self::precomp`]) from a router built over exactly this
    /// `(topo, ud)` pair; behavior is then identical to [`Self::new`]
    /// while sharing every distance row built so far.
    pub fn with_precomp(
        topo: &'a Topology,
        ud: &'a UpDownLabeling,
        precomp: UpDownPrecomp,
    ) -> Self {
        assert_eq!(
            precomp.dist.len(),
            topo.num_nodes(),
            "precomputed distances cover every node"
        );
        UpDownUnicastRouting {
            topo,
            ud,
            pre: precomp,
        }
    }

    /// The shareable state, detached for caching (see
    /// [`Self::with_precomp`]).
    pub fn precomp(&self) -> UpDownPrecomp {
        self.pre.clone()
    }

    /// The row of `target` ([`sweep_row`]): Down cells in the reverse
    /// pass, Up cells in the forward one.
    fn build_dist(&self, target: NodeId) -> Vec<u16> {
        sweep_row(
            self.topo,
            self.ud,
            |cells, v| self.row_of(target, cells).down(v),
            |cells, v| self.row_of(target, cells).up(v),
        )
    }

    /// The residual-distance row of `target`, built now if this is the
    /// first time it is asked for.
    #[inline]
    fn row(&self, target: NodeId) -> Row<'_> {
        let cells = self
            .pre
            .dist
            .get_or_build(target.index(), || self.build_dist(target));
        self.row_of(target, cells)
    }

    /// `cells` read as `target`'s row (the sweep reads the one it fills).
    fn row_of<'r>(&'r self, target: NodeId, cells: &'r [u16]) -> Row<'r> {
        Row {
            router: self,
            target,
            cells,
        }
    }

    /// Residual legal distance from `(node, phase)` to `target`.
    pub fn dist(&self, target: NodeId, node: NodeId, phase: UdPhase) -> u16 {
        self.row(target).dist(node, phase)
    }

    /// Legal `(channel, next phase)` moves from `node` towards `target`.
    pub fn legal_moves(
        &self,
        node: NodeId,
        phase: UdPhase,
        target: NodeId,
    ) -> Vec<(ChannelId, UdPhase)> {
        let row = self.row(target);
        let mut out = Vec::new();
        for &c in self.topo.out_channels(node) {
            let v = self.topo.channel(c).dst;
            match self.ud.class(c) {
                ChannelClass::UpTree | ChannelClass::UpCross => {
                    if phase == UdPhase::Up {
                        out.push((c, UdPhase::Up));
                    }
                }
                ChannelClass::DownTree | ChannelClass::DownCross => {
                    if row.down_reaches(v) {
                        out.push((c, UdPhase::Down));
                    }
                }
            }
        }
        out
    }
}

impl RoutingAlgorithm for UpDownUnicastRouting<'_> {
    type Header = UdPhase;
    type Scratch = ();

    fn initial_header(&self, spec: &MessageSpec) -> Result<UdPhase, RouteError> {
        assert!(
            spec.is_unicast(),
            "up*/down* baseline routes unicasts only; use a multicast scheme on top"
        );
        let target = spec.dests[0];
        if !self.ud.is_labeled(target) {
            return Err(RouteError::UnreachableDestination { dest: target });
        }
        Ok(UdPhase::Up)
    }

    fn snapshot_name(&self) -> &'static str {
        "updown-unicast"
    }

    fn encode_header(&self, h: &UdPhase, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        w.put_u8(match h {
            UdPhase::Up => 0,
            UdPhase::Down => 1,
        });
        Ok(())
    }

    fn decode_header(&self, r: &mut SnapReader) -> Result<UdPhase, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(UdPhase::Up),
            1 => Ok(UdPhase::Down),
            _ => Err(SnapshotError::Corrupt("unknown up*/down* phase")),
        }
    }

    fn route(
        &self,
        node: NodeId,
        _in_ch: ChannelId,
        phase: &UdPhase,
        spec: &MessageSpec,
        _scratch: &mut (),
        out: &mut RouteDecision<UdPhase>,
    ) -> Result<(), RouteError> {
        // The selection is a fixed min over (residual distance, channel),
        // so fold it into the legality scan — no candidate list, no
        // allocation per hop.
        let target = spec.dests[0];
        let row = self.row(target);
        let mut best: Option<(u16, ChannelId, UdPhase)> = None;
        for &c in self.topo.out_channels(node) {
            let v = self.topo.channel(c).dst;
            let ph = match self.ud.class(c) {
                ChannelClass::UpTree | ChannelClass::UpCross => {
                    if *phase == UdPhase::Up {
                        UdPhase::Up
                    } else {
                        continue;
                    }
                }
                ChannelClass::DownTree | ChannelClass::DownCross => {
                    if row.down_reaches(v) {
                        UdPhase::Down
                    } else {
                        continue;
                    }
                }
            };
            let d = row.dist(v, ph);
            if best.is_none_or(|(bd, bc, _)| (d, c) < (bd, bc)) {
                best = Some((d, c, ph));
            }
        }
        let (_, ch, next) = best.ok_or(RouteError::NoLegalMove { node, target })?;
        out.push(ch, next);
        Ok(())
    }
}

#[cfg(test)]
impl UpDownUnicastRouting<'_> {
    /// The `n²` down-reachability closure over the (acyclic) down-channel
    /// digraph, each node's reach the union of its down neighbours'. With
    /// [`Self::bfs_dist`], the reference the tests hold
    /// [`Self::build_dist`] and [`Row::down_reaches`] against.
    fn down_reach(topo: &Topology, ud: &UpDownLabeling) -> Vec<Vec<bool>> {
        let n = topo.num_nodes();
        let mut order: Vec<NodeId> = topo.nodes().collect();
        order.sort_unstable_by_key(|v| (ud.level(*v), *v));
        let mut reach = vec![vec![false; n]; n];
        for &u in order.iter().rev() {
            reach[u.index()][u.index()] = true;
            for &c in topo.out_channels(u) {
                if ud.class(c).is_down() {
                    let w = reach[topo.channel(c).dst.index()].clone();
                    for (r, x) in reach[u.index()].iter_mut().zip(w) {
                        *r |= x;
                    }
                }
            }
        }
        reach
    }

    /// Reverse BFS over the two-layer (Up/Down) legality graph for one
    /// target, down moves checked against `down_reach`, indexed by
    /// [`state`].
    fn bfs_dist(
        topo: &Topology,
        ud: &UpDownLabeling,
        down_reach: &[Vec<bool>],
        target: NodeId,
    ) -> Vec<u16> {
        use std::collections::VecDeque;
        let n = topo.num_nodes();
        let mut d = vec![UNREACHABLE; 2 * n];
        let mut q = VecDeque::new();
        for ph in [UdPhase::Up, UdPhase::Down] {
            d[state(target, ph)] = 0;
            q.push_back((target, ph));
        }
        while let Some((v, ph_v)) = q.pop_front() {
            let dv = d[state(v, ph_v)];
            for &c in topo.in_channels(v) {
                let u = topo.channel(c).src;
                let preds: &[UdPhase] = if ud.class(c).is_up() {
                    if ph_v == UdPhase::Up {
                        &[UdPhase::Up]
                    } else {
                        &[]
                    }
                } else if ph_v == UdPhase::Down && down_reach[v.index()][target.index()] {
                    &[UdPhase::Up, UdPhase::Down]
                } else {
                    &[]
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

    /// The distances for all targets at once — what construction computed
    /// before rows were built on first use. Kept as the reference the
    /// tests hold the lazily built rows against.
    fn build_all_dist(topo: &Topology, ud: &UpDownLabeling) -> Vec<Vec<u16>> {
        let down_reach = Self::down_reach(topo, ud);
        topo.nodes()
            .map(|t| Self::bfs_dist(topo, ud, &down_reach, t))
            .collect()
    }
}

/// Index of `(node, phase)` in a reference row of every node and phase.
#[cfg(test)]
fn state(v: NodeId, ph: UdPhase) -> usize {
    2 * v.index() + (ph == UdPhase::Down) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::fixtures::figure1;
    use netgraph::gen::lattice::IrregularConfig;
    use netgraph::DegradedTopology;
    use proptest::prelude::*;
    use updown::RootSelection;
    use wormsim::{NetworkSim, SimConfig};

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

    /// `dist` for every (node, phase) of `row` — stored switch cells and
    /// derived processor cells alike — against `reference`, indexed by
    /// [`state`].
    fn assert_row_is(row: Row<'_>, t: &Topology, reference: &[u16]) {
        for v in t.nodes() {
            for ph in [UdPhase::Up, UdPhase::Down] {
                let want = reference[state(v, ph)];
                assert_eq!(row.dist(v, ph), want, "({v}, {ph:?}) -> {}", row.target);
            }
        }
    }

    /// Every (target, node, phase) of the lazily built rows against the
    /// reverse BFS over the down-reachability closure, and every down
    /// move's legality against that closure.
    fn assert_rows_equal_the_bfs(t: &Topology, ud: &UpDownLabeling) {
        let down_reach = UpDownUnicastRouting::down_reach(t, ud);
        let router = UpDownUnicastRouting::new(t, ud);
        for target in t.nodes() {
            let bfs = UpDownUnicastRouting::bfs_dist(t, ud, &down_reach, target);
            let row = router.row(target);
            assert_row_is(row, t, &bfs);
            for v in t.nodes() {
                let reach = down_reach[v.index()][target.index()];
                assert_eq!(row.down_reaches(v), reach);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// Over random lattices and root policies: pristine; after each
        /// of a chain of relabels (the baseline routes over every channel
        /// of the base topology); and on a split network whose partial
        /// labeling leaves a piece unlabeled (level `u32::MAX`, last in
        /// `by_depth` by id).
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
            assert_rows_equal_the_bfs(&t, &ud);
            let root = ud.root();
            for e in 1..=epochs {
                let view = kill_links(&t, e * kills, seed);
                let (next, _) = ud.relabel_after(&view).expect("links died, no switch did");
                assert_rows_equal_the_bfs(&t, &next);
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
            assert_rows_equal_the_bfs(&split, &partial);
        }
    }

    #[test]
    fn all_pairs_deliver_on_figure1() {
        let (t, l) = figure1();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(1).unwrap()));
        let router = UpDownUnicastRouting::new(&t, &ud);
        let procs: Vec<NodeId> = t.processors().collect();
        for &a in &procs {
            for &b in &procs {
                if a == b {
                    continue;
                }
                let mut sim = NetworkSim::new(&t, router.clone(), SimConfig::paper());
                sim.submit(MessageSpec::unicast(a, b, 64)).unwrap();
                let out = sim.run();
                assert!(out.all_delivered(), "{a} -> {b}");
            }
        }
    }

    #[test]
    fn decoded_header_phase_byte_is_checked() {
        let (t, l) = figure1();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(1).unwrap()));
        let router = UpDownUnicastRouting::new(&t, &ud);
        for phase in [UdPhase::Up, UdPhase::Down] {
            let mut w = SnapWriter::new();
            w.begin();
            router.encode_header(&phase, &mut w).unwrap();
            let bytes = w.seal().to_vec();
            let back = router.decode_header(&mut SnapReader::open(&bytes).unwrap());
            assert_eq!(back, Ok(phase));
        }
        for byte in [2, u8::MAX] {
            let mut w = SnapWriter::new();
            w.begin();
            w.put_u8(byte);
            let bytes = w.seal().to_vec();
            let back = router.decode_header(&mut SnapReader::open(&bytes).unwrap());
            assert_eq!(back, Err(SnapshotError::Corrupt("unknown up*/down* phase")));
        }
    }

    #[test]
    fn lazy_rows_equal_the_all_targets_reference() {
        // Figure 1's processor ids sit between switch ids, so a switch's
        // rank is not its id.
        let (fig, l) = figure1();
        let root = RootSelection::Fixed(l.by_label(1).unwrap());
        let lattices = [(1, 16), (2, 23), (3, 32)].map(|(seed, switches)| {
            let t = IrregularConfig::with_switches(switches).generate(seed);
            (t, RootSelection::LowestId)
        });
        for (t, root) in std::iter::once((fig, root)).chain(lattices) {
            let ud = UpDownLabeling::build(&t, root);
            let reference = UpDownUnicastRouting::build_all_dist(&t, &ud);
            let router = UpDownUnicastRouting::new(&t, &ud);
            let idle = router.precomp().approx_bytes();
            // A second router over the detached state shares the rows
            // the first one builds.
            let attached = UpDownUnicastRouting::with_precomp(&t, &ud, router.precomp());
            let (n, switches) = (t.num_nodes(), t.num_switches());
            // Odd targets through one router, even through the other.
            for i in (1..n).step_by(2).chain((0..n).step_by(2)) {
                let asked = if i % 2 == 1 { &router } else { &attached };
                assert_row_is(asked.row(NodeId(i as u32)), &t, &reference[i]);
            }
            for (i, reference) in reference.iter().enumerate() {
                let target = NodeId(i as u32);
                let row = router.row(target);
                assert_eq!(row.cells.as_ptr(), attached.row(target).cells.as_ptr());
                assert_row_is(row, &t, reference);
            }
            // Two cells of two bytes per switch and target.
            assert_eq!(
                attached.precomp().approx_bytes(),
                idle + n * 2 * switches * 2
            );
        }
    }

    #[test]
    fn up_down_is_at_least_as_direct_as_spam() {
        // Classic up*/down* has strictly more legal routes than SPAM's
        // restricted unicast stage, so its shortest legal distance can
        // never be longer.
        let t = IrregularConfig::with_switches(24).generate(5);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let udr = UpDownUnicastRouting::new(&t, &ud);
        let spam = spam_core::SpamRouting::new(&t, &ud);
        for a in t.nodes() {
            for b in t.nodes() {
                let d_ud = udr.dist(b, a, UdPhase::Up);
                let d_spam = spam.dist(b, a, spam_core::Phase::Up);
                assert_ne!(d_ud, UNREACHABLE, "{a}->{b} unreachable under up*/down*");
                assert!(
                    d_ud <= d_spam,
                    "up*/down* ({d_ud}) longer than SPAM ({d_spam}) {a}->{b}"
                );
            }
        }
    }

    #[test]
    fn random_concurrent_unicasts_never_deadlock() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        for seed in 0..5u64 {
            let t = IrregularConfig::with_switches(20).generate(seed);
            let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
            let router = UpDownUnicastRouting::new(&t, &ud);
            let procs: Vec<NodeId> = t.processors().collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut sim = NetworkSim::new(&t, router, SimConfig::paper());
            for i in 0..40 {
                let src = procs[rng.gen_range(0..procs.len())];
                let dst = *procs
                    .iter()
                    .filter(|&&p| p != src)
                    .collect::<Vec<_>>()
                    .choose(&mut rng)
                    .unwrap();
                sim.submit(
                    MessageSpec::unicast(src, *dst, 128)
                        .at(desim::Time::from_ns(rng.gen_range(0..30_000)))
                        .tag(i),
                )
                .unwrap();
            }
            let out = sim.run();
            assert!(out.all_delivered(), "seed {seed}: {:?}", out.deadlock);
        }
    }

    #[test]
    #[should_panic(expected = "unicasts only")]
    fn rejects_multicast_specs() {
        let (t, l) = figure1();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(1).unwrap()));
        let router = UpDownUnicastRouting::new(&t, &ud);
        let by = |x: u32| l.by_label(x).unwrap();
        let spec = MessageSpec::multicast(by(5), vec![by(8), by(9)], 8);
        let _ = router.initial_header(&spec);
    }
}
