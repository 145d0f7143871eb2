//! Classic up*/down* unicast routing (Schroeder et al., Autonet).
//!
//! A worm uses zero or more **up** channels followed by zero or more
//! **down** channels — with *no* distinction between down tree and down
//! cross channels. A down channel `(u, v)` is legal only if the target is
//! still reachable from `v` through down channels alone (otherwise the worm
//! would strand itself in the down subnetwork) — exactly when `v`'s Down
//! cell in the target's residual-distance row is finite, so the row
//! answers legality too.
//!
//! This is the routing SPAM generalizes; it serves two roles here: the
//! unicast baseline for ablation D, and — together with SPAM's unicast
//! stage — a measure of how much SPAM's extra ordering restriction
//! (down-cross before down-tree) costs on unicast traffic.

use netgraph::{ChannelId, NodeId, Topology};
use std::sync::Arc;
use updown::{ChannelClass, LazyRows, UpDownLabeling};
use wormsim::{
    MessageSpec, RouteDecision, RouteError, RoutingAlgorithm, SnapReader, SnapWriter, SnapshotError,
};

/// Routing phase: up channels first, then down channels only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdPhase {
    /// May still use any channel (up moves allowed).
    Up,
    /// Committed to the down subnetwork.
    Down,
}

/// Worm header state: the unicast target and the phase.
#[derive(Debug, Clone)]
pub struct UdHeader {
    /// The destination processor.
    pub target: NodeId,
    /// Up or down phase.
    pub phase: UdPhase,
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

/// Sentinel for unreachable states.
const UNREACHABLE: u16 = u16::MAX;

/// Index of `(node, phase)` within a target's distance row.
#[inline]
fn cell(v: NodeId, ph: UdPhase) -> usize {
    2 * v.index() + (ph == UdPhase::Down) as usize
}

/// The router's shareable state — the residual distances, one row per
/// target built the first time that target is routed to — detached from
/// the topology borrow, so an artifact cache can keep it alive across
/// runs and re-attach it with [`UpDownUnicastRouting::with_precomp`].
/// Nothing is computed up front: a row is two passes over the labeling's
/// `(level, id)` order, and its Down cells also answer which down moves
/// are legal. Cloning is a refcount bump; clones share every row.
#[derive(Debug, Clone)]
pub struct UpDownPrecomp {
    /// `dist[target][2 * node + phase]` residual legal distances.
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

    /// The row of `target`, one pass per phase over `ud.by_depth()`: down
    /// channels lead later in that order, so the reverse pass finds each
    /// node's Down cell from finished ones, and up channels lead earlier,
    /// so the forward pass does the same for Up. A node's Up cell is at
    /// most its Down cell, since it may turn down right away.
    fn build_dist(topo: &Topology, ud: &UpDownLabeling, target: NodeId) -> Vec<u16> {
        let mut d = vec![UNREACHABLE; 2 * topo.num_nodes()];
        d[cell(target, UdPhase::Up)] = 0;
        d[cell(target, UdPhase::Down)] = 0;
        // The cell of channel `c`'s endpoint in phase `ph`, one hop
        // further; `UNREACHABLE` saturates to itself.
        let hop = |d: &[u16], c: ChannelId, ph| d[cell(topo.channel(c).dst, ph)].saturating_add(1);
        let order = ud.by_depth();
        for &v in order.iter().rev().filter(|&&v| v != target) {
            d[cell(v, UdPhase::Down)] = topo
                .out_channels(v)
                .iter()
                .filter(|&&c| ud.class(c).is_down())
                .map(|&c| hop(&d, c, UdPhase::Down))
                .fold(UNREACHABLE, u16::min);
        }
        for &v in order {
            d[cell(v, UdPhase::Up)] = topo
                .out_channels(v)
                .iter()
                .filter(|&&c| ud.class(c).is_up())
                .map(|&c| hop(&d, c, UdPhase::Up))
                .fold(d[cell(v, UdPhase::Down)], u16::min);
        }
        d
    }

    /// Whether the target is reachable from `v` through down channels
    /// alone — the Down cell of the target's row is finite.
    #[inline]
    fn down_reaches(row: &[u16], v: NodeId) -> bool {
        row[cell(v, UdPhase::Down)] != UNREACHABLE
    }

    /// The `n²` down-reachability closure over the (acyclic) down-channel
    /// digraph, each node's reach the union of its down neighbours'. With
    /// [`Self::bfs_dist`], the reference the tests hold
    /// [`Self::build_dist`] and [`Self::down_reaches`] against.
    #[cfg(test)]
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
    /// target, down moves checked against `down_reach`.
    #[cfg(test)]
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
            d[cell(target, ph)] = 0;
            q.push_back((target, ph));
        }
        while let Some((v, ph_v)) = q.pop_front() {
            let dv = d[cell(v, ph_v)];
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
                    let slot = &mut d[cell(u, ph_u)];
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
    #[cfg(test)]
    fn build_all_dist(topo: &Topology, ud: &UpDownLabeling) -> Vec<Vec<u16>> {
        let down_reach = Self::down_reach(topo, ud);
        topo.nodes()
            .map(|t| Self::bfs_dist(topo, ud, &down_reach, t))
            .collect()
    }

    /// The residual-distance row of `target` (`row[2 * node + phase]`),
    /// built now if this is the first time it is asked for.
    #[inline]
    fn row(&self, target: NodeId) -> &[u16] {
        self.pre.dist.get_or_build(target.index(), || {
            Self::build_dist(self.topo, self.ud, target)
        })
    }

    /// Residual legal distance from `(node, phase)` to `target`.
    pub fn dist(&self, target: NodeId, node: NodeId, phase: UdPhase) -> u16 {
        self.row(target)[cell(node, phase)]
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
                    if Self::down_reaches(row, v) {
                        out.push((c, UdPhase::Down));
                    }
                }
            }
        }
        out
    }
}

impl RoutingAlgorithm for UpDownUnicastRouting<'_> {
    type Header = UdHeader;
    type Scratch = ();

    fn initial_header(&self, spec: &MessageSpec) -> Result<UdHeader, RouteError> {
        assert!(
            spec.is_unicast(),
            "up*/down* baseline routes unicasts only; use a multicast scheme on top"
        );
        let target = spec.dests[0];
        if !self.ud.is_labeled(target) {
            return Err(RouteError::UnreachableDestination { dest: target });
        }
        Ok(UdHeader {
            target,
            phase: UdPhase::Up,
        })
    }

    fn snapshot_name(&self) -> &'static str {
        "updown-unicast"
    }

    fn encode_header(&self, h: &UdHeader, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        w.put_u32(h.target.0);
        w.put_u8(match h.phase {
            UdPhase::Up => 0,
            UdPhase::Down => 1,
        });
        Ok(())
    }

    fn decode_header(&self, r: &mut SnapReader) -> Result<UdHeader, SnapshotError> {
        // `route` indexes the distance rows with the target.
        let target = r.get_u32()?;
        if target as usize >= self.topo.num_nodes() {
            return Err(SnapshotError::Corrupt("node id outside the topology"));
        }
        Ok(UdHeader {
            target: NodeId(target),
            phase: match r.get_u8()? {
                0 => UdPhase::Up,
                1 => UdPhase::Down,
                _ => return Err(SnapshotError::Corrupt("unknown up*/down* phase")),
            },
        })
    }

    fn route(
        &self,
        node: NodeId,
        _in_ch: ChannelId,
        header: &UdHeader,
        _spec: &MessageSpec,
        _scratch: &mut (),
        out: &mut RouteDecision<UdHeader>,
    ) -> Result<(), RouteError> {
        // The selection is a fixed min over (residual distance, channel),
        // so fold it into the legality scan — no candidate list, no
        // allocation per hop.
        let row = self.row(header.target);
        let mut best: Option<(u16, ChannelId, UdPhase)> = None;
        for &c in self.topo.out_channels(node) {
            let v = self.topo.channel(c).dst;
            let ph = match self.ud.class(c) {
                ChannelClass::UpTree | ChannelClass::UpCross => {
                    if header.phase == UdPhase::Up {
                        UdPhase::Up
                    } else {
                        continue;
                    }
                }
                ChannelClass::DownTree | ChannelClass::DownCross => {
                    if Self::down_reaches(row, v) {
                        UdPhase::Down
                    } else {
                        continue;
                    }
                }
            };
            let d = row[cell(v, ph)];
            if best.is_none_or(|(bd, bc, _)| (d, c) < (bd, bc)) {
                best = Some((d, c, ph));
            }
        }
        let (_, ch, phase) = best.ok_or(RouteError::NoLegalMove {
            node,
            target: header.target,
        })?;
        out.push(
            ch,
            UdHeader {
                target: header.target,
                phase,
            },
        );
        Ok(())
    }
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

    /// Every cell of every target's lazily built row against the reverse
    /// BFS over the down-reachability closure, and every down move's
    /// legality against that closure.
    fn assert_rows_equal_the_bfs(t: &Topology, ud: &UpDownLabeling) {
        let down_reach = UpDownUnicastRouting::down_reach(t, ud);
        let router = UpDownUnicastRouting::new(t, ud);
        for target in t.nodes() {
            let bfs = UpDownUnicastRouting::bfs_dist(t, ud, &down_reach, target);
            let row = router.row(target);
            assert_eq!(row, &bfs[..], "row {target}");
            for v in t.nodes() {
                let reach = down_reach[v.index()][target.index()];
                assert_eq!(UpDownUnicastRouting::down_reaches(row, v), reach);
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
    fn decoded_header_target_is_held_against_the_topology() {
        let (t, l) = figure1();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(1).unwrap()));
        let router = UpDownUnicastRouting::new(&t, &ud);
        for (target, ok) in [(t.num_nodes() - 1, true), (t.num_nodes(), false)] {
            let h = UdHeader {
                target: NodeId(target as u32),
                phase: UdPhase::Down,
            };
            let mut w = SnapWriter::new();
            w.begin();
            router.encode_header(&h, &mut w).unwrap();
            let bytes = w.seal().to_vec();
            let back = router.decode_header(&mut SnapReader::open(&bytes).unwrap());
            match back {
                Ok(back) => assert!(ok && back.target == h.target && back.phase == h.phase),
                Err(e) => {
                    assert!(!ok && e == SnapshotError::Corrupt("node id outside the topology"))
                }
            }
        }
    }

    #[test]
    fn lazy_rows_equal_the_all_targets_reference() {
        for (seed, switches) in [(1, 16), (2, 23), (3, 32)] {
            let t = IrregularConfig::with_switches(switches).generate(seed);
            let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
            let reference = UpDownUnicastRouting::build_all_dist(&t, &ud);
            let router = UpDownUnicastRouting::new(&t, &ud);
            let idle = router.precomp().approx_bytes();
            // A second router over the detached state shares the rows
            // the first one builds.
            let attached = UpDownUnicastRouting::with_precomp(&t, &ud, router.precomp());
            let n = t.num_nodes();
            // Odd targets through one router, even through the other.
            for i in (1..n).step_by(2).chain((0..n).step_by(2)) {
                let asked = if i % 2 == 1 { &router } else { &attached };
                assert_eq!(asked.row(NodeId(i as u32)), &reference[i][..], "row {i}");
            }
            for (i, row) in reference.iter().enumerate() {
                let target = NodeId(i as u32);
                assert_eq!(router.row(target).as_ptr(), attached.row(target).as_ptr());
                for u in t.nodes() {
                    for ph in [UdPhase::Up, UdPhase::Down] {
                        assert_eq!(router.dist(target, u, ph), row[cell(u, ph)]);
                    }
                }
            }
            assert_eq!(attached.precomp().approx_bytes(), idle + n * 2 * n * 2);
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
