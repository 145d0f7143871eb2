//! Degraded views of a topology: dead switches and dead links.
//!
//! The up*/down* labeling SPAM builds on comes from Autonet (Schroeder et
//! al.), a system whose defining feature was *automatic reconfiguration
//! after component failure*. This module provides the structural half of
//! that story: a [`DegradedTopology`] masks failed channels and switches
//! over an immutable base [`Topology`] **without renumbering nodes**, so
//! fault experiments can correlate per-node results before and after a
//! fault, enumerate surviving components, and materialize a masked
//! topology for the simulator.
//!
//! Fault *sampling* (which links/switches die) lives in the `spam-faults`
//! crate; this module only answers "given these deaths, what survives?".

use crate::algo;
use crate::ids::{ChannelId, NodeId};
use crate::topology::{NodeKind, Topology};
use std::collections::VecDeque;

/// A fault mask over a base topology.
///
/// Killing a link removes both unidirectional channels of the pair
/// (wormhole hardware loses the cable, not one direction). Killing a
/// switch removes the switch and every incident link, which strands its
/// attached processor. A node with no surviving link is treated as dead
/// for connectivity purposes — an unreachable endpoint can neither source
/// nor sink worms.
#[derive(Debug, Clone)]
pub struct DegradedTopology<'a> {
    base: &'a Topology,
    /// Nodes explicitly killed (switch kills).
    killed: Vec<bool>,
    /// Per-channel liveness; the two directions of a link agree.
    channel_alive: Vec<bool>,
}

impl<'a> DegradedTopology<'a> {
    /// A pristine view: everything alive.
    pub fn new(base: &'a Topology) -> Self {
        DegradedTopology {
            base,
            killed: vec![false; base.num_nodes()],
            channel_alive: vec![true; base.num_channels()],
        }
    }

    /// The undamaged base topology.
    pub fn base(&self) -> &Topology {
        self.base
    }

    /// Kills the bidirectional link containing channel `c` (both
    /// directions). Idempotent.
    pub fn kill_link(&mut self, c: ChannelId) {
        self.channel_alive[c.index()] = false;
        self.channel_alive[self.base.reverse(c).index()] = false;
    }

    /// Kills switch `s` and every link incident to it. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a switch (processors fail only through their
    /// link or their switch — they have no routing hardware of their own).
    pub fn kill_switch(&mut self, s: NodeId) {
        assert!(
            self.base.kind(s) == NodeKind::Switch,
            "{s} is not a switch; kill its link instead"
        );
        self.killed[s.index()] = true;
        for &c in self.base.out_channels(s) {
            self.kill_link(c);
        }
    }

    /// True when channel `c` survived.
    #[inline]
    pub fn is_channel_alive(&self, c: ChannelId) -> bool {
        self.channel_alive[c.index()]
    }

    /// True when `n` survived: not explicitly killed and at least one
    /// incident channel is alive (an isolated node is effectively dead).
    pub fn is_node_alive(&self, n: NodeId) -> bool {
        !self.killed[n.index()]
            && self
                .base
                .out_channels(n)
                .iter()
                .any(|&c| self.channel_alive[c.index()])
    }

    /// Per-channel liveness, indexed by base [`ChannelId`] — the mask a
    /// routing algorithm needs to avoid dead channels while keeping the
    /// base topology's channel numbering (live reconfiguration, where the
    /// simulator keeps running on the base topology).
    pub fn alive_channel_mask(&self) -> Vec<bool> {
        self.channel_alive.clone()
    }

    /// Surviving channels (both directions of surviving links).
    pub fn num_alive_channels(&self) -> usize {
        self.channel_alive.iter().filter(|a| **a).count()
    }

    /// Surviving switches.
    pub fn num_alive_switches(&self) -> usize {
        self.base
            .switches()
            .filter(|&s| self.is_node_alive(s))
            .count()
    }

    /// Surviving (still-attached) processors.
    pub fn num_alive_processors(&self) -> usize {
        self.base
            .processors()
            .filter(|&p| self.is_node_alive(p))
            .count()
    }

    /// Connected components of the surviving subgraph, each a sorted node
    /// list, ordered largest first (ties by smallest member id). Dead nodes
    /// appear in no component.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let n = self.base.num_nodes();
        let mut seen = vec![false; n];
        let mut comps: Vec<Vec<NodeId>> = Vec::new();
        for start in self.base.nodes() {
            if seen[start.index()] || !self.is_node_alive(start) {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::new();
            seen[start.index()] = true;
            q.push_back(start);
            while let Some(u) = q.pop_front() {
                comp.push(u);
                for &c in self.base.out_channels(u) {
                    if !self.channel_alive[c.index()] {
                        continue;
                    }
                    let v = self.base.channel(c).dst;
                    if !seen[v.index()] && self.is_node_alive(v) {
                        seen[v.index()] = true;
                        q.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
        comps
    }

    /// The largest surviving component (ties by smallest member id);
    /// empty when nothing survived.
    pub fn largest_component(&self) -> Vec<NodeId> {
        self.components().into_iter().next().unwrap_or_default()
    }

    /// True when every surviving node can reach every other surviving node.
    pub fn is_connected(&self) -> bool {
        self.components().len() <= 1
    }

    /// Materializes the surviving subgraph as a [`Topology`].
    ///
    /// Node ids are **preserved**: every base node is re-added in order
    /// (dead ones become isolated), and only surviving links — between two
    /// surviving nodes — are re-linked, in base link order. Channel ids are
    /// recompacted; the returned map gives `base channel id → masked
    /// channel id` (`None` for dead channels).
    pub fn masked_topology(&self) -> (Topology, Vec<Option<ChannelId>>) {
        let mut b = Topology::builder();
        for n in self.base.nodes() {
            match self.base.kind(n) {
                NodeKind::Switch => b.add_switch(),
                NodeKind::Processor => b.add_processor(),
            };
        }
        let mut map: Vec<Option<ChannelId>> = vec![None; self.base.num_channels()];
        let mut next = 0u32;
        for i in (0..self.base.num_channels()).step_by(2) {
            let fwd = ChannelId(i as u32);
            let ch = self.base.channel(fwd);
            if !self.channel_alive[i] || !self.is_node_alive(ch.src) || !self.is_node_alive(ch.dst)
            {
                continue;
            }
            // A subset of the base topology's links between the same node
            // ids: each joins two distinct existing nodes, once.
            #[allow(clippy::expect_used)]
            b.link(ch.src, ch.dst).expect("base link is valid");
            map[i] = Some(ChannelId(next));
            map[i + 1] = Some(ChannelId(next + 1));
            next += 2;
        }
        (b.build(), map)
    }

    /// BFS distances over the surviving subgraph (dead/unreachable nodes
    /// get [`algo::UNREACHABLE`]).
    pub fn distances_from(&self, source: NodeId) -> Vec<u32> {
        let mut dist = vec![algo::UNREACHABLE; self.base.num_nodes()];
        if !self.is_node_alive(source) {
            return dist;
        }
        let mut q = VecDeque::new();
        dist[source.index()] = 0;
        q.push_back(source);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            for &c in self.base.out_channels(u) {
                if !self.channel_alive[c.index()] {
                    continue;
                }
                let v = self.base.channel(c).dst;
                if dist[v.index()] == algo::UNREACHABLE && self.is_node_alive(v) {
                    dist[v.index()] = du + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// s0 - s1 - s2 in a line, with processors p3@s0, p4@s1, p5@s2.
    fn line3() -> Topology {
        let mut b = Topology::builder();
        let s: Vec<NodeId> = (0..3).map(|_| b.add_switch()).collect();
        b.link(s[0], s[1]).unwrap();
        b.link(s[1], s[2]).unwrap();
        for &sw in &s {
            let p = b.add_processor();
            b.link(p, sw).unwrap();
        }
        b.build()
    }

    #[test]
    fn pristine_view_is_fully_alive() {
        let t = line3();
        let d = DegradedTopology::new(&t);
        assert_eq!(d.num_alive_switches(), 3);
        assert_eq!(d.num_alive_processors(), 3);
        assert_eq!(d.num_alive_channels(), t.num_channels());
        assert!(d.is_connected());
        assert_eq!(d.components().len(), 1);
    }

    #[test]
    fn link_kill_splits_components() {
        let t = line3();
        let mut d = DegradedTopology::new(&t);
        let c = t.channel_between(NodeId(0), NodeId(1)).unwrap();
        d.kill_link(c);
        assert!(!d.is_channel_alive(c));
        assert!(!d.is_channel_alive(t.reverse(c)));
        assert!(!d.is_connected());
        let comps = d.components();
        assert_eq!(comps.len(), 2);
        // Largest first: {s1, s2, p4, p5} then {s0, p3}.
        assert_eq!(comps[0].len(), 4);
        assert_eq!(comps[1], vec![NodeId(0), NodeId(3)]);
        assert_eq!(d.largest_component(), comps[0]);
    }

    #[test]
    fn switch_kill_strands_its_processor() {
        let t = line3();
        let mut d = DegradedTopology::new(&t);
        d.kill_switch(NodeId(1));
        assert!(!d.is_node_alive(NodeId(1)));
        assert!(!d.is_node_alive(NodeId(4)), "processor of s1 stranded");
        assert_eq!(d.num_alive_switches(), 2);
        assert_eq!(d.num_alive_processors(), 2);
        let comps = d.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "not a switch")]
    fn killing_a_processor_is_rejected() {
        let t = line3();
        DegradedTopology::new(&t).kill_switch(NodeId(3));
    }

    #[test]
    fn masked_topology_preserves_node_ids() {
        let t = line3();
        let mut d = DegradedTopology::new(&t);
        d.kill_link(t.channel_between(NodeId(1), NodeId(2)).unwrap());
        let (m, map) = d.masked_topology();
        assert_eq!(m.num_nodes(), t.num_nodes());
        for n in t.nodes() {
            assert_eq!(m.kind(n), t.kind(n), "node ids and kinds preserved");
        }
        assert_eq!(m.num_channels(), t.num_channels() - 2);
        // Surviving channels keep endpoints, under new ids.
        for c in t.channel_ids() {
            match map[c.index()] {
                Some(mc) => assert_eq!(m.channel(mc), t.channel(c)),
                None => assert!(!d.is_channel_alive(c)),
            }
        }
        // The masked topology is disconnected (s2+p5 cut off) but queryable.
        assert!(!crate::algo::is_connected(&m));
    }

    #[test]
    fn masked_topology_drops_links_of_dead_switches() {
        let t = line3();
        let mut d = DegradedTopology::new(&t);
        d.kill_switch(NodeId(0));
        let (m, _) = d.masked_topology();
        assert_eq!(m.degree(NodeId(0)), 0);
        assert_eq!(m.degree(NodeId(3)), 0, "stranded processor isolated");
        assert_eq!(m.degree(NodeId(1)), 2);
    }

    #[test]
    fn distances_respect_dead_links() {
        let t = line3();
        let mut d = DegradedTopology::new(&t);
        d.kill_link(t.channel_between(NodeId(0), NodeId(1)).unwrap());
        let dist = d.distances_from(NodeId(1));
        assert_eq!(dist[2], 1);
        assert_eq!(dist[0], algo::UNREACHABLE);
        assert_eq!(dist[3], algo::UNREACHABLE);
        assert_eq!(dist[5], 2);
    }
}
