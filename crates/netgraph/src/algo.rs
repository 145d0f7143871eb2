//! Generic graph algorithms over [`Topology`].
//!
//! These operate on the *undirected* link structure (each link is traversed
//! in both directions); routing-constrained reachability lives in the
//! `updown` and `spam-core` crates where channel classes are known.

use crate::ids::NodeId;
use crate::topology::Topology;
use std::collections::VecDeque;

/// Sentinel distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Breadth-first distances (in hops) from `source` to every node.
///
/// Unreachable nodes get [`UNREACHABLE`].
pub fn bfs_distances(topo: &Topology, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; topo.num_nodes()];
    let mut q = VecDeque::with_capacity(topo.num_nodes());
    dist[source.index()] = 0;
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()];
        for v in topo.neighbors(u) {
            if dist[v.index()] == UNREACHABLE {
                dist[v.index()] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

/// BFS tree parents from `source`: `parent[source] = source`, unreachable
/// nodes map to `None`. Neighbors are explored in sorted id order, so the
/// tree is deterministic — the property the Figure 1 fixture and all seeded
/// experiments rely on.
pub fn bfs_parents(topo: &Topology, source: NodeId) -> Vec<Option<NodeId>> {
    let mut parent = vec![None; topo.num_nodes()];
    let mut q = VecDeque::with_capacity(topo.num_nodes());
    parent[source.index()] = Some(source);
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        for v in topo.neighbors(u) {
            if parent[v.index()].is_none() {
                parent[v.index()] = Some(u);
                q.push_back(v);
            }
        }
    }
    parent
}

/// True when every node can reach every other node.
pub fn is_connected(topo: &Topology) -> bool {
    if topo.num_nodes() == 0 {
        return true;
    }
    let dist = bfs_distances(topo, NodeId(0));
    dist.iter().all(|d| *d != UNREACHABLE)
}

/// Assigns a component index to every node; returns `(labels, count)`.
pub fn connected_components(topo: &Topology) -> (Vec<u32>, usize) {
    let mut label = vec![u32::MAX; topo.num_nodes()];
    let mut count = 0u32;
    // Each node enters the queue once, over all components.
    let mut q = VecDeque::with_capacity(topo.num_nodes());
    for start in topo.nodes() {
        if label[start.index()] != u32::MAX {
            continue;
        }
        label[start.index()] = count;
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            for v in topo.neighbors(u) {
                if label[v.index()] == u32::MAX {
                    label[v.index()] = count;
                    q.push_back(v);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// The eccentricity of `node`: its maximum BFS distance to any reachable
/// node. Returns [`UNREACHABLE`] if some node cannot be reached.
pub fn eccentricity(topo: &Topology, node: NodeId) -> u32 {
    let dist = bfs_distances(topo, node);
    dist.into_iter().max().unwrap_or(0)
}

/// Network diameter over switches (max pairwise switch distance).
///
/// Processors hang one hop off their switch, so the full-network diameter is
/// this value plus at most 2; the switch diameter is what matters for the
/// spanning-tree depth discussion in §5.
pub fn switch_diameter(topo: &Topology) -> u32 {
    let mut best = 0;
    for s in topo.switches() {
        let dist = bfs_distances(topo, s);
        for t in topo.switches() {
            let d = dist[t.index()];
            if d != UNREACHABLE && d > best {
                best = d;
            }
        }
    }
    best
}

/// The switch with minimum eccentricity (a "center" of the network), ties
/// broken by lowest id. Used by the min-eccentricity root-selection policy.
pub fn min_eccentricity_switch(topo: &Topology) -> Option<NodeId> {
    topo.switches()
        .map(|s| (eccentricity(topo, s), s))
        .min()
        .map(|(_, s)| s)
}

/// The switch with maximum degree (ties by lowest id); candidate root.
pub fn max_degree_switch(topo: &Topology) -> Option<NodeId> {
    topo.switches()
        .map(|s| (usize::MAX - topo.degree(s), s))
        .min()
        .map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    /// Path of `n` switches with a processor on each end switch.
    fn path(n: usize) -> Topology {
        let mut b = Topology::builder();
        let sw = b.add_switches(n);
        for w in sw.windows(2) {
            b.link(w[0], w[1]).unwrap();
        }
        let p0 = b.add_processor();
        let p1 = b.add_processor();
        b.link(p0, sw[0]).unwrap();
        b.link(p1, sw[n - 1]).unwrap();
        b.build()
    }

    #[test]
    fn bfs_distances_on_path() {
        let t = path(4);
        let d = bfs_distances(&t, NodeId(0));
        assert_eq!(&d[0..4], &[0, 1, 2, 3]);
        assert_eq!(d[4], 1); // processor on switch 0
        assert_eq!(d[5], 4); // processor on switch 3
    }

    #[test]
    fn bfs_parents_deterministic() {
        let t = path(3);
        let p = bfs_parents(&t, NodeId(0));
        assert_eq!(p[0], Some(NodeId(0)));
        assert_eq!(p[1], Some(NodeId(0)));
        assert_eq!(p[2], Some(NodeId(1)));
    }

    #[test]
    fn connectivity_and_components() {
        let t = path(3);
        assert!(is_connected(&t));
        let (_, n) = connected_components(&t);
        assert_eq!(n, 1);

        let mut b = Topology::builder();
        b.add_switch();
        b.add_switch();
        let t2 = b.build();
        assert!(!is_connected(&t2));
        let (labels, n2) = connected_components(&t2);
        assert_eq!(n2, 2);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn eccentricity_and_diameter() {
        let t = path(5); // switches 0..4 in a line
        assert_eq!(switch_diameter(&t), 4);
        assert_eq!(eccentricity(&t, NodeId(2)), 3); // to end processors
                                                    // Center of the path is switch 2.
        assert_eq!(min_eccentricity_switch(&t), Some(NodeId(2)));
    }

    #[test]
    fn max_degree_switch_prefers_hub() {
        let mut b = Topology::builder();
        let hub = b.add_switch();
        for _ in 0..3 {
            let s = b.add_switch();
            b.link(hub, s).unwrap();
        }
        let t = b.build();
        assert_eq!(max_degree_switch(&t), Some(hub));
    }

    #[test]
    fn empty_topology_is_connected() {
        let t = Topology::builder().build();
        assert!(is_connected(&t));
    }
}
