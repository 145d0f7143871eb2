//! The worked example network of Figure 1 in the paper.
//!
//! Figure 1 shows an 11-vertex network: tree edges solid, cross edges
//! dashed, vertices labeled 1–11. Node 5 (a processor) multicasts to the
//! processors 8, 9, 10 and 11; their least common ancestor is switch 4; one
//! legal header path to the LCA is 5 → 2 → 3 → 4 where (5,2) is an up
//! channel and (2,3), (3,4) are down **cross** channels.
//!
//! The figure does not print the full link list, so this fixture
//! reconstructs an instance that reproduces every behaviour the text
//! describes when the up*/down* tree is built by deterministic BFS from
//! root 1 (neighbors in id order):
//!
//! * switches: 1, 2, 3, 4, 6, 7 — processors: 5, 8, 9, 10, 11;
//! * tree edges: (1,2), (1,3), (2,4), (2,5), (4,6), (4,7),
//!   (6,8), (6,9), (6,10), (7,11);
//! * cross edges: (2,3) — same level, so 2→3 is *down* by the id rule —
//!   and (3,4) — level 1 → level 2, so 3→4 is *down*;
//! * LCA(8, 9, 10, 11) = 4, with the worm splitting at 4 towards 6 and 7,
//!   then at 6 towards 8, 9, 10.

use crate::ids::NodeId;
use crate::topology::Topology;

/// Maps the paper's vertex labels (1–11) to [`NodeId`]s of the fixture.
#[derive(Debug, Clone)]
pub struct Figure1Labels {
    ids: [NodeId; 11],
}

impl Figure1Labels {
    /// The node carrying the paper's label `label` (1–11).
    pub fn by_label(&self, label: u32) -> Option<NodeId> {
        if (1..=11).contains(&label) {
            Some(self.ids[(label - 1) as usize])
        } else {
            None
        }
    }

    /// Label of `node`, if it is part of the fixture.
    pub fn label_of(&self, node: NodeId) -> Option<u32> {
        self.ids
            .iter()
            .position(|n| *n == node)
            .map(|i| i as u32 + 1)
    }
}

/// Builds the Figure 1 network; returns the topology and the label map.
///
/// Nodes are created in label order, so label `k` receives `NodeId(k - 1)`,
/// preserving the paper's id-based tie-break for same-level cross channels.
// Eleven fresh nodes and twelve distinct pairs: `link` has nothing to
// reject.
#[allow(clippy::unwrap_used)]
pub fn figure1() -> (Topology, Figure1Labels) {
    let mut b = Topology::builder();
    // Create in label order 1..=11.
    let n1 = b.add_switch(); //  1 root
    let n2 = b.add_switch(); //  2
    let n3 = b.add_switch(); //  3
    let n4 = b.add_switch(); //  4 = LCA of the example destinations
    let n5 = b.add_processor(); // 5 source processor
    let n6 = b.add_switch(); //  6
    let n7 = b.add_switch(); //  7
    let n8 = b.add_processor(); // 8
    let n9 = b.add_processor(); // 9
    let n10 = b.add_processor(); // 10
    let n11 = b.add_processor(); // 11

    // Tree edges (will be recovered as tree edges by BFS from node 1).
    b.link(n1, n2).unwrap();
    b.link(n1, n3).unwrap();
    b.link(n2, n4).unwrap();
    b.link(n2, n5).unwrap();
    b.link(n4, n6).unwrap();
    b.link(n4, n7).unwrap();
    b.link(n6, n8).unwrap();
    b.link(n6, n9).unwrap();
    b.link(n6, n10).unwrap();
    b.link(n7, n11).unwrap();
    // Cross edges.
    b.link(n2, n3).unwrap();
    b.link(n3, n4).unwrap();

    let labels = Figure1Labels {
        ids: [n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11],
    };
    (b.build(), labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{bfs_parents, is_connected};

    #[test]
    fn figure1_shape() {
        let (t, labels) = figure1();
        assert_eq!(t.num_nodes(), 11);
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_processors(), 5);
        assert_eq!(t.num_channels(), 24);
        assert!(is_connected(&t));
        t.validate(8).unwrap();
        for l in 1..=11 {
            assert!(labels.by_label(l).is_some());
        }
        assert!(labels.by_label(0).is_none());
        assert!(labels.by_label(12).is_none());
    }

    #[test]
    fn labels_round_trip() {
        let (_, labels) = figure1();
        for l in 1..=11u32 {
            let n = labels.by_label(l).unwrap();
            assert_eq!(labels.label_of(n), Some(l));
        }
        assert_eq!(labels.label_of(NodeId(99)), None);
    }

    #[test]
    fn bfs_from_root_recovers_intended_tree() {
        let (t, labels) = figure1();
        let root = labels.by_label(1).unwrap();
        let parent = bfs_parents(&t, root);
        let by = |l: u32| labels.by_label(l).unwrap();
        // Deterministic BFS (id order) discovers 4 from 2, not from 3,
        // making (3,4) a cross edge as the paper's example requires.
        assert_eq!(parent[by(4).index()], Some(by(2)));
        assert_eq!(parent[by(2).index()], Some(by(1)));
        assert_eq!(parent[by(3).index()], Some(by(1)));
        assert_eq!(parent[by(5).index()], Some(by(2)));
        assert_eq!(parent[by(6).index()], Some(by(4)));
        assert_eq!(parent[by(7).index()], Some(by(4)));
        for leaf in [8, 9, 10] {
            assert_eq!(parent[by(leaf).index()], Some(by(6)));
        }
        assert_eq!(parent[by(11).index()], Some(by(7)));
    }

    #[test]
    fn processors_attach_to_expected_switches() {
        let (t, labels) = figure1();
        let by = |l: u32| labels.by_label(l).unwrap();
        assert_eq!(t.switch_of(by(5)), by(2));
        assert_eq!(t.switch_of(by(8)), by(6));
        assert_eq!(t.switch_of(by(11)), by(7));
    }
}
