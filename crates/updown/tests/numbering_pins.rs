//! Nothing is relabeled: root, parents, levels, channel classes, children
//! order and both relations of Definition 1 are what routing tables, golden
//! digests and snapshots downstream rest on. These digests were recorded
//! while the labeling still kept an ancestor, a down-cross and an
//! extended-ancestor matrix, each filled a bit at a time, and passed
//! unchanged once it kept preorder intervals and one word-filled matrix.

use netgraph::gen::fixtures::figure1;
use netgraph::gen::lattice::IrregularConfig;
use netgraph::gen::regular::{mesh2d, torus2d};
use netgraph::{DegradedTopology, NodeId, Topology};
use updown::{ChannelClass, RootSelection, UpDownLabeling};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn node(&mut self, n: Option<NodeId>) {
        self.word(n.map_or(u64::MAX, |n| n.0 as u64));
    }

    /// `(root, parent, level, class, tree_children)`, then — when asked —
    /// every cell of `is_ancestor` and `is_extended_ancestor`.
    fn labeling(&mut self, t: &Topology, ud: &UpDownLabeling, relations: bool) {
        self.node(Some(ud.root()));
        for v in t.nodes() {
            self.node(ud.parent(v));
            self.word(ud.level(v) as u64);
            self.word(ud.is_labeled(v) as u64);
            self.word(ud.tree_children(v).len() as u64);
            for &c in ud.tree_children(v) {
                self.node(Some(c));
            }
        }
        for c in t.channel_ids() {
            self.word(match ud.class(c) {
                ChannelClass::UpTree => 0,
                ChannelClass::UpCross => 1,
                ChannelClass::DownTree => 2,
                ChannelClass::DownCross => 3,
            });
        }
        if relations {
            for u in t.nodes() {
                for v in t.nodes() {
                    self.word(
                        ud.is_ancestor(u, v) as u64 | (ud.is_extended_ancestor(u, v) as u64) << 1,
                    );
                }
            }
        }
    }
}

fn pin(name: &str, d: &Digest) -> String {
    format!("{name}: {:#018x}", d.0)
}

/// Every fourth link and two switches dead: pieces of 88 and 20 nodes.
fn damage(base: &Topology) -> DegradedTopology<'_> {
    let mut view = DegradedTopology::new(base);
    for (i, c) in base.channel_ids().step_by(2).enumerate() {
        if i % 4 == 0 {
            view.kill_link(c);
        }
    }
    view.kill_switch(NodeId(9));
    view.kill_switch(NodeId(40));
    view
}

#[test]
fn build_keeps_its_labels_and_relations() {
    let mut got = Vec::new();
    // Per size: 3 seeds, folded. Relations are n² cells, so the largest
    // size pins the structure only.
    for (switches, relations) in [(16usize, true), (64, true), (256, true), (1024, false)] {
        let mut d = Digest::new();
        for seed in [0u64, 7, 1998] {
            let t = IrregularConfig::with_switches(switches).generate(seed);
            let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
            d.labeling(&t, &ud, relations);
        }
        got.push(pin(&format!("{switches} switches"), &d));
    }
    let (fig, labels) = figure1();
    for (name, t, sel) in [
        ("mesh2d(5, 7)", mesh2d(5, 7), RootSelection::MinEccentricity),
        ("torus2d(4, 6)", torus2d(4, 6), RootSelection::MaxDegree),
        (
            "figure1",
            fig,
            RootSelection::Fixed(labels.by_label(1).unwrap()),
        ),
    ] {
        let mut d = Digest::new();
        d.labeling(&t, &UpDownLabeling::build(&t, sel), true);
        got.push(pin(name, &d));
    }
    assert_eq!(
        got,
        [
            "16 switches: 0x2fe3b3aa4a04c5b1",
            "64 switches: 0xd2525ce0aef915fc",
            "256 switches: 0x3310e4fb5bbd9893",
            "1024 switches: 0x5ddd433c4d3127d1",
            "mesh2d(5, 7): 0xd05cc03f200a9b6e",
            "torus2d(4, 6): 0x8b38a140816d573f",
            "figure1: 0xecdbede7fd0c7977",
        ]
    );
}

#[test]
fn partial_and_incremental_labelings_keep_their_labels_and_relations() {
    let mut got = Vec::new();
    let base = IrregularConfig::with_switches(64).generate(2);
    let view = damage(&base);
    let comps = view.components();
    assert_eq!(comps.iter().map(Vec::len).collect::<Vec<_>>(), [88, 20]);

    // `build_partial` on the masked (split) topology, rooted in the two
    // largest pieces in turn: each leaves the other unlabeled.
    let (masked, _) = view.masked_topology();
    for comp in &comps {
        let root = *comp.iter().find(|&&n| masked.is_switch(n)).unwrap();
        let ud = UpDownLabeling::build_partial(&masked, root);
        assert_eq!(ud.num_labeled(), comp.len());
        let mut d = Digest::new();
        d.labeling(&masked, &ud, true);
        got.push(pin(&format!("build_partial from {root}"), &d));
    }

    // One `relabel_after` epoch over the same damage on the base
    // topology; then a second epoch that also loses the root.
    let ud = UpDownLabeling::build(&base, RootSelection::LowestId);
    let (epoch1, report) = ud.relabel_after(&view).unwrap();
    assert!(!report.full_rebuild && report.reattached_nodes > 0);
    let mut d = Digest::new();
    d.labeling(&base, &epoch1, true);
    for x in [
        report.kept_tree_edges,
        report.reattached_nodes,
        report.labeled_nodes,
        report.changed_channels,
    ] {
        d.word(x as u64);
    }
    got.push(pin("relabel_after", &d));

    let mut view = view;
    view.kill_switch(epoch1.root());
    let (epoch2, report) = epoch1.relabel_after(&view).unwrap();
    assert!(report.full_rebuild);
    let mut d = Digest::new();
    d.labeling(&base, &epoch2, true);
    got.push(pin("relabel_after, root dead", &d));

    assert_eq!(
        got,
        [
            "build_partial from n0: 0xeb00333076166672",
            "build_partial from n3: 0xbd5a6e42249a7786",
            "relabel_after: 0x09fb96862a79b821",
            "relabel_after, root dead: 0x5c60de78dd46bf52",
        ]
    );
}
