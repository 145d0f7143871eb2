//! Property tests validating the labeling — Definition 1's ancestor
//! relation (preorder intervals), LCAs, channel classes and levels —
//! against naive parent-chain walks, over random topologies. Definition
//! 1's extended-ancestor relation is kept by the routing tables, not the
//! labeling; spam-core's `rule_2_is_definition_1_over_alive_channels`
//! holds it against a graph walk. The case count follows `PROPTEST_CASES`
//! (16 when unset), so CI can run the oracle deeper than tier-1 does.

use netgraph::gen::lattice::IrregularConfig;
use netgraph::{ChannelId, DegradedTopology, NodeId, Topology};
use proptest::prelude::*;
use updown::{ChannelClass, RootSelection, UpDownLabeling};

/// Reference ancestor: walk the parent chain of `v` looking for `u`.
fn ancestor_ref(ud: &UpDownLabeling, u: NodeId, v: NodeId) -> bool {
    let mut cur = v;
    loop {
        if cur == u {
            return true;
        }
        match ud.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// The ancestor relation of `ud`, every cell, against parent walks. A
/// node outside the labeled component has no parent and no child: it is an
/// ancestor of itself only.
fn assert_ancestors_match_definition_1(topo: &Topology, ud: &UpDownLabeling) {
    for u in topo.nodes() {
        for v in topo.nodes() {
            let anc = ancestor_ref(ud, u, v);
            if !ud.is_labeled(u) || !ud.is_labeled(v) {
                assert_eq!(anc, u == v, "unlabeled nodes are reflexive only");
            }
            assert_eq!(ud.is_ancestor(u, v), anc, "ancestor({u}, {v})");
        }
    }
}

/// A view of `topo` with `kills` links dead, drawn from `seed`.
fn kill_links(topo: &Topology, kills: usize, seed: u64) -> DegradedTopology<'_> {
    let mut view = DegradedTopology::new(topo);
    let links = topo.num_channels() / 2;
    let mut x = seed | 1;
    for _ in 0..kills {
        // xorshift64: any fixed stream will do, the test owns it.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        view.kill_link(ChannelId(2 * (x % links as u64) as u32));
    }
    view
}

/// Reference LCA: intersect ancestor chains.
fn lca_ref(ud: &UpDownLabeling, a: NodeId, b: NodeId) -> NodeId {
    let chain = |mut n: NodeId| {
        let mut v = vec![n];
        while let Some(p) = ud.parent(n) {
            v.push(p);
            n = p;
        }
        v
    };
    let ca = chain(a);
    let cb = chain(b);
    *ca.iter()
        .find(|x| cb.contains(x))
        .expect("chains share the root")
}

/// Cases per property: `PROPTEST_CASES` when set, else 16. (The proptest
/// shim only caps a configured count by that variable, so a larger run has
/// to be asked for here.)
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn ancestor_matrix_matches_parent_walks(
        switches in 6usize..28,
        seed in any::<u64>(),
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        for u in topo.nodes() {
            for v in topo.nodes() {
                prop_assert_eq!(
                    ud.is_ancestor(u, v),
                    ancestor_ref(&ud, u, v),
                    "ancestor({}, {})", u, v
                );
            }
        }
    }

    /// The case above stops at 56 nodes. 33–160 switches are 66–320
    /// nodes, with deeper trees and random roots.
    #[test]
    fn relations_match_definition_1_on_deep_trees(
        switches in 33usize..=160,
        seed in any::<u64>(),
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let ud = UpDownLabeling::build(&topo, RootSelection::RandomSeeded(seed));
        assert_ancestors_match_definition_1(&topo, &ud);
    }

    /// `relabel_after` over the channels still alive: whatever the faults
    /// cut off is unlabeled, and ancestry follows the patched tree.
    #[test]
    fn relabeled_relations_match_definition_1_over_alive_channels(
        switches in 33usize..=120,
        seed in any::<u64>(),
        kills in 1usize..40,
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        let view = kill_links(&topo, kills, seed);
        let (relabeled, report) = ud.relabel_after(&view).expect("links died, no switch did");
        prop_assert_eq!(report.labeled_nodes, relabeled.num_labeled());
        assert_ancestors_match_definition_1(&topo, &relabeled);
        // A second epoch relabels the relabeling.
        let view = kill_links(&topo, 2 * kills, seed);
        let (again, _) = relabeled.relabel_after(&view).expect("links died, no switch did");
        assert_ancestors_match_definition_1(&topo, &again);
    }

    /// A storm's epoch chain: each view kills more links on top of the
    /// last, and each epoch relabels the previous epoch's labeling. Every
    /// ancestor cell of every epoch, against a parent walk; and every
    /// labeled node's tree edge to its parent alive in that epoch's view,
    /// so SPAM's tree stage, which descends tree edges without consulting
    /// the view, never requests a dead channel.
    #[test]
    fn chained_relabels_match_definition_1_cell_by_cell(
        switches in 33usize..=160,
        seed in any::<u64>(),
        kills in 1usize..16,
        epochs in 2usize..=3,
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let mut ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        for e in 1..=epochs {
            let view = kill_links(&topo, e * kills, seed);
            let (next, _) = ud.relabel_after(&view).expect("links died, no switch did");
            for u in topo.nodes() {
                for v in topo.nodes() {
                    prop_assert_eq!(
                        next.is_ancestor(u, v),
                        ancestor_ref(&next, u, v),
                        "epoch {}: ancestor({}, {})", e, u, v
                    );
                }
                if let Some(p) = next.parent(u) {
                    for (a, b) in [(p, u), (u, p)] {
                        let c = topo.channel_between(a, b).expect("tree edges are links");
                        prop_assert!(
                            view.is_channel_alive(c),
                            "epoch {}: tree edge ({}, {}) is dead", e, a, b
                        );
                    }
                }
            }
            ud = next;
        }
    }

    /// `build_partial` on a network split by faults: each piece labeled
    /// from its own root leaves every other piece unlabeled.
    #[test]
    fn partial_relations_match_definition_1_on_a_split_network(
        switches in 33usize..=120,
        seed in any::<u64>(),
    ) {
        let base = IrregularConfig::with_switches(switches).generate(seed);
        let links = base.num_channels() / 2;
        let view = kill_links(&base, links / 3, seed);
        let (topo, _) = view.masked_topology();
        let pieces = view.components();
        for piece in pieces.iter().take(3) {
            let Some(&root) = piece.iter().find(|&&n| topo.is_switch(n)) else {
                continue;
            };
            let ud = UpDownLabeling::build_partial(&topo, root);
            prop_assert_eq!(ud.num_labeled(), piece.len());
            assert_ancestors_match_definition_1(&topo, &ud);
        }
    }

    #[test]
    fn lca_matches_chain_intersection(
        switches in 6usize..28,
        seed in any::<u64>(),
        picks in prop::collection::vec(any::<u32>(), 2..6),
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let ud = UpDownLabeling::build(&topo, RootSelection::MaxDegree);
        let procs: Vec<NodeId> = topo.processors().collect();
        let dests: Vec<NodeId> = picks
            .iter()
            .map(|p| procs[(*p as usize) % procs.len()])
            .collect();
        let fast = ud.lca_of(&dests).unwrap();
        let slow = dests
            .iter()
            .copied()
            .reduce(|a, b| lca_ref(&ud, a, b))
            .unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn classification_covers_exactly_the_channel_set(
        switches in 4usize..32,
        seed in any::<u64>(),
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        // Pairing: each link has exactly one up and one down direction.
        for c in topo.channel_ids() {
            let rev = topo.reverse(c);
            prop_assert_ne!(ud.class(c).is_up(), ud.class(rev).is_up());
            // Tree-ness agrees between the two directions.
            let tree = |k: ChannelClass| {
                matches!(k, ChannelClass::UpTree | ChannelClass::DownTree)
            };
            prop_assert_eq!(tree(ud.class(c)), tree(ud.class(rev)));
        }
        // Tree channels form a spanning tree: node count - 1 links.
        let (ut, _, dt, _) = ud.class_counts();
        prop_assert_eq!(ut, topo.num_nodes() - 1);
        prop_assert_eq!(dt, topo.num_nodes() - 1);
        // Up channels strictly decrease (level, id); down strictly increase.
        for (c, class) in ud.classes() {
            let ch = topo.channel(c);
            let key = |n: NodeId| (ud.level(n), n);
            if class.is_up() {
                prop_assert!(key(ch.dst) < key(ch.src), "{c}: up must descend the key");
            } else {
                prop_assert!(key(ch.dst) > key(ch.src), "{c}: down must ascend the key");
            }
        }
    }

    #[test]
    fn levels_match_tree_distance_from_root(
        switches in 4usize..32,
        seed in any::<u64>(),
    ) {
        let topo = IrregularConfig::with_switches(switches).generate(seed);
        let ud = UpDownLabeling::build(&topo, RootSelection::MinEccentricity);
        for v in topo.nodes() {
            let mut level = 0;
            let mut cur = v;
            while let Some(p) = ud.parent(cur) {
                level += 1;
                cur = p;
            }
            prop_assert_eq!(cur, ud.root());
            prop_assert_eq!(ud.level(v), level);
        }
    }

    /// Reconfiguration invariant: for random lattices and random fault
    /// sets, every surviving component's rebuilt labeling is a valid
    /// up*/down* partition — every surviving channel classed with one up
    /// and one down direction per link, spanning-tree channel counts,
    /// acyclic up/down digraphs (the Theorem 1 preconditions), and up
    /// channels strictly descending the (level, id) key inside the
    /// component.
    #[test]
    fn degraded_components_keep_a_valid_channel_partition(
        switches in 8usize..48,
        topo_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        rate in 0.0f64..0.45,
    ) {
        use spam_faults::{DegradedNetwork, FaultModel};
        use updown::check_acyclic_subnetworks;

        let base = IrregularConfig::with_switches(switches).generate(topo_seed);
        let plan = FaultModel::IidLinks { rate }.sample(&base, None, fault_seed);
        let net = DegradedNetwork::build(&base, &plan, None);
        let topo = &net.topo;

        let mut covered = vec![false; topo.num_channels()];
        for comp in &net.components {
            let ud = &comp.labeling;
            // The labeling covers exactly the component.
            prop_assert_eq!(ud.num_labeled(), comp.nodes.len());
            for &n in &comp.nodes {
                prop_assert!(ud.is_labeled(n));
            }
            // Theorem 1 preconditions hold for this labeling.
            prop_assert!(check_acyclic_subnetworks(topo, ud).all_ok());
            let mut down_tree_in_comp = 0usize;
            for c in topo.channel_ids() {
                let ch = topo.channel(c);
                if !comp.contains(ch.src) {
                    continue;
                }
                // Components are closed under surviving channels.
                prop_assert!(comp.contains(ch.dst), "{} leaves its component", c);
                covered[c.index()] = true;
                // One up and one down direction per surviving link.
                prop_assert_ne!(
                    ud.class(c).is_up(),
                    ud.class(topo.reverse(c)).is_up(),
                    "link of {} needs one up and one down direction", c
                );
                // Up strictly descends (level, id); down strictly ascends.
                let key = |n| (ud.level(n), n);
                if ud.class(c).is_up() {
                    prop_assert!(key(ch.dst) < key(ch.src));
                } else {
                    prop_assert!(key(ch.dst) > key(ch.src));
                }
                if ud.class(c) == ChannelClass::DownTree {
                    down_tree_in_comp += 1;
                }
            }
            // The down-tree channels inside the component form a spanning
            // tree: one per non-root member.
            prop_assert_eq!(down_tree_in_comp, comp.nodes.len() - 1);
            // Ancestor sanity inside the component: the root is an
            // ancestor of every member.
            for &n in &comp.nodes {
                prop_assert!(ud.is_ancestor(comp.root, n));
            }
        }
        // Every surviving channel belongs to exactly one component's
        // labeled region (dead nodes keep no channels in the masked view).
        for c in topo.channel_ids() {
            prop_assert!(covered[c.index()], "{} classed by no component", c);
        }
    }
}
