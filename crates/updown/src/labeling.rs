//! The up*/down* labeling: spanning tree, levels, channel classes, and the
//! ancestor relation of Definition 1.

use netgraph::algo;
use netgraph::{ChannelId, DegradedTopology, NodeId, Topology};
use rand::seq::IteratorRandom;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// The four-way channel classification of §3.1.
///
/// Tree channels follow spanning-tree edges; cross channels are the
/// remaining (switch-to-switch) links. "Up" points towards the root — for a
/// cross channel between same-level switches, from the larger node id to the
/// smaller (the paper's tie-break).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelClass {
    /// Tree channel directed towards the root.
    UpTree,
    /// Cross channel directed towards the root (lower level, or same level
    /// from larger to smaller id).
    UpCross,
    /// Tree channel directed away from the root. The only class a multicast
    /// worm may use past the LCA, and the only class that may deliver to a
    /// processor.
    DownTree,
    /// Cross channel directed away from the root.
    DownCross,
}

impl ChannelClass {
    /// True for [`ChannelClass::UpTree`] / [`ChannelClass::UpCross`].
    #[inline]
    pub fn is_up(self) -> bool {
        matches!(self, ChannelClass::UpTree | ChannelClass::UpCross)
    }

    /// True for [`ChannelClass::DownTree`] / [`ChannelClass::DownCross`].
    #[inline]
    pub fn is_down(self) -> bool {
        !self.is_up()
    }
}

/// How the spanning-tree root switch is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootSelection {
    /// A caller-chosen switch (e.g. node 1 in Figure 1).
    Fixed(NodeId),
    /// The switch with the smallest id ("an arbitrary vertex", determinized).
    LowestId,
    /// The switch with the most links; shallow trees on hub-ish networks.
    MaxDegree,
    /// A network center: the switch of minimum eccentricity. Minimizes the
    /// worst-case tree depth — one of the §5 tree-selection policies.
    MinEccentricity,
    /// Uniformly random switch from a seeded RNG.
    RandomSeeded(u64),
}

/// What an incremental relabeling ([`UpDownLabeling::relabel_after`]) did —
/// the reconfiguration cost a real switch fabric would pay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelabelReport {
    /// Root of the new labeling (the old root whenever it survived).
    pub root: NodeId,
    /// Old spanning-tree edges kept with their parent pointers intact.
    pub kept_tree_edges: usize,
    /// Nodes that received a new parent (their old tree path to the root
    /// was severed, or the whole tree was rebuilt).
    pub reattached_nodes: usize,
    /// Nodes covered by the new labeling (the root's surviving component).
    pub labeled_nodes: usize,
    /// Surviving channels whose class changed relative to the old
    /// labeling — the relabeling's blast radius, i.e. how many routing
    /// table entries a live fabric would have to rewrite.
    pub changed_channels: usize,
    /// True when the old root died and the tree was rebuilt from scratch
    /// instead of patched.
    pub full_rebuild: bool,
}

/// An immutable up*/down* labeling of a topology.
///
/// BFS tree, per-channel classification and preorder numbering are all
/// linear, and an ancestor query is one comparison. Definition 1's
/// extended-ancestor relation is not kept here: it depends on which
/// channels are alive, and the routing tables built over a labeling hold
/// it for each target they route to (its finite DownCross cells).
#[derive(Debug, Clone)]
pub struct UpDownLabeling {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    level: Vec<u32>,
    /// True for nodes in the root's component. Always all-true for
    /// labelings from [`UpDownLabeling::build`]; partial labelings (built
    /// on degraded topologies) leave other components unlabeled.
    labeled: Vec<bool>,
    class: Vec<ChannelClass>,
    /// `v`'s tree children are `children[child_offsets[v]..child_offsets[v + 1]]`.
    child_offsets: Vec<u32>,
    children: Vec<NodeId>,
    /// Every node in `(level, id)` order, the unlabeled ones (level
    /// `u32::MAX`) last by id: every down channel leads later in it, every
    /// up channel earlier.
    by_depth: Vec<NodeId>,
    /// Each node's preorder interval.
    spans: Vec<Span>,
}

/// One node's place in the preorder numbering: `u`'s subtree occupies
/// the preorder numbers `pre..pre + size`, so `u` is an ancestor of `v`
/// (reflexive) ⇔ `pre[v]` is one of them. A node without a parent is the
/// root of its own tree, so an unlabeled node is an ancestor of itself
/// only.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    pre: u32,
    size: u32,
}

impl UpDownLabeling {
    /// Builds the labeling for `topo` with the given root policy.
    ///
    /// The spanning tree is a deterministic BFS tree (neighbors visited in
    /// ascending node-id order), matching the construction the Figure 1
    /// walkthrough assumes.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no switches, is disconnected, or the fixed
    /// root is not a switch.
    pub fn build(topo: &Topology, root_sel: RootSelection) -> Self {
        let Some(root) = resolve_root(topo, root_sel) else {
            panic!("up*/down* labeling requires a switch");
        };
        assert!(topo.is_switch(root), "root {root} must be a switch");
        let labeling = Self::build_from_root(topo, root);
        assert!(
            labeling.labeled.iter().all(|l| *l),
            "up*/down* labeling requires a connected network"
        );
        labeling
    }

    /// Builds a **partial** labeling covering only the connected component
    /// of `root` — the reconfiguration primitive for degraded (faulty)
    /// topologies, where the network may have split and the old root may
    /// have died.
    ///
    /// Nodes outside the root's component are left unlabeled:
    /// [`Self::is_labeled`] returns `false`, [`Self::level`] returns
    /// `u32::MAX`, and [`Self::parent`] returns `None` for them. Channels
    /// between unlabeled nodes still receive a (consistent, acyclic)
    /// class so the partition is total, but ancestor/LCA queries are only
    /// meaningful within the labeled component — label each surviving
    /// component with its own root instead of mixing them.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a switch.
    pub fn build_partial(topo: &Topology, root: NodeId) -> Self {
        assert!(topo.is_switch(root), "root {root} must be a switch");
        Self::build_from_root(topo, root)
    }

    /// Incrementally relabels this labeling's base topology after faults —
    /// the *online* half of the Autonet reconfiguration story, for link
    /// and switch deaths that happen while a simulation is running.
    ///
    /// `view` must be a degraded view over the same topology this labeling
    /// was built on (same node and channel ids). The new labeling covers
    /// the surviving component of the root: when the old root is alive,
    /// the old spanning tree is *patched* — every old tree edge that still
    /// connects to the root through surviving tree edges keeps its parent
    /// pointer and level, and only orphaned survivors are reattached (in
    /// deterministic `(level, id)` order) — so the unaffected part of the
    /// fabric keeps its channel labels. When the old root died, the tree
    /// is rebuilt from the lowest-id surviving switch.
    ///
    /// Dead channels still receive a consistent class (the partition stays
    /// total over base channel ids). Keeping routes off them is the
    /// concern of the routing tables built over the new labeling with the
    /// view's alive mask: they hold no dead channel as a move, so no
    /// route is planned through a shortcut that no longer exists.
    ///
    /// Returns the new labeling plus a [`RelabelReport`] describing how
    /// much of the old structure survived; `None` when no switch is alive.
    pub fn relabel_after(&self, view: &DegradedTopology) -> Option<(Self, RelabelReport)> {
        let topo = view.base();
        assert_eq!(
            topo.num_nodes(),
            self.num_nodes(),
            "relabel_after requires the labeling's own base topology"
        );
        let old_root_ok = view.is_node_alive(self.root);
        let root = if old_root_ok {
            self.root
        } else {
            topo.switches().find(|&s| view.is_node_alive(s))?
        };
        let n = topo.num_nodes();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut level = vec![u32::MAX; n];
        let mut labeled = vec![false; n];
        level[root.index()] = 0;
        labeled[root.index()] = true;
        let mut kept_tree_edges = 0usize;
        if old_root_ok {
            // Phase 1: keep every old tree edge still connected to the
            // root through surviving tree edges. Old parent pointers and
            // levels are preserved verbatim for this region.
            let mut q = VecDeque::with_capacity(n);
            q.push_back(root);
            while let Some(u) = q.pop_front() {
                for &v in self.tree_children(u) {
                    if labeled[v.index()] || !view.is_node_alive(v) {
                        continue;
                    }
                    // A tree edge is a link of the base topology; one that
                    // were not could not be kept either.
                    let kept = topo.channel_between(u, v);
                    if !kept.is_some_and(|ch| view.is_channel_alive(ch)) {
                        continue;
                    }
                    parent[v.index()] = Some(u);
                    level[v.index()] = level[u.index()] + 1;
                    labeled[v.index()] = true;
                    kept_tree_edges += 1;
                    q.push_back(v);
                }
            }
        }
        // Phase 2: reattach orphaned survivors over any surviving channel,
        // shallowest attachment point first. A deterministic (level, id)
        // heap keeps levels consistent (child = parent + 1) without caring
        // that kept levels are no longer BFS-minimal — acyclicity of the
        // up/down subnetworks only needs consistency, not minimality.
        //
        // Only the frontier is seeded: labeled nodes with an alive channel
        // to an unlabeled one. Any other labeled node would do nothing when
        // popped, and since labels only grow it never gains work later;
        // keys are unique, so leaving it out leaves the pop order of the
        // rest unchanged. The cost follows the orphans, not the fabric.
        let orphan_neighbor = |v: NodeId| {
            topo.out_channels(v)
                .iter()
                .any(|&c| view.is_channel_alive(c) && !labeled[topo.channel(c).dst.index()])
        };
        // A node enters the heap at most once (seeded, or when labeled).
        let mut heap = BinaryHeap::with_capacity(n);
        heap.extend(
            topo.nodes()
                .filter(|&v| labeled[v.index()] && orphan_neighbor(v))
                .map(|v| Reverse((level[v.index()], v))),
        );
        let mut reattached = 0usize;
        while let Some(Reverse((lu, u))) = heap.pop() {
            for &c in topo.out_channels(u) {
                if !view.is_channel_alive(c) {
                    continue;
                }
                let v = topo.channel(c).dst;
                if labeled[v.index()] {
                    continue;
                }
                parent[v.index()] = Some(u);
                level[v.index()] = lu + 1;
                labeled[v.index()] = true;
                reattached += 1;
                heap.push(Reverse((lu + 1, v)));
            }
        }
        let labeled_nodes = labeled.iter().filter(|l| **l).count();
        let new = Self::assemble(topo, root, parent, level, labeled);
        let changed_channels = topo
            .channel_ids()
            .filter(|&c| view.is_channel_alive(c) && new.class(c) != self.class(c))
            .count();
        let report = RelabelReport {
            root,
            kept_tree_edges,
            reattached_nodes: reattached,
            labeled_nodes,
            changed_channels,
            full_rebuild: !old_root_ok,
        };
        Some((new, report))
    }

    /// The deterministic BFS tree of `root`'s component: neighbors are
    /// visited in ascending id order, the first visit fixes the parent.
    fn build_from_root(topo: &Topology, root: NodeId) -> Self {
        let n = topo.num_nodes();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut level = vec![u32::MAX; n];
        let mut labeled = vec![false; n];
        level[root.index()] = 0;
        labeled[root.index()] = true;
        let mut q = VecDeque::with_capacity(n);
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for v in topo.neighbors(u) {
                if !labeled[v.index()] {
                    labeled[v.index()] = true;
                    parent[v.index()] = Some(u);
                    level[v.index()] = level[u.index()] + 1;
                    q.push_back(v);
                }
            }
        }
        Self::assemble(topo, root, parent, level, labeled)
    }

    /// Finishes a labeling from a spanning-forest description (parent
    /// pointers + consistent levels): derives the children lists,
    /// classifies every channel (dead ones included, so the partition
    /// stays total and acyclic) and numbers the forest in preorder.
    fn assemble(
        topo: &Topology,
        root: NodeId,
        parent: Vec<Option<NodeId>>,
        level: Vec<u32>,
        labeled: Vec<bool>,
    ) -> Self {
        let n = topo.num_nodes();
        let (child_offsets, children) = group_nodes(parent.iter().map(|p| p.map(NodeId::index)), n);

        // Per-channel classification.
        let mut class = Vec::with_capacity(topo.num_channels());
        for c in topo.channel_ids() {
            let ch = topo.channel(c);
            let (u, v) = (ch.src, ch.dst);
            let k = if parent[v.index()] == Some(u) {
                ChannelClass::DownTree
            } else if parent[u.index()] == Some(v) {
                ChannelClass::UpTree
            } else {
                // Cross channel (switch to switch). A BFS cannot leave its
                // component, so either both endpoints are labeled (finite
                // levels) or both are unlabeled (both u32::MAX, falling
                // through to the id tie-break — still one up and one down
                // per link, and still acyclic by strictly increasing id).
                let (lu, lv) = (level[u.index()], level[v.index()]);
                if lv < lu || (lv == lu && u > v) {
                    ChannelClass::UpCross
                } else {
                    ChannelClass::DownCross
                }
            };
            class.push(k);
        }

        // Nodes in (level, id) order: parents before children, and every
        // down channel's source before its destination. A tree on n nodes
        // is less than n deep, so the unlabeled nodes (level u32::MAX)
        // share group n, after every labeled one.
        let (_, by_depth) = group_nodes(level.iter().map(|&l| Some((l as usize).min(n))), n + 1);

        // Preorder numbering of the forest. Subtree sizes accumulate
        // bottom-up; top-down, each tree root takes the next free interval
        // and each node hands the part after itself to its children.
        let mut spans = vec![
            Span {
                size: 1,
                ..Span::default()
            };
            n
        ];
        for &v in by_depth.iter().rev() {
            if let Some(p) = parent[v.index()] {
                spans[p.index()].size += spans[v.index()].size;
            }
        }
        let mut next_tree = 0;
        for &v in &by_depth {
            if parent[v.index()].is_none() {
                spans[v.index()].pre = next_tree;
                next_tree += spans[v.index()].size;
            }
            let mut next_child = spans[v.index()].pre + 1;
            let span = child_offsets[v.index()] as usize..child_offsets[v.index() + 1] as usize;
            for &c in &children[span] {
                spans[c.index()].pre = next_child;
                next_child += spans[c.index()].size;
            }
        }

        let labeling = UpDownLabeling {
            root,
            parent,
            level,
            labeled,
            class,
            child_offsets,
            children,
            by_depth,
            spans,
        };
        debug_assert!(labeling.classes_follow_by_depth(topo));
        labeling
    }

    /// Every up channel leads to a node earlier in `by_depth`, every down
    /// channel to one later — what makes each class's digraph acyclic and
    /// lets a routing row be filled in one pass over the order per phase.
    fn classes_follow_by_depth(&self, topo: &Topology) -> bool {
        let mut pos = vec![0u32; self.by_depth.len()];
        for (i, v) in self.by_depth.iter().enumerate() {
            pos[v.index()] = i as u32;
        }
        topo.channel_ids().all(|c| {
            let ch = topo.channel(c);
            self.class(c).is_up() == (pos[ch.dst.index()] < pos[ch.src.index()])
        })
    }

    /// The spanning-tree root switch.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Tree parent of `v` (`None` for the root).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Tree depth of `v` (root = 0). `u32::MAX` for nodes outside a
    /// partial labeling's component.
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.level[v.index()]
    }

    /// True when `v` belongs to the labeled component. Always true for
    /// labelings from [`Self::build`]; partial labelings
    /// ([`Self::build_partial`]) answer ancestor/LCA queries only for
    /// labeled nodes.
    #[inline]
    pub fn is_labeled(&self, v: NodeId) -> bool {
        self.labeled[v.index()]
    }

    /// Number of nodes in the labeled component.
    pub fn num_labeled(&self) -> usize {
        self.labeled.iter().filter(|l| **l).count()
    }

    /// Tree children of `v`, ascending by id.
    #[inline]
    pub fn tree_children(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.children[self.child_offsets[i] as usize..self.child_offsets[i + 1] as usize]
    }

    /// Class of channel `c`.
    #[inline]
    pub fn class(&self, c: ChannelId) -> ChannelClass {
        self.class[c.index()]
    }

    /// Definition 1: `u` is an **ancestor** of `v` — a (possibly empty)
    /// down-tree path leads from `u` to `v`. Reflexive.
    #[inline]
    pub fn is_ancestor(&self, u: NodeId, v: NodeId) -> bool {
        // One unsigned comparison: a `pre[v]` below `pre[u]` wraps around
        // to a distance no subtree is large enough to cover.
        let u = &self.spans[u.index()];
        self.spans[v.index()].pre.wrapping_sub(u.pre) < u.size
    }

    /// Least common ancestor of `a` and `b` in the spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside a partial labeling's component
    /// (there is no common tree). Use [`Self::lca_of`] for a total
    /// variant.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        match self.common_ancestor(a, b) {
            Some(x) => x,
            None => panic!("{a} and {b} share no tree"),
        }
    }

    /// The tree walk behind [`Self::lca`]: `None` when it runs off a tree
    /// root before the two sides meet (a node outside the labeled
    /// component is a root of its own).
    fn common_ancestor(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let (mut x, mut y) = (a, b);
        while self.level[x.index()] > self.level[y.index()] {
            x = self.parent[x.index()]?;
        }
        while self.level[y.index()] > self.level[x.index()] {
            y = self.parent[y.index()]?;
        }
        while x != y {
            x = self.parent[x.index()]?;
            y = self.parent[y.index()]?;
        }
        Some(x)
    }

    /// Least common ancestor of a set of nodes; `None` for the empty set
    /// **or when any node lies outside the labeled component** (a partial
    /// labeling has no tree covering it, so no LCA exists).
    ///
    /// For a single destination this is the destination itself, which is
    /// exactly why "the multicast algorithm simply reduces to the unicast
    /// algorithm" (§3.2).
    pub fn lca_of(&self, nodes: &[NodeId]) -> Option<NodeId> {
        if !nodes.iter().all(|&n| self.is_labeled(n)) {
            return None;
        }
        let mut it = nodes.iter();
        let first = *it.next()?;
        it.try_fold(first, |acc, &n| self.common_ancestor(acc, n))
    }

    /// The tree child of `n` whose subtree contains `dest`, if any. This is
    /// the branch a multicast worm must take at `n` for `dest`.
    pub fn child_towards(&self, n: NodeId, dest: NodeId) -> Option<NodeId> {
        self.tree_children(n)
            .iter()
            .copied()
            .find(|&c| self.is_ancestor(c, dest))
    }

    /// Every node in `(level, id)` order — parents before children, the
    /// unlabeled nodes last by id. A topological order of the down
    /// channels (each leads later in it) and, read backwards, of the up
    /// channels.
    #[inline]
    pub fn by_depth(&self) -> &[NodeId] {
        &self.by_depth
    }

    /// Number of nodes in the labeling.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Heap bytes held: every array's length times its element size, all
    /// of them per node or per channel.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.parent[..])
            + size_of_val(&self.level[..])
            + size_of_val(&self.labeled[..])
            + size_of_val(&self.class[..])
            + size_of_val(&self.child_offsets[..])
            + size_of_val(&self.children[..])
            + size_of_val(&self.by_depth[..])
            + size_of_val(&self.spans[..])
    }

    /// Iterator over `(ChannelId, ChannelClass)` pairs.
    pub fn classes(&self) -> impl Iterator<Item = (ChannelId, ChannelClass)> + '_ {
        self.class
            .iter()
            .enumerate()
            .map(|(i, k)| (ChannelId(i as u32), *k))
    }

    /// Count of channels per class `(up_tree, up_cross, down_tree,
    /// down_cross)` — handy for topology statistics and tests.
    pub fn class_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for k in &self.class {
            match k {
                ChannelClass::UpTree => counts.0 += 1,
                ChannelClass::UpCross => counts.1 += 1,
                ChannelClass::DownTree => counts.2 += 1,
                ChannelClass::DownCross => counts.3 += 1,
            }
        }
        counts
    }
}

/// A copy behind an [`Arc`], for constructors that keep a labeling shared
/// and are handed a borrowed one.
impl From<&UpDownLabeling> for Arc<UpDownLabeling> {
    fn from(labeling: &UpDownLabeling) -> Self {
        Arc::new(labeling.clone())
    }
}

/// Counting sort of the nodes `0..keys.len()` into `groups` groups: group
/// `k` is `nodes[offsets[k]..offsets[k + 1]]`, ascending by id. A node
/// whose key is `None` is in no group.
fn group_nodes(
    keys: impl Iterator<Item = Option<usize>> + Clone,
    groups: usize,
) -> (Vec<u32>, Vec<NodeId>) {
    let mut offsets = vec![0u32; groups + 1];
    for k in keys.clone().flatten() {
        offsets[k + 1] += 1;
    }
    for k in 0..groups {
        offsets[k + 1] += offsets[k];
    }
    let mut nodes = vec![NodeId(0); offsets[groups] as usize];
    // The fill walks each group's offset up to the next group's start;
    // one shift afterwards restores the starts.
    for (v, k) in keys.enumerate() {
        if let Some(k) = k {
            nodes[offsets[k] as usize] = NodeId(v as u32);
            offsets[k] += 1;
        }
    }
    offsets.copy_within(..groups, 1);
    offsets[0] = 0;
    (offsets, nodes)
}

/// The root `sel` names; `None` when a policy has no switch to choose.
fn resolve_root(topo: &Topology, sel: RootSelection) -> Option<NodeId> {
    match sel {
        RootSelection::Fixed(n) => Some(n),
        RootSelection::LowestId => topo.switches().next(),
        RootSelection::MaxDegree => algo::max_degree_switch(topo),
        RootSelection::MinEccentricity => algo::min_eccentricity_switch(topo),
        RootSelection::RandomSeeded(seed) => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            topo.switches().choose(&mut rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::fixtures::figure1;
    use netgraph::gen::regular::mesh2d;

    fn fig1() -> (
        Topology,
        netgraph::gen::fixtures::Figure1Labels,
        UpDownLabeling,
    ) {
        let (t, l) = figure1();
        let root = l.by_label(1).unwrap();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(root));
        (t, l, ud)
    }

    #[test]
    fn figure1_tree_structure() {
        let (_, l, ud) = fig1();
        let by = |x| l.by_label(x).unwrap();
        assert_eq!(ud.root(), by(1));
        assert_eq!(ud.parent(by(1)), None);
        assert_eq!(ud.parent(by(4)), Some(by(2)));
        assert_eq!(ud.level(by(1)), 0);
        assert_eq!(ud.level(by(4)), 2);
        assert_eq!(ud.level(by(8)), 4);
        assert_eq!(ud.tree_children(by(4)), &[by(6), by(7)]);
        assert_eq!(ud.tree_children(by(6)), &[by(8), by(9), by(10)]);
    }

    #[test]
    fn figure1_channel_classes() {
        let (t, l, ud) = fig1();
        let by = |x| l.by_label(x).unwrap();
        let class_of = |a: u32, b: u32| {
            let c = t.channel_between(by(a), by(b)).unwrap();
            ud.class(c)
        };
        // Tree channels.
        assert_eq!(class_of(1, 2), ChannelClass::DownTree);
        assert_eq!(class_of(2, 1), ChannelClass::UpTree);
        assert_eq!(class_of(4, 6), ChannelClass::DownTree);
        assert_eq!(class_of(5, 2), ChannelClass::UpTree); // processor up-link
        assert_eq!(class_of(6, 8), ChannelClass::DownTree);
        // Cross channel between same-level switches 2 and 3: down from the
        // smaller id to the larger (the paper's tie-break).
        assert_eq!(class_of(2, 3), ChannelClass::DownCross);
        assert_eq!(class_of(3, 2), ChannelClass::UpCross);
        // Cross channel from level 1 (node 3) to level 2 (node 4): down.
        assert_eq!(class_of(3, 4), ChannelClass::DownCross);
        assert_eq!(class_of(4, 3), ChannelClass::UpCross);
    }

    #[test]
    fn figure1_ancestors() {
        let (_, l, ud) = fig1();
        let by = |x| l.by_label(x).unwrap();
        // Plain ancestors.
        assert!(ud.is_ancestor(by(1), by(8)));
        assert!(ud.is_ancestor(by(4), by(11)));
        assert!(ud.is_ancestor(by(6), by(9)));
        assert!(!ud.is_ancestor(by(6), by(11)));
        assert!(!ud.is_ancestor(by(3), by(8)), "3 is not a tree ancestor");
        assert!(ud.is_ancestor(by(4), by(4)), "reflexive");
    }

    #[test]
    fn figure1_lca_matches_paper_example() {
        let (_, l, ud) = fig1();
        let by = |x| l.by_label(x).unwrap();
        let dests = [by(8), by(9), by(10), by(11)];
        assert_eq!(ud.lca_of(&dests), Some(by(4)));
        assert_eq!(ud.lca_of(&[by(8), by(9)]), Some(by(6)));
        assert_eq!(ud.lca_of(&[by(8)]), Some(by(8)), "singleton LCA is itself");
        assert_eq!(ud.lca_of(&[]), None);
        assert_eq!(ud.lca(by(5), by(11)), by(2));
        assert_eq!(ud.lca(by(1), by(10)), by(1));
    }

    #[test]
    fn child_towards_picks_correct_branch() {
        let (_, l, ud) = fig1();
        let by = |x| l.by_label(x).unwrap();
        assert_eq!(ud.child_towards(by(4), by(9)), Some(by(6)));
        assert_eq!(ud.child_towards(by(4), by(11)), Some(by(7)));
        assert_eq!(ud.child_towards(by(6), by(11)), None);
        assert_eq!(ud.child_towards(by(1), by(8)), Some(by(2)));
    }

    #[test]
    fn class_counts_partition_all_channels() {
        let (t, _, ud) = fig1();
        let (ut, uc, dt, dc) = ud.class_counts();
        assert_eq!(ut + uc + dt + dc, t.num_channels());
        assert_eq!(ut, dt, "tree channels pair up");
        assert_eq!(uc, dc, "cross channels pair up");
        assert_eq!(dt, 10, "ten tree links in Figure 1");
        assert_eq!(dc, 2, "two cross links in Figure 1");
    }

    #[test]
    fn up_and_down_are_mutually_reverse() {
        let t = mesh2d(4, 4);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        for c in t.channel_ids() {
            let r = t.reverse(c);
            assert_eq!(
                ud.class(c).is_up(),
                ud.class(r).is_down(),
                "each link has one up and one down direction"
            );
        }
    }

    #[test]
    fn root_selection_policies() {
        let t = mesh2d(3, 5);
        let ud = UpDownLabeling::build(&t, RootSelection::MinEccentricity);
        // Center of a 3x5 mesh is switch (1,2) = id 7.
        assert_eq!(ud.root(), NodeId(7));
        let ud2 = UpDownLabeling::build(&t, RootSelection::LowestId);
        assert_eq!(ud2.root(), NodeId(0));
        let ud3 = UpDownLabeling::build(&t, RootSelection::RandomSeeded(3));
        assert!(t.is_switch(ud3.root()));
        let ud4 = UpDownLabeling::build(&t, RootSelection::MaxDegree);
        assert!(t.degree(ud4.root()) >= 3);
    }

    #[test]
    fn partial_labeling_covers_exactly_the_root_component() {
        // Two islands: s0-s1 (p4@s0, p5@s1) and s2-s3 (p6@s3).
        let mut b = Topology::builder();
        let s: Vec<NodeId> = (0..4).map(|_| b.add_switch()).collect();
        let p4 = b.add_processor();
        let p5 = b.add_processor();
        let p6 = b.add_processor();
        b.link(s[0], s[1]).unwrap();
        b.link(s[2], s[3]).unwrap();
        b.link(p4, s[0]).unwrap();
        b.link(p5, s[1]).unwrap();
        b.link(p6, s[3]).unwrap();
        let t = b.build();

        let ud = UpDownLabeling::build_partial(&t, s[0]);
        assert_eq!(ud.root(), s[0]);
        assert_eq!(ud.num_labeled(), 4);
        for n in [s[0], s[1], p4, p5] {
            assert!(ud.is_labeled(n));
        }
        for n in [s[2], s[3], p6] {
            assert!(!ud.is_labeled(n));
            assert_eq!(ud.level(n), u32::MAX);
            assert_eq!(ud.parent(n), None);
        }
        assert_eq!(ud.level(s[1]), 1);
        assert_eq!(ud.lca(p4, p5), s[0]);
        assert!(ud.is_ancestor(s[0], p5));
        // Every channel — labeled component or not — gets one up and one
        // down direction.
        for c in t.channel_ids() {
            assert_ne!(ud.class(c).is_up(), ud.class(t.reverse(c)).is_up());
        }
        // The other island is labeled by its own root.
        let ud2 = UpDownLabeling::build_partial(&t, s[3]);
        assert_eq!(ud2.num_labeled(), 3);
        assert!(ud2.is_labeled(p6));
        assert!(!ud2.is_labeled(p4));
        assert_eq!(ud2.lca(s[2], p6), s[3]);
    }

    #[test]
    fn relabel_after_pristine_view_is_identity() {
        let t = netgraph::gen::lattice::IrregularConfig::with_switches(32).generate(7);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let view = DegradedTopology::new(&t);
        let (nu, rep) = ud.relabel_after(&view).unwrap();
        assert_eq!(rep.root, ud.root());
        assert_eq!(rep.changed_channels, 0);
        assert_eq!(rep.reattached_nodes, 0);
        assert_eq!(rep.kept_tree_edges, t.num_nodes() - 1);
        assert_eq!(rep.labeled_nodes, t.num_nodes());
        assert!(!rep.full_rebuild);
        for c in t.channel_ids() {
            assert_eq!(nu.class(c), ud.class(c));
        }
        for v in t.nodes() {
            assert_eq!(nu.parent(v), ud.parent(v));
            assert_eq!(nu.level(v), ud.level(v));
        }
    }

    #[test]
    fn relabel_after_cross_link_death_keeps_the_tree() {
        let (t, l) = figure1();
        let root = l.by_label(1).unwrap();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(root));
        // (3,4) is a cross link in the Figure 1 labeling: killing it must
        // not move a single parent pointer.
        let mut view = DegradedTopology::new(&t);
        view.kill_link(
            t.channel_between(l.by_label(3).unwrap(), l.by_label(4).unwrap())
                .unwrap(),
        );
        let (nu, rep) = ud.relabel_after(&view).unwrap();
        assert_eq!(rep.reattached_nodes, 0);
        assert_eq!(rep.kept_tree_edges, t.num_nodes() - 1);
        assert_eq!(rep.changed_channels, 0, "no live channel changed class");
        for v in t.nodes() {
            assert_eq!(nu.parent(v), ud.parent(v));
        }
    }

    #[test]
    fn relabel_after_tree_link_death_reattaches_the_subtree() {
        let (t, l) = figure1();
        let by = |x: u32| l.by_label(x).unwrap();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(by(1)));
        // Kill the tree edge (2,4): node 4's subtree must reattach through
        // the surviving cross link (3,4).
        let mut view = DegradedTopology::new(&t);
        view.kill_link(t.channel_between(by(2), by(4)).unwrap());
        let (nu, rep) = ud.relabel_after(&view).unwrap();
        assert_eq!(rep.root, by(1));
        assert!(!rep.full_rebuild);
        assert_eq!(
            nu.parent(by(4)),
            Some(by(3)),
            "reattached via the cross link"
        );
        assert!(rep.reattached_nodes >= 1);
        assert!(rep.changed_channels >= 2, "the adopted link changed class");
        assert_eq!(rep.labeled_nodes, t.num_nodes(), "nothing disconnected");
        // Untouched subtree structure is preserved.
        assert_eq!(nu.parent(by(6)), ud.parent(by(6)));
        assert_eq!(nu.parent(by(8)), ud.parent(by(8)));
        // The result is still a valid labeling.
        assert!(crate::validate::check_acyclic_subnetworks(&t, &nu).all_ok());
        assert!(nu.is_ancestor(by(3), by(8)), "3 adopted 4's subtree");
        assert_eq!(nu.lca(by(8), by(11)), by(4));
    }

    #[test]
    fn relabel_after_dead_root_rebuilds() {
        let t = netgraph::gen::lattice::IrregularConfig::with_switches(24).generate(3);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let mut view = DegradedTopology::new(&t);
        view.kill_switch(ud.root());
        let (nu, rep) = ud.relabel_after(&view).unwrap();
        assert!(rep.full_rebuild);
        assert_ne!(rep.root, ud.root());
        assert_eq!(rep.kept_tree_edges, 0);
        assert!(t.is_switch(rep.root));
        assert!(!nu.is_labeled(ud.root()));
        assert!(crate::validate::check_acyclic_subnetworks(&t, &nu).all_ok());
    }

    #[test]
    fn relabel_after_returns_none_when_no_switch_survives() {
        let (t, _) = figure1();
        let mut view = DegradedTopology::new(&t);
        for s in t.switches() {
            view.kill_switch(s);
        }
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        assert!(ud.relabel_after(&view).is_none());
    }

    #[test]
    fn relabel_chain_stays_consistent() {
        // Chained incremental relabels (the live-reconfiguration regime):
        // each epoch relabels the previous epoch's labeling.
        let t = netgraph::gen::lattice::IrregularConfig::with_switches(32).generate(11);
        let mut ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let mut view = DegradedTopology::new(&t);
        for (i, c) in t.channel_ids().step_by(2).enumerate() {
            if i % 7 == 0 {
                view.kill_link(c);
            }
        }
        for _ in 0..3 {
            let (nu, rep) = ud.relabel_after(&view).unwrap();
            assert!(rep.labeled_nodes > 0);
            assert!(crate::validate::check_acyclic_subnetworks(&t, &nu).all_ok());
            // Per-link direction pairing holds over every base channel.
            for c in t.channel_ids() {
                assert_ne!(nu.class(c).is_up(), nu.class(t.reverse(c)).is_up());
            }
            ud = nu;
        }
    }

    #[test]
    #[should_panic(expected = "must be a switch")]
    fn processor_root_rejected() {
        let (t, l) = figure1();
        UpDownLabeling::build(&t, RootSelection::Fixed(l.by_label(5).unwrap()));
    }

    #[test]
    fn processors_are_leaves_with_tree_links_only() {
        let t = mesh2d(3, 3);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        for p in t.processors() {
            assert!(ud.tree_children(p).is_empty());
            for &c in t.out_channels(p) {
                assert_eq!(ud.class(c), ChannelClass::UpTree);
            }
            for &c in t.in_channels(p) {
                assert_eq!(ud.class(c), ChannelClass::DownTree);
            }
        }
    }

    #[test]
    fn lca_is_ancestor_of_all_inputs() {
        let t = netgraph::gen::lattice::IrregularConfig::with_switches(32).generate(9);
        let ud = UpDownLabeling::build(&t, RootSelection::LowestId);
        let procs: Vec<NodeId> = t.processors().take(6).collect();
        let lca = ud.lca_of(&procs).unwrap();
        for &p in &procs {
            assert!(ud.is_ancestor(lca, p));
        }
        // And it is the *least* such: no child of the LCA covers all.
        for &c in ud.tree_children(lca) {
            assert!(!procs.iter().all(|&p| ud.is_ancestor(c, p)));
        }
    }
}
