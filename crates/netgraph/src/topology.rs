//! The switch/processor topology data structure and its builder.

use crate::ids::{ChannelId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a node is a routing switch (`V1` in the paper) or an end
/// processor / workstation (`V2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A routing switch with up to `k` ports (8 in the paper's experiments).
    Switch,
    /// A processor; always degree 1, attached to a single switch.
    Processor,
}

/// One **unidirectional** channel `src → dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Channel {
    /// Transmitting endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
}

/// Errors detected while building or validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A node id referenced a node that does not exist.
    NoSuchNode(NodeId),
    /// Both endpoints of a link were the same node.
    SelfLoop(NodeId),
    /// The same pair of nodes was linked twice.
    DuplicateLink(NodeId, NodeId),
    /// A processor was linked to something other than exactly one switch.
    BadProcessorAttachment(NodeId),
    /// A switch exceeded the per-switch port budget.
    TooManyPorts {
        /// The overloaded switch.
        switch: NodeId,
        /// Ports in use.
        used: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The switch graph (and hence the network) is not connected.
    Disconnected,
    /// More links than `u32` channel ids can number, two per link.
    TooManyLinks,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoSuchNode(n) => write!(f, "node {n} does not exist"),
            TopologyError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            TopologyError::DuplicateLink(a, b) => write!(f, "duplicate link between {a} and {b}"),
            TopologyError::BadProcessorAttachment(n) => {
                write!(f, "processor {n} must attach to exactly one switch")
            }
            TopologyError::TooManyPorts {
                switch,
                used,
                limit,
            } => write!(f, "switch {switch} uses {used} ports, limit is {limit}"),
            TopologyError::Disconnected => write!(f, "network is not connected"),
            TopologyError::TooManyLinks => write!(f, "more links than u32 channel ids can number"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An immutable switch-based direct network.
///
/// Channels are stored flat; every bidirectional link occupies the two
/// consecutive ids `2k` (the direction added first) and `2k+1` (its
/// reverse), so [`Topology::reverse`] is a constant-time XOR.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    channels: Vec<Channel>,
    /// Node `v`'s channels are `offsets[v]..offsets[v + 1]` of both `out`
    /// and `inc`: a link gives each endpoint one outgoing and one incoming
    /// channel, so the two lists of a node are equally long.
    offsets: Vec<u32>,
    /// Outgoing channel ids, each node's run sorted by destination node
    /// id — the deterministic iteration order all routing algorithms rely
    /// on.
    out: Vec<ChannelId>,
    /// Incoming channel ids, each node's run sorted by source node id.
    inc: Vec<ChannelId>,
    /// For each switch, the id of its attached processor (if any); for
    /// each processor, its switch.
    peer: Vec<Option<NodeId>>,
    /// For each switch, how many switches have a smaller id; `None` for
    /// processors.
    switch_rank: Vec<Option<u32>>,
    /// How many nodes are switches.
    num_switches: usize,
}

impl Topology {
    /// Starts building a topology.
    pub fn builder() -> TopologyBuilder {
        TopologyBuilder::default()
    }

    /// Total number of nodes (switches + processors).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Number of processors.
    pub fn num_processors(&self) -> usize {
        self.num_nodes() - self.num_switches
    }

    /// Number of unidirectional channels (twice the number of links).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// The kind of `node`.
    #[inline]
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// True if `node` is a switch.
    #[inline]
    pub fn is_switch(&self, node: NodeId) -> bool {
        self.kind(node) == NodeKind::Switch
    }

    /// True if `node` is a processor.
    #[inline]
    pub fn is_processor(&self, node: NodeId) -> bool {
        self.kind(node) == NodeKind::Processor
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32).map(NodeId)
    }

    /// Iterator over switch ids, in id order. Its length is known up
    /// front, so collecting it allocates once.
    pub fn switches(&self) -> NodesOfKind<'_> {
        NodesOfKind::new(&self.kinds, NodeKind::Switch, self.num_switches)
    }

    /// Iterator over processor ids, in id order. Its length is known up
    /// front, so collecting it allocates once.
    pub fn processors(&self) -> NodesOfKind<'_> {
        NodesOfKind::new(&self.kinds, NodeKind::Processor, self.num_processors())
    }

    /// The unidirectional channel record for `c`.
    #[inline]
    pub fn channel(&self, c: ChannelId) -> Channel {
        self.channels[c.index()]
    }

    /// All channel ids.
    pub fn channel_ids(&self) -> impl Iterator<Item = ChannelId> + '_ {
        (0..self.channels.len() as u32).map(ChannelId)
    }

    /// The opposite direction of the same physical link.
    #[inline]
    pub fn reverse(&self, c: ChannelId) -> ChannelId {
        ChannelId(c.0 ^ 1)
    }

    /// Outgoing channels of `node`, sorted by destination id.
    #[inline]
    pub fn out_channels(&self, node: NodeId) -> &[ChannelId] {
        &self.out[self.span(node)]
    }

    /// Incoming channels of `node`, sorted by source id.
    #[inline]
    pub fn in_channels(&self, node: NodeId) -> &[ChannelId] {
        &self.inc[self.span(node)]
    }

    #[inline]
    fn span(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Neighbor node ids of `node` (unordered multiset view, sorted by id).
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_channels(node).iter().map(|c| self.channel(*c).dst)
    }

    /// The outgoing channel from `src` to `dst`, if the link exists.
    pub fn channel_between(&self, src: NodeId, dst: NodeId) -> Option<ChannelId> {
        self.out_channels(src)
            .iter()
            .copied()
            .find(|c| self.channel(*c).dst == dst)
    }

    /// The processor attached to switch `s`, if any.
    pub fn processor_of(&self, s: NodeId) -> Option<NodeId> {
        self.peer[s.index()].filter(|_| self.is_switch(s))
    }

    /// The switch a processor `p` is attached to.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a processor.
    pub fn switch_of(&self, p: NodeId) -> NodeId {
        match self.peer[p.index()] {
            Some(s) if self.is_processor(p) => s,
            _ => panic!("{p} is not an attached processor"),
        }
    }

    /// `s`'s place among the switches in id order (`0..num_switches()`);
    /// `None` when `s` is a processor. What a per-switch array is
    /// indexed by.
    #[inline]
    pub fn switch_rank(&self, s: NodeId) -> Option<usize> {
        self.switch_rank[s.index()].map(|r| r as usize)
    }

    /// Degree of `node` in links (pairs of channels).
    pub fn degree(&self, node: NodeId) -> usize {
        self.span(node).len()
    }

    /// Heap bytes held: every array's length times its element size.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.kinds[..])
            + size_of_val(&self.channels[..])
            + size_of_val(&self.offsets[..])
            + size_of_val(&self.out[..])
            + size_of_val(&self.inc[..])
            + size_of_val(&self.peer[..])
            + size_of_val(&self.switch_rank[..])
    }

    /// Checks the structural invariants of the paper's model:
    /// processor degree exactly 1 (to a switch), per-switch port budget
    /// `max_ports`, paired channels, and connectivity.
    pub fn validate(&self, max_ports: usize) -> Result<(), TopologyError> {
        for n in self.nodes() {
            match self.kind(n) {
                NodeKind::Processor => {
                    let ok = self.degree(n) == 1
                        && self.neighbors(n).all(|m| self.kind(m) == NodeKind::Switch);
                    if !ok {
                        return Err(TopologyError::BadProcessorAttachment(n));
                    }
                }
                NodeKind::Switch => {
                    if self.degree(n) > max_ports {
                        return Err(TopologyError::TooManyPorts {
                            switch: n,
                            used: self.degree(n),
                            limit: max_ports,
                        });
                    }
                }
            }
        }
        for c in self.channel_ids() {
            let ch = self.channel(c);
            let rev = self.channel(self.reverse(c));
            debug_assert_eq!((rev.src, rev.dst), (ch.dst, ch.src));
            if ch.src == ch.dst {
                return Err(TopologyError::SelfLoop(ch.src));
            }
        }
        if self.num_nodes() > 0 && !crate::algo::is_connected(self) {
            return Err(TopologyError::Disconnected);
        }
        Ok(())
    }
}

/// The nodes of one kind, in id order: what [`Topology::switches`] and
/// [`Topology::processors`] return. It counts down from the topology's
/// tally of that kind, so its length is exact.
#[derive(Debug, Clone)]
pub struct NodesOfKind<'a> {
    kinds: std::iter::Enumerate<std::slice::Iter<'a, NodeKind>>,
    kind: NodeKind,
    left: usize,
}

impl<'a> NodesOfKind<'a> {
    fn new(kinds: &'a [NodeKind], kind: NodeKind, count: usize) -> Self {
        NodesOfKind {
            kinds: kinds.iter().enumerate(),
            kind,
            left: count,
        }
    }
}

impl Iterator for NodesOfKind<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.left == 0 {
            return None;
        }
        let (v, _) = self.kinds.find(|&(_, &k)| k == self.kind)?;
        self.left -= 1;
        Some(NodeId(v as u32))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for NodesOfKind<'_> {}

impl std::iter::FusedIterator for NodesOfKind<'_> {}

/// Incremental construction of a [`Topology`].
///
/// ```
/// use netgraph::{Topology, NodeKind};
///
/// let mut b = Topology::builder();
/// let s0 = b.add_switch();
/// let s1 = b.add_switch();
/// let p0 = b.add_processor();
/// b.link(s0, s1).unwrap();
/// b.link(p0, s0).unwrap();
/// let t = b.build();
/// assert_eq!(t.kind(s0), NodeKind::Switch);
/// assert_eq!(t.switch_of(p0), s0);
/// t.validate(8).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    links: Vec<(NodeId, NodeId)>,
    /// Per node, the index in `links` of its most recent link
    /// ([`NO_LINK`] before the first): the head of that node's chain.
    newest: Vec<u32>,
    /// Per link, the next-older link of its first and of its second
    /// endpoint. A node's links are a chain through these, so a duplicate
    /// check walks one node's links, not every link added so far.
    older: Vec<[u32; 2]>,
}

const NO_LINK: u32 = u32::MAX;

impl TopologyBuilder {
    /// An empty builder with room for `nodes` nodes and `links` links, so
    /// a generator that knows its counts grows no array while it adds
    /// them.
    pub fn with_capacity(nodes: usize, links: usize) -> Self {
        TopologyBuilder {
            kinds: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            newest: Vec::with_capacity(nodes),
            older: Vec::with_capacity(links),
        }
    }

    /// Adds a switch and returns its id.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    /// Adds a processor and returns its id.
    pub fn add_processor(&mut self) -> NodeId {
        self.add_node(NodeKind::Processor)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        self.newest.push(NO_LINK);
        NodeId(self.kinds.len() as u32 - 1)
    }

    /// Adds `n` switches, returning their ids.
    pub fn add_switches(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.add_switch()).collect()
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// The nodes linked to `n` so far, most recent link first; empty for a
    /// node that does not exist.
    fn peers(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut i = self.newest.get(n.index()).copied().unwrap_or(NO_LINK);
        std::iter::from_fn(move || {
            let (a, b) = *self.links.get(i as usize)?;
            let [older_a, older_b] = self.older[i as usize];
            let (peer, next) = if a == n { (b, older_a) } else { (a, older_b) };
            i = next;
            Some(peer)
        })
    }

    /// Connects `a` and `b` with a bidirectional link (two channels).
    pub fn link(&mut self, a: NodeId, b: NodeId) -> Result<(), TopologyError> {
        if a.index() >= self.kinds.len() {
            return Err(TopologyError::NoSuchNode(a));
        }
        if b.index() >= self.kinds.len() {
            return Err(TopologyError::NoSuchNode(b));
        }
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        if self.linked(a, b) {
            return Err(TopologyError::DuplicateLink(a, b));
        }
        // Link `i` takes the `u32` channel ids `2i` and `2i + 1`; an index
        // that leaves them room never reaches `NO_LINK` either.
        let i = match u32::try_from(self.links.len()) {
            Ok(i) if i < 1 << 31 => i,
            _ => return Err(TopologyError::TooManyLinks),
        };
        self.links.push((a, b));
        self.older
            .push([self.newest[a.index()], self.newest[b.index()]]);
        self.newest[a.index()] = i;
        self.newest[b.index()] = i;
        Ok(())
    }

    /// True if `a`–`b` are already linked.
    pub fn linked(&self, a: NodeId, b: NodeId) -> bool {
        self.peers(a).any(|p| p == b)
    }

    /// Number of links incident to `n` so far (port usage).
    pub fn degree(&self, n: NodeId) -> usize {
        self.peers(n).count()
    }

    /// Finalizes the topology. Channel ids are assigned in link-insertion
    /// order (forward direction even, reverse odd); adjacency lists are
    /// sorted by peer id for deterministic routing iteration.
    pub fn build(self) -> Topology {
        let n = self.kinds.len();
        let channels: Vec<Channel> = self
            .links
            .iter()
            .flat_map(|&(a, b)| [Channel { src: a, dst: b }, Channel { src: b, dst: a }])
            .collect();
        // Counting sort of the channels by node: degrees, then their
        // prefix sums, then each channel into its node's next free slot.
        // The fill walks each node's offset up to the next node's, so one
        // shift afterwards restores the starts.
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &self.links {
            offsets[a.index() + 1] += 1;
            offsets[b.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut out = vec![ChannelId(0); channels.len()];
        let mut inc = vec![ChannelId(0); channels.len()];
        for (i, ch) in channels.iter().enumerate() {
            // Channel `i` leaves `src`, and its reverse `i ^ 1` enters it:
            // one slot of `src`'s run holds both.
            let slot = &mut offsets[ch.src.index()];
            out[*slot as usize] = ChannelId(i as u32);
            inc[*slot as usize] = ChannelId(i as u32 ^ 1);
            *slot += 1;
        }
        offsets.copy_within(..n, 1);
        offsets[0] = 0;
        for v in 0..n {
            let run = offsets[v] as usize..offsets[v + 1] as usize;
            out[run.clone()].sort_unstable_by_key(|c| (channels[c.index()].dst, *c));
            inc[run].sort_unstable_by_key(|c| (channels[c.index()].src, *c));
        }
        let mut peer = vec![None; n];
        for &(a, b) in &self.links {
            let pair = [(a, b), (b, a)];
            for (x, y) in pair {
                if self.kinds[x.index()] == NodeKind::Processor
                    && self.kinds[y.index()] == NodeKind::Switch
                {
                    peer[x.index()] = Some(y);
                    peer[y.index()] = Some(x);
                }
            }
        }
        let mut switches = 0;
        let switch_rank = self
            .kinds
            .iter()
            .map(|&k| {
                let rank = (k == NodeKind::Switch).then_some(switches);
                switches += rank.is_some() as u32;
                rank
            })
            .collect();
        Topology {
            kinds: self.kinds,
            channels,
            offsets,
            out,
            inc,
            peer,
            switch_rank,
            num_switches: switches as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        // s0 - s1 - s2, processors p3@s0, p4@s2
        let mut b = Topology::builder();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        let p3 = b.add_processor();
        let p4 = b.add_processor();
        b.link(s0, s1).unwrap();
        b.link(s1, s2).unwrap();
        b.link(p3, s0).unwrap();
        b.link(s2, p4).unwrap();
        b.build()
    }

    #[test]
    fn counts_and_kinds() {
        let t = tiny();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_processors(), 2);
        assert_eq!(t.num_channels(), 8);
        assert!(t.is_switch(NodeId(1)));
        assert!(t.is_processor(NodeId(3)));
    }

    #[test]
    fn reverse_pairs_channels() {
        let t = tiny();
        for c in t.channel_ids() {
            let r = t.reverse(c);
            assert_ne!(c, r);
            assert_eq!(t.reverse(r), c);
            let ch = t.channel(c);
            let rv = t.channel(r);
            assert_eq!((ch.src, ch.dst), (rv.dst, rv.src));
        }
    }

    #[test]
    fn adjacency_is_sorted_and_consistent() {
        let t = tiny();
        for n in t.nodes() {
            let dsts: Vec<_> = t
                .out_channels(n)
                .iter()
                .map(|c| t.channel(*c).dst)
                .collect();
            let mut sorted = dsts.clone();
            sorted.sort();
            assert_eq!(dsts, sorted, "out channels of {n} sorted by dst");
            for c in t.out_channels(n) {
                assert_eq!(t.channel(*c).src, n);
            }
            for c in t.in_channels(n) {
                assert_eq!(t.channel(*c).dst, n);
            }
        }
    }

    #[test]
    fn processor_switch_mapping() {
        let t = tiny();
        assert_eq!(t.switch_of(NodeId(3)), NodeId(0));
        assert_eq!(t.switch_of(NodeId(4)), NodeId(2));
        assert_eq!(t.processor_of(NodeId(0)), Some(NodeId(3)));
        assert_eq!(t.processor_of(NodeId(1)), None);
        assert_eq!(t.processor_of(NodeId(3)), None, "a processor hosts none");
    }

    #[test]
    #[should_panic(expected = "is not an attached processor")]
    fn switch_of_a_switch_panics() {
        tiny().switch_of(NodeId(0));
    }

    #[test]
    fn switch_ranks_count_the_switches_before() {
        // Processors interleaved with switches: s0 p1 s2 p3 p4 s5.
        let mut b = Topology::builder();
        for is_switch in [true, false, true, false, false, true] {
            if is_switch {
                b.add_switch();
            } else {
                b.add_processor();
            }
        }
        let t = b.build();
        let ranks: Vec<_> = t.nodes().map(|v| t.switch_rank(v)).collect();
        assert_eq!(ranks, [Some(0), None, Some(1), None, None, Some(2)]);
        assert_eq!(tiny().switch_rank(NodeId(2)), Some(2));
    }

    #[test]
    fn node_kind_iterators_know_their_length() {
        // Processors interleaved with switches: s0 p1 s2 p3 p4 s5.
        let mut b = Topology::builder();
        for is_switch in [true, false, true, false, false, true] {
            if is_switch {
                b.add_switch();
            } else {
                b.add_processor();
            }
        }
        let t = b.build();
        let mut switches = t.switches();
        assert_eq!(switches.len(), 3);
        assert_eq!(switches.next(), Some(NodeId(0)));
        assert_eq!(switches.len(), 2);
        assert_eq!(switches.collect::<Vec<_>>(), [NodeId(2), NodeId(5)]);
        let procs: Vec<_> = t.processors().collect();
        assert_eq!(procs, [NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(tiny().processors().len(), 2);
    }

    #[test]
    fn channel_between_finds_direction() {
        let t = tiny();
        let c = t.channel_between(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(t.channel(c).src, NodeId(0));
        assert_eq!(t.channel(c).dst, NodeId(1));
        assert!(t.channel_between(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn validate_accepts_wellformed() {
        tiny().validate(8).unwrap();
    }

    #[test]
    fn validate_rejects_overloaded_switch() {
        let mut b = Topology::builder();
        let hub = b.add_switch();
        for _ in 0..3 {
            let s = b.add_switch();
            b.link(hub, s).unwrap();
        }
        let p = b.add_processor();
        b.link(p, hub).unwrap();
        let t = b.build();
        assert!(matches!(
            t.validate(2),
            Err(TopologyError::TooManyPorts { .. })
        ));
        t.validate(4).unwrap();
    }

    #[test]
    fn validate_rejects_disconnected() {
        let mut b = Topology::builder();
        let s0 = b.add_switch();
        let _s1 = b.add_switch(); // isolated
        let p = b.add_processor();
        b.link(p, s0).unwrap();
        let t = b.build();
        assert_eq!(t.validate(8), Err(TopologyError::Disconnected));
    }

    #[test]
    fn validate_rejects_processor_to_processor() {
        let mut b = Topology::builder();
        let p0 = b.add_processor();
        let p1 = b.add_processor();
        b.link(p0, p1).unwrap();
        let t = b.build();
        assert!(matches!(
            t.validate(8),
            Err(TopologyError::BadProcessorAttachment(_))
        ));
    }

    #[test]
    fn builder_rejects_duplicates_and_self_loops() {
        let mut b = Topology::builder();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        b.link(s0, s1).unwrap();
        assert_eq!(b.link(s1, s0), Err(TopologyError::DuplicateLink(s1, s0)));
        assert_eq!(b.link(s0, s0), Err(TopologyError::SelfLoop(s0)));
        assert_eq!(
            b.link(s0, NodeId(99)),
            Err(TopologyError::NoSuchNode(NodeId(99)))
        );
        assert!(b.linked(s0, s1));
        assert_eq!(b.degree(s0), 1);
    }
}
