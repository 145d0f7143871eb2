//! The routing-algorithm interface and testing utilities.
//!
//! The simulator is generic over a [`RoutingAlgorithm`]: at every router a
//! header visits, the algorithm is consulted once (after the router-setup
//! latency) and returns the **set** of output channels the message must
//! atomically request there — one channel for a unicast hop, several where a
//! multi-head worm branches. Each requested channel carries a successor
//! header state, which the engine delivers to the algorithm again when that
//! branch's header reaches the next router.
//!
//! Header state is how phase information ("has this worm already used a
//! down-cross channel?") and the destination set travel with the worm — in
//! hardware they are header-flit fields; here they are a typed value.

use crate::flit::MsgId;
use crate::message::MessageSpec;
use desim::Time;
use netgraph::{ChannelId, NodeId, Topology};
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::collections::HashMap;
use std::fmt;

/// A typed routing failure.
///
/// On a healthy network with a correct algorithm these never occur — the
/// paper's Theorem 1 preconditions guarantee a legal move always exists.
/// On a *degraded* network (dead links/switches) a stale labeling or an
/// unreachable destination surfaces here as a diagnosable error instead of
/// a crash, and the engine converts it into
/// [`crate::SimError::Route`] on the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// No legal output channel exists at `node` towards `target` — on a
    /// degraded network this means the labeling no longer matches the
    /// surviving channels (relabel the component).
    NoLegalMove {
        /// The switch where the worm is stuck.
        node: NodeId,
        /// The node it was trying to reach.
        target: NodeId,
    },
    /// The tree stage found no child subtree containing a destination —
    /// the destination set includes nodes outside the labeled component.
    NoDestinationSubtree {
        /// The switch where the split failed.
        node: NodeId,
    },
    /// A scripted (oracle) router had no plan entry for this message here.
    NoPlan {
        /// The message's correlation tag.
        tag: u64,
        /// The unplanned-for switch.
        node: NodeId,
    },
    /// A scripted route referenced a link that does not exist.
    NoSuchLink {
        /// Requested source endpoint.
        from: NodeId,
        /// Requested destination endpoint.
        to: NodeId,
    },
    /// A destination lies outside the routing algorithm's labeled
    /// component — on a degraded network, a node lost to the dead zone.
    /// Detected when the header is formed, before any flit moves.
    UnreachableDestination {
        /// The unreachable destination processor.
        dest: NodeId,
    },
    /// The *source* lies outside the routing algorithm's labeled
    /// component — its island was severed from the routable fabric, so it
    /// can reach nothing. Detected when the header is formed.
    SourceDisconnected {
        /// The stranded source processor.
        src: NodeId,
    },
}

crate::codec::snap_enum! { RouteError, "unknown route error tag";
    0 => NoLegalMove { node, target },
    1 => NoDestinationSubtree { node },
    2 => NoPlan { tag, node },
    3 => NoSuchLink { from, to },
    4 => UnreachableDestination { dest },
    5 => SourceDisconnected { src },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoLegalMove { node, target } => {
                write!(f, "no legal move from {node} towards {target}")
            }
            RouteError::NoDestinationSubtree { node } => {
                write!(f, "no destination subtree below {node}")
            }
            RouteError::NoPlan { tag, node } => {
                write!(f, "no routing plan for tag {tag} at {node}")
            }
            RouteError::NoSuchLink { from, to } => write!(f, "no link {from} -> {to}"),
            RouteError::UnreachableDestination { dest } => {
                write!(f, "destination {dest} is outside the routable component")
            }
            RouteError::SourceDisconnected { src } => {
                write!(f, "source {src} is outside the routable component")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The channels a header requests at one router, with the header state each
/// branch carries onward.
///
/// The engine owns one `RouteDecision` per simulation and passes it to
/// [`RoutingAlgorithm::route`] as an out-parameter, cleared between calls:
/// the backing `Vec` reaches its steady capacity within the first few hops
/// and the per-hop decision then allocates nothing.
#[derive(Debug, Clone)]
pub struct RouteDecision<H> {
    /// `(channel, successor state)` pairs; all channels must originate at
    /// the deciding router and be pairwise distinct. Must be non-empty on
    /// success.
    pub requests: Vec<(ChannelId, H)>,
}

impl<H> Default for RouteDecision<H> {
    fn default() -> Self {
        RouteDecision {
            requests: Vec::new(),
        }
    }
}

impl<H> RouteDecision<H> {
    /// Single-channel decision (unicast hop).
    pub fn single(ch: ChannelId, state: H) -> Self {
        RouteDecision {
            requests: vec![(ch, state)],
        }
    }

    /// Empties the request set, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.requests.clear();
    }

    /// Appends one `(channel, successor state)` request.
    #[inline]
    pub fn push(&mut self, ch: ChannelId, state: H) {
        self.requests.push((ch, state));
    }
}

/// A wormhole routing algorithm driven by the simulator.
pub trait RoutingAlgorithm {
    /// Per-branch header state.
    type Header: Clone;

    /// Reusable per-simulation working memory for [`Self::route`] (legal
    /// candidate sets, inner decisions of wrapped algorithms, ...). The
    /// engine owns one value and threads it through every call, so an
    /// algorithm that keeps its temporaries here is allocation-free per
    /// hop. Algorithms without temporaries use `()`.
    type Scratch: Default;

    /// Header state when the worm leaves its source processor. Errors —
    /// e.g. [`RouteError::UnreachableDestination`] for a destination the
    /// algorithm's labeling cannot reach on a degraded network — abort
    /// the run with a typed [`crate::SimError::Route`] before any flit
    /// moves.
    fn initial_header(&self, spec: &MessageSpec) -> Result<Self::Header, RouteError>;

    /// Routing decision for a header arriving at switch `node` on channel
    /// `in_ch` with state `header`, written into `out` (cleared by the
    /// engine before the call; `scratch` is the algorithm's own reusable
    /// working memory). Algorithms bind their topology at construction —
    /// the engine simulates the same network the algorithm routes.
    ///
    /// # Contract
    ///
    /// On success, must push at least one request; every requested
    /// channel must have `src == node`; channels must be distinct. The
    /// engine converts violations — and any returned [`RouteError`] —
    /// into a typed [`crate::SimError`] on the outcome and aborts the
    /// run, so a bad route (e.g. on a degraded network whose labeling
    /// went stale) is diagnosable rather than a crash.
    fn route(
        &self,
        node: NodeId,
        in_ch: ChannelId,
        header: &Self::Header,
        spec: &MessageSpec,
        scratch: &mut Self::Scratch,
        out: &mut RouteDecision<Self::Header>,
    ) -> Result<(), RouteError>;

    /// Stable identifier written into engine checkpoints and compared on
    /// restore, so a snapshot taken under one algorithm cannot silently
    /// resume under another ([`SnapshotError::ConfigMismatch`]).
    /// Algorithms supporting the header codec below must override this
    /// with a unique non-empty name.
    fn snapshot_name(&self) -> &'static str {
        ""
    }

    /// Serializes one in-flight header state into an engine checkpoint.
    /// The default declines: an algorithm that does not opt into the
    /// snapshot codec makes checkpointing fail with a typed
    /// [`SnapshotError::UnsupportedRouting`] instead of producing a
    /// snapshot that cannot be restored.
    fn encode_header(
        &self,
        _header: &Self::Header,
        _w: &mut SnapWriter,
    ) -> Result<(), SnapshotError> {
        Err(SnapshotError::UnsupportedRouting(
            "routing algorithm has no header snapshot codec",
        ))
    }

    /// Reconstructs one header state written by [`Self::encode_header`].
    fn decode_header(&self, _r: &mut SnapReader) -> Result<Self::Header, SnapshotError> {
        Err(SnapshotError::UnsupportedRouting(
            "routing algorithm has no header snapshot codec",
        ))
    }
}

/// Observer invoked when a message has been fully delivered; may inject
/// follow-up messages (multi-phase schemes such as unicast-based multicast,
/// barrier/gather protocols, request-reply workloads).
pub trait CompletionHook {
    /// Called once per message, at the instant its tail reaches its last
    /// destination. Specs pushed onto `out` are submitted with their
    /// `gen_time` (must be ≥ `completed_at`). `out` is empty on entry and
    /// is a buffer the engine owns and reuses, so a hook that injects
    /// allocates nothing per completed message.
    fn on_complete(
        &mut self,
        msg: MsgId,
        spec: &MessageSpec,
        completed_at: Time,
        out: &mut Vec<MessageSpec>,
    );

    /// Serializes the hook's mutable state into an engine checkpoint.
    /// Stateless hooks (the default) write nothing. Object-safe by
    /// design: the engine only holds `&mut dyn CompletionHook`.
    fn encode_state(&self, _w: &mut SnapWriter) {}

    /// Restores state written by [`Self::encode_state`] into this hook.
    /// The engine verifies the hook consumes exactly the bytes its
    /// encoder produced, so a hook/snapshot mismatch surfaces as a typed
    /// [`SnapshotError`] rather than state corruption.
    fn decode_state(&mut self, _r: &mut SnapReader) -> Result<(), SnapshotError> {
        Ok(())
    }
}

/// A [`CompletionHook`] that does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHook;

impl CompletionHook for NoHook {
    fn on_complete(&mut self, _: MsgId, _: &MessageSpec, _: Time, _: &mut Vec<MessageSpec>) {}
}

/// A scripted routing algorithm for tests: every message `tag` is assigned
/// an explicit routing tree (node → outgoing channels). This is how the
/// engine is exercised independently of SPAM, and how *deliberately
/// deadlocking* channel-dependency cycles are constructed as positive
/// controls for the deadlock detector.
#[derive(Debug, Clone)]
pub struct OracleRouting {
    topo: Topology,
    /// `(tag, node) -> outgoing channels to request there`.
    plan: HashMap<(u64, NodeId), Vec<ChannelId>>,
}

impl OracleRouting {
    /// New oracle for a topology (kept by value for path resolution).
    pub fn new(topo: &Topology) -> Self {
        OracleRouting {
            topo: topo.clone(),
            plan: HashMap::new(),
        }
    }

    /// Scripts a unicast path `nodes[0] (processor) → ... → nodes.last()
    /// (processor)` for messages tagged `tag`. Errors with
    /// [`RouteError::NoSuchLink`] if consecutive nodes are not linked.
    ///
    /// # Panics
    ///
    /// Panics if the path has fewer than two nodes.
    pub fn add_unicast_path(&mut self, tag: u64, nodes: &[NodeId]) -> Result<(), RouteError> {
        assert!(nodes.len() >= 2, "path needs at least source and dest");
        // The engine itself requests the processor's injection channel, so
        // the plan covers the intermediate switches only.
        let hops: Vec<(NodeId, NodeId)> = nodes
            .windows(2)
            .skip(1) // first hop is the injection channel
            .map(|w| (w[0], w[1]))
            .collect();
        self.add_tree_edges(tag, hops)
    }

    /// Scripts an arbitrary routing tree from `(from, to)` link pairs: at
    /// each `from` node, the message requests the channel towards `to`.
    /// Pairs sharing a `from` become a branching (multi-head) request set.
    /// Errors with [`RouteError::NoSuchLink`] on a pair that is not linked
    /// in the topology (earlier pairs stay scripted).
    pub fn add_tree_edges(
        &mut self,
        tag: u64,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<(), RouteError> {
        for (from, to) in edges {
            let ch = self
                .topo
                .channel_between(from, to)
                .ok_or(RouteError::NoSuchLink { from, to })?;
            self.plan.entry((tag, from)).or_default().push(ch);
        }
        Ok(())
    }
}

impl RoutingAlgorithm for OracleRouting {
    type Header = ();
    type Scratch = ();

    fn initial_header(&self, _spec: &MessageSpec) -> Result<Self::Header, RouteError> {
        Ok(())
    }

    fn snapshot_name(&self) -> &'static str {
        "oracle"
    }

    fn encode_header(&self, _header: &(), _w: &mut SnapWriter) -> Result<(), SnapshotError> {
        Ok(())
    }

    fn decode_header(&self, _r: &mut SnapReader) -> Result<(), SnapshotError> {
        Ok(())
    }

    fn route(
        &self,
        node: NodeId,
        _in_ch: ChannelId,
        _header: &(),
        spec: &MessageSpec,
        _scratch: &mut (),
        out: &mut RouteDecision<()>,
    ) -> Result<(), RouteError> {
        let chans = self.plan.get(&(spec.tag, node)).ok_or(RouteError::NoPlan {
            tag: spec.tag,
            node,
        })?;
        for &c in chans {
            out.push(c, ());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-shot `route` convenience for tests (fresh scratch + decision).
    fn route_once<R: RoutingAlgorithm>(
        r: &R,
        node: NodeId,
        in_ch: ChannelId,
        header: &R::Header,
        spec: &MessageSpec,
    ) -> Result<RouteDecision<R::Header>, RouteError> {
        let mut scratch = R::Scratch::default();
        let mut out = RouteDecision::default();
        r.route(node, in_ch, header, spec, &mut scratch, &mut out)?;
        Ok(out)
    }

    fn line3() -> (Topology, Vec<NodeId>) {
        // p3 - s0 - s1 - s2 - p4, plus p5 on s1
        let mut b = Topology::builder();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        let p3 = b.add_processor();
        let p4 = b.add_processor();
        let p5 = b.add_processor();
        b.link(s0, s1).unwrap();
        b.link(s1, s2).unwrap();
        b.link(p3, s0).unwrap();
        b.link(p4, s2).unwrap();
        b.link(p5, s1).unwrap();
        (b.build(), vec![s0, s1, s2, p3, p4, p5])
    }

    #[test]
    fn oracle_unicast_plan_resolves_channels() {
        let (t, n) = line3();
        let mut o = OracleRouting::new(&t);
        o.add_unicast_path(7, &[n[3], n[0], n[1], n[2], n[4]])
            .unwrap();
        let spec = MessageSpec::unicast(n[3], n[4], 4).tag(7);
        // At s0 the plan sends towards s1.
        let d = route_once(&o, n[0], ChannelId(0), &(), &spec).unwrap();
        assert_eq!(d.requests.len(), 1);
        assert_eq!(t.channel(d.requests[0].0).dst, n[1]);
        // At s2 the plan delivers to p4.
        let d2 = route_once(&o, n[2], ChannelId(0), &(), &spec).unwrap();
        assert_eq!(t.channel(d2.requests[0].0).dst, n[4]);
    }

    #[test]
    fn oracle_branching_plan() {
        let (t, n) = line3();
        let mut o = OracleRouting::new(&t);
        // At s1 split to both p5 and s2.
        o.add_tree_edges(1, [(n[1], n[5]), (n[1], n[2])]).unwrap();
        let spec = MessageSpec::multicast(n[3], vec![n[5], n[4]], 4).tag(1);
        let d = route_once(&o, n[1], ChannelId(0), &(), &spec).unwrap();
        assert_eq!(d.requests.len(), 2);
    }

    #[test]
    fn oracle_missing_plan_is_a_typed_error() {
        let (t, n) = line3();
        let o = OracleRouting::new(&t);
        let spec = MessageSpec::unicast(n[3], n[4], 4).tag(99);
        assert_eq!(
            route_once(&o, n[0], ChannelId(0), &(), &spec).unwrap_err(),
            RouteError::NoPlan {
                tag: 99,
                node: n[0]
            }
        );
    }

    #[test]
    fn oracle_rejects_unlinked_edges() {
        let (t, n) = line3();
        let mut o = OracleRouting::new(&t);
        // s0 and s2 not adjacent.
        assert_eq!(
            o.add_tree_edges(0, [(n[0], n[2])]),
            Err(RouteError::NoSuchLink {
                from: n[0],
                to: n[2]
            })
        );
    }

    #[test]
    fn route_decision_single() {
        let d: RouteDecision<u8> = RouteDecision::single(ChannelId(5), 42);
        assert_eq!(d.requests, vec![(ChannelId(5), 42)]);
    }
}
