//! Unicast-based (software) multicast over a binomial forwarding tree.
//!
//! The message travels as ordinary unicasts: the source informs one
//! destination, then both inform one each, and so on — the recursive-
//! doubling schedule that attains the ⌈log₂(d+1)⌉ phase lower bound when
//! startups dominate. Every hop pays the full communication startup
//! latency (10 µs in §4) plus network transfer, which is exactly the cost
//! SPAM's single-phase worm eliminates.
//!
//! Forwarding is **completion-driven**, not round-synchronized: a node
//! starts re-sending the moment its own copy fully arrives, and its sends
//! to multiple children are serialized by one startup each (one CPU per
//! node). This models practical software multicast slightly favourably —
//! no global barrier between rounds — which only strengthens any SPAM win
//! measured against it.

use desim::{Duration, Time};
use netgraph::NodeId;
use std::collections::HashMap;
use wormsim::{CompletionHook, MessageSpec, MsgId};

/// A unicast-based multicast in flight: the binomial children map plus the
/// [`CompletionHook`] that performs the forwarding inside a simulation.
///
/// ```
/// use baselines::{UnicastMulticast, UpDownUnicastRouting};
/// use netgraph::{gen::lattice::IrregularConfig, NodeId};
/// use updown::{RootSelection, UpDownLabeling};
///
/// let topo = IrregularConfig::with_switches(16).generate(1);
/// let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
/// let router = UpDownUnicastRouting::new(&topo, &ud);
/// let procs: Vec<NodeId> = topo.processors().collect();
///
/// let mut um = UnicastMulticast::new(procs[0], &procs[1..8], 128,
///                                    desim::Duration::from_us(10));
/// let mut sim = wormsim::NetworkSim::new(&topo, router, wormsim::SimConfig::paper());
/// for spec in um.initial_sends(desim::Time::ZERO) {
///     sim.submit(spec).unwrap();
/// }
/// let out = sim.run_with_hook(&mut um);
/// assert!(um.makespan(&out).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct UnicastMulticast {
    src: NodeId,
    len: u32,
    /// Per-send software serialization gap (normally the startup latency).
    send_gap: Duration,
    /// Binomial-tree children of each participant, largest subtree first.
    children: HashMap<NodeId, Vec<NodeId>>,
    /// Tag namespace: all sends of this multicast share it.
    tag: u64,
    /// Destinations, for accounting.
    num_dests: usize,
}

impl UnicastMulticast {
    /// Plans a binomial dissemination from `src` to `dests` with unicasts
    /// of `len` flits. `send_gap` is the per-send software serialization
    /// cost at one node (use the startup latency for the paper's model).
    pub fn new(src: NodeId, dests: &[NodeId], len: u32, send_gap: Duration) -> Self {
        assert!(!dests.is_empty(), "multicast needs destinations");
        let mut order = Vec::with_capacity(dests.len() + 1);
        order.push(src);
        order.extend_from_slice(dests);
        let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        build_binomial(&order, &mut children);
        UnicastMulticast {
            src,
            len,
            send_gap,
            children,
            tag: 0,
            num_dests: dests.len(),
        }
    }

    /// Sets the tag namespace (needed when several schemes share one run).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// The unicasts the source issues at time `t0` (serialized by
    /// `send_gap` each). Submit these before running the simulation.
    pub fn initial_sends(&self, t0: Time) -> Vec<MessageSpec> {
        let mut out = Vec::new();
        self.sends_from(self.src, t0, &mut out);
        out
    }

    /// Number of point-to-point messages the scheme uses in total (= d).
    pub fn total_sends(&self) -> usize {
        self.num_dests
    }

    /// Dissemination makespan: latest completion among this multicast's
    /// unicasts minus the earliest generation time. `None` until all
    /// copies arrived.
    pub fn makespan(&self, outcome: &wormsim::SimOutcome) -> Option<Duration> {
        let mine: Vec<&wormsim::MessageResult> = outcome
            .messages
            .iter()
            .filter(|m| m.spec.tag == self.tag)
            .collect();
        if mine.is_empty() || mine.len() != self.num_dests {
            return None;
        }
        let start = mine.iter().map(|m| m.spec.gen_time).min()?;
        let end = mine
            .iter()
            .map(|m| m.completed_at)
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()?;
        Some(end.since(start))
    }

    /// Pushes onto `out` the unicasts `node` sends to its children.
    fn sends_from(&self, node: NodeId, t0: Time, out: &mut Vec<MessageSpec>) {
        let Some(kids) = self.children.get(&node) else {
            return;
        };
        out.extend(kids.iter().enumerate().map(|(i, &child)| {
            MessageSpec::unicast(node, child, self.len)
                .at(t0 + self.send_gap * i as u64)
                .tag(self.tag)
        }));
    }
}

impl CompletionHook for UnicastMulticast {
    fn on_complete(&mut self, _m: MsgId, spec: &MessageSpec, at: Time, out: &mut Vec<MessageSpec>) {
        if spec.tag == self.tag {
            // The newly informed node starts forwarding immediately.
            self.sends_from(spec.dests[0], at, out);
        }
    }
}

/// Recursive-doubling schedule over `order[0..]` (index 0 = the root):
/// the root informs the node at the midpoint, then both halves recurse.
/// Children are recorded largest-subtree-first so deep subtrees start
/// their sends earliest — the classic binomial optimization.
fn build_binomial(order: &[NodeId], children: &mut HashMap<NodeId, Vec<NodeId>>) {
    if order.len() <= 1 {
        return;
    }
    let mid = order.len().div_ceil(2);
    children.entry(order[0]).or_default().push(order[mid]);
    build_binomial(&order[mid..], children);
    build_binomial(&order[..mid], children);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updown_unicast::UpDownUnicastRouting;
    use netgraph::gen::lattice::IrregularConfig;
    use updown::{RootSelection, UpDownLabeling};
    use wormsim::{NetworkSim, SimConfig};

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|x| NodeId(*x)).collect()
    }

    #[test]
    fn binomial_tree_counts_and_shape() {
        // 8 participants (src + 7 dests): classic binomial B3.
        let order = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let mut ch = HashMap::new();
        build_binomial(&order, &mut ch);
        let total: usize = ch.values().map(|v| v.len()).sum();
        assert_eq!(total, 7, "every destination informed exactly once");
        // The root's first child owns the larger half.
        assert_eq!(ch[&NodeId(0)], ids(&[4, 2, 1]));
        assert_eq!(ch[&NodeId(4)], ids(&[6, 5]));
        assert_eq!(ch[&NodeId(6)], ids(&[7]));
        assert_eq!(ch[&NodeId(2)], ids(&[3]));
    }

    #[test]
    fn every_destination_informed_exactly_once() {
        for n in 2..40usize {
            let order: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            let mut ch = HashMap::new();
            build_binomial(&order, &mut ch);
            let mut informed: Vec<NodeId> = ch.values().flatten().copied().collect();
            informed.sort_unstable();
            let expected: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
            assert_eq!(informed, expected, "n={n}");
        }
    }

    #[test]
    fn schedule_length_matches_phase_lower_bound() {
        // A node's i-th send can start no earlier than phase i+1 after it
        // was informed (one send per phase per node); the total schedule
        // length of the binomial plan must equal ceil(log2(d+1)) — i.e.
        // the plan is phase-optimal.
        fn phases(node: NodeId, ch: &HashMap<NodeId, Vec<NodeId>>) -> u32 {
            ch.get(&node)
                .map(|kids| {
                    kids.iter()
                        .enumerate()
                        .map(|(i, &k)| i as u32 + 1 + phases(k, ch))
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0)
        }
        for d in 1..60u64 {
            let order: Vec<NodeId> = (0..=d as u32).map(NodeId).collect();
            let mut ch = HashMap::new();
            build_binomial(&order, &mut ch);
            assert_eq!(
                phases(NodeId(0), &ch),
                crate::lower_bound::software_multicast_phases(d),
                "d={d}"
            );
        }
    }

    #[test]
    fn simulated_software_multicast_delivers_and_respects_bound() {
        let topo = IrregularConfig::with_switches(24).generate(3);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        let router = UpDownUnicastRouting::new(&topo, &ud);
        let procs: Vec<NodeId> = topo.processors().collect();
        let src = procs[0];
        let dests: Vec<NodeId> = procs[1..16].to_vec(); // d = 15
        let mut um = UnicastMulticast::new(src, &dests, 128, Duration::from_us(10));
        let mut sim = NetworkSim::new(&topo, router, SimConfig::paper());
        for s in um.initial_sends(Time::ZERO) {
            sim.submit(s).unwrap();
        }
        let out = sim.run_with_hook(&mut um);
        assert!(out.all_delivered(), "{:?}", out.deadlock);
        assert_eq!(out.messages.len(), 15, "one unicast per destination");
        let makespan = um.makespan(&out).unwrap();
        let bound = crate::lower_bound::software_multicast_lower_bound(15, Duration::from_us(10));
        assert!(
            makespan >= bound,
            "makespan {makespan} beat the lower bound {bound}"
        );
        // And it should be within a small factor of it at this scale.
        assert!(makespan.as_ns() < bound.as_ns() * 3);
    }

    #[test]
    fn makespan_none_until_complete() {
        let topo = IrregularConfig::with_switches(8).generate(0);
        let procs: Vec<NodeId> = topo.processors().collect();
        let um = UnicastMulticast::new(procs[0], &procs[1..3], 8, Duration::from_us(10));
        let empty = wormsim::SimOutcome {
            messages: vec![],
            dest_done_at: vec![],
            deadlock: None,
            error: None,
            end_time: Time::ZERO,
            quiescent: true,
            counters: Default::default(),
            channel_crossings: Vec::new(),
            fault_times: Vec::new(),
            trace: Default::default(),
            metrics: None,
        };
        assert!(um.makespan(&empty).is_none());
        assert_eq!(um.total_sends(), 2);
    }
}
