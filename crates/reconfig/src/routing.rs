//! The epoch-based routing swap: one [`SpamRouting`] per epoch, selected
//! by each message's generation time.
//!
//! A worm's epoch is a function of its message's generation time, which
//! the message table holds for the whole run: every routing call reads
//! `spec.gen_time` and hands the plain SPAM header to that epoch's router
//! (in hardware, the reconfiguration daemon stamps messages with the
//! current configuration number). In-flight survivors therefore keep
//! draining on the labeling they started with while newly submitted
//! traffic routes on the post-fault labeling — exactly the Autonet
//! transient this crate exists to simulate. The engine tears down any
//! old-epoch worm that runs into a channel its stale labeling still
//! believes in.

use desim::Time;
use netgraph::{ChannelId, NodeId};
use spam_collections::InlineVec;
use spam_core::{RouteScratch, SpamHeader, SpamRouting};
use wormsim::{
    MessageSpec, RouteDecision, RouteError, RoutingAlgorithm, SnapReader, SnapWriter, SnapshotError,
};

/// A routing algorithm that dispatches every message to the
/// [`SpamRouting`] of its generation epoch.
#[derive(Debug, Clone)]
pub struct EpochRouting<'a> {
    /// Epoch boundaries, ascending; inline up to four faults (the common
    /// storm sizes) so a scenario swap does not heap-allocate per epoch
    /// lookup structure.
    boundaries: InlineVec<Time, 4>,
    epochs: Vec<SpamRouting<'a>>,
}

impl<'a> EpochRouting<'a> {
    /// Builds the swap from epoch boundaries and per-epoch routers
    /// (`epochs.len() == boundaries.len() + 1`). Usually constructed via
    /// [`crate::ReconfigScenario::routing`].
    pub fn new(boundaries: Vec<Time>, epochs: Vec<SpamRouting<'a>>) -> Self {
        assert_eq!(
            epochs.len(),
            boundaries.len() + 1,
            "one router per epoch (boundaries + 1)"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        EpochRouting {
            boundaries: InlineVec::from_slice(&boundaries),
            epochs,
        }
    }

    /// The epoch a message generated at `t` belongs to.
    pub fn epoch_of(&self, t: Time) -> usize {
        self.boundaries.as_slice().partition_point(|&b| b <= t)
    }

    /// Number of epochs.
    pub fn num_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// The router of one epoch.
    pub fn epoch(&self, e: usize) -> &SpamRouting<'a> {
        &self.epochs[e]
    }

    /// The router of the epoch `spec` was generated in.
    fn router_of(&self, spec: &MessageSpec) -> &SpamRouting<'a> {
        &self.epochs[self.epoch_of(spec.gen_time)]
    }
}

/// Every epoch routes over the same base topology, so the header codec is
/// epoch 0's: a SPAM header holds no epoch.
impl RoutingAlgorithm for EpochRouting<'_> {
    type Header = SpamHeader;
    type Scratch = RouteScratch;

    fn initial_header(&self, spec: &MessageSpec) -> Result<SpamHeader, RouteError> {
        self.router_of(spec).initial_header(spec)
    }

    fn snapshot_name(&self) -> &'static str {
        "epoch-spam"
    }

    fn encode_header(&self, h: &SpamHeader, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.epochs[0].encode_header(h, w)
    }

    fn decode_header(&self, r: &mut SnapReader) -> Result<SpamHeader, SnapshotError> {
        self.epochs[0].decode_header(r)
    }

    fn route(
        &self,
        node: NodeId,
        in_ch: ChannelId,
        header: &SpamHeader,
        spec: &MessageSpec,
        scratch: &mut RouteScratch,
        out: &mut RouteDecision<SpamHeader>,
    ) -> Result<(), RouteError> {
        self.router_of(spec)
            .route(node, in_ch, header, spec, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ReconfigScenario;
    use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};
    use netgraph::gen::fixtures::figure1;
    use updown::{RootSelection, UpDownLabeling};
    use wormsim::{NetworkSim, SimConfig};

    #[test]
    fn epoch_stamp_follows_generation_time() {
        let (t, l) = figure1();
        let by = |x: u32| l.by_label(x).unwrap();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(by(1)));
        // Kill the (2,4) tree link at 20 µs (4 reattaches via (3,4)).
        let dead = t.channel_between(by(2), by(4)).unwrap();
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: Time::from_us(20),
            kind: FaultKind::LinkDown(dead),
        }]);
        let sc = ReconfigScenario::build(&t, &ud, &sched);
        let routing = sc.routing(&t);
        assert_eq!(routing.num_epochs(), 2);
        assert_eq!(routing.epoch_of(Time::from_us(3)), 0);
        assert_eq!(routing.epoch_of(Time::from_ns(19_999)), 0);
        assert_eq!(routing.epoch_of(Time::from_us(20)), 1);
        assert_eq!(routing.epoch_of(Time::from_us(1_000)), 1);
    }

    #[test]
    fn post_fault_messages_route_around_the_dead_link() {
        // The tree link (2,4) dies at 1 µs, before any flit moves (startup
        // is 10 µs); a message submitted after the boundary routes in
        // epoch 1, where node 4's subtree reattached via the (3,4) cross
        // link.
        let (t, l) = figure1();
        let by = |x: u32| l.by_label(x).unwrap();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(by(1)));
        let dead = t.channel_between(by(2), by(4)).unwrap();
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: Time::from_us(1),
            kind: FaultKind::LinkDown(dead),
        }]);
        let sc = ReconfigScenario::build(&t, &ud, &sched);
        let routing = sc.routing(&t);
        let mut sim = NetworkSim::new(&t, routing, SimConfig::paper());
        sched.install(&mut sim);
        // 5 → 8 used to descend 2 → 4 → 6 → 8; now the worm must go
        // around through 3's down-cross into the reattached subtree.
        sim.submit(MessageSpec::unicast(by(5), by(8), 32).at(Time::from_us(2)))
            .unwrap();
        let out = sim.run();
        assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
        assert_eq!(out.num_epochs(), 2);
    }

    #[test]
    fn mid_flight_fault_tears_down_and_new_epoch_delivers() {
        let (t, l) = figure1();
        let by = |x: u32| l.by_label(x).unwrap();
        let ud = UpDownLabeling::build(&t, RootSelection::Fixed(by(1)));
        let dead = t.channel_between(by(2), by(4)).unwrap();
        // The multicast's worm occupies (2,4) from ~10.05 µs to ~11.4 µs;
        // kill the link at 10.5 µs, mid-worm.
        let sched = FaultSchedule::new(vec![FaultEvent {
            at: Time::from_ns(10_500),
            kind: FaultKind::LinkDown(dead),
        }]);
        let sc = ReconfigScenario::build(&t, &ud, &sched);
        let routing = sc.routing(&t);
        let mut sim = NetworkSim::new(&t, routing, SimConfig::paper());
        sched.install(&mut sim);
        let m0 = sim
            .submit(MessageSpec::multicast(
                by(5),
                vec![by(8), by(9), by(10), by(11)],
                128,
            ))
            .unwrap();
        let m1 = sim
            .submit(MessageSpec::unicast(by(5), by(8), 32).at(Time::from_us(15)))
            .unwrap();
        let out = sim.run();
        assert!(out.all_accounted(), "{:?} {:?}", out.error, out.deadlock);
        assert!(out.messages[m0.index()].is_torn_down(), "caught mid-flight");
        assert!(out.messages[m1.index()].is_complete(), "epoch 1 delivers");
        assert_eq!(out.counters.messages_torn_down, 1);
        assert_eq!(out.counters.links_killed, 1);
        let stats = out.epoch_stats();
        assert_eq!(stats[0].torn_down, 1);
        assert_eq!(stats[1].delivered, 1);
    }
}
