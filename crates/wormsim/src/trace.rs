//! Optional event tracing: a structured record of the protocol-level
//! actions a run performed, used by behavioural tests (e.g. replaying the
//! paper's §3.2 Figure 1 walkthrough), by debugging sessions, and by the
//! analysis utilities in `spam-core` (root hot-spot measurements).
//!
//! Tracing is off by default — the hot simulation loops append nothing —
//! and is enabled per run with [`crate::NetworkSim::enable_trace`].

use crate::codec::{snap_enum, snap_struct};
use crate::flit::MsgId;
use desim::Time;
use netgraph::{ChannelId, NodeId};
use spam_collections::InlineVec;

/// Channel set carried by a trace event. Requests and acquisitions list
/// one channel per branch; fanout past the inline capacity spills to the
/// heap, so enabled tracing stays allocation-free for the common degrees.
pub type ChannelList = InlineVec<ChannelId, 4>;

/// One protocol-level action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worm's startup completed at its source processor.
    SourceReady {
        /// Message.
        msg: MsgId,
        /// Source processor.
        src: NodeId,
        /// When.
        at: Time,
    },
    /// A header finished router setup and atomically enqueued requests.
    Requested {
        /// Message.
        msg: MsgId,
        /// The router.
        node: NodeId,
        /// Channels requested (OCRQ enqueue order).
        channels: ChannelList,
        /// When.
        at: Time,
    },
    /// All-or-nothing acquisition succeeded; header replicated.
    Acquired {
        /// Message.
        msg: MsgId,
        /// The router (or source processor).
        node: NodeId,
        /// Channels now owned.
        channels: ChannelList,
        /// When.
        at: Time,
    },
    /// A worm's header flit finished crossing a channel's wire and entered
    /// the input buffer at the downstream node — the span boundary between
    /// wire transit on one hop and router setup at the next.
    HeaderArrived {
        /// Message.
        msg: MsgId,
        /// The channel whose wire the header just crossed.
        channel: ChannelId,
        /// When.
        at: Time,
    },
    /// A bubble flit was injected into a free output buffer because a
    /// sibling held a blocked real flit (asynchronous replication).
    Bubble {
        /// Message.
        msg: MsgId,
        /// The branch router.
        node: NodeId,
        /// The channel receiving the bubble.
        channel: ChannelId,
        /// When.
        at: Time,
    },
    /// The tail was replicated; the channels were released.
    Released {
        /// Message.
        msg: MsgId,
        /// The router.
        node: NodeId,
        /// Channels released.
        channels: ChannelList,
        /// When.
        at: Time,
    },
    /// The tail flit reached a destination processor.
    DeliveredTail {
        /// Message.
        msg: MsgId,
        /// The destination.
        dest: NodeId,
        /// When.
        at: Time,
    },
    /// A scheduled fault event killed a bidirectional link.
    LinkDown {
        /// Forward channel of the dead link (its reverse died too).
        channel: ChannelId,
        /// When.
        at: Time,
    },
    /// A worm was torn down: a fault destroyed a channel it was holding,
    /// waiting on, or routing into; all its reservations were released.
    TornDown {
        /// The killed message.
        msg: MsgId,
        /// The dead channel that doomed it.
        channel: ChannelId,
        /// When.
        at: Time,
    },
}

impl TraceEvent {
    /// The message this event belongs to; `None` for network-level events
    /// (fault injections), which concern no single message.
    pub fn msg(&self) -> Option<MsgId> {
        match self {
            TraceEvent::SourceReady { msg, .. }
            | TraceEvent::Requested { msg, .. }
            | TraceEvent::Acquired { msg, .. }
            | TraceEvent::HeaderArrived { msg, .. }
            | TraceEvent::Bubble { msg, .. }
            | TraceEvent::Released { msg, .. }
            | TraceEvent::TornDown { msg, .. }
            | TraceEvent::DeliveredTail { msg, .. } => Some(*msg),
            TraceEvent::LinkDown { .. } => None,
        }
    }

    /// The timestamp.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::SourceReady { at, .. }
            | TraceEvent::Requested { at, .. }
            | TraceEvent::Acquired { at, .. }
            | TraceEvent::HeaderArrived { at, .. }
            | TraceEvent::Bubble { at, .. }
            | TraceEvent::Released { at, .. }
            | TraceEvent::DeliveredTail { at, .. }
            | TraceEvent::LinkDown { at, .. }
            | TraceEvent::TornDown { at, .. } => *at,
        }
    }
}

snap_enum! { TraceEvent, "unknown trace event tag";
    0 => SourceReady { msg, src, at },
    1 => Requested { msg, node, channels, at },
    2 => Acquired { msg, node, channels, at },
    3 => HeaderArrived { msg, channel, at },
    4 => Bubble { msg, node, channel, at },
    5 => Released { msg, node, channels, at },
    6 => DeliveredTail { msg, dest, at },
    7 => LinkDown { channel, at },
    8 => TornDown { msg, channel, at },
}

/// A recorded trace with query helpers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Events in emission order (chronological; ties in engine order).
    pub events: Vec<TraceEvent>,
}

snap_struct! { Trace { events } }

impl Trace {
    /// Events of one message, in order.
    pub fn of_msg(&self, msg: MsgId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.msg() == Some(msg))
    }

    /// The sequence of routers at which `msg` made requests, in order —
    /// the header's itinerary.
    pub fn itinerary(&self, msg: MsgId) -> Vec<NodeId> {
        self.of_msg(msg)
            .filter_map(|e| match e {
                TraceEvent::Requested { node, .. } => Some(*node),
                _ => None,
            })
            .collect()
    }

    /// Channels requested by `msg` at `node`, if it made a request there.
    pub fn requests_at(&self, msg: MsgId, node: NodeId) -> Option<Vec<ChannelId>> {
        self.of_msg(msg).find_map(|e| match e {
            TraceEvent::Requested {
                node: n, channels, ..
            } if *n == node => Some(channels.to_vec()),
            _ => None,
        })
    }

    /// All `(node, channel)` pairs where `msg` received bubble flits.
    pub fn bubbles(&self, msg: MsgId) -> Vec<(NodeId, ChannelId)> {
        self.of_msg(msg)
            .filter_map(|e| match e {
                TraceEvent::Bubble { node, channel, .. } => Some((*node, *channel)),
                _ => None,
            })
            .collect()
    }

    /// Tail delivery time at `dest` for `msg`.
    pub fn delivered_at(&self, msg: MsgId, dest: NodeId) -> Option<Time> {
        self.of_msg(msg).find_map(|e| match e {
            TraceEvent::DeliveredTail { dest: d, at, .. } if *d == dest => Some(*at),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            events: vec![
                TraceEvent::SourceReady {
                    msg: MsgId(0),
                    src: NodeId(9),
                    at: Time::from_us(10),
                },
                TraceEvent::Requested {
                    msg: MsgId(0),
                    node: NodeId(1),
                    channels: ChannelList::from_slice(&[ChannelId(4)]),
                    at: Time::from_ns(10_050),
                },
                TraceEvent::Requested {
                    msg: MsgId(0),
                    node: NodeId(3),
                    channels: ChannelList::from_slice(&[ChannelId(8), ChannelId(10)]),
                    at: Time::from_ns(10_100),
                },
                TraceEvent::Bubble {
                    msg: MsgId(0),
                    node: NodeId(3),
                    channel: ChannelId(10),
                    at: Time::from_ns(10_200),
                },
                TraceEvent::DeliveredTail {
                    msg: MsgId(0),
                    dest: NodeId(7),
                    at: Time::from_ns(12_000),
                },
                TraceEvent::Requested {
                    msg: MsgId(1),
                    node: NodeId(1),
                    channels: ChannelList::from_slice(&[ChannelId(2)]),
                    at: Time::from_ns(10_060),
                },
            ],
        }
    }

    #[test]
    fn itinerary_orders_requests() {
        let t = sample();
        assert_eq!(t.itinerary(MsgId(0)), vec![NodeId(1), NodeId(3)]);
        assert_eq!(t.itinerary(MsgId(1)), vec![NodeId(1)]);
        assert_eq!(t.itinerary(MsgId(9)), Vec::<NodeId>::new());
    }

    #[test]
    fn requests_and_bubbles_queryable() {
        let t = sample();
        assert_eq!(
            t.requests_at(MsgId(0), NodeId(3)),
            Some(vec![ChannelId(8), ChannelId(10)])
        );
        assert_eq!(t.requests_at(MsgId(0), NodeId(5)), None);
        assert_eq!(t.bubbles(MsgId(0)), vec![(NodeId(3), ChannelId(10))]);
        assert!(t.bubbles(MsgId(1)).is_empty());
    }

    #[test]
    fn delivery_lookup() {
        let t = sample();
        assert_eq!(
            t.delivered_at(MsgId(0), NodeId(7)),
            Some(Time::from_ns(12_000))
        );
        assert_eq!(t.delivered_at(MsgId(0), NodeId(8)), None);
        assert_eq!(t.events[0].at(), Time::from_us(10));
        assert_eq!(t.events[0].msg(), Some(MsgId(0)));
    }
}
