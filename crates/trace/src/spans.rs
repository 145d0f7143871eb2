//! Deriving per-message spans from a protocol-level event trace.
//!
//! The engine's [`wormsim::Trace`] is a flat chronological list of
//! protocol actions. This module folds it into a per-message view — for
//! each worm, the channel-keyed timestamps of its lifecycle (request,
//! acquisition, header wire arrival, release), plus deliveries, bubbles,
//! and teardown — and reconstructs the critical chain to any destination
//! by walking the acquisition tree upstream. Everything downstream
//! (latency anatomy, Perfetto export) consumes this view.

use desim::Time;
use netgraph::{ChannelId, NodeId, Topology};
use wormsim::{MsgId, SimOutcome, TraceEvent};

/// The recorded lifecycle of one message on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopTimes {
    /// The channel.
    pub channel: ChannelId,
    /// When the header enqueued an OCRQ request for this channel. `None`
    /// for the injection channel: the source's request instant *is*
    /// [`MessageSpans::source_ready`] (enqueue happens in the same event).
    pub requested: Option<Time>,
    /// When the all-or-nothing acquisition that included this channel
    /// succeeded.
    pub acquired: Option<Time>,
    /// When the tail replication released this channel.
    pub released: Option<Time>,
    /// When the header flit finished crossing this channel's wire.
    pub header_arrived: Option<Time>,
}

impl HopTimes {
    fn new(channel: ChannelId) -> Self {
        HopTimes {
            channel,
            requested: None,
            acquired: None,
            released: None,
            header_arrived: None,
        }
    }
}

/// All spans of one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpans {
    /// The message.
    pub msg: MsgId,
    /// Send initiation (before startup).
    pub gen_time: Time,
    /// Startup completed at the source; also the instant the injection
    /// channel was requested.
    pub source_ready: Option<Time>,
    /// Per-channel lifecycle times, in first-touch order.
    pub hops: Vec<HopTimes>,
    /// Bubble insertions: `(receiving channel, when)`.
    pub bubbles: Vec<(ChannelId, Time)>,
    /// Tail arrivals: `(destination processor, when)`.
    pub deliveries: Vec<(NodeId, Time)>,
    /// Teardown verdict, if a fault killed the worm mid-flight.
    pub torn_down: Option<(ChannelId, Time)>,
}

impl MessageSpans {
    fn new(msg: MsgId, gen_time: Time) -> Self {
        MessageSpans {
            msg,
            gen_time,
            source_ready: None,
            hops: Vec::new(),
            bubbles: Vec::new(),
            deliveries: Vec::new(),
            torn_down: None,
        }
    }

    fn hop_mut(&mut self, ch: ChannelId) -> &mut HopTimes {
        let i = match self.hops.iter().position(|h| h.channel == ch) {
            Some(i) => i,
            None => {
                self.hops.push(HopTimes::new(ch));
                self.hops.len() - 1
            }
        };
        &mut self.hops[i]
    }

    /// The hop record for `ch`, if the message ever touched it.
    pub fn hop(&self, ch: ChannelId) -> Option<&HopTimes> {
        self.hops.iter().find(|h| h.channel == ch)
    }

    /// Reconstructs the channel chain from the source to `dest`, in
    /// travel order (injection channel first, consumption channel last).
    ///
    /// The worm's acquisitions form a tree rooted at the source, so the
    /// chain is recovered by walking upstream: from the consumption
    /// channel (the unique acquired channel whose topological destination
    /// is `dest`), repeatedly pair the current channel's request with the
    /// latest header arrival at the requesting router that does not
    /// follow it. Returns `None` if the message never reached `dest` or
    /// the trace is incomplete (e.g. tracing was off).
    pub fn path_to(&self, topo: &Topology, dest: NodeId) -> Option<Vec<HopTimes>> {
        let mut cur = *self
            .hops
            .iter()
            .find(|h| h.acquired.is_some() && topo.channel(h.channel).dst == dest)?;
        let mut rev = vec![cur];
        // The walk visits each tree edge at most once; cap it so a
        // malformed trace cannot loop.
        for _ in 0..self.hops.len() {
            let req = match cur.requested {
                // Injection channel: requested at the source processor
                // itself, which is the root of the tree.
                None => return Some(reversed(rev)),
                Some(t) => t,
            };
            let router = topo.channel(cur.channel).src;
            let prev = self
                .hops
                .iter()
                .filter(|h| topo.channel(h.channel).dst == router)
                .filter(|h| h.header_arrived.is_some_and(|v| v <= req))
                .max_by_key(|h| h.header_arrived)?;
            cur = *prev;
            rev.push(cur);
        }
        None
    }
}

fn reversed(mut v: Vec<HopTimes>) -> Vec<HopTimes> {
    v.reverse();
    v
}

/// Spans of every message of one run, plus network-level instants.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    /// One entry per message, indexed by [`MsgId`].
    pub messages: Vec<MessageSpans>,
    /// Link-death instants from the fault schedule: `(forward channel,
    /// when)`.
    pub link_downs: Vec<(ChannelId, Time)>,
}

impl SpanSet {
    /// Folds a run's trace into per-message spans. The outcome must come
    /// from a run with tracing enabled; with tracing off every message's
    /// span record is empty (but present).
    pub fn derive(out: &SimOutcome) -> SpanSet {
        let mut set = SpanSet {
            messages: out
                .messages
                .iter()
                .enumerate()
                .map(|(i, m)| MessageSpans::new(MsgId(i as u32), m.spec.gen_time))
                .collect(),
            link_downs: Vec::new(),
        };
        for e in &out.trace.events {
            match e {
                TraceEvent::SourceReady { msg, at, .. } => {
                    set.messages[msg.index()].source_ready = Some(*at);
                }
                TraceEvent::Requested {
                    msg, channels, at, ..
                } => {
                    let m = &mut set.messages[msg.index()];
                    for &c in channels.iter() {
                        m.hop_mut(c).requested = Some(*at);
                    }
                }
                TraceEvent::Acquired {
                    msg, channels, at, ..
                } => {
                    let m = &mut set.messages[msg.index()];
                    for &c in channels.iter() {
                        m.hop_mut(c).acquired = Some(*at);
                    }
                }
                TraceEvent::Released {
                    msg, channels, at, ..
                } => {
                    let m = &mut set.messages[msg.index()];
                    for &c in channels.iter() {
                        m.hop_mut(c).released = Some(*at);
                    }
                }
                TraceEvent::HeaderArrived { msg, channel, at } => {
                    let hop = set.messages[msg.index()].hop_mut(*channel);
                    if hop.header_arrived.is_none() {
                        hop.header_arrived = Some(*at);
                    }
                }
                TraceEvent::Bubble {
                    msg, channel, at, ..
                } => {
                    set.messages[msg.index()].bubbles.push((*channel, *at));
                }
                TraceEvent::DeliveredTail { msg, dest, at } => {
                    set.messages[msg.index()].deliveries.push((*dest, *at));
                }
                TraceEvent::TornDown { msg, channel, at } => {
                    set.messages[msg.index()].torn_down = Some((*channel, *at));
                }
                TraceEvent::LinkDown { channel, at } => {
                    set.link_downs.push((*channel, *at));
                }
            }
        }
        set
    }

    /// Spans of `msg`.
    pub fn of_msg(&self, msg: MsgId) -> &MessageSpans {
        &self.messages[msg.index()]
    }
}
