//! Simulation results: per-message records, counters, deadlock reports,
//! and typed simulation errors.

use crate::flit::MsgId;
use crate::message::MessageSpec;
use crate::routing::RouteError;
use desim::{Duration, Time};
use netgraph::{ChannelId, NodeId};
use std::fmt;

/// A typed, run-aborting simulation failure.
///
/// Silent misbehaviour in a simulator produces wrong science; crashing
/// deep inside the event loop produces undiagnosable logs. These errors
/// are the middle path: the engine stops the run at the first violation
/// and reports *what* went wrong and *where*, so e.g. a stale labeling on
/// a degraded network reads as "no legal move from s17 towards s3" rather
/// than a panic backtrace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The routing algorithm returned a typed failure for this header.
    Route {
        /// The affected message.
        msg: MsgId,
        /// The switch where routing failed.
        node: NodeId,
        /// The algorithm's error.
        error: RouteError,
    },
    /// A real flit reached a processor that is not among its message's
    /// destinations — the routing algorithm steered the worm wrong.
    Misroute {
        /// The misrouted message.
        msg: MsgId,
        /// The processor that wrongly received a flit.
        at: NodeId,
    },
    /// The routing algorithm returned an empty request set.
    EmptyDecision {
        /// The affected message.
        msg: MsgId,
        /// The deciding switch.
        node: NodeId,
    },
    /// The routing algorithm requested a channel that does not leave the
    /// deciding switch.
    ForeignChannel {
        /// The affected message.
        msg: MsgId,
        /// The deciding switch.
        node: NodeId,
        /// The offending channel.
        channel: ChannelId,
    },
    /// The routing algorithm requested the same channel twice in one
    /// decision.
    DuplicateRequest {
        /// The affected message.
        msg: MsgId,
        /// The deciding switch.
        node: NodeId,
        /// The twice-requested channel.
        channel: ChannelId,
    },
    /// The worm was holding (or requested) a channel that died mid-run —
    /// a live-reconfiguration fault event killed the message, releasing
    /// every channel it had reserved. Unlike the other variants this is a
    /// *per-message* failure, not a run abort: the surviving traffic keeps
    /// flowing and the message is recorded in
    /// [`MessageResult::failure`].
    TornDown {
        /// The killed message.
        msg: MsgId,
        /// The dead channel that doomed it.
        channel: ChannelId,
    },
    /// A completion hook submitted an invalid follow-up message (bad
    /// spec, or a generation time before the completion instant). The
    /// hook — not the engine or the routing algorithm — broke its
    /// contract; the run aborts with this diagnosis instead of panicking.
    HookSpec {
        /// The completed message whose hook misbehaved.
        msg: MsgId,
    },
}

crate::codec::snap_enum! { SimError, "unknown sim error tag";
    0 => Route { msg, node, error },
    1 => Misroute { msg, at },
    2 => EmptyDecision { msg, node },
    3 => ForeignChannel { msg, node, channel },
    4 => DuplicateRequest { msg, node, channel },
    5 => TornDown { msg, channel },
    6 => HookSpec { msg },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Route { msg, node, error } => {
                write!(f, "routing failed for {msg} at {node}: {error}")
            }
            SimError::Misroute { msg, at } => write!(f, "{msg} misrouted to {at}"),
            SimError::EmptyDecision { msg, node } => {
                write!(f, "routing returned no channels for {msg} at {node}")
            }
            SimError::ForeignChannel { msg, node, channel } => {
                write!(f, "{msg} requested {channel}, which does not leave {node}")
            }
            SimError::DuplicateRequest { msg, node, channel } => {
                write!(f, "{msg} requested {channel} twice at {node}")
            }
            SimError::TornDown { msg, channel } => {
                write!(f, "{msg} torn down: {channel} died mid-flight")
            }
            SimError::HookSpec { msg } => {
                write!(f, "completion hook for {msg} submitted an invalid message")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// How a message failed terminally in a live-reconfiguration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The worm was killed mid-flight: it held, requested, or ran into a
    /// channel that a fault event destroyed.
    TornDown,
    /// The message was rejected at its source before any flit moved: the
    /// current labeling cannot reach a destination (lost to the dead
    /// zone), or the source's own injection link is gone.
    Unreachable,
}

crate::codec::snap_enum! { FailureKind, "unknown failure kind";
    0 => TornDown,
    1 => Unreachable,
}

/// A per-message terminal failure (live-reconfiguration runs only; on a
/// static network messages either complete or the run deadlocks/aborts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageFailure {
    /// When the message was killed or rejected.
    pub at: Time,
    /// Coarse classification for accounting.
    pub kind: FailureKind,
    /// The precise typed reason ([`SimError::TornDown`], or
    /// [`SimError::Route`] for a routing dead-end / unreachable
    /// destination).
    pub error: SimError,
}

crate::codec::snap_struct! { MessageFailure { at, kind, error } }

/// Result of one message.
#[derive(Debug, Clone)]
pub struct MessageResult {
    /// The submitted spec.
    pub spec: MessageSpec,
    /// Tail arrival time at the last destination; `None` if the run ended
    /// (deadlock / event cap) before delivery completed.
    pub completed_at: Option<Time>,
    /// Per-destination tail arrival times, parallel to `spec.dests`.
    pub dest_done_at: Vec<Option<Time>>,
    /// Terminal failure, if a mid-run fault killed or rejected this
    /// message (`None` on static networks and for delivered messages).
    pub failure: Option<MessageFailure>,
}

impl MessageResult {
    /// End-to-end latency per the paper's §4 definition: from `gen_time`
    /// (send initiation, before startup) to the last tail arrival.
    pub fn latency(&self) -> Option<Duration> {
        self.completed_at.map(|t| t.since(self.spec.gen_time))
    }

    /// Latency to a particular destination.
    pub fn latency_to(&self, dest: NodeId) -> Option<Duration> {
        let i = self.spec.dests.iter().position(|d| *d == dest)?;
        self.dest_done_at[i].map(|t| t.since(self.spec.gen_time))
    }

    /// True once every destination received the tail flit.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// True when a mid-run fault killed this worm in flight.
    pub fn is_torn_down(&self) -> bool {
        self.failure
            .is_some_and(|f| f.kind == FailureKind::TornDown)
    }

    /// True when the message was rejected at the source as unreachable.
    pub fn is_unreachable(&self) -> bool {
        self.failure
            .is_some_and(|f| f.kind == FailureKind::Unreachable)
    }
}

/// Why and where a run was declared deadlocked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// Simulation time at detection.
    pub detected_at: Time,
    /// Last time any real flit made progress.
    pub last_progress: Time,
    /// Messages still incomplete at detection.
    pub stuck_messages: Vec<MsgId>,
    /// True when detection came from event-queue exhaustion (hard deadlock
    /// with no bubble traffic); false when the progress watchdog fired.
    pub queue_exhausted: bool,
}

/// Aggregate event/flit counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events processed by the engine loop.
    pub events: u64,
    /// Flit wire crossings (including bubbles).
    pub wire_transfers: u64,
    /// Bubble flits created at branch routers.
    pub bubbles_created: u64,
    /// Real flits absorbed by destination processors.
    pub flits_delivered: u64,
    /// Messages completed.
    pub messages_completed: u64,
    /// Channel acquisitions performed.
    pub acquisitions: u64,
    /// Segment/header-state lookups on the event path. Before the arena
    /// refactor each of these was a hash-map probe; now each is an array
    /// index into a slab — the counter sizes the per-event win.
    pub seg_lookups: u64,
    /// Messages killed mid-flight by a fault event (live runs only).
    pub messages_torn_down: u64,
    /// Messages rejected at the source as unreachable (live runs only).
    pub messages_unreachable: u64,
    /// Bidirectional links killed by fault events during the run.
    pub links_killed: u64,
    /// Which rare engine mechanisms the run exercised (novelty bitset +
    /// watermarks). Lives inside `Counters` so the queue-equivalence
    /// suite pins it identical across event-queue implementations.
    pub coverage: crate::coverage::CoverageSet,
}

// The coverage record is not among the counters' words: mid-run it lives
// with the observers, who write it (it is copied in here when a run ends).
crate::codec::snap_struct! { Counters {
    events, wire_transfers, bubbles_created, flits_delivered, messages_completed,
    acquisitions, seg_lookups, messages_torn_down, messages_unreachable, links_killed,
} derived { coverage: Default::default() } }

/// Everything a finished (or aborted) run reports.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-message results, indexed by [`MsgId`].
    pub messages: Vec<MessageResult>,
    /// Deadlock report, if the run did not complete cleanly.
    pub deadlock: Option<DeadlockInfo>,
    /// First simulation error, if the run was aborted on one (misroute,
    /// routing failure, or a routing-contract violation).
    pub error: Option<SimError>,
    /// Simulation clock at the end of the run.
    pub end_time: Time,
    /// True when the network drained completely: no deadlock, no
    /// run-aborting error, every channel idle and every segment and
    /// header retired when the event queue emptied. This is the fuzzer's
    /// quiescence oracle — stronger than `all_accounted`, which only
    /// checks per-message verdicts.
    pub quiescent: bool,
    /// Aggregate counters.
    pub counters: Counters,
    /// Flits (real + bubble) that crossed each channel, indexed by
    /// [`netgraph::ChannelId`] — per-channel utilization.
    pub channel_crossings: Vec<u64>,
    /// Sorted, deduplicated times at which fault events fired — the epoch
    /// boundaries of a live-reconfiguration run (empty on static runs).
    pub fault_times: Vec<Time>,
    /// Protocol-level trace (empty unless tracing was enabled).
    pub trace: crate::trace::Trace,
    /// Fabric telemetry — gauge time-series plus per-channel congestion
    /// accumulators (`None` unless
    /// [`NetworkSim::enable_metrics`](crate::NetworkSim::enable_metrics)
    /// was called). A pure observer: every other field of this outcome is
    /// byte-identical with metrics on or off.
    pub metrics: Option<spam_metrics::RunMetrics>,
}

/// Per-epoch accounting of a live-reconfiguration run: epoch `e` covers
/// messages generated in `[fault_times[e-1], fault_times[e])` (epoch 0
/// starts at time zero, the last epoch is unbounded).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0 = before the first fault).
    pub epoch: usize,
    /// Messages generated during this epoch.
    pub submitted: u64,
    /// ... of which fully delivered.
    pub delivered: u64,
    /// ... of which killed mid-flight by a later (or same-instant) fault.
    pub torn_down: u64,
    /// ... of which rejected at the source as unreachable.
    pub unreachable: u64,
    /// Mean end-to-end latency (µs) of the delivered ones.
    pub mean_latency_us: Option<f64>,
}

impl SimOutcome {
    /// True when every message completed with no deadlock and no error.
    pub fn all_delivered(&self) -> bool {
        self.deadlock.is_none()
            && self.error.is_none()
            && self.messages.iter().all(|m| m.is_complete())
    }

    /// True when the run ended cleanly (no deadlock, no run-aborting
    /// error) and every message is *accounted for* — delivered, torn
    /// down, or unreachable. This is the success criterion for a
    /// live-reconfiguration run, where teardown casualties are expected.
    pub fn all_accounted(&self) -> bool {
        self.deadlock.is_none()
            && self.error.is_none()
            && self
                .messages
                .iter()
                .all(|m| m.is_complete() || m.failure.is_some())
    }

    /// Fraction of submitted messages that were fully delivered.
    pub fn delivered_fraction(&self) -> f64 {
        if self.messages.is_empty() {
            return 1.0;
        }
        let done = self.messages.iter().filter(|m| m.is_complete()).count();
        done as f64 / self.messages.len() as f64
    }

    /// Number of routing epochs the run passed through (fault boundaries
    /// plus one).
    pub fn num_epochs(&self) -> usize {
        self.fault_times.len() + 1
    }

    /// The epoch a message generated at `t` belongs to: messages generated
    /// at or after a fault instant route on the post-fault labeling.
    pub fn epoch_of(&self, t: Time) -> usize {
        self.fault_times.partition_point(|&ft| ft <= t)
    }

    /// Per-epoch delivered / torn-down / unreachable accounting, keyed by
    /// each message's generation time.
    pub fn epoch_stats(&self) -> Vec<EpochStats> {
        let mut stats: Vec<EpochStats> = (0..self.num_epochs())
            .map(|epoch| EpochStats {
                epoch,
                submitted: 0,
                delivered: 0,
                torn_down: 0,
                unreachable: 0,
                mean_latency_us: None,
            })
            .collect();
        let mut lat_sum = vec![0.0f64; self.num_epochs()];
        for m in &self.messages {
            let e = self.epoch_of(m.spec.gen_time);
            stats[e].submitted += 1;
            if let Some(l) = m.latency() {
                stats[e].delivered += 1;
                lat_sum[e] += l.as_us_f64();
            } else if m.is_torn_down() {
                stats[e].torn_down += 1;
            } else if m.is_unreachable() {
                stats[e].unreachable += 1;
            }
        }
        for (s, sum) in stats.iter_mut().zip(lat_sum) {
            if s.delivered > 0 {
                s.mean_latency_us = Some(sum / s.delivered as f64);
            }
        }
        stats
    }

    /// Mean latency in microseconds over completed messages matching
    /// `filter` (e.g. only multicasts, only a warm-up-excluded window).
    pub fn mean_latency_us(&self, filter: impl Fn(&MessageResult) -> bool) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for m in &self.messages {
            if let Some(l) = m.latency() {
                if filter(m) {
                    sum += l.as_us_f64();
                    n += 1;
                }
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Latencies (µs) of completed messages matching `filter`.
    pub fn latencies_us(&self, filter: impl Fn(&MessageResult) -> bool) -> Vec<f64> {
        self.messages
            .iter()
            .filter(|m| filter(m))
            .filter_map(|m| m.latency().map(|l| l.as_us_f64()))
            .collect()
    }

    /// The `k` busiest channels as `(channel, crossings)`, descending.
    pub fn hottest_channels(&self, k: usize) -> Vec<(netgraph::ChannelId, u64)> {
        let mut v: Vec<(netgraph::ChannelId, u64)> = self
            .channel_crossings
            .iter()
            .enumerate()
            .map(|(i, &c)| (netgraph::ChannelId(i as u32), c))
            .collect();
        v.sort_by_key(|&(id, c)| (std::cmp::Reverse(c), id));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(gen_us: u64, done_us: Option<u64>) -> MessageResult {
        MessageResult {
            spec: MessageSpec::unicast(NodeId(10), NodeId(11), 8).at(Time::from_us(gen_us)),
            completed_at: done_us.map(Time::from_us),
            dest_done_at: vec![done_us.map(Time::from_us)],
            failure: None,
        }
    }

    #[test]
    fn latency_measured_from_generation() {
        let r = result(5, Some(18));
        assert_eq!(r.latency(), Some(Duration::from_us(13)));
        assert_eq!(r.latency_to(NodeId(11)), Some(Duration::from_us(13)));
        assert_eq!(r.latency_to(NodeId(99)), None);
        assert!(r.is_complete());
        assert!(!result(5, None).is_complete());
    }

    #[test]
    fn outcome_aggregations() {
        let out = SimOutcome {
            messages: vec![result(0, Some(10)), result(0, Some(20)), result(0, None)],
            deadlock: None,
            error: None,
            end_time: Time::from_us(20),
            quiescent: true,
            counters: Counters::default(),
            channel_crossings: vec![5, 9, 1],
            fault_times: Vec::new(),
            trace: Default::default(),
            metrics: None,
        };
        assert!(!out.all_delivered(), "one message incomplete");
        assert_eq!(out.mean_latency_us(|_| true), Some(15.0));
        assert_eq!(out.latencies_us(|_| true), vec![10.0, 20.0]);
        assert_eq!(out.mean_latency_us(|_| false), None);
        assert_eq!(
            out.hottest_channels(2),
            vec![(NodeId(1).0.into(), 9), (netgraph::ChannelId(0), 5)]
        );
    }

    #[test]
    fn epoch_accounting_classifies_by_generation_time() {
        use crate::routing::RouteError;
        let mut torn = result(12, None);
        torn.failure = Some(MessageFailure {
            at: Time::from_us(14),
            kind: FailureKind::TornDown,
            error: SimError::TornDown {
                msg: MsgId(1),
                channel: ChannelId(4),
            },
        });
        let mut unreach = result(15, None);
        unreach.failure = Some(MessageFailure {
            at: Time::from_us(15),
            kind: FailureKind::Unreachable,
            error: SimError::Route {
                msg: MsgId(2),
                node: NodeId(10),
                error: RouteError::UnreachableDestination { dest: NodeId(11) },
            },
        });
        let out = SimOutcome {
            messages: vec![result(0, Some(10)), torn, unreach, result(20, Some(33))],
            deadlock: None,
            error: None,
            end_time: Time::from_us(33),
            quiescent: true,
            counters: Counters::default(),
            channel_crossings: vec![],
            fault_times: vec![Time::from_us(13)],
            trace: Default::default(),
            metrics: None,
        };
        assert_eq!(out.num_epochs(), 2);
        assert_eq!(out.epoch_of(Time::from_us(12)), 0);
        assert_eq!(
            out.epoch_of(Time::from_us(13)),
            1,
            "the fault instant belongs to the new epoch"
        );
        assert!(out.all_accounted(), "every message has a verdict");
        assert!(!out.all_delivered());
        assert_eq!(out.delivered_fraction(), 0.5);
        let stats = out.epoch_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            (stats[0].submitted, stats[0].delivered, stats[0].torn_down),
            (2, 1, 1)
        );
        assert_eq!(stats[0].mean_latency_us, Some(10.0));
        assert_eq!(
            (stats[1].submitted, stats[1].delivered, stats[1].unreachable),
            (2, 1, 1)
        );
        assert_eq!(stats[1].mean_latency_us, Some(13.0));
        // The torn message carries the typed TornDown error.
        assert!(out.messages[1].is_torn_down());
        assert!(!out.messages[1].is_unreachable());
        assert!(out.messages[2].is_unreachable());
        assert!(matches!(
            out.messages[1].failure.unwrap().error,
            SimError::TornDown { .. }
        ));
    }
}
