//! The event-driven simulation engine.
//!
//! Three event types consume simulated time — message startup completion
//! (`SourceReady`), routing-decision completion (`RouteDecision`, one
//! router-setup latency after a header arrives at a switch), and wire
//! transfer completion (`WireDone`, one channel-propagation latency per
//! flit). Everything else — OCRQ acquisition, flit replication from input
//! to output buffers, bubble injection, channel release — is an
//! instantaneous state transition that follows synchronously from those events,
//! matching the §4 cost model where only startup, router setup, and channel
//! propagation carry latency. The last two are constant delays from "now",
//! scheduled with [`Schedule::after`]: under the default
//! [`desim::QueueKind::Bucket`] each has its own FIFO lane, and only
//! `SourceReady` and the fault timeline's `LinkDown` go through the heap.
//!
//! A message's presence at a router is a **segment**, keyed by the channel
//! its flits arrive on (or by the message itself at its source). Keying by
//! input channel — not by node — matters: a legal SPAM walk under a
//! non-greedy selection policy may pass through the same switch twice
//! (e.g. up through it early, down through it later). Phase monotonicity
//! guarantees the two traversals use distinct input and output channels, so
//! per-channel segments model the physical router exactly.
//!
//! ## Hot-path layout
//!
//! Segments live in a generation-indexed [`Slab`]; the OCRQ entry that
//! must find its requesting segment, the channel owner that refills a
//! freed wire slot, the per-channel header state consumed at a routing
//! decision and the bubble-candidate list each carry a [`SlotId`] and
//! resolve it with one array index. Intrusive indices keep the
//! cross-references navigable both ways: each channel records the transit
//! segment it feeds (`Chan::seg`) and the header states parked at its
//! receiving end (`Chan::hdrs`). A message keeps no list of its segments:
//! each segment names its message, and the slab holds only the segments
//! of worms in flight, so teardown reads a victim's off the slab in
//! ascending slot order — the order it frees them in, and so the order
//! the slab hands them out again, whether or not the run was restored.
//! Generations make stale handles (a released segment still in the
//! bubble-candidate list) resolve to `None` instead of aliasing a reused
//! slot.
//!
//! Channel queues follow the same rule of one arena per kind of thing: the
//! output buffer, input buffer and OCRQ of every channel are
//! [`spam_collections::Fifo`] handles that hold their oldest entry and
//! chain the rest through two engine-wide [`FifoPool`]s (flits, requests).
//! Building a simulator allocates the same few blocks for 74 channels as
//! for 5 924, a channel's first contention allocates nothing, and the
//! pools grow with what is actually queued — a configured buffer depth is
//! a limit lengths are compared to, never a reservation. Pool cell indices
//! stay inside the pools: the snapshot codec walks each queue in order, so
//! snapshot bytes, digests and traces do not depend on where a flit's cell
//! happens to sit.
//!
//! Per-message state is kept the same way. A message's destination states
//! and its sorted destination index are runs of two engine-wide vectors
//! (`dests`, `dest_index`, from `MsgState::dests_at`), and its spec holds
//! up to eight destinations in place ([`crate::Dests`]). The outcome keeps
//! the layout and the blocks: its message list takes over the block of
//! `msgs`, and its delivery times, one run per message in one flat
//! [`SimOutcome::dest_done_at`], the block of `dests` (each state is the
//! size of what it becomes). So a message of up to eight destinations
//! allocates nothing from submit to outcome: it is an entry in arenas
//! that grow by doubling, or not at all once [`NetworkSim::reserve`] has
//! sized them for the stream.
//!
//! Per flit, `try_replicate` looks its segment up once and keeps it
//! borrowed while the flit moves to every output; wires start through
//! `start_wire`, a function of the fields it touches rather than a
//! `&mut self` method, so the borrow can stay. Whether a channel ends at a
//! processor — asked on every input-buffer drain — is a bit in the
//! per-channel flags byte beside the death mask (`ChanFlags`).
//!
//! The run loop tests the event cap before every event, but the watchdog
//! and the observer drain (telemetry ticks, checkpoints) only before the
//! first event of each simulated instant, in the order watchdog → cap →
//! drain. Later in the same instant neither can fire: an event only ever
//! sets `last_progress` to the current time, `active` only rises in
//! `on_source_ready`, which also sets `last_progress` to now, and the
//! tickers have nothing more due through an instant they were drained to.
//! Whether an event opens an instant is known for free: the loop already
//! peeks at the next timestamp to decide when to flush bubbles.
//!
//! ## The fault path
//!
//! A live run (one with scheduled faults) keeps `tracked`: the channels
//! that may hold worm state, ascending, with a third flags bit marking
//! membership. A channel joins at its first OCRQ entry — `enqueue` is the
//! only way a worm reaches a channel — and leaves when a wake finds it
//! quiescent, so every channel outside the list is quiescent. Teardown's
//! header and flit purge and the post-fault wake of survivors walk this
//! list instead of the fabric, in the same ascending order a full scan
//! would take: a full scan's extra visits are to quiescent channels, where
//! they do nothing. A fault therefore costs what it touches. Static runs
//! never tear down or wake, and track nothing.

use crate::channel::Chan;
use crate::codec::{snap_enum, snap_struct, IdSpace, Snap};
use crate::config::SimConfig;
use crate::flit::{Flit, FlitKind, MsgId};
use crate::message::{MessageSpec, SpecError};
use crate::outcome::{
    Counters, DeadlockInfo, FailureKind, MessageFailure, MessageResult, SimError, SimOutcome,
};
use crate::routing::{CompletionHook, NoHook, RouteDecision, RoutingAlgorithm};
use desim::{Schedule, Time};
use netgraph::{ChannelId, NodeId, Topology};
use observe::{Casualty, Observers};
use spam_collections::{FifoPool, InlineVec, Slab, SlotId};
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::cell::OnceCell;
use std::ops::Range;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Startup latency elapsed; the worm is ready at its source processor.
    SourceReady(MsgId),
    /// Router-setup latency elapsed for a header waiting at the receiving
    /// end of `in_ch`.
    RouteDecision { msg: MsgId, in_ch: ChannelId },
    /// A flit finished crossing this channel's wire.
    WireDone(ChannelId),
    /// A scheduled fault: the bidirectional link containing this channel
    /// dies now, tearing down every worm that holds it.
    LinkDown(ChannelId),
}

snap_enum! { Event, "unknown event tag";
    0 => SourceReady(msg),
    1 => RouteDecision { msg, in_ch },
    2 => WireDone(ch),
    3 => LinkDown(ch),
}

/// Where a segment's flits come from.
#[derive(Debug, Clone, Copy)]
enum SegInput {
    /// The source processor synthesizes the worm; `next` is the sequence
    /// number of the next flit to emit.
    Source { next: u32 },
    /// Flits arrive in the input buffer of this channel.
    Channel(ChannelId),
}

snap_enum! { SegInput, "unknown segment input tag";
    0 => Source { next },
    1 => Channel(ch),
}

/// One traversal's state: the owning message, input side, and the output
/// channels it has requested (and, once `acquired`, owns). Output lists
/// stay inline up to four channels — a unicast hop requests one, a branch
/// router one per destination subtree — so the common case never touches
/// the heap.
#[derive(Debug)]
struct Segment {
    msg: MsgId,
    input: SegInput,
    outputs: InlineVec<ChannelId, 4>,
    acquired: bool,
    /// In `bubble_candidates`: set when the slot is pushed there, cleared
    /// when `flush_bubbles` pops it. The list is empty at every
    /// checkpoint, so a snapshot need not write it.
    candidate: bool,
}

snap_struct! { Segment { msg, input, outputs, acquired } derived { candidate: false } }

/// One destination's delivery state. It is the size of the
/// `Option<Time>` it becomes (16 bytes): the outcome's delivery times take
/// over the `dests` arena's block as it is.
#[derive(Debug, Clone, Copy)]
struct DestState {
    /// Sequence number the destination expects next (in-order invariant).
    next_seq: u32,
    /// Whether the tail arrived, at `at`.
    done: bool,
    at: Time,
}

const FRESH_DEST: DestState = DestState {
    next_seq: 0,
    done: false,
    at: Time::ZERO,
};

impl DestState {
    /// When the tail arrived, if it has.
    fn done_at(self) -> Option<Time> {
        self.done.then_some(self.at)
    }
}

/// Written as the expected sequence number and the optional arrival time.
impl Snap for DestState {
    fn put(&self, w: &mut SnapWriter) {
        self.next_seq.put(w);
        self.done_at().put(w);
    }
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
        let next_seq = u32::get(r, ids)?;
        let done_at = Option::<Time>::get(r, ids)?;
        Ok(DestState {
            next_seq,
            done: done_at.is_some(),
            at: done_at.unwrap_or(Time::ZERO),
        })
    }
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<DestState>() == std::mem::size_of::<Option<Time>>());

/// A message's state. `remaining` is an index: a snapshot does not write
/// it, and `restore` rebuilds it.
///
/// It is the size of the [`MessageResult`] it becomes (128 bytes), so the
/// outcome's message list takes over this table's block as it is: the
/// worm's length is not kept but derived ([`NetworkSim::worm_len`]), and
/// the two arena fields are `u32`s.
struct MsgState {
    spec: MessageSpec,
    /// Where this message's run starts in the engine's per-destination
    /// arenas ([`NetworkSim::dests`], [`NetworkSim::dest_index`]); the run
    /// is `spec.dests.len()` long in both.
    dests_at: u32,
    /// Destinations the tail has not reached yet.
    remaining: u32,
    completed_at: Option<Time>,
    /// Set when a mid-run fault killed or rejected this message.
    failure: Option<MessageFailure>,
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<MsgState>() == std::mem::size_of::<MessageResult>());

impl MsgState {
    /// A message not yet started, its run in the arenas at `dests_at`.
    fn new(spec: MessageSpec, dests_at: usize) -> Self {
        MsgState {
            remaining: spec.dests.len() as u32,
            spec,
            dests_at: dests_at as u32,
            completed_at: None,
            failure: None,
        }
    }

    /// This message's run in the per-destination arenas.
    fn dest_run(&self) -> Range<usize> {
        let at = self.dests_at as usize;
        at..at + self.spec.dests.len()
    }
}

/// Appends `spec`'s run to the destination index: `(destination, index
/// into spec.dests)` sorted by node id for binary search — the
/// per-delivered-flit lookup, hash-free. Derived, so a snapshot omits it.
fn index_dests(index: &mut Vec<(NodeId, u32)>, spec: &MessageSpec) {
    let at = index.len();
    index.extend(spec.dests.iter().enumerate().map(|(i, &d)| (d, i as u32)));
    index[at..].sort_unstable_by_key(|&(d, _)| d);
}

/// One flags byte per channel: the live-reconfiguration death mask,
/// whether the channel ends at a processor — asked every time an input
/// buffer is drained, so kept beside the mask rather than asked of the
/// topology (two dependent lookups) each time — and membership of
/// [`NetworkSim::tracked`].
struct ChanFlags(Vec<u8>);

impl ChanFlags {
    const DEAD: u8 = 1;
    const TO_PROCESSOR: u8 = 2;
    const TRACKED: u8 = 4;

    fn of(topo: &Topology) -> Self {
        ChanFlags(
            (0..topo.num_channels())
                .map(|i| {
                    if topo.is_processor(topo.channel(ChannelId(i as u32)).dst) {
                        Self::TO_PROCESSOR
                    } else {
                        0
                    }
                })
                .collect(),
        )
    }

    #[inline]
    fn dead(&self, ch: ChannelId) -> bool {
        self.0[ch.index()] & Self::DEAD != 0
    }

    fn kill(&mut self, ch: ChannelId) {
        self.0[ch.index()] |= Self::DEAD;
    }

    #[inline]
    fn to_processor(&self, ch: ChannelId) -> bool {
        self.0[ch.index()] & Self::TO_PROCESSOR != 0
    }

    #[inline]
    fn tracked(&self, ch: ChannelId) -> bool {
        self.0[ch.index()] & Self::TRACKED != 0
    }

    fn set_tracked(&mut self, ch: ChannelId, on: bool) {
        if on {
            self.0[ch.index()] |= Self::TRACKED;
        } else {
            self.0[ch.index()] &= !Self::TRACKED;
        }
    }
}

/// The flit-level wormhole network simulator. See the crate docs for the
/// modelled mechanics and [`crate::SimConfig`] for parameters.
pub struct NetworkSim<'a, R: RoutingAlgorithm> {
    topo: &'a Topology,
    routing: R,
    cfg: SimConfig,
    sched: Schedule<Event>,
    chans: Vec<Chan>,
    /// Cells for flits queued behind the head of any [`Chan::out_buf`] or
    /// [`Chan::in_buf`] (none at all with single-flit buffers).
    flits: FifoPool<Flit>,
    /// Cells for requests waiting behind the head of any [`Chan::ocrq`].
    requests: FifoPool<(MsgId, SlotId)>,
    msgs: Vec<MsgState>,
    /// Delivery state of every destination of every message, one run per
    /// message ([`MsgState::dests_at`]).
    dests: Vec<DestState>,
    /// The runs [`index_dests`] builds, parallel to `dests`.
    dest_index: Vec<(NodeId, u32)>,
    /// Arena of live worm-router traversals; all cross-references into it
    /// ([`Chan::ocrq`], [`Chan::owner`], [`Chan::seg`], `bubble_candidates`)
    /// are generation-checked [`SlotId`]s.
    segs: Slab<Segment>,
    /// Arena of in-flight header states (`R::Header` travels with the worm
    /// between routing decisions); indexed from [`Chan::hdrs`].
    headers: Slab<R::Header>,
    /// The routing algorithm's reusable working memory (one per run).
    route_scratch: R::Scratch,
    /// Reused output buffer for routing decisions.
    route_out: RouteDecision<R::Header>,
    /// Reused buffer for the messages a link-down tears down.
    victims: Vec<MsgId>,
    /// Reused buffer for the segments of the worm a teardown retires.
    victim_segs: Vec<SlotId>,
    counters: Counters,
    /// First simulation error; set once, aborts the run at the next event
    /// boundary (state mutated within the failing instant is not rolled
    /// back — the outcome is diagnostic, not resumable).
    error: Option<SimError>,
    last_progress: Time,
    /// Messages past startup but neither delivered nor failed (an index).
    active: usize,
    /// Completed messages whose hook has not run yet; drained after each
    /// event, so empty whenever a snapshot can be taken.
    pending_completions: Vec<MsgId>,
    /// Trace, telemetry, coverage and the checkpointer: every recorder
    /// that watches the run without taking part in it. The protocol code
    /// below names each step once, as one call on this seam.
    obs: Observers,
    /// Branch segments that found a sibling output blocked during this
    /// simulated instant. Bubble insertion is deferred to the end of the
    /// instant: hardware replicates at cycle boundaries where all buffers
    /// freed in the same cycle are seen free *together*, while our events
    /// within one timestamp fire serially — inserting a bubble eagerly
    /// would steal a slot that the real flit could claim a few events
    /// later in the same instant, livelocking symmetric branches. Empty
    /// between instants, so never in a snapshot. A live segment is listed
    /// at most once, by its [`Segment::candidate`] flag.
    bubble_candidates: Vec<SlotId>,
    /// Per-channel death mask for live-reconfiguration runs (no channel
    /// dead on static networks) and the processor-end bit. A dead channel
    /// carries nothing: in-flight flits are lost at the wire, and any worm
    /// touching it is torn down.
    flags: ChanFlags,
    /// Sorted, deduplicated times of scheduled fault events — the epoch
    /// boundaries reported on the outcome. Non-empty iff this is a
    /// live-reconfiguration run, which switches routing failures from
    /// run-aborting to per-message (teardown / unreachable).
    fault_times: Vec<Time>,
    /// Live runs only: every channel that may hold worm state, ascending
    /// and without repeats ([`ChanFlags::TRACKED`] marks membership). A
    /// channel joins at its first OCRQ entry and leaves when a wake finds
    /// it quiescent, so every channel outside the list is quiescent — the
    /// fault path walks this list instead of the fabric.
    tracked: Vec<ChannelId>,
    /// The topology's snapshot fingerprint, hashed at the first snapshot
    /// or restore and kept: it reads every channel, more bytes than a
    /// whole snapshot holds.
    topo_fp: OnceCell<u64>,
}

impl<'a, R: RoutingAlgorithm> NetworkSim<'a, R> {
    /// Creates a simulator over `topo` driven by `routing`.
    pub fn new(topo: &'a Topology, routing: R, cfg: SimConfig) -> Self {
        NetworkSim {
            topo,
            routing,
            sched: Schedule::with_kind(cfg.resolved_queue()),
            obs: Observers::new(&cfg),
            cfg,
            // Cloning one idle channel fills the table about twice as fast
            // as building each in turn (7 vs 15 ns per channel, measured).
            chans: vec![Chan::default(); topo.num_channels()],
            flits: FifoPool::new(),
            requests: FifoPool::new(),
            msgs: Vec::new(),
            dests: Vec::new(),
            dest_index: Vec::new(),
            segs: Slab::new(),
            headers: Slab::new(),
            route_scratch: R::Scratch::default(),
            route_out: RouteDecision::default(),
            victims: Vec::new(),
            victim_segs: Vec::new(),
            counters: Counters::default(),
            error: None,
            last_progress: Time::ZERO,
            active: 0,
            pending_completions: Vec::new(),
            bubble_candidates: Vec::new(),
            flags: ChanFlags::of(topo),
            fault_times: Vec::new(),
            tracked: Vec::new(),
            topo_fp: OnceCell::new(),
        }
    }

    /// Schedules the bidirectional link containing `link` to die at `at`
    /// (clamped to the current time). From that instant on the link
    /// carries nothing; every worm holding, waiting on, or routing into
    /// either direction is torn down with [`SimError::TornDown`].
    ///
    /// Scheduling any fault switches the run into **live-reconfiguration
    /// mode**: routing failures no longer abort the run but fail the
    /// affected message ([`MessageFailure`] on its result), and fault
    /// instants become epoch boundaries in [`SimOutcome::fault_times`].
    pub fn schedule_link_down(&mut self, at: Time, link: ChannelId) {
        assert!(
            link.index() < self.topo.num_channels(),
            "{link} is not a channel of this topology"
        );
        let at = at.max(self.sched.now());
        self.sched.at_or_now(at, Event::LinkDown(link));
        if let Err(pos) = self.fault_times.binary_search(&at) {
            self.fault_times.insert(pos, at);
        }
    }

    /// Schedules switch `s` to die at `at`: every link incident to it dies
    /// in one instant (stranding its processor). See
    /// [`Self::schedule_link_down`].
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a switch.
    pub fn schedule_switch_down(&mut self, at: Time, s: NodeId) {
        assert!(self.topo.is_switch(s), "{s} is not a switch");
        for &c in self.topo.out_channels(s) {
            self.schedule_link_down(at, c);
        }
    }

    /// True when fault events are scheduled: per-message failure semantics
    /// instead of run-aborting errors.
    fn live_mode(&self) -> bool {
        !self.fault_times.is_empty()
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Makes room for `messages` more messages of `dests` destinations in
    /// all, so that submitting a stream of known size fills the message
    /// and destination arenas and the event heap once instead of growing
    /// them by doubling.
    pub fn reserve(&mut self, messages: usize, dests: usize) {
        self.msgs.reserve(messages);
        self.dests.reserve(dests);
        self.dest_index.reserve(dests);
        self.sched.reserve(messages);
    }

    /// Submits a message. `spec.gen_time` must not be in the simulator's
    /// past. Returns the message id used in the outcome.
    pub fn submit(&mut self, spec: MessageSpec) -> Result<MsgId, SpecError> {
        spec.validate(self.topo)?;
        assert!(
            spec.gen_time >= self.sched.now(),
            "message generated in the past"
        );
        let id = MsgId(self.msgs.len() as u32);
        let dests_at = self.dests.len();
        self.dests.resize(dests_at + spec.dests.len(), FRESH_DEST);
        index_dests(&mut self.dest_index, &spec);
        let ready_at = spec.gen_time + self.cfg.latency.startup;
        self.sched.at(ready_at, Event::SourceReady(id));
        self.msgs.push(MsgState::new(spec, dests_at));
        Ok(id)
    }

    /// Flits of `msg`'s worm on the wire: its length plus any extra header
    /// flits.
    fn worm_len(&self, msg: MsgId) -> u32 {
        self.msgs[msg.index()].spec.len + self.cfg.extra_header_flits
    }

    /// Runs to completion (or deadlock) with no completion hook.
    pub fn run(self) -> SimOutcome {
        self.run_with_hook(&mut NoHook)
    }

    /// Runs to completion (or deadlock). The hook fires once per completed
    /// message and may inject follow-up messages.
    pub fn run_with_hook(mut self, hook: &mut dyn CompletionHook) -> SimOutcome {
        let mut deadlock: Option<DeadlockInfo> = None;
        let mut next = self.sched.peek_time();
        // The next event is its instant's first: the watchdog and the
        // observers look only then (see "Hot-path layout").
        let mut opens_instant = true;
        while let Some(next_time) = next {
            // Watchdog: real-flit progress must occur while work is active.
            if opens_instant
                && self.active > 0
                && next_time.saturating_since(self.last_progress) > self.cfg.watchdog
            {
                deadlock = Some(self.deadlock_info(next_time, false));
                break;
            }
            if self.counters.events >= self.cfg.max_events {
                deadlock = Some(self.deadlock_info(next_time, false));
                break;
            }
            if opens_instant {
                self.observe_through(next_time, &*hook);
            }
            let (t, ev) = self.sched.next().expect("peeked event exists");
            self.counters.events += 1;
            self.handle(t, ev);
            if self.error.is_some() {
                break;
            }
            // Completion hooks run between events; they may submit. A
            // hook that breaks its contract (invalid spec, or a
            // generation time before the completion instant) aborts the
            // run with a typed error, never a panic.
            'hooks: while let Some(m) = self.pending_completions.pop() {
                let specs = hook.on_complete(m, &self.msgs[m.index()].spec, t);
                for s in specs {
                    if s.gen_time < t || self.submit(s).is_err() {
                        self.fail(SimError::HookSpec { msg: m });
                        break 'hooks;
                    }
                }
            }
            if self.error.is_some() {
                break;
            }
            // End of this simulated instant: resolve deferred bubbles, then
            // look again at what comes next.
            next = self.sched.peek_time();
            opens_instant = next != Some(t);
            if opens_instant {
                self.flush_bubbles(t);
                next = self.sched.peek_time();
            }
        }
        if deadlock.is_none()
            && self.error.is_none()
            && self
                .msgs
                .iter()
                .any(|m| m.completed_at.is_none() && m.failure.is_none())
        {
            let now = self.sched.now();
            deadlock = Some(self.deadlock_info(now, true));
        }
        if deadlock.is_none() && self.error.is_none() {
            // Resource-hygiene invariant, covering teardowns too: a clean
            // end (every message delivered or failed) leaves no reserved
            // channel, no OCRQ entry, no segment, and no header state
            // behind.
            debug_assert!(self.chans.iter().all(|c| c.is_quiescent()));
            debug_assert!(self.segs.is_empty());
            debug_assert!(self.headers.is_empty());
        }
        let (trace, metrics) = self.finish_observers(deadlock.as_ref());
        let quiescent = deadlock.is_none()
            && self.error.is_none()
            && self.chans.iter().all(|c| c.is_quiescent())
            && self.segs.is_empty()
            && self.headers.is_empty();
        let messages = self
            .msgs
            .into_iter()
            .map(|m| MessageResult {
                spec: m.spec,
                completed_at: m.completed_at,
                dests_at: m.dests_at as usize,
                failure: m.failure,
            })
            .collect();
        SimOutcome {
            messages,
            dest_done_at: self.dests.into_iter().map(DestState::done_at).collect(),
            deadlock,
            error: self.error.take(),
            end_time: self.sched.now(),
            quiescent,
            counters: self.counters,
            channel_crossings: self.chans.iter().map(|c| c.crossings).collect(),
            fault_times: std::mem::take(&mut self.fault_times),
            trace,
            metrics,
        }
    }

    /// Records the first simulation error; the run loop aborts at the next
    /// event boundary.
    fn fail(&mut self, e: SimError) {
        self.obs.error(&e);
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn deadlock_info(&self, at: Time, queue_exhausted: bool) -> DeadlockInfo {
        DeadlockInfo {
            detected_at: at,
            last_progress: self.last_progress,
            stuck_messages: self
                .msgs
                .iter()
                .enumerate()
                .filter(|(_, m)| m.completed_at.is_none() && m.failure.is_none())
                .map(|(i, _)| MsgId(i as u32))
                .collect(),
            queue_exhausted,
        }
    }

    fn handle(&mut self, now: Time, ev: Event) {
        match ev {
            Event::SourceReady(msg) => self.on_source_ready(now, msg),
            Event::RouteDecision { msg, in_ch } => self.on_route_decision(now, msg, in_ch),
            Event::WireDone(ch) => self.on_wire_done(now, ch),
            Event::LinkDown(ch) => self.on_link_down(now, ch),
        }
    }

    fn on_source_ready(&mut self, now: Time, msg: MsgId) {
        self.active += 1;
        self.last_progress = now;
        let src = self.msgs[msg.index()].spec.src;
        self.obs.source_ready(msg, src, now);
        let out = self.topo.out_channels(src);
        // Spec validation rejects detached sources at submit time.
        assert_eq!(out.len(), 1, "source {src} must be an attached processor");
        let inj = out[0];
        let header = match self.routing.initial_header(&self.msgs[msg.index()].spec) {
            Ok(h) => h,
            Err(error) => {
                let error = SimError::Route {
                    msg,
                    node: src,
                    error,
                };
                if self.live_mode() {
                    // A destination lost to the dead zone: this message is
                    // unreachable; the rest of the traffic keeps flowing.
                    self.obs.unreachable_at_source(&error);
                    self.msgs[msg.index()].failure = Some(MessageFailure {
                        at: now,
                        kind: FailureKind::Unreachable,
                        error,
                    });
                    self.counters.messages_unreachable += 1;
                    self.active -= 1;
                    return;
                }
                // Static network: abort with a typed error before any flit
                // enters the network.
                return self.fail(error);
            }
        };
        if self.flags.dead(inj) {
            // The source's own injection link died: the worm cannot even
            // enter the network. Nothing was reserved yet.
            self.teardown(
                now,
                msg,
                SimError::TornDown { msg, channel: inj },
                Casualty::InjectionDead,
            );
            return;
        }
        if self.topo.is_switch(self.topo.channel(inj).dst) {
            let hid = self.headers.insert(header);
            self.chans[inj.index()].hdrs.push((msg, hid));
        }
        let sid = self.segs.insert(Segment {
            msg,
            input: SegInput::Source { next: 0 },
            outputs: InlineVec::from_slice(&[inj]),
            acquired: false,
            candidate: false,
        });
        self.enqueue(now, inj, msg, sid);
        self.try_acquire(now, sid);
    }

    /// Appends `(msg, sid)` to `ch`'s OCRQ — the only way a worm reaches a
    /// channel, so in a live run this is where the channel is tracked.
    fn enqueue(&mut self, now: Time, ch: ChannelId, msg: MsgId, sid: SlotId) {
        self.obs.enqueue(&self.chans, ch, now);
        self.requests
            .push_back(&mut self.chans[ch.index()].ocrq, (msg, sid));
        if self.live_mode() && !self.flags.tracked(ch) {
            self.track(ch);
        }
    }

    /// Adds `ch` to [`Self::tracked`] at its sorted place.
    fn track(&mut self, ch: ChannelId) {
        self.flags.set_tracked(ch, true);
        let at = self.tracked.partition_point(|&c| c < ch);
        self.tracked.insert(at, ch);
    }

    fn on_route_decision(&mut self, now: Time, msg: MsgId, in_ch: ChannelId) {
        let node = self.topo.channel(in_ch).dst;
        self.chans[in_ch.index()].route_pending = false;
        if self.msgs[msg.index()].failure.is_some() {
            // Stale decision: a fault tore this worm down after the
            // router-setup event was scheduled. Its header is gone from
            // the input buffer; let the next waiting header (if any)
            // proceed.
            self.process_in_buf(now, in_ch);
            return;
        }
        debug_assert!(
            matches!(
                self.chans[in_ch.index()].in_buf.front(),
                Some(f) if f.msg == msg && f.kind == FlitKind::Header
            ),
            "header must still be at the input-buffer head during setup"
        );
        self.counters.seg_lookups += 1;
        let header = {
            let hdrs = &mut self.chans[in_ch.index()].hdrs;
            let pos = hdrs
                .iter()
                .position(|&(m, _)| m == msg)
                .expect("header state travels with the worm");
            let (_, hid) = hdrs.swap_remove(pos);
            self.headers.remove(hid).expect("header handle live")
        };
        // The decision buffer and the algorithm's scratch are reused across
        // every routing call of the run — the per-hop path allocates
        // nothing once their capacities settle.
        let mut decision = std::mem::take(&mut self.route_out);
        decision.clear();
        self.apply_route_decision(now, msg, in_ch, node, header, &mut decision);
        self.route_out = decision;
    }

    /// Consults the routing algorithm for `header` at `node` and turns the
    /// decision into segment + OCRQ state (`decision` is the reused output
    /// buffer, already cleared).
    fn apply_route_decision(
        &mut self,
        now: Time,
        msg: MsgId,
        in_ch: ChannelId,
        node: NodeId,
        header: R::Header,
        decision: &mut RouteDecision<R::Header>,
    ) {
        if let Err(error) = self.routing.route(
            node,
            in_ch,
            &header,
            &self.msgs[msg.index()].spec,
            &mut self.route_scratch,
            decision,
        ) {
            let error = SimError::Route { msg, node, error };
            if self.live_mode() {
                // A worm routed into a dead end (e.g. its pre-fault
                // labeling no longer matches the surviving channels):
                // a reconfiguration casualty, not a run abort.
                self.teardown(now, msg, error, Casualty::RouteDeadEnd);
                self.wake_channels(now);
                return;
            }
            return self.fail(error);
        }
        if decision.requests.is_empty() {
            return self.fail(SimError::EmptyDecision { msg, node });
        }
        if let Some(&(dead_ch, _)) = decision.requests.iter().find(|&&(c, _)| self.flags.dead(c)) {
            // The decision asks for a channel that died since the worm's
            // labeling was built: the worm ran into the fault. Tear it
            // down before any of the request set is enqueued.
            self.teardown(
                now,
                msg,
                SimError::TornDown {
                    msg,
                    channel: dead_ch,
                },
                Casualty::DeadRequest,
            );
            self.wake_channels(now);
            return;
        }
        let sid = self.segs.insert(Segment {
            msg,
            input: SegInput::Channel(in_ch),
            outputs: InlineVec::new(),
            acquired: false,
            candidate: false,
        });
        debug_assert!(
            self.chans[in_ch.index()].seg.is_none(),
            "one channel delivers one header per worm"
        );
        self.chans[in_ch.index()].seg = Some(sid);
        for (ch, st) in decision.requests.drain(..) {
            let rec = self.topo.channel(ch);
            if rec.src != node {
                return self.fail(SimError::ForeignChannel {
                    msg,
                    node,
                    channel: ch,
                });
            }
            let outputs = &mut self.segs.get_mut(sid).expect("just inserted").outputs;
            if outputs.contains(&ch) {
                return self.fail(SimError::DuplicateRequest {
                    msg,
                    node,
                    channel: ch,
                });
            }
            outputs.push(ch);
            if self.topo.is_switch(rec.dst) {
                // Hard assert (like the pre-arena reverse-map insert): a
                // worm re-requesting a channel is a phase-monotonicity
                // violation, and proceeding would corrupt the per-channel
                // header list. The list holds a couple of entries.
                assert!(
                    !self.chans[ch.index()].hdrs.iter().any(|&(m, _)| m == msg),
                    "{msg} requested {ch} twice; phase monotonicity violated"
                );
                let hid = self.headers.insert(st);
                self.chans[ch.index()].hdrs.push((msg, hid));
            }
            // Hard assert for the same reason: a duplicate OCRQ entry
            // would make teardown's position-based removal drop the wrong
            // waiter. Requests are ~one per worm per router (not per
            // flit), so the queue scan stays off the per-flit path.
            assert!(
                !self
                    .requests
                    .iter(&self.chans[ch.index()].ocrq)
                    .any(|&(m, _)| m == msg),
                "{msg} already queued on {ch}"
            );
            // Atomic enqueue: the whole request set lands in this one event
            // before any other message can enqueue at this router (§3.2).
            self.enqueue(now, ch, msg, sid);
        }
        let requested = &self.segs.get(sid).expect("just inserted").outputs;
        self.obs.requested(msg, node, requested, now);
        self.try_acquire(now, sid);
    }

    fn on_wire_done(&mut self, now: Time, ch: ChannelId) {
        let flit = {
            let c = &mut self.chans[ch.index()];
            debug_assert!(c.wire_busy);
            c.wire_busy = false;
            self.flits
                .pop_front(&mut c.out_buf)
                .expect("in-flight flit in out_buf")
        };
        // A flit crossing a channel that died mid-transfer — or belonging
        // to a worm that was torn down, which only a live-reconfiguration
        // run does — is lost on the wire, not delivered into the input
        // buffer.
        let dead = self.flags.dead(ch);
        let dropped = dead || (self.live_mode() && self.msgs[flit.msg.index()].failure.is_some());
        if !dropped {
            let c = &mut self.chans[ch.index()];
            self.flits.push_back(&mut c.in_buf, flit);
            c.crossings += 1;
        }
        self.counters.wire_transfers += 1;
        let header_in = !dropped && flit.kind == FlitKind::Header;
        self.obs.wire_done(ch, header_in.then_some(flit.msg), now);
        if dead {
            // Dead wire: nothing refills it and nobody may acquire it.
            return;
        }
        if flit.is_real() && !dropped {
            self.last_progress = now;
        }
        // The sender-side slot freed up: the owner refills it, or — if the
        // channel was released and has now drained — the next OCRQ waiter
        // may acquire.
        match self.chans[ch.index()].owner {
            Some((_, sid)) => {
                self.counters.seg_lookups += 1;
                self.try_replicate(now, sid);
            }
            None => {
                if self.chans[ch.index()].free_for_acquisition() {
                    if let Some(&(_, sid)) = self.chans[ch.index()].ocrq.front() {
                        self.counters.seg_lookups += 1;
                        self.try_acquire(now, sid);
                    }
                }
            }
        }
        self.try_start_wire(ch);
        self.process_in_buf(now, ch);
    }

    /// A scheduled fault fires: both directions of the link die, and every
    /// worm holding, waiting on, or feeding through either direction is
    /// torn down. Fault events for an instant are scheduled before any
    /// same-instant wire/router events, so a link that dies at `t` carries
    /// nothing at `t`.
    fn on_link_down(&mut self, now: Time, link: ChannelId) {
        let pair = [link, self.topo.reverse(link)];
        if self.flags.dead(link) {
            return; // duplicate scheduling (e.g. a switch kill overlapping)
        }
        for &c in &pair {
            self.flags.kill(c);
        }
        self.counters.links_killed += 1;
        self.obs.link_down(link, now);
        // Victims: every message that owns, waits on, or buffers flits in
        // either direction, plus every segment wired to it. Sorted for
        // deterministic teardown (and trace) order.
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        for &c in &pair {
            let chan = &self.chans[c.index()];
            victims.extend(chan.owner.map(|(m, _)| m));
            victims.extend(self.requests.iter(&chan.ocrq).map(|&(m, _)| m));
            victims.extend(self.flits.iter(&chan.in_buf).map(|f| f.msg));
            victims.extend(self.flits.iter(&chan.out_buf).map(|f| f.msg));
        }
        for (_, seg) in self.segs.iter() {
            let holds = seg.outputs.iter().any(|o| pair.contains(o))
                || matches!(seg.input, SegInput::Channel(ic) if pair.contains(&ic));
            if holds {
                victims.push(seg.msg);
            }
        }
        victims.sort_unstable();
        victims.dedup();
        for &m in &victims {
            self.teardown(
                now,
                m,
                SimError::TornDown {
                    msg: m,
                    channel: link,
                },
                Casualty::LinkDied,
            );
        }
        self.victims = victims;
        self.wake_channels(now);
        // Teardown released channels — a progress-like transition. Without
        // this, a storm arriving during a long network-wide stall could
        // trip the watchdog spuriously; fault events are finitely many, so
        // real deadlock still surfaces.
        self.last_progress = now;
    }

    /// Kills one message network-wide: retires all its segments, releases
    /// every channel it owns, flushes its OCRQ entries and header states,
    /// and purges its flits from all buffers (a flit mid-wire is dropped at
    /// its `WireDone`). Records the failure on the message. Teardown
    /// happens only in live runs, so the header and flit purge walks
    /// [`Self::tracked`] — every channel that can hold either — in the
    /// ascending order of a full scan.
    fn teardown(&mut self, now: Time, m: MsgId, cause: SimError, why: Casualty) {
        let ms = &mut self.msgs[m.index()];
        if ms.completed_at.is_some() || ms.failure.is_some() {
            return;
        }
        // A worm that never got past its own injection link was rejected,
        // not killed in flight.
        let kind = match why {
            Casualty::InjectionDead => FailureKind::Unreachable,
            _ => FailureKind::TornDown,
        };
        ms.failure = Some(MessageFailure {
            at: now,
            kind,
            error: cause,
        });
        match kind {
            FailureKind::TornDown => self.counters.messages_torn_down += 1,
            FailureKind::Unreachable => self.counters.messages_unreachable += 1,
        }
        // Teardown happens strictly after SourceReady (earlier the message
        // holds nothing and cannot be a victim), so it is always active.
        self.active -= 1;
        // Retire every segment of the worm, read off the slab in ascending
        // slot order, which decides the order the slab hands the slots out
        // again. The slab holds only the segments of worms in flight, so the
        // scan costs about what the walk of `tracked` below does.
        let mut victim_segs = std::mem::take(&mut self.victim_segs);
        victim_segs.clear();
        let worm = self.segs.iter().filter(|(_, s)| s.msg == m);
        victim_segs.extend(worm.map(|(sid, _)| sid));
        let segs = &self.segs;
        let outputs = victim_segs
            .iter()
            .filter_map(|&sid| segs.get(sid))
            .map(|s| s.outputs.as_slice());
        self.obs
            .torn_down(&self.chans, m, &cause, why, outputs, now);
        for &sid in &victim_segs {
            let seg = self.segs.remove(sid).expect("found in the slab");
            if let SegInput::Channel(ic) = seg.input {
                debug_assert_eq!(self.chans[ic.index()].seg, Some(sid));
                self.chans[ic.index()].seg = None;
            }
            for &o in &seg.outputs {
                let c = &mut self.chans[o.index()];
                if c.owner.map(|(om, _)| om) == Some(m) {
                    c.owner = None;
                }
                // At most one entry: requests are checked unique per
                // (message, channel) when enqueued.
                self.requests.retain(&mut c.ocrq, |&(qm, _)| qm != m);
            }
        }
        self.victim_segs = victim_segs;
        // Header states are swept by message id, not via segment outputs: a
        // header's entry outlives its upstream segment (the segment releases
        // once the tail is replicated, while the header may still sit in an
        // input buffer waiting out the router-setup delay — and its stale
        // RouteDecision returns before consuming the entry). Flit purging
        // walks the same channels, so the header sweep rides along. Only
        // tracked channels can hold either, and the list is ascending, so
        // header slots are freed in the order a full sweep would free them.
        for &ch in &self.tracked {
            let c = &mut self.chans[ch.index()];
            while let Some(pos) = c.hdrs.iter().position(|&(hm, _)| hm == m) {
                let (_, hid) = c.hdrs.swap_remove(pos);
                self.headers.remove(hid).expect("header handle live");
            }
            self.flits.retain(&mut c.in_buf, |f| f.msg != m);
            if c.out_buf.front().is_some_and(|f| f.msg == m) {
                // Output buffers hold one worm at a time; if the head is
                // mid-wire it must survive until its WireDone (which drops
                // it), everything behind it is purged in place.
                let keep = usize::from(c.wire_busy);
                self.flits.truncate(&mut c.out_buf, keep);
            }
        }
        // Stale candidates resolve to dead slots (generation mismatch).
        self.bubble_candidates
            .retain(|&sid| self.segs.contains(sid));
    }

    /// After teardowns freed channels, give every surviving waiter a
    /// chance to move: restart idle wires, retry head-of-OCRQ
    /// acquisitions, and drain input buffers. Ascending channel order
    /// keeps the chain of wake-ups deterministic.
    ///
    /// Only [`Self::tracked`] channels are visited, and that equals the
    /// full ascending scan: a quiescent channel's visit does nothing (no
    /// wire can start, no OCRQ head, an empty input buffer, no lookup
    /// counted), and a visit never puts state on an untracked channel —
    /// acquisition and replication write only channels a worm requested,
    /// and a request tracks its channel. The wake ends by dropping the
    /// channels it left quiescent.
    fn wake_channels(&mut self, now: Time) {
        debug_assert!(
            self.chans
                .iter()
                .enumerate()
                .all(|(i, c)| self.flags.tracked(ChannelId(i as u32)) || c.is_quiescent()),
            "an untracked channel holds worm state"
        );
        // A wake requests nothing, so the list holds still while it runs.
        for i in 0..self.tracked.len() {
            let ch = self.tracked[i];
            if self.flags.dead(ch) {
                continue;
            }
            self.try_start_wire(ch);
            let c = &self.chans[ch.index()];
            if c.free_for_acquisition() {
                if let Some(&(_, sid)) = c.ocrq.front() {
                    self.counters.seg_lookups += 1;
                    self.try_acquire(now, sid);
                }
            }
            self.process_in_buf(now, ch);
        }
        let (chans, flags) = (&self.chans, &mut self.flags);
        self.tracked.retain(|&ch| {
            let busy = !chans[ch.index()].is_quiescent();
            flags.set_tracked(ch, busy);
            busy
        });
    }

    /// [`start_wire`] on this engine's fields.
    fn try_start_wire(&mut self, ch: ChannelId) {
        start_wire(&mut self.chans, &mut self.sched, &self.flags, &self.cfg, ch);
    }

    /// Attempts the all-or-nothing acquisition of §3.2: every requested
    /// channel must have this segment at its OCRQ head and be free. On
    /// success the header flit is replicated to all outputs at once.
    fn try_acquire(&mut self, now: Time, sid: SlotId) {
        self.counters.seg_lookups += 1;
        let Some(seg) = self.segs.get_mut(sid) else {
            return;
        };
        if seg.acquired {
            return;
        }
        let msg = seg.msg;
        // The header must be ready on the input side.
        match seg.input {
            SegInput::Source { next } => debug_assert_eq!(next, 0),
            SegInput::Channel(ic) => match self.chans[ic.index()].in_buf.front() {
                Some(f) if f.msg == msg && f.kind == FlitKind::Header => {}
                _ => return,
            },
        }
        let chans = &self.chans;
        let grantable = |o: &ChannelId| {
            let c = &chans[o.index()];
            c.ocrq.front().map(|&(_, s)| s) == Some(sid) && c.free_for_acquisition()
        };
        if !seg.outputs.iter().all(grantable) {
            let blocked = seg.outputs.iter().copied().filter(|o| !grantable(o));
            self.obs.acquire_blocked(blocked);
            return;
        }
        self.counters.acquisitions += 1;
        self.last_progress = now;
        let node = match seg.input {
            SegInput::Source { .. } => self.msgs[msg.index()].spec.src,
            SegInput::Channel(ic) => self.topo.channel(ic).dst,
        };
        self.obs.acquired(&self.chans, msg, node, &seg.outputs, now);
        // The segment stays borrowed while the channels change hands: the
        // fields involved are disjoint, and the output list is not copied.
        for &o in &seg.outputs {
            let c = &mut self.chans[o.index()];
            let popped = self.requests.pop_front(&mut c.ocrq);
            debug_assert_eq!(popped, Some((msg, sid)));
            c.owner = Some((msg, sid));
            self.flits.push_back(
                &mut c.out_buf,
                Flit {
                    msg,
                    kind: FlitKind::Header,
                },
            );
        }
        for &o in &seg.outputs {
            start_wire(&mut self.chans, &mut self.sched, &self.flags, &self.cfg, o);
        }
        // Consume the header on the input side.
        match seg.input {
            SegInput::Source { .. } => seg.input = SegInput::Source { next: 1 },
            SegInput::Channel(ic) => {
                let f = self.flits.pop_front(&mut self.chans[ic.index()].in_buf);
                debug_assert!(matches!(f, Some(f) if f.kind == FlitKind::Header));
                start_wire(&mut self.chans, &mut self.sched, &self.flags, &self.cfg, ic);
            }
        }
        seg.acquired = true;
        self.try_replicate(now, sid);
    }

    /// Forwards as many flits as possible for an acquired segment. A flit
    /// is replicated only when *all* owned output buffers have space; when
    /// a present flit is blocked by a full sibling, the segment becomes a
    /// bubble candidate (asynchronous replication, §3.2; insertion happens
    /// at the end of the instant). Replicating the tail releases the
    /// channels.
    fn try_replicate(&mut self, now: Time, sid: SlotId) {
        // This loop runs once per flit per router traversal — the hottest
        // path in the engine. The segment is looked up once and stays
        // borrowed while flits move to every output: nothing a move
        // touches lives in the slab. `seg_lookups` still counts one lookup
        // per flit, the unit every digest and snapshot has recorded.
        self.counters.seg_lookups += 1;
        let Some(seg) = self.segs.get_mut(sid) else {
            return;
        };
        if !seg.acquired {
            return;
        }
        let msg = seg.msg;
        let out_cap = self.cfg.output_buffer_flits;
        loop {
            let f = match seg.input {
                SegInput::Source { next } => {
                    let len = self.msgs[msg.index()].spec.len + self.cfg.extra_header_flits;
                    debug_assert!(next < len, "tail emission releases the segment");
                    Flit::nth(msg, next, len)
                }
                SegInput::Channel(ic) => match self.chans[ic.index()].in_buf.front() {
                    Some(f) => {
                        debug_assert_eq!(
                            f.msg, msg,
                            "foreign flit at input head while segment alive"
                        );
                        *f
                    }
                    None => return, // input starved; the worm holds its channels
                },
            };
            let chans = &self.chans;
            if !seg
                .outputs
                .iter()
                .all(|&o| chans[o.index()].out_has_space(out_cap))
            {
                // Blocked by a sibling: mark for end-of-instant bubble
                // insertion. A single-output segment simply stalls (no
                // divergence to mask).
                if seg.outputs.len() > 1 && !seg.candidate {
                    seg.candidate = true;
                    self.bubble_candidates.push(sid);
                }
                return;
            }
            for &o in &seg.outputs {
                self.flits.push_back(&mut self.chans[o.index()].out_buf, f);
                start_wire(&mut self.chans, &mut self.sched, &self.flags, &self.cfg, o);
            }
            match &mut seg.input {
                SegInput::Source { next } => *next += 1,
                SegInput::Channel(ic) => {
                    let ic = *ic;
                    self.flits.pop_front(&mut self.chans[ic.index()].in_buf);
                    start_wire(&mut self.chans, &mut self.sched, &self.flags, &self.cfg, ic);
                }
            }
            if f.is_tail() {
                self.release(now, sid);
                return;
            }
            self.counters.seg_lookups += 1;
        }
    }

    /// End-of-instant bubble resolution: for every branch segment that was
    /// sibling-blocked during this instant and *still* is, inject one
    /// bubble flit into each free output buffer so that branch keeps
    /// advancing (asynchronous replication, §3.2). If the blockage cleared
    /// within the instant, ordinary replication runs instead. Stale
    /// candidates (segments since released or torn down) fail the
    /// generation check and are skipped.
    fn flush_bubbles(&mut self, now: Time) {
        while let Some(sid) = self.bubble_candidates.pop() {
            let Some(seg) = self.segs.get_mut(sid) else {
                continue;
            };
            seg.candidate = false;
            let msg = seg.msg;
            if !seg.acquired || seg.outputs.len() < 2 {
                continue;
            }
            let input_present = match seg.input {
                SegInput::Source { next } => {
                    next < self.msgs[msg.index()].spec.len + self.cfg.extra_header_flits
                }
                SegInput::Channel(ic) => self.chans[ic.index()]
                    .in_buf
                    .front()
                    .is_some_and(|f| f.msg == msg),
            };
            if !input_present {
                continue;
            }
            let out_cap = self.cfg.output_buffer_flits;
            let all_free = seg
                .outputs
                .iter()
                .all(|&o| self.chans[o.index()].out_has_space(out_cap));
            if all_free {
                // The sibling drained later in the same instant; the real
                // flit advances and no bubble is needed.
                self.try_replicate(now, sid);
                continue;
            }
            // Bubbles are generated only while a *real* flit is stuck in a
            // sibling buffer. A sibling full of bubbles is self-inflicted
            // back-pressure from this very replication unit; breeding more
            // bubbles against it would let two branches ping-pong bubbles
            // forever (each freeing at a different instant) and starve the
            // real flits — a livelock hardware avoids because its cycle-
            // synchronous buffers free together.
            let real_blockage = seg.outputs.iter().any(|&o| {
                let c = &self.chans[o.index()];
                !c.out_has_space(out_cap) && self.flits.iter(&c.out_buf).any(|f| f.is_real())
            });
            if !real_blockage {
                continue;
            }
            let node = match seg.input {
                SegInput::Source { .. } => self.msgs[msg.index()].spec.src,
                SegInput::Channel(ic) => self.topo.channel(ic).dst,
            };
            for &o in &seg.outputs {
                if self.chans[o.index()].out_has_space(out_cap) {
                    self.flits
                        .push_back(&mut self.chans[o.index()].out_buf, Flit::bubble(msg));
                    self.counters.bubbles_created += 1;
                    self.obs.bubble(msg, node, o, now);
                    start_wire(&mut self.chans, &mut self.sched, &self.flags, &self.cfg, o);
                }
            }
        }
    }

    /// Tail replicated: release every owned channel to its next waiter and
    /// retire the segment. Removing the segment first hands us owned
    /// output/input state, so no copy of the channel list is needed.
    fn release(&mut self, now: Time, sid: SlotId) {
        let seg = self.segs.remove(sid).expect("released segment exists");
        let msg = seg.msg;
        let input = seg.input;
        if let SegInput::Channel(ic) = input {
            debug_assert_eq!(self.chans[ic.index()].seg, Some(sid));
            self.chans[ic.index()].seg = None;
        }
        let node = match input {
            SegInput::Source { .. } => self.msgs[msg.index()].spec.src,
            SegInput::Channel(ic) => self.topo.channel(ic).dst,
        };
        self.obs.released(msg, node, &seg.outputs, now);
        for &o in &seg.outputs {
            let c = &mut self.chans[o.index()];
            debug_assert_eq!(c.owner, Some((msg, sid)));
            c.owner = None;
            // The freed channel may already satisfy its next waiter (the
            // tail might still be draining; try_acquire re-checks).
            if let Some(&(_, waiter)) = self.chans[o.index()].ocrq.front() {
                self.counters.seg_lookups += 1;
                self.try_acquire(now, waiter);
            }
        }
        // With multi-flit input buffers the next message's header may
        // already sit behind our tail.
        if let SegInput::Channel(ic) = input {
            self.process_in_buf(now, ic);
        }
    }

    /// Drains the input buffer of `ch` as far as the protocol allows.
    fn process_in_buf(&mut self, now: Time, ch: ChannelId) {
        if self.flags.to_processor(ch) {
            let dst = self.topo.channel(ch).dst;
            while let Some(head) = self.flits.pop_front(&mut self.chans[ch.index()].in_buf) {
                self.deliver(now, head, dst);
                self.try_start_wire(ch);
            }
            return;
        }
        loop {
            let Some(&head) = self.chans[ch.index()].in_buf.front() else {
                return;
            };
            let before = self.chans[ch.index()].in_buf.len();
            self.counters.seg_lookups += 1;
            let seg = self.chans[ch.index()].seg;
            match head.kind {
                FlitKind::Header => {
                    if let Some(sid) = seg {
                        debug_assert_eq!(
                            self.segs.get(sid).map(|s| s.msg),
                            Some(head.msg),
                            "transit segment belongs to the header at the buffer head"
                        );
                        self.try_acquire(now, sid);
                    } else if !self.chans[ch.index()].route_pending {
                        self.chans[ch.index()].route_pending = true;
                        self.sched.after(
                            self.cfg.latency.router_setup,
                            Event::RouteDecision {
                                msg: head.msg,
                                in_ch: ch,
                            },
                        );
                        return;
                    } else {
                        return;
                    }
                }
                _ => {
                    debug_assert!(
                        seg.and_then(|s| self.segs.get(s))
                            .is_some_and(|s| s.acquired),
                        "body flit without an acquired segment"
                    );
                    if let Some(sid) = seg {
                        self.try_replicate(now, sid);
                    }
                }
            }
            if self.chans[ch.index()].in_buf.len() == before {
                return; // no progress possible right now
            }
        }
    }

    /// Absorbs a flit at a destination processor, enforcing the in-order,
    /// exactly-once delivery invariants of wormhole routing.
    fn deliver(&mut self, now: Time, flit: Flit, proc: NodeId) {
        if !flit.is_real() {
            return; // bubbles are discarded silently at consumption channels
        }
        self.counters.flits_delivered += 1;
        self.last_progress = now;
        let ms = &mut self.msgs[flit.msg.index()];
        // Hash-free destination lookup: binary search of the message's
        // sorted (node, slot) run — this runs once per delivered flit.
        let run = &self.dest_index[ms.dest_run()];
        let Ok(pos) = run.binary_search_by_key(&proc, |&(n, _)| n) else {
            // A flit for a processor that is not a destination: the
            // routing algorithm misrouted the worm (on degraded networks,
            // typically a stale labeling). Typed error, not a crash.
            return self.fail(SimError::Misroute {
                msg: flit.msg,
                at: proc,
            });
        };
        let d = &mut self.dests[ms.dests_at as usize + run[pos].1 as usize];
        let seq = flit.seq().expect("real flits carry a sequence number");
        assert_eq!(
            seq, d.next_seq,
            "out-of-order delivery of {} at {proc}",
            flit.msg
        );
        d.next_seq += 1;
        if flit.is_tail() {
            debug_assert_eq!(
                seq + 1,
                ms.spec.len + self.cfg.extra_header_flits,
                "tail carries the last sequence"
            );
            (d.done, d.at) = (true, now);
            ms.remaining -= 1;
            let fully_done = ms.remaining == 0;
            if fully_done {
                ms.completed_at = Some(now);
                self.active -= 1;
                self.counters.messages_completed += 1;
                self.pending_completions.push(flit.msg);
            }
            self.obs.delivered_tail(flit.msg, proc, now);
        }
    }
}

/// Starts a wire transfer on `ch` if a flit is waiting, the wire is idle,
/// and the receiver will have a slot. A function of the fields it touches
/// rather than a method, so the flit path can call it while it holds a
/// segment of the engine's slab.
fn start_wire(
    chans: &mut [Chan],
    sched: &mut Schedule<Event>,
    flags: &ChanFlags,
    cfg: &SimConfig,
    ch: ChannelId,
) {
    if flags.dead(ch) {
        return; // dead wires carry nothing
    }
    let c = &mut chans[ch.index()];
    if !c.wire_busy && !c.out_buf.is_empty() && c.in_has_space(cfg.input_buffer_flits) {
        c.wire_busy = true;
        sched.after(cfg.latency.channel_prop, Event::WireDone(ch));
    }
}

// Child modules so the observers and the codec see the engine's private
// state without widening any field's visibility; the files live beside
// engine.rs. The engine in turn sees only the seam's methods.
#[path = "observe.rs"]
mod observe;
#[path = "engine_snapshot.rs"]
mod snapshot;
pub use observe::CheckpointSink;
