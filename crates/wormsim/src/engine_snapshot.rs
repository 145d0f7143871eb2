//! Mid-run engine checkpointing: a complete, versioned serialization of
//! [`NetworkSim`]'s live state. The container (magic, version, sections,
//! checksum trailer) is [`spam_snapshot`]'s; this module lays out the
//! engine's sections.
//!
//! * **Read-only.** Taking a snapshot reads the engine and fills a
//!   buffer; *when* one is taken is the checkpointer's business
//!   (`observe.rs`, with the other observers).
//! * **Primary state only.** A snapshot writes what the simulation *is*:
//!   messages (spec, destination states, end), the schedule (every
//!   pending event under its `(time, seq)` key, in `seq` order whatever
//!   the queue kind), both slab arenas *raw* (generations and free-list
//!   order decide the `SlotId`s a resumed run hands out), each channel's
//!   flit buffers, requesting segments in OCRQ order, header handles and
//!   crossings, counters, dead channels, fault times, hook state, and the
//!   observer seam's records.
//! * **Indices rebuilt.** Busy wires, pending routing decisions, each
//!   channel's feeding segment and owner, each request's message, each
//!   message's remaining count, the active count and the tracked list are
//!   derived in one pass after the last section
//!   ([`Index`]); debug builds check that pass against the engine at
//!   every snapshot. A worm's length is the one check word: the engine
//!   derives it, a snapshot writes it, and `restore` holds it against the
//!   message's as it reads it.
//!   `run == resume(checkpoint(run))` holds exactly.
//! * **Typed failure.** Bad bytes are a [`SnapshotError`], never a panic:
//!   the checksum catches random corruption up front, and every check
//!   here is an error path, not an assert.
//! * **Written once.** Each type's layout is one table beside the type
//!   (`codec::snap_struct!` / `codec::snap_enum!`) that both directions
//!   follow; this module frames the sections and orders the engine's own
//!   fields within them.

use super::*;
use crate::codec::{ensure, get_fifo, put_fifo, put_list, IdSpace, Snap};
use desim::{QueueKind, ScheduledEvent};
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};

// Sections in wire order; 8 and 9 (trace, telemetry) belong to the
// observer seam. The message table comes first, so every message id
// after it is checked as it is read, and the arenas precede the channels
// whose requests name their slots.
const SECT_META: u32 = 1;
const SECT_MSGS: u32 = 4;
const SECT_SCHED: u32 = 2;
const SECT_SEGS: u32 = 5;
const SECT_HEADERS: u32 = 6;
const SECT_CHANS: u32 = 3;
const SECT_ENGINE: u32 = 7;
const SECT_HOOK: u32 = 10;

/// The configuration words of `SECT_META`, in wire order, each under the
/// name a mismatch is reported by: the encoder writes the values, the
/// decoder compares them with the configuration it was handed.
fn config_words(cfg: &SimConfig) -> [(&'static str, u64); 8] {
    [
        ("startup latency", cfg.latency.startup.as_ns()),
        ("router-setup latency", cfg.latency.router_setup.as_ns()),
        ("channel propagation", cfg.latency.channel_prop.as_ns()),
        ("input buffer depth", cfg.input_buffer_flits as u64),
        ("output buffer depth", cfg.output_buffer_flits as u64),
        ("watchdog", cfg.watchdog.as_ns()),
        ("event cap", cfg.max_events),
        ("extra header flits", u64::from(cfg.extra_header_flits)),
    ]
}

/// A channel's indices: `wire_busy`, `route_pending`, `seg`, `owner`.
type ChanIndex = (bool, bool, Option<SlotId>, Option<(MsgId, SlotId)>);

/// The indices primary state implies, and the pending events they are
/// built from: what `restore` installs, and what `encode` holds the
/// engine's own to in debug builds (with a scratch the checkpointer
/// keeps, so that allocates nothing once grown).
#[derive(Default)]
pub(super) struct Index {
    /// Every pending event, in `seq` order.
    events: Vec<ScheduledEvent<Event>>,
    chans: Vec<ChanIndex>,
    /// Per message: `remaining`, and whether it is active.
    msgs: Vec<(u32, bool)>,
    /// Per header slot: a `hdrs` entry names it.
    named: Vec<bool>,
}

impl<'a, R: RoutingAlgorithm> NetworkSim<'a, R> {
    /// Serializes the engine's complete current state into `w` (the
    /// caller seals and stores the buffer). `hook` contributes the
    /// completion hook's mutable state; pass [`NoHook`] via
    /// [`Self::snapshot`] when no hook is in play.
    pub fn snapshot_with_hook(
        &self,
        w: &mut SnapWriter,
        hook: &dyn CompletionHook,
    ) -> Result<(), SnapshotError> {
        self.encode(w, hook, &mut Index::default())
    }

    /// [`Self::snapshot_with_hook`], with the [`Index`] scratch lent by
    /// the caller.
    pub(super) fn encode(
        &self,
        w: &mut SnapWriter,
        hook: &dyn CompletionHook,
        ix: &mut Index,
    ) -> Result<(), SnapshotError> {
        // Neither list is written. A checkpoint is taken before the first
        // event of an instant: by then the hook loop has drained every
        // completion and `flush_bubbles` every candidate of the instant
        // before. The public API can only snapshot a simulator that has
        // not run (running consumes it), where both are empty too.
        debug_assert!(self.pending_completions.is_empty() && self.bubble_candidates.is_empty());
        w.begin();

        let s = w.begin_section(SECT_META);
        w.put_u64(self.topo_fp());
        for (_, word) in config_words(&self.cfg) {
            w.put_u64(word);
        }
        w.put_str(self.routing.snapshot_name());
        w.end_section(s);

        let s = w.begin_section(SECT_MSGS);
        w.put_len(self.msgs.len());
        for m in &self.msgs {
            m.spec.put(w);
            (m.spec.len + self.cfg.extra_header_flits).put(w);
            put_list(w, &self.dests[m.dest_run()]);
            m.completed_at.put(w);
            m.failure.put(w);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_SCHED);
        put_schedule(w, &self.sched, &mut ix.events);
        w.end_section(s);
        debug_assert!(
            self.index(ix).is_ok() && self.holds(ix),
            "an index disagrees with the state it indexes"
        );

        let s = w.begin_section(SECT_SEGS);
        put_slab(w, &self.segs, |w, seg| {
            seg.put(w);
            Ok(())
        })?;
        w.end_section(s);

        let s = w.begin_section(SECT_HEADERS);
        put_slab(w, &self.headers, |w, h| self.routing.encode_header(h, w))?;
        w.end_section(s);

        let s = w.begin_section(SECT_CHANS);
        w.put_len(self.chans.len());
        for c in &self.chans {
            put_fifo(w, &self.flits, &c.out_buf);
            put_fifo(w, &self.flits, &c.in_buf);
            w.put_len(c.ocrq.len());
            self.requests.iter(&c.ocrq).for_each(|(_, sid)| sid.put(w));
            c.hdrs.put(w);
            c.crossings.put(w);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_ENGINE);
        self.counters.put(w);
        self.obs.encode_coverage(w);
        // A run-aborting error ends the run before the next checkpoint
        // tick, so live checkpoints never see one; recorded defensively
        // for the standalone snapshot API, and rejected on restore.
        w.put_bool(self.error.is_some());
        self.last_progress.put(w);
        let dead = || self.topo.channel_ids().filter(|&c| self.flags.dead(c));
        w.put_len(dead().count());
        dead().for_each(|c| c.put(w));
        self.fault_times.put(w);
        self.obs.encode_checkpointer(w);
        w.end_section(s);

        self.obs.encode_sections(w);

        let s = w.begin_section(SECT_HOOK);
        hook.encode_state(w);
        w.end_section(s);

        Ok(())
    }

    /// [`Self::snapshot_with_hook`] with no completion hook.
    pub fn snapshot(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.snapshot_with_hook(w, &NoHook)
    }

    /// Reconstructs a mid-run simulator from snapshot `bytes`, restoring
    /// the completion hook's state into `hook` (resume the run with
    /// [`Self::run_with_hook`] and the same hook). `topo`, `routing`,
    /// and `cfg` must be rebuilt by the caller exactly as for the
    /// original run — the snapshot carries fingerprints of all three and
    /// refuses a mismatch with [`SnapshotError::ConfigMismatch`]. The
    /// event-queue kind is *not* constrained: pop order is pinned by
    /// `(time, seq)` keys, so a snapshot taken under one queue resumes
    /// identically under the other.
    ///
    /// The tables decode the primary state, holding every id against the
    /// fabric and the message table as it is read. One pass then rebuilds
    /// every index from it, and answers with [`SnapshotError::Corrupt`]
    /// what no engine produces: a worm length or a destination's progress
    /// that disagrees with the message, a second pending `SourceReady`,
    /// `WireDone` or `RouteDecision` on one message or channel, a transfer
    /// over an empty buffer, a routing decision with no header waiting, a
    /// link-down at no fault time, a source segment or a buffered flit
    /// that disagrees with its worm, two segments fed by or owning one
    /// channel, a requested channel without the worm's header state, a
    /// request from a vacant or acquired slot, a header slot named by no
    /// channel, by two, or vacant and named, and a dead-channel list out
    /// of order or with a channel dead but its reverse alive.
    pub fn restore_with_hook(
        topo: &'a Topology,
        routing: R,
        cfg: SimConfig,
        bytes: &[u8],
        hook: &mut dyn CompletionHook,
    ) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::open(bytes)?;
        let mut sim = NetworkSim::new(topo, routing, cfg);
        let ids = &mut IdSpace::of(topo);

        read_section(&mut r, SECT_META, |r| {
            if r.get_u64()? != sim.topo_fp() {
                return Err(SnapshotError::ConfigMismatch(
                    "topology differs from the snapshot's",
                ));
            }
            for (name, expect) in config_words(&sim.cfg) {
                if r.get_u64()? != expect {
                    return Err(SnapshotError::ConfigMismatch(name));
                }
            }
            if r.get_str()? != sim.routing.snapshot_name() {
                return Err(SnapshotError::ConfigMismatch(
                    "routing algorithm differs from the snapshot's",
                ));
            }
            Ok(())
        })?;

        read_section(&mut r, SECT_MSGS, |r| {
            let n = r.get_len()?;
            (ids.msgs, sim.msgs) = (n as u32, Vec::with_capacity(n));
            for _ in 0..n {
                let (spec, worm_len) = (MessageSpec::get(r, ids)?, u32::get(r, ids)?);
                // The worm's length is derived, but the one word that pins
                // the length of a worm whose tail has not left its source.
                let len = spec.len.checked_add(sim.cfg.extra_header_flits);
                let fits = spec.len >= 2 && len == Some(worm_len);
                ensure(fits, "worm length disagrees with its message")?;
                let dests_at = sim.dests.len();
                for _ in 0..r.get_len()? {
                    sim.dests.push(Snap::get(r, ids)?);
                }
                let count = sim.dests.len() - dests_at;
                ensure(
                    count == spec.dests.len(),
                    "destination state count mismatch",
                )?;
                index_dests(&mut sim.dest_index, &spec);
                let mut m = MsgState::new(spec, dests_at);
                (m.completed_at, m.failure) = (Snap::get(r, ids)?, Snap::get(r, ids)?);
                sim.msgs.push(m);
            }
            Ok(())
        })?;

        sim.sched = read_section(&mut r, SECT_SCHED, |r| {
            get_schedule(r, ids, sim.cfg.resolved_queue())
        })?;

        sim.segs = read_section(&mut r, SECT_SEGS, |r| get_slab(r, ids, Snap::get))?;

        sim.headers = read_section(&mut r, SECT_HEADERS, |r| {
            get_slab(r, ids, |r, _| sim.routing.decode_header(r))
        })?;

        read_section(&mut r, SECT_CHANS, |r| {
            ensure(r.get_len()? == sim.chans.len(), "channel count mismatch")?;
            for c in sim.chans.iter_mut() {
                get_fifo(r, ids, &mut sim.flits, &mut c.out_buf)?;
                get_fifo(r, ids, &mut sim.flits, &mut c.in_buf)?;
                // Each request's message is its segment's (the index pass
                // rejects a request from no waiting segment).
                for _ in 0..r.get_len()? {
                    let sid = Snap::get(r, ids)?;
                    let msg = sim.segs.get(sid).map_or(MsgId(0), |s| s.msg);
                    sim.requests.push_back(&mut c.ocrq, (msg, sid));
                }
                c.hdrs = Snap::get(r, ids)?;
                c.crossings = Snap::get(r, ids)?;
            }
            Ok(())
        })?;

        read_section(&mut r, SECT_ENGINE, |r| {
            sim.counters = Snap::get(r, ids)?;
            // Every event ever scheduled has either fired or is pending; a
            // count above that would end the resumed run at the event cap.
            let pending = sim.sched.len() as u64;
            let fired = sim.counters.events.checked_add(pending);
            let all = fired == Some(sim.sched.scheduled_count());
            ensure(all, "event count disagrees with the schedule")?;
            sim.obs.decode_coverage(r, ids)?;
            ensure(!r.get_bool()?, "snapshot taken after a run-aborting error")?;
            sim.last_progress = Snap::get(r, ids)?;
            let mut last = None;
            for _ in 0..r.get_len()? {
                let c = ChannelId::get(r, ids)?;
                ensure(last < Some(c), "dead channels out of order")?;
                last = Some(c);
                sim.flags.kill(c);
            }
            // A link dies in both directions at once.
            let flags = &sim.flags;
            let paired = topo
                .channel_ids()
                .all(|c| flags.dead(c) == flags.dead(topo.reverse(c)));
            ensure(paired, "dead channel with a live reverse")?;
            sim.fault_times = Snap::get(r, ids)?;
            sim.obs.decode_checkpointer(r)
        })?;

        sim.obs.decode_sections(&mut r, ids)?;

        read_section(&mut r, SECT_HOOK, |r| hook.decode_state(r))?;

        r.finish()?;

        let mut ix = Index::default();
        sim.sched.pending_by_seq(&mut ix.events);
        sim.index(&mut ix)?;
        sim.install(&ix);
        Ok(sim)
    }

    /// [`topo_fingerprint`] of this simulator's topology, hashed once.
    fn topo_fp(&self) -> u64 {
        *self.topo_fp.get_or_init(|| topo_fingerprint(self.topo))
    }

    /// [`Self::restore_with_hook`] with no completion hook. Snapshots
    /// taken with a stateful hook fail here with a typed error (the hook
    /// section's bytes go unconsumed).
    pub fn restore(
        topo: &'a Topology,
        routing: R,
        cfg: SimConfig,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Self::restore_with_hook(topo, routing, cfg, bytes, &mut NoHook)
    }

    /// The index pass: derives every index from primary state into `ix`
    /// (whose `events` the caller has filled), reading no index, and
    /// rejecting what [`Self::restore_with_hook`] lists.
    fn index(&self, ix: &mut Index) -> Result<(), SnapshotError> {
        ix.chans.clear();
        ix.chans.resize(self.chans.len(), Default::default());
        ix.msgs.clear();
        ix.named.clear();
        ix.named.resize(self.headers.num_slots(), false);
        for m in &self.msgs {
            let worm_len = m.spec.len + self.cfg.extra_header_flits;
            let mut remaining = 0;
            for d in &self.dests[m.dest_run()] {
                // A destination is done exactly when its worm's tail is in.
                let tail = d.next_seq == worm_len;
                let fits = d.next_seq <= worm_len && d.done == tail;
                ensure(fits, "destination progress disagrees with its worm")?;
                remaining += u32::from(!tail);
            }
            // Active until it ends, unless its `SourceReady` is pending.
            let active = m.completed_at.is_none() && m.failure.is_none();
            ix.msgs.push((remaining, active));
        }
        for e in &ix.events {
            let (mark, twice) = match e.event {
                Event::SourceReady(m) => (&mut ix.msgs[m.index()].1, "message ready out of turn"),
                Event::RouteDecision { msg, in_ch } => {
                    // The header waits at the buffer head with its state
                    // parked on the channel, unless a teardown took both.
                    let c = &self.chans[in_ch.index()];
                    let head = c.in_buf.front().filter(|f| f.kind == FlitKind::Header);
                    let parked = c.hdrs.iter().any(|&(m, _)| m == msg);
                    let waits = parked && head.is_some_and(|f| f.msg == msg);
                    let torn = self.msgs[msg.index()].failure.is_some();
                    ensure(waits || torn, "routing decision for no waiting header")?;
                    let twice = "two routing decisions on one channel";
                    (&mut ix.chans[in_ch.index()].1, twice)
                }
                Event::WireDone(ch) => {
                    let c = &self.chans[ch.index()];
                    ensure(!c.out_buf.is_empty(), "transfer over an empty buffer")?;
                    (&mut ix.chans[ch.index()].0, "two transfers on one wire")
                }
                Event::LinkDown(_) => {
                    let fault = self.fault_times.binary_search(&e.time).is_ok();
                    ensure(fault, "link-down at no fault time")?;
                    continue;
                }
            };
            // A pending `SourceReady` clears the active mark; the other
            // events set theirs.
            ensure(matches!(e.event, Event::SourceReady(_)) == *mark, twice)?;
            *mark = !*mark;
        }
        for (sid, seg) in self.segs.iter() {
            match seg.input {
                // A source emits its header as it acquires, and its tail as
                // it retires.
                SegInput::Source { next } => {
                    let fits = next < self.worm_len(seg.msg);
                    let fits = fits && seg.acquired == (next > 0);
                    ensure(fits, "source segment disagrees with its worm")?;
                }
                SegInput::Channel(ic) => {
                    let fed = &mut ix.chans[ic.index()].2;
                    ensure(fed.is_none(), "two segments fed by one channel")?;
                    *fed = Some(sid);
                }
            }
            for o in seg.outputs.iter().filter(|_| seg.acquired) {
                let owner = &mut ix.chans[o.index()].3;
                ensure(owner.is_none(), "two segments own one channel")?;
                *owner = Some((seg.msg, sid));
            }
        }
        for (_, seg) in self.segs.iter() {
            for &o in &seg.outputs {
                // A requested channel keeps the worm's header state until
                // the header is routed past it.
                let next = ix.chans[o.index()].2.and_then(|sid| self.segs.get(sid));
                let routed = next.is_some_and(|d| d.msg == seg.msg);
                let hdrs = &self.chans[o.index()].hdrs;
                let kept = routed || hdrs.iter().any(|&(m, _)| m == seg.msg);
                let kept = kept || self.flags.to_processor(o);
                ensure(kept, "requested channel holds no header state")?;
            }
        }
        for c in &self.chans {
            let queued = [&c.in_buf, &c.out_buf].map(|q| self.flits.iter(q));
            for f in queued.into_iter().flatten() {
                let last = self.worm_len(f.msg) - 1;
                let fits = match f.kind {
                    FlitKind::Data(seq) => 0 < seq && seq < last,
                    FlitKind::Tail(seq) => seq == last,
                    FlitKind::Header | FlitKind::Bubble => true,
                };
                ensure(fits, "flit disagrees with its worm")?;
            }
            for &(_, sid) in self.requests.iter(&c.ocrq) {
                let waiting = self.segs.get(sid).is_some_and(|s| !s.acquired);
                ensure(waiting, "request from no waiting segment")?;
            }
            for &(_, hid) in &c.hdrs {
                ensure(self.headers.contains(hid), "vacant header slot named")?;
                ensure(!ix.named[hid.index()], "header slot named twice")?;
                ix.named[hid.index()] = true;
            }
        }
        let all = ix.named.iter().filter(|&&n| n).count() == self.headers.len();
        ensure(all, "header slot named by no channel")
    }

    /// Installs the indices of `ix`, built by [`Self::index`] from this
    /// engine's primary state (each request's message is set as it is
    /// read).
    fn install(&mut self, ix: &Index) {
        for (c, &(busy, routing, seg, owner)) in self.chans.iter_mut().zip(&ix.chans) {
            (c.wire_busy, c.route_pending, c.seg, c.owner) = (busy, routing, seg, owner);
        }
        for (m, &(remaining, _)) in self.msgs.iter_mut().zip(&ix.msgs) {
            m.remaining = remaining;
        }
        self.active = ix.msgs.iter().filter(|m| m.1).count();
        let live = self.live_mode();
        for ch in (0..self.chans.len() as u32).map(ChannelId) {
            if live && !self.chans[ch.index()].is_quiescent() {
                self.track(ch);
            }
        }
    }

    /// The engine holds the indices `ix` derived (but the tracked list,
    /// which may keep a channel a wake has not dropped yet).
    fn holds(&self, ix: &Index) -> bool {
        // Each request names a live segment of its own message.
        let live = |&(m, sid): &(MsgId, SlotId)| self.segs.get(sid).is_some_and(|s| s.msg == m);
        let mut msgs = self.msgs.iter().zip(&ix.msgs);
        self.chans.iter().zip(&ix.chans).all(|(c, &want)| {
            (c.wire_busy, c.route_pending, c.seg, c.owner) == want
                && self.requests.iter(&c.ocrq).all(live)
        }) && msgs.all(|(m, &(remaining, _))| m.remaining == remaining)
            && self.active == ix.msgs.iter().filter(|m| m.1).count()
    }
}

/// Reads one length-framed section, verifying the decoder consumed
/// exactly the bytes the encoder produced — misaligned external codecs
/// (routing headers, hook state) surface as typed errors here.
pub(super) fn read_section<T>(
    r: &mut SnapReader,
    tag: u32,
    f: impl FnOnce(&mut SnapReader) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let len = r.expect_section(tag)?;
    let before = r.remaining();
    let v = f(r)?;
    ensure(before - r.remaining() == len, "section length mismatch")?;
    Ok(v)
}

/// Structural fingerprint of a topology: node/channel counts, every
/// channel's endpoints, and every node's kind, FNV-1a folded. Two
/// topologies with equal fingerprints are interchangeable for resuming
/// a snapshot.
fn topo_fingerprint(topo: &Topology) -> u64 {
    let mut h = spam_snapshot::Fnv1a::default();
    h.word(topo.num_nodes() as u64);
    h.word(topo.num_channels() as u64);
    for i in 0..topo.num_channels() {
        let c = topo.channel(ChannelId(i as u32));
        h.word(u64::from(c.src.0));
        h.word(u64::from(c.dst.0));
    }
    for i in 0..topo.num_nodes() {
        h.word(u64::from(topo.is_switch(NodeId(i as u32))));
    }
    h.finish()
}

/// A slab arena, raw: every slot's generation and occupant (`item` writes
/// one), then the free list in order — a restored arena hands out the
/// same `SlotId`s the original would.
fn put_slab<T>(
    w: &mut SnapWriter,
    slab: &Slab<T>,
    mut item: impl FnMut(&mut SnapWriter, &T) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    w.put_len(slab.num_slots());
    let mut result = Ok(());
    slab.snapshot_slots(|gen, slot| {
        w.put_u32(gen);
        w.put_bool(slot.is_some());
        if let (Some(t), true) = (slot, result.is_ok()) {
            result = item(w, t);
        }
    });
    result?;
    let free = slab.free_list();
    w.put_len(free.len());
    for idx in free {
        w.put_u32(idx);
    }
    Ok(())
}

/// Reads back [`put_slab`]; an impossible arena is a typed error.
fn get_slab<T>(
    r: &mut SnapReader,
    ids: &mut IdSpace,
    mut item: impl FnMut(&mut SnapReader, &mut IdSpace) -> Result<T, SnapshotError>,
) -> Result<Slab<T>, SnapshotError> {
    let n = r.get_len()?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let gen = r.get_u32()?;
        let occupant = r.get_bool()?.then(|| item(r, ids)).transpose()?;
        slots.push((gen, occupant));
    }
    Slab::from_raw_parts(slots, Snap::get(r, ids)?).map_err(SnapshotError::Corrupt)
}

/// The schedule: the clock, the sequence counter, then every pending
/// event under its original `(time, seq)` key, in `seq` order — one
/// canonical order, so the bytes are the same under either queue kind.
fn put_schedule<E: Snap + Clone>(
    w: &mut SnapWriter,
    sched: &Schedule<E>,
    pending: &mut Vec<ScheduledEvent<E>>,
) {
    sched.now().put(w);
    sched.scheduled_count().put(w);
    sched.pending_by_seq(pending);
    w.put_len(pending.len());
    for s in pending.iter() {
        s.time.put(w);
        s.seq.put(w);
        s.event.put(w);
    }
}

/// Reads back [`put_schedule`] into a queue of `kind`; a key the original
/// schedule could not have held, or one out of `seq` order, is a typed
/// error.
fn get_schedule<E: Snap>(
    r: &mut SnapReader,
    ids: &mut IdSpace,
    kind: QueueKind,
) -> Result<Schedule<E>, SnapshotError> {
    let now = Time::get(r, ids)?;
    let next_seq = u64::get(r, ids)?;
    let mut sched = Schedule::restore_empty(kind, now, next_seq);
    let mut last_seq = None;
    for _ in 0..r.get_len()? {
        let (at, seq, event) = (Time::get(r, ids)?, u64::get(r, ids)?, E::get(r, ids)?);
        let in_range = at >= now && seq < next_seq;
        ensure(in_range, "pending event key out of range")?;
        ensure(last_seq < Some(seq), "pending events out of seq order")?;
        last_seq = Some(seq);
        sched.insert_restored(at, seq, event);
    }
    Ok(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{rejects_tag, round_trips};
    use crate::routing::OracleRouting;
    use spam_snapshot::fnv1a;

    /// The engine-private tables, through the same two checks as every
    /// other one (`codec::tests`).
    #[test]
    fn engine_tables_round_trip_and_reject() {
        let (msg, ch) = (MsgId(2), ChannelId(9));
        round_trips(&Event::SourceReady(msg));
        round_trips(&Event::RouteDecision { msg, in_ch: ch });
        round_trips(&Event::WireDone(ch));
        round_trips(&Event::LinkDown(ch));
        rejects_tag::<Event>(4, "unknown event tag");
        for input in [SegInput::Source { next: 17 }, SegInput::Channel(ch)] {
            round_trips(&Segment {
                msg,
                input,
                outputs: InlineVec::from_slice(&[ch, ChannelId(3)]),
                acquired: true,
                candidate: false,
            });
        }
        rejects_tag::<SegInput>(2, "unknown segment input tag");
    }

    /// The dead channels travel as an ascending id list, and `restore`
    /// holds it to that, to the fabric, and to links dying whole.
    #[test]
    fn dead_channel_list_is_checked() {
        let mut b = Topology::builder();
        let s: [NodeId; 4] = std::array::from_fn(|_| b.add_switch());
        for pair in s.windows(2) {
            b.link(pair[0], pair[1]).unwrap();
        }
        let topo = b.build();
        let cfg = SimConfig::paper();
        let mut sim = NetworkSim::new(&topo, OracleRouting::new(&topo), cfg);
        // Links 0 and 1, both directions; link 2 (channels 4, 5) lives.
        (0..4).for_each(|c| sim.flags.kill(ChannelId(c)));
        let mut w = SnapWriter::new();
        sim.snapshot(&mut w).unwrap();
        let bytes = w.seal().to_vec();
        let restore = |b: &[u8]| NetworkSim::restore(&topo, OracleRouting::new(&topo), cfg, b);
        let back = restore(&bytes).unwrap();
        let dead: Vec<_> = topo.channel_ids().filter(|&c| back.flags.dead(c)).collect();
        assert_eq!(dead, (0..4).map(ChannelId).collect::<Vec<_>>());

        // The list is its length, then one varint per id.
        let list = [4, 0, 1, 2, 3];
        let at: Vec<_> = (0..bytes.len() - 5)
            .filter(|&i| bytes[i..i + 5] == list)
            .collect();
        assert_eq!(at.len(), 1, "the dead list appears once");
        for (ids, err) in [
            ([0, 2, 1, 3], "dead channels out of order"),
            ([0, 1, 2, 2], "dead channels out of order"),
            ([0, 1, 2, 6], "channel id outside the topology"),
            ([0, 1, 2, 4], "dead channel with a live reverse"),
        ] {
            let mut b = bytes.clone();
            b[at[0] + 1..at[0] + 5].copy_from_slice(&ids);
            let body = b.len() - 8;
            let sum = fnv1a(&b[..body]);
            b[body..].copy_from_slice(&sum.to_le_bytes());
            assert_eq!(
                restore(&b).err(),
                Some(SnapshotError::Corrupt(err)),
                "{ids:?}"
            );
        }
    }
}
