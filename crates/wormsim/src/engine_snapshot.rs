//! Mid-run engine checkpointing: a complete, versioned serialization of
//! [`NetworkSim`]'s live state.
//!
//! ## Design
//!
//! * **Read-only.** Taking a snapshot reads the engine and fills a
//!   buffer; *when* one is taken is the checkpointer's business, and it
//!   lives with the other observers (`observe.rs`).
//! * **Complete state.** A snapshot captures the schedule (clock,
//!   sequence counter, and every pending event under its original
//!   `(time, seq)` key), all channel state, message state, both slab
//!   arenas *raw* (slot generations and free-list order included — a
//!   resumed run hands out the same `SlotId`s the original would), the
//!   counters, the completion hook's state, and — written and read by
//!   the observer seam itself (`observe.rs`) — the coverage record, the
//!   trace, the telemetry rings and the checkpointer's own cadence.
//!   `run == resume(checkpoint(run))` holds exactly.
//! * **Typed failure.** Restoring from truncated, corrupt, or
//!   mismatched input returns a [`SnapshotError`]; this module never
//!   panics on bad bytes (the container checksum catches random
//!   corruption up front, and every structural check here is an error
//!   path, not an assert).
//!
//! The container format (magic, version, sections, checksum trailer)
//! is defined by [`spam_snapshot`]; this module defines the section
//! layout for the engine.

use super::*;
use crate::codec::Snap;
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};

const SECT_META: u32 = 1;
const SECT_SCHED: u32 = 2;
const SECT_CHANS: u32 = 3;
const SECT_MSGS: u32 = 4;
const SECT_SEGS: u32 = 5;
const SECT_HEADERS: u32 = 6;
const SECT_ENGINE: u32 = 7;
// Sections 8 and 9 (trace, telemetry) belong to the observer seam.
const SECT_HOOK: u32 = 10;

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
        w.begin();

        let s = w.begin_section(SECT_META);
        w.put_u64(topo_fingerprint(self.topo));
        w.put_u64(self.cfg.latency.startup.as_ns());
        w.put_u64(self.cfg.latency.router_setup.as_ns());
        w.put_u64(self.cfg.latency.channel_prop.as_ns());
        w.put_usize(self.cfg.input_buffer_flits);
        w.put_usize(self.cfg.output_buffer_flits);
        w.put_u64(self.cfg.watchdog.as_ns());
        w.put_u64(self.cfg.max_events);
        w.put_u64(u64::from(self.cfg.extra_header_flits));
        w.put_str(self.routing.snapshot_name());
        w.end_section(s);

        let s = w.begin_section(SECT_SCHED);
        w.put_u64(self.sched.now().as_ns());
        w.put_u64(self.sched.scheduled_count());
        w.put_len(self.sched.len());
        self.sched.snapshot_each(|t, seq, e| {
            w.put_u64(t.as_ns());
            w.put_u64(seq);
            put_event(w, e);
        });
        w.end_section(s);

        let s = w.begin_section(SECT_CHANS);
        w.put_len(self.chans.len());
        for c in &self.chans {
            w.put_len(c.out_buf.len());
            for f in self.flits.iter(&c.out_buf) {
                put_flit(w, f);
            }
            w.put_len(c.in_buf.len());
            for f in self.flits.iter(&c.in_buf) {
                put_flit(w, f);
            }
            w.put_bool(c.wire_busy);
            w.put_u8(c.reserved_in);
            w.put_bool(c.owner.is_some());
            if let Some((m, sid)) = c.owner {
                w.put_u32(m.0);
                sid.put(w);
            }
            w.put_len(c.ocrq.len());
            for &(m, sid) in self.requests.iter(&c.ocrq) {
                w.put_u32(m.0);
                sid.put(w);
            }
            w.put_bool(c.seg.is_some());
            if let Some(sid) = c.seg {
                sid.put(w);
            }
            w.put_len(c.hdrs.len());
            for &(m, hid) in c.hdrs.iter() {
                w.put_u32(m.0);
                hid.put(w);
            }
            w.put_bool(c.route_pending);
            w.put_u64(c.crossings);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_MSGS);
        w.put_len(self.msgs.len());
        for m in &self.msgs {
            put_spec(w, &m.spec);
            w.put_u32(m.worm_len);
            w.put_len(m.dests.len());
            for d in &m.dests {
                w.put_u32(d.next_seq);
                w.put_opt_u64(d.done_at.map(Time::as_ns));
            }
            w.put_usize(m.remaining);
            w.put_opt_u64(m.completed_at.map(Time::as_ns));
            w.put_bool(m.failure.is_some());
            if let Some(f) = &m.failure {
                w.put_u64(f.at.as_ns());
                w.put_u8(match f.kind {
                    FailureKind::TornDown => 0,
                    FailureKind::Unreachable => 1,
                });
                f.error.put(w);
            }
            m.live_segs.put(w);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_SEGS);
        put_slab(w, &self.segs, |w, seg| {
            w.put_u32(seg.msg.0);
            match seg.input {
                SegInput::Source { next } => {
                    w.put_u8(0);
                    w.put_u32(next);
                }
                SegInput::Channel(ch) => {
                    w.put_u8(1);
                    w.put_u32(ch.0);
                }
            }
            seg.outputs.put(w);
            w.put_bool(seg.acquired);
            Ok(())
        })?;
        w.end_section(s);

        let s = w.begin_section(SECT_HEADERS);
        put_slab(w, &self.headers, |w, h| self.routing.encode_header(h, w))?;
        w.end_section(s);

        let s = w.begin_section(SECT_ENGINE);
        let c = &self.counters;
        w.put_u64(c.events);
        w.put_u64(c.wire_transfers);
        w.put_u64(c.bubbles_created);
        w.put_u64(c.flits_delivered);
        w.put_u64(c.messages_completed);
        w.put_u64(c.acquisitions);
        w.put_u64(c.seg_lookups);
        w.put_u64(c.messages_torn_down);
        w.put_u64(c.messages_unreachable);
        w.put_u64(c.links_killed);
        self.obs.encode_coverage(w);
        // A run-aborting error ends the run before the next checkpoint
        // tick, so live checkpoints never see one; recorded defensively
        // for the standalone snapshot API, and rejected on restore.
        w.put_bool(self.error.is_some());
        w.put_u64(self.last_progress.as_ns());
        w.put_usize(self.active);
        self.pending_completions.put(w);
        self.bubble_candidates.put(w);
        w.put_len(self.dead.len());
        for &d in &self.dead {
            w.put_bool(d);
        }
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
    pub fn restore_with_hook(
        topo: &'a Topology,
        routing: R,
        cfg: SimConfig,
        bytes: &[u8],
        hook: &mut dyn CompletionHook,
    ) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::open(bytes)?;
        let mut sim = NetworkSim::new(topo, routing, cfg);

        read_section(&mut r, SECT_META, |r| {
            if r.get_u64()? != topo_fingerprint(sim.topo) {
                return Err(SnapshotError::ConfigMismatch(
                    "topology differs from the snapshot's",
                ));
            }
            let want = [
                ("startup latency", sim.cfg.latency.startup.as_ns()),
                ("router-setup latency", sim.cfg.latency.router_setup.as_ns()),
                ("channel propagation", sim.cfg.latency.channel_prop.as_ns()),
                ("input buffer depth", sim.cfg.input_buffer_flits as u64),
                ("output buffer depth", sim.cfg.output_buffer_flits as u64),
                ("watchdog", sim.cfg.watchdog.as_ns()),
                ("event cap", sim.cfg.max_events),
                ("extra header flits", u64::from(sim.cfg.extra_header_flits)),
            ];
            for (name, expect) in want {
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

        read_section(&mut r, SECT_SCHED, |r| {
            let now = Time::from_ns(r.get_u64()?);
            let next_seq = r.get_u64()?;
            let n = r.get_len()?;
            let mut sched = Schedule::restore_empty(sim.cfg.resolved_queue(), now, next_seq);
            for _ in 0..n {
                let at = Time::from_ns(r.get_u64()?);
                let seq = r.get_u64()?;
                let ev = get_event(r)?;
                if at < now || seq >= next_seq {
                    return Err(SnapshotError::Corrupt("pending event key out of range"));
                }
                sched.insert_restored(at, seq, ev);
            }
            sim.sched = sched;
            Ok(())
        })?;

        read_section(&mut r, SECT_CHANS, |r| {
            if r.get_len()? != sim.topo.num_channels() {
                return Err(SnapshotError::Corrupt("channel count mismatch"));
            }
            for c in sim.chans.iter_mut() {
                for _ in 0..r.get_len()? {
                    let f = get_flit(r)?;
                    sim.flits.push_back(&mut c.out_buf, f);
                }
                for _ in 0..r.get_len()? {
                    let f = get_flit(r)?;
                    sim.flits.push_back(&mut c.in_buf, f);
                }
                c.wire_busy = r.get_bool()?;
                c.reserved_in = r.get_u8()?;
                if r.get_bool()? {
                    c.owner = Some((MsgId(r.get_u32()?), SlotId::get(r)?));
                }
                for _ in 0..r.get_len()? {
                    let m = MsgId(r.get_u32()?);
                    let sid = SlotId::get(r)?;
                    sim.requests.push_back(&mut c.ocrq, (m, sid));
                }
                if r.get_bool()? {
                    c.seg = Some(SlotId::get(r)?);
                }
                for _ in 0..r.get_len()? {
                    let m = MsgId(r.get_u32()?);
                    let hid = SlotId::get(r)?;
                    c.hdrs.push((m, hid));
                }
                c.route_pending = r.get_bool()?;
                c.crossings = r.get_u64()?;
            }
            Ok(())
        })?;

        read_section(&mut r, SECT_MSGS, |r| {
            let n = r.get_len()?;
            sim.msgs.reserve(n);
            for _ in 0..n {
                let spec = get_spec(r)?;
                let worm_len = r.get_u32()?;
                let nd = r.get_len()?;
                if nd != spec.dests.len() {
                    return Err(SnapshotError::Corrupt("destination state count mismatch"));
                }
                let mut dests = Vec::with_capacity(nd);
                for _ in 0..nd {
                    dests.push(DestState {
                        next_seq: r.get_u32()?,
                        done_at: r.get_opt_u64()?.map(Time::from_ns),
                    });
                }
                let remaining = r.get_usize()?;
                if remaining > nd {
                    return Err(SnapshotError::Corrupt("remaining exceeds destinations"));
                }
                let completed_at = r.get_opt_u64()?.map(Time::from_ns);
                let failure = if r.get_bool()? {
                    Some(MessageFailure {
                        at: Time::from_ns(r.get_u64()?),
                        kind: match r.get_u8()? {
                            0 => FailureKind::TornDown,
                            1 => FailureKind::Unreachable,
                            _ => return Err(SnapshotError::Corrupt("unknown failure kind")),
                        },
                        error: SimError::get(r)?,
                    })
                } else {
                    None
                };
                let live_segs = Snap::get(r)?;
                sim.msgs.push(MsgState {
                    dest_slot: MsgState::dest_index(&spec),
                    spec,
                    worm_len,
                    dests,
                    remaining,
                    completed_at,
                    failure,
                    live_segs,
                });
            }
            Ok(())
        })?;

        sim.segs = read_section(&mut r, SECT_SEGS, |r| {
            get_slab(r, |r| {
                let msg = MsgId(r.get_u32()?);
                let input = match r.get_u8()? {
                    0 => SegInput::Source { next: r.get_u32()? },
                    1 => SegInput::Channel(ChannelId(r.get_u32()?)),
                    _ => return Err(SnapshotError::Corrupt("unknown segment input tag")),
                };
                Ok(Segment {
                    msg,
                    input,
                    outputs: Snap::get(r)?,
                    acquired: r.get_bool()?,
                })
            })
        })?;

        sim.headers = read_section(&mut r, SECT_HEADERS, |r| {
            get_slab(r, |r| sim.routing.decode_header(r))
        })?;

        read_section(&mut r, SECT_ENGINE, |r| {
            let c = &mut sim.counters;
            c.events = r.get_u64()?;
            c.wire_transfers = r.get_u64()?;
            c.bubbles_created = r.get_u64()?;
            c.flits_delivered = r.get_u64()?;
            c.messages_completed = r.get_u64()?;
            c.acquisitions = r.get_u64()?;
            c.seg_lookups = r.get_u64()?;
            c.messages_torn_down = r.get_u64()?;
            c.messages_unreachable = r.get_u64()?;
            c.links_killed = r.get_u64()?;
            sim.obs.decode_coverage(r)?;
            if r.get_bool()? {
                return Err(SnapshotError::Corrupt(
                    "snapshot taken after a run-aborting error",
                ));
            }
            sim.last_progress = Time::from_ns(r.get_u64()?);
            sim.active = r.get_usize()?;
            sim.pending_completions = Snap::get(r)?;
            sim.bubble_candidates = Snap::get(r)?;
            if r.get_len()? != sim.dead.len() {
                return Err(SnapshotError::Corrupt("death mask length mismatch"));
            }
            for d in sim.dead.iter_mut() {
                *d = r.get_bool()?;
            }
            sim.fault_times = Snap::get(r)?;
            sim.obs.decode_checkpointer(r)
        })?;

        sim.obs.decode_sections(&mut r)?;

        read_section(&mut r, SECT_HOOK, |r| hook.decode_state(r))?;

        r.finish()?;
        Ok(sim)
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
    if before - r.remaining() != len {
        return Err(SnapshotError::Corrupt("section length mismatch"));
    }
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
    w.put_len(slab.free_list().len());
    for &i in slab.free_list() {
        w.put_u32(i);
    }
    Ok(())
}

/// Reads back [`put_slab`]; an impossible arena is a typed error.
fn get_slab<T>(
    r: &mut SnapReader,
    mut item: impl FnMut(&mut SnapReader) -> Result<T, SnapshotError>,
) -> Result<Slab<T>, SnapshotError> {
    let n = r.get_len()?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let gen = r.get_u32()?;
        let occupant = if r.get_bool()? { Some(item(r)?) } else { None };
        slots.push((gen, occupant));
    }
    let mut free = Vec::new();
    for _ in 0..r.get_len()? {
        free.push(r.get_u32()?);
    }
    Slab::from_raw_parts(slots, free).map_err(SnapshotError::Corrupt)
}

fn put_event(w: &mut SnapWriter, e: &Event) {
    match *e {
        Event::SourceReady(m) => {
            w.put_u8(0);
            w.put_u32(m.0);
        }
        Event::RouteDecision { msg, in_ch } => {
            w.put_u8(1);
            w.put_u32(msg.0);
            w.put_u32(in_ch.0);
        }
        Event::WireDone(ch) => {
            w.put_u8(2);
            w.put_u32(ch.0);
        }
        Event::LinkDown(ch) => {
            w.put_u8(3);
            w.put_u32(ch.0);
        }
    }
}

fn get_event(r: &mut SnapReader) -> Result<Event, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => Event::SourceReady(MsgId(r.get_u32()?)),
        1 => Event::RouteDecision {
            msg: MsgId(r.get_u32()?),
            in_ch: ChannelId(r.get_u32()?),
        },
        2 => Event::WireDone(ChannelId(r.get_u32()?)),
        3 => Event::LinkDown(ChannelId(r.get_u32()?)),
        _ => return Err(SnapshotError::Corrupt("unknown event tag")),
    })
}

fn put_flit(w: &mut SnapWriter, f: &Flit) {
    w.put_u32(f.msg.0);
    match f.kind {
        FlitKind::Header => w.put_u8(0),
        FlitKind::Data(s) => {
            w.put_u8(1);
            w.put_u32(s);
        }
        FlitKind::Tail(s) => {
            w.put_u8(2);
            w.put_u32(s);
        }
        FlitKind::Bubble => w.put_u8(3),
    }
}

fn get_flit(r: &mut SnapReader) -> Result<Flit, SnapshotError> {
    let msg = MsgId(r.get_u32()?);
    let kind = match r.get_u8()? {
        0 => FlitKind::Header,
        1 => FlitKind::Data(r.get_u32()?),
        2 => FlitKind::Tail(r.get_u32()?),
        3 => FlitKind::Bubble,
        _ => return Err(SnapshotError::Corrupt("unknown flit kind")),
    };
    Ok(Flit { msg, kind })
}

fn put_spec(w: &mut SnapWriter, s: &MessageSpec) {
    s.src.put(w);
    s.dests.put(w);
    w.put_u32(s.len);
    w.put_u64(s.gen_time.as_ns());
    w.put_u64(s.tag);
}

fn get_spec(r: &mut SnapReader) -> Result<MessageSpec, SnapshotError> {
    Ok(MessageSpec {
        src: Snap::get(r)?,
        dests: Snap::get(r)?,
        len: r.get_u32()?,
        gen_time: Time::from_ns(r.get_u64()?),
        tag: r.get_u64()?,
    })
}
