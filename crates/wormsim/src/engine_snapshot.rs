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
//!   `(time, seq)` key, in `seq` order whatever the queue kind), all
//!   channel state, message state, both slab
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
//! * **Written once.** Each type's layout is one table beside the type
//!   (`codec::snap_struct!` / `codec::snap_enum!`) that both directions
//!   follow; this module frames the sections, names the order of the
//!   engine's own fields within them, and validates.
//!
//! The container format (magic, version, sections, checksum trailer)
//! is defined by [`spam_snapshot`]; this module defines the section
//! layout for the engine.

use super::*;
use crate::codec::{ensure, put_list, IdSpace, Snap};
use desim::{QueueKind, ScheduledEvent};
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
        self.encode(w, hook, &mut Vec::new())
    }

    /// [`Self::snapshot_with_hook`], sorting the pending events in a
    /// buffer the caller lends: the checkpointer keeps one, so its
    /// checkpoints allocate nothing once it has grown.
    pub(super) fn encode(
        &self,
        w: &mut SnapWriter,
        hook: &dyn CompletionHook,
        pending: &mut Vec<ScheduledEvent<Event>>,
    ) -> Result<(), SnapshotError> {
        w.begin();

        let s = w.begin_section(SECT_META);
        w.put_u64(topo_fingerprint(self.topo));
        for (_, word) in config_words(&self.cfg) {
            w.put_u64(word);
        }
        w.put_str(self.routing.snapshot_name());
        w.end_section(s);

        let s = w.begin_section(SECT_SCHED);
        put_schedule(w, &self.sched, pending);
        w.end_section(s);

        let s = w.begin_section(SECT_CHANS);
        w.put_len(self.chans.len());
        for c in &self.chans {
            c.put_snap(w, &self.flits, &self.requests);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_MSGS);
        w.put_len(self.msgs.len());
        for m in &self.msgs {
            m.put_snap(w, &self.dests, &self.live);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_SEGS);
        put_slab(w, &self.segs, |w, seg| {
            seg.put(w);
            Ok(())
        })?;
        w.end_section(s);

        let s = w.begin_section(SECT_HEADERS);
        put_slab(w, &self.headers, |w, h| self.routing.encode_header(h, w))?;
        w.end_section(s);

        let s = w.begin_section(SECT_ENGINE);
        self.counters.put(w);
        self.obs.encode_coverage(w);
        // A run-aborting error ends the run before the next checkpoint
        // tick, so live checkpoints never see one; recorded defensively
        // for the standalone snapshot API, and rejected on restore.
        w.put_bool(self.error.is_some());
        self.last_progress.put(w);
        self.active.put(w);
        self.pending_completions.put(w);
        self.bubble_candidates.put(w);
        w.put_len(self.chans.len());
        for i in 0..self.chans.len() {
            self.flags.dead(ChannelId(i as u32)).put(w);
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
    ///
    /// The tables decode; what is spelled out here is section framing
    /// and validation. Every id is held against the fabric and the
    /// message table and every count and derived length against its
    /// source, so a snapshot that restores cannot index outside either.
    /// Consistency *between* structures (a busy wire has a flit to carry,
    /// a live-segment list agrees with the slab) is not checked.
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
            if r.get_u64()? != topo_fingerprint(topo) {
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

        sim.sched = read_section(&mut r, SECT_SCHED, |r| {
            get_schedule(r, ids, sim.cfg.resolved_queue())
        })?;

        read_section(&mut r, SECT_CHANS, |r| {
            ensure(r.get_len()? == sim.chans.len(), "channel count mismatch")?;
            for c in sim.chans.iter_mut() {
                c.get_snap(r, ids, &mut sim.flits, &mut sim.requests)?;
            }
            Ok(())
        })?;

        sim.msgs = read_section(&mut r, SECT_MSGS, |r| {
            let n = r.get_len()?;
            let mut msgs = Vec::with_capacity(n);
            for _ in 0..n {
                let (dests, index) = (&mut sim.dests, &mut sim.dest_index);
                msgs.push(MsgState::get_snap(r, ids, dests, index, &mut sim.live)?);
            }
            Ok(msgs)
        })?;
        for m in &sim.msgs {
            ensure(
                m.remaining <= m.spec.dests.len(),
                "remaining exceeds destinations",
            )?;
            // Like the destination index, `worm_len` is derived, and a worm
            // whose length is not its message's never ends; unlike it, it
            // is on the wire, so it is compared instead of recomputed.
            ensure(
                m.spec.len.checked_add(sim.cfg.extra_header_flits) == Some(m.worm_len),
                "worm length disagrees with its message",
            )?;
            ensure(
                sim.dests[m.dest_run()]
                    .iter()
                    .all(|d| d.next_seq <= m.worm_len),
                "destination expects a flit past its worm's tail",
            )?;
        }

        sim.segs = read_section(&mut r, SECT_SEGS, |r| get_slab(r, ids, Snap::get))?;

        sim.headers = read_section(&mut r, SECT_HEADERS, |r| {
            get_slab(r, ids, |r, _| sim.routing.decode_header(r))
        })?;

        read_section(&mut r, SECT_ENGINE, |r| {
            sim.counters = Snap::get(r, ids)?;
            // Every event ever scheduled has either fired or is pending; a
            // count above that would end the resumed run at the event cap.
            let pending = sim.sched.len() as u64;
            ensure(
                sim.counters.events.checked_add(pending) == Some(sim.sched.scheduled_count()),
                "event count disagrees with the schedule",
            )?;
            sim.obs.decode_coverage(r, ids)?;
            ensure(!r.get_bool()?, "snapshot taken after a run-aborting error")?;
            sim.last_progress = Snap::get(r, ids)?;
            sim.active = Snap::get(r, ids)?;
            sim.pending_completions = Snap::get(r, ids)?;
            sim.bubble_candidates = Snap::get(r, ids)?;
            ensure(
                r.get_len()? == sim.chans.len(),
                "death mask length mismatch",
            )?;
            for i in 0..sim.chans.len() {
                if bool::get(r, ids)? {
                    sim.flags.kill(ChannelId(i as u32));
                }
            }
            sim.fault_times = Snap::get(r, ids)?;
            sim.obs.decode_checkpointer(r)
        })?;

        sim.obs.decode_sections(&mut r, ids)?;

        read_section(&mut r, SECT_HOOK, |r| hook.decode_state(r))?;

        r.finish()?;

        // Message ids precede the message table on the wire, so they are
        // held against it here, once its length is known; only then can a
        // segment be held against its message.
        ids.check_msgs(sim.msgs.len())?;
        for (_, seg) in sim.segs.iter() {
            // A live source segment has not emitted its tail yet.
            let worm_len = sim.msgs[seg.msg.index()].worm_len;
            ensure(
                !matches!(seg.input, SegInput::Source { next } if next >= worm_len),
                "source segment past its worm's tail",
            )?;
        }
        // The tracked list is derived state: in a live run, every channel
        // the snapshot shows holding anything.
        if sim.live_mode() {
            for i in 0..sim.chans.len() {
                if !sim.chans[i].is_quiescent() {
                    sim.track(ChannelId(i as u32));
                }
            }
        }
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
    put_list(w, slab.free_list());
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
        let occupant = if r.get_bool()? {
            Some(item(r, ids)?)
        } else {
            None
        };
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
        ensure(
            at >= now && seq < next_seq,
            "pending event key out of range",
        )?;
        ensure(last_seq < Some(seq), "pending events out of seq order")?;
        last_seq = Some(seq);
        sched.insert_restored(at, seq, event);
    }
    Ok(sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::{rejects_tag, round_trips, round_trips_via};

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
            });
        }
        rejects_tag::<SegInput>(2, "unknown segment input tag");
        // A message is written beside its arenas: read back behind another
        // message's run, its words come out the same.
        let dests = [
            DestState {
                next_seq: 64,
                done_at: Some(Time::from_ns(11_000)),
            },
            DestState {
                next_seq: 12,
                done_at: None,
            },
        ];
        let mut live = RunPool::new();
        let mut live_segs = Run::new();
        for i in 0..5 {
            live.push(&mut live_segs, SlotId::from_raw(i, 3));
        }
        let m = MsgState {
            spec: MessageSpec::multicast(NodeId(5), vec![NodeId(8), NodeId(6)], 64),
            worm_len: 64,
            dests_at: 0,
            remaining: 1,
            completed_at: None,
            failure: None,
            live_segs,
        };
        let mut w = SnapWriter::new();
        m.put_snap(&mut w, &dests, &live);
        round_trips_via(w.as_bytes(), |r, ids| {
            let mut dests = vec![FRESH_DEST];
            let mut index = vec![(NodeId(1), 0)];
            let mut live = RunPool::new();
            let back = MsgState::get_snap(r, ids, &mut dests, &mut index, &mut live)?;
            assert_eq!(back.dests_at, 1);
            assert_eq!(index[1..], [(NodeId(6), 1), (NodeId(8), 0)]);
            let mut w = SnapWriter::new();
            back.put_snap(&mut w, &dests, &live);
            Ok(w.as_bytes().to_vec())
        });
    }
}
