//! Mid-run engine checkpointing: a complete, versioned serialization of
//! [`NetworkSim`]'s live state, plus the run-loop driver that takes
//! snapshots on a fixed sim-time cadence.
//!
//! ## Design
//!
//! * **Pure observer.** Checkpoints ride a [`desim::Ticker`] beside the
//!   event queue, exactly like the telemetry sampler: nothing is ever
//!   scheduled, so the event stream — and every digest-pinned outcome
//!   field — is byte-identical with checkpointing on or off.
//! * **Complete state.** A snapshot captures the schedule (clock,
//!   sequence counter, and every pending event under its original
//!   `(time, seq)` key), all channel state, message state, both slab
//!   arenas *raw* (slot generations and free-list order included — a
//!   resumed run hands out the same `SlotId`s the original would), the
//!   counters and coverage record, the trace, the telemetry rings, the
//!   completion hook's state, and the checkpointer's own cadence.
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
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const SECT_META: u32 = 1;
const SECT_SCHED: u32 = 2;
const SECT_CHANS: u32 = 3;
const SECT_MSGS: u32 = 4;
const SECT_SEGS: u32 = 5;
const SECT_HEADERS: u32 = 6;
const SECT_ENGINE: u32 = 7;
const SECT_TRACE: u32 = 8;
const SECT_METRICS: u32 = 9;
const SECT_HOOK: u32 = 10;

/// Shared digest ledger: one `(sim_time_ns, checksum)` row per checkpoint.
pub type DigestLedger = Arc<Mutex<Vec<(u64, u64)>>>;
/// Shared cell holding the most recent snapshot as `(sim_time_ns, bytes)`.
pub type LatestCell = Arc<Mutex<Option<(u64, Vec<u8>)>>>;
/// Shared log collecting every snapshot as `(sim_time_ns, bytes)`.
pub type SnapshotLog = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

/// Where periodic checkpoints go. All variants are cheap for the run
/// loop; the shared cells let callers read results after `run` (which
/// consumes the simulator).
pub enum CheckpointSink {
    /// Record only the digest ledger: `(sim_time_ns, checksum)` per
    /// checkpoint, no snapshot bytes retained. The cheapest sink — the
    /// checkpoint-equivalence oracle compares two runs' ledgers.
    Digests(DigestLedger),
    /// Keep the most recent snapshot's bytes (crash-recovery in memory).
    Latest(LatestCell),
    /// Keep every snapshot — the divergence bisector's input.
    Keep(SnapshotLog),
    /// Atomically persist the most recent snapshot to this path (write a
    /// sibling `.tmp`, then rename), best-effort: an I/O failure skips
    /// that checkpoint rather than perturbing or aborting the run.
    File(PathBuf),
}

impl CheckpointSink {
    /// A digest-ledger sink plus the shared cell to read it from after
    /// the run.
    pub fn digests() -> (Self, DigestLedger) {
        let cell = Arc::new(Mutex::new(Vec::with_capacity(256)));
        (CheckpointSink::Digests(cell.clone()), cell)
    }

    /// A latest-snapshot sink plus the shared cell holding the bytes.
    pub fn latest() -> (Self, LatestCell) {
        let cell = Arc::new(Mutex::new(None));
        (CheckpointSink::Latest(cell.clone()), cell)
    }

    /// A keep-everything sink plus the shared cell collecting snapshots.
    pub fn keep_all() -> (Self, SnapshotLog) {
        let cell = Arc::new(Mutex::new(Vec::new()));
        (CheckpointSink::Keep(cell.clone()), cell)
    }

    fn store(&self, at_ns: u64, bytes: &[u8]) {
        match self {
            CheckpointSink::Digests(cell) => {
                if let Ok(mut v) = cell.lock() {
                    v.push((at_ns, spam_snapshot::fnv1a(bytes)));
                }
            }
            CheckpointSink::Latest(cell) => {
                if let Ok(mut v) = cell.lock() {
                    match v.as_mut() {
                        // Reuse the previous checkpoint's allocation.
                        Some((at, buf)) => {
                            *at = at_ns;
                            buf.clear();
                            buf.extend_from_slice(bytes);
                        }
                        None => *v = Some((at_ns, bytes.to_vec())),
                    }
                }
            }
            CheckpointSink::Keep(cell) => {
                if let Ok(mut v) = cell.lock() {
                    v.push((at_ns, bytes.to_vec()));
                }
            }
            CheckpointSink::File(path) => {
                let tmp = path.with_extension("snap.tmp");
                if std::fs::write(&tmp, bytes).is_ok() {
                    let _ = std::fs::rename(&tmp, path);
                }
            }
        }
    }
}

/// Live checkpointing state (see [`NetworkSim::enable_checkpoints`]).
/// The writer buffer is allocated once and reused for every snapshot,
/// so steady-state checkpointing through a [`CheckpointSink::Digests`]
/// sink allocates nothing.
pub(crate) struct CheckpointState {
    pub(crate) ticker: Ticker,
    sink: CheckpointSink,
    writer: SnapWriter,
    /// Set on the first encode failure (e.g. a routing algorithm with no
    /// header codec): checkpointing disables itself rather than
    /// perturbing or aborting the run. The last error is kept for
    /// diagnosis via the engine's debug assertions in tests.
    dead: Option<SnapshotError>,
}

impl<'a, R: RoutingAlgorithm> NetworkSim<'a, R> {
    /// Enables periodic full-state checkpointing every `every` of
    /// simulation time, delivering snapshots to `sink`. A pure observer:
    /// the simulated outcome is byte-identical with checkpointing on or
    /// off. The snapshot buffer is preallocated here and reused for
    /// every checkpoint.
    ///
    /// # Panics
    ///
    /// Panics on a zero cadence — that ticker never advances.
    pub fn enable_checkpoints(&mut self, every: Duration, sink: CheckpointSink) {
        self.checkpoint = Some(Box::new(CheckpointState {
            ticker: Ticker::every(every),
            sink,
            writer: SnapWriter::with_capacity(16 * 1024),
            dead: None,
        }));
    }

    /// Replaces the sink of an already-enabled checkpointer without
    /// touching its cadence — the call a restored run uses to re-point
    /// checkpoints at its own ledger or file.
    pub fn set_checkpoint_sink(&mut self, sink: CheckpointSink) {
        if let Some(cs) = self.checkpoint.as_mut() {
            cs.sink = sink;
        }
    }

    /// Fires every due checkpoint tick `<= upto` (the timestamp of the
    /// event about to be handled). Engine state is constant between
    /// events, so a multi-tick drain encodes once, stamped at the last
    /// due instant; the snapshot stores the *advanced* ticker, so a
    /// resumed run's ledger lines up with the original's after the
    /// resume point.
    pub(crate) fn checkpoint_through(&mut self, upto: Time, hook: &dyn CompletionHook) {
        let Some(mut cs) = self.checkpoint.take() else {
            return;
        };
        if cs.dead.is_none() && cs.ticker.next_at() <= upto {
            let mut last = cs.ticker.next_at();
            cs.ticker.drain_through(upto, |at| last = at);
            let ckpt = Some(cs.ticker);
            match self.encode_snapshot_inner(&mut cs.writer, hook, ckpt) {
                Ok(()) => {
                    let bytes = cs.writer.seal();
                    cs.sink.store(last.as_ns(), bytes);
                }
                Err(e) => cs.dead = Some(e),
            }
        }
        self.checkpoint = Some(cs);
    }

    /// Serializes the engine's complete current state into `w` (the
    /// caller seals and stores the buffer). `hook` contributes the
    /// completion hook's mutable state; pass [`NoHook`] via
    /// [`Self::snapshot`] when no hook is in play.
    pub fn snapshot_with_hook(
        &self,
        w: &mut SnapWriter,
        hook: &dyn CompletionHook,
    ) -> Result<(), SnapshotError> {
        let ckpt = self.checkpoint.as_ref().map(|c| c.ticker);
        self.encode_snapshot_inner(w, hook, ckpt)
    }

    /// [`Self::snapshot_with_hook`] with no completion hook.
    pub fn snapshot(&self, w: &mut SnapWriter) -> Result<(), SnapshotError> {
        self.snapshot_with_hook(w, &NoHook)
    }

    fn encode_snapshot_inner(
        &self,
        w: &mut SnapWriter,
        hook: &dyn CompletionHook,
        ckpt: Option<Ticker>,
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
                put_slot(w, sid);
            }
            w.put_len(c.ocrq.len());
            for &(m, sid) in self.requests.iter(&c.ocrq) {
                w.put_u32(m.0);
                put_slot(w, sid);
            }
            w.put_bool(c.seg.is_some());
            if let Some(sid) = c.seg {
                put_slot(w, sid);
            }
            w.put_len(c.hdrs.len());
            for &(m, hid) in c.hdrs.iter() {
                w.put_u32(m.0);
                put_slot(w, hid);
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
                put_sim_error(w, &f.error);
            }
            w.put_len(m.live_segs.len());
            for &sid in m.live_segs.iter() {
                put_slot(w, sid);
            }
        }
        w.end_section(s);

        let s = w.begin_section(SECT_SEGS);
        w.put_len(self.segs.num_slots());
        self.segs.snapshot_slots(|gen, seg| {
            w.put_u32(gen);
            w.put_bool(seg.is_some());
            if let Some(seg) = seg {
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
                w.put_len(seg.outputs.len());
                for &ch in seg.outputs.iter() {
                    w.put_u32(ch.0);
                }
                w.put_bool(seg.acquired);
            }
        });
        w.put_len(self.segs.free_list().len());
        for &i in self.segs.free_list() {
            w.put_u32(i);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_HEADERS);
        w.put_len(self.headers.num_slots());
        let mut hdr_err = None;
        self.headers.snapshot_slots(|gen, h| {
            w.put_u32(gen);
            w.put_bool(h.is_some());
            if let Some(h) = h {
                if let Err(e) = self.routing.encode_header(h, w) {
                    hdr_err.get_or_insert(e);
                }
            }
        });
        if let Some(e) = hdr_err {
            return Err(e);
        }
        w.put_len(self.headers.free_list().len());
        for &i in self.headers.free_list() {
            w.put_u32(i);
        }
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
        w.put_u64(c.coverage.bits);
        w.put_u32(c.coverage.max_branch_fanout);
        w.put_u32(c.coverage.max_ocrq_depth);
        w.put_u32(c.coverage.epochs);
        w.put_u32(c.coverage.wheel_deferrals);
        w.put_u32(c.coverage.max_reattached_nodes);
        // A run-aborting error ends the run before the next checkpoint
        // tick, so live checkpoints never see one; recorded defensively
        // for the standalone snapshot API, and rejected on restore.
        w.put_bool(self.error.is_some());
        w.put_u64(self.last_progress.as_ns());
        w.put_usize(self.active);
        w.put_len(self.pending_completions.len());
        for &m in &self.pending_completions {
            w.put_u32(m.0);
        }
        w.put_len(self.bubble_candidates.len());
        for &sid in &self.bubble_candidates {
            put_slot(w, sid);
        }
        w.put_len(self.dead.len());
        for &d in &self.dead {
            w.put_bool(d);
        }
        w.put_len(self.fault_times.len());
        for &t in &self.fault_times {
            w.put_u64(t.as_ns());
        }
        w.put_bool(ckpt.is_some());
        if let Some(ticker) = ckpt {
            let (period, next) = ticker.parts();
            w.put_u64(period);
            w.put_u64(next);
        }
        w.end_section(s);

        let s = w.begin_section(SECT_TRACE);
        w.put_bool(self.trace.is_some());
        if let Some(tr) = &self.trace {
            w.put_len(tr.events.len());
            for e in &tr.events {
                put_trace_event(w, e);
            }
        }
        w.end_section(s);

        let s = w.begin_section(SECT_METRICS);
        w.put_bool(self.metrics.is_some());
        if let Some(m) = &self.metrics {
            let (period, next) = m.ticker.parts();
            w.put_u64(period);
            w.put_u64(next);
            w.put_u64(m.sample_every_ns);
            let (cap, head, total, buf) = m.series.raw_parts();
            w.put_usize(cap);
            w.put_usize(head);
            w.put_u64(total);
            w.put_len(buf.len());
            for g in buf {
                put_gauge(w, g);
            }
            let (accums, ocrq_last) = m.channels.raw_parts();
            w.put_len(accums.len());
            for a in accums {
                w.put_u64(a.busy_ns);
                w.put_u64(a.acquisitions);
                w.put_u64(a.ocrq_wait_ns);
                w.put_u64(a.header_stalls);
            }
            for &n in ocrq_last {
                w.put_u64(n);
            }
        }
        w.end_section(s);

        let s = w.begin_section(SECT_HOOK);
        hook.encode_state(w);
        w.end_section(s);

        Ok(())
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
                    let _ = name;
                    return Err(SnapshotError::ConfigMismatch(
                        "simulation config differs from the snapshot's",
                    ));
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
                    c.owner = Some((MsgId(r.get_u32()?), get_slot(r)?));
                }
                for _ in 0..r.get_len()? {
                    let m = MsgId(r.get_u32()?);
                    let sid = get_slot(r)?;
                    sim.requests.push_back(&mut c.ocrq, (m, sid));
                }
                if r.get_bool()? {
                    c.seg = Some(get_slot(r)?);
                }
                for _ in 0..r.get_len()? {
                    let m = MsgId(r.get_u32()?);
                    let hid = get_slot(r)?;
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
                        error: get_sim_error(r)?,
                    })
                } else {
                    None
                };
                let mut live_segs = InlineVec::new();
                for _ in 0..r.get_len()? {
                    live_segs.push(get_slot(r)?);
                }
                // Derived: the sorted (destination, index) lookup table.
                let mut dest_slot: Vec<(NodeId, u32)> = spec
                    .dests
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (*d, i as u32))
                    .collect();
                dest_slot.sort_unstable_by_key(|&(d, _)| d);
                sim.msgs.push(MsgState {
                    spec,
                    worm_len,
                    dest_slot,
                    dests,
                    remaining,
                    completed_at,
                    failure,
                    live_segs,
                });
            }
            Ok(())
        })?;

        read_section(&mut r, SECT_SEGS, |r| {
            let n = r.get_len()?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                let gen = r.get_u32()?;
                let seg = if r.get_bool()? {
                    let msg = MsgId(r.get_u32()?);
                    let input = match r.get_u8()? {
                        0 => SegInput::Source { next: r.get_u32()? },
                        1 => SegInput::Channel(ChannelId(r.get_u32()?)),
                        _ => return Err(SnapshotError::Corrupt("unknown segment input tag")),
                    };
                    let mut outputs = InlineVec::new();
                    for _ in 0..r.get_len()? {
                        outputs.push(ChannelId(r.get_u32()?));
                    }
                    Some(Segment {
                        msg,
                        input,
                        outputs,
                        acquired: r.get_bool()?,
                    })
                } else {
                    None
                };
                slots.push((gen, seg));
            }
            let mut free = Vec::new();
            for _ in 0..r.get_len()? {
                free.push(r.get_u32()?);
            }
            sim.segs = Slab::from_raw_parts(slots, free).map_err(SnapshotError::Corrupt)?;
            Ok(())
        })?;

        read_section(&mut r, SECT_HEADERS, |r| {
            let n = r.get_len()?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                let gen = r.get_u32()?;
                let h = if r.get_bool()? {
                    Some(sim.routing.decode_header(r)?)
                } else {
                    None
                };
                slots.push((gen, h));
            }
            let mut free = Vec::new();
            for _ in 0..r.get_len()? {
                free.push(r.get_u32()?);
            }
            sim.headers = Slab::from_raw_parts(slots, free).map_err(SnapshotError::Corrupt)?;
            Ok(())
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
            c.coverage.bits = r.get_u64()?;
            c.coverage.max_branch_fanout = r.get_u32()?;
            c.coverage.max_ocrq_depth = r.get_u32()?;
            c.coverage.epochs = r.get_u32()?;
            c.coverage.wheel_deferrals = r.get_u32()?;
            c.coverage.max_reattached_nodes = r.get_u32()?;
            if r.get_bool()? {
                return Err(SnapshotError::Corrupt(
                    "snapshot taken after a run-aborting error",
                ));
            }
            sim.last_progress = Time::from_ns(r.get_u64()?);
            sim.active = r.get_usize()?;
            for _ in 0..r.get_len()? {
                sim.pending_completions.push(MsgId(r.get_u32()?));
            }
            for _ in 0..r.get_len()? {
                sim.bubble_candidates.push(get_slot(r)?);
            }
            if r.get_len()? != sim.dead.len() {
                return Err(SnapshotError::Corrupt("death mask length mismatch"));
            }
            for d in sim.dead.iter_mut() {
                *d = r.get_bool()?;
            }
            for _ in 0..r.get_len()? {
                sim.fault_times.push(Time::from_ns(r.get_u64()?));
            }
            sim.checkpoint = if r.get_bool()? {
                let period = r.get_u64()?;
                let next = r.get_u64()?;
                let ticker = Ticker::from_parts(period, next)
                    .ok_or(SnapshotError::Corrupt("zero checkpoint cadence"))?;
                let (sink, _) = CheckpointSink::digests();
                Some(Box::new(CheckpointState {
                    ticker,
                    sink,
                    writer: SnapWriter::with_capacity(16 * 1024),
                    dead: None,
                }))
            } else {
                None
            };
            Ok(())
        })?;

        read_section(&mut r, SECT_TRACE, |r| {
            if r.get_bool()? {
                let n = r.get_len()?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(get_trace_event(r)?);
                }
                sim.trace = Some(Trace { events });
            }
            Ok(())
        })?;

        read_section(&mut r, SECT_METRICS, |r| {
            if r.get_bool()? {
                let period = r.get_u64()?;
                let next = r.get_u64()?;
                let ticker = Ticker::from_parts(period, next)
                    .ok_or(SnapshotError::Corrupt("zero sampling cadence"))?;
                let sample_every_ns = r.get_u64()?;
                let cap = r.get_usize()?;
                let head = r.get_usize()?;
                let total = r.get_u64()?;
                let n = r.get_len()?;
                let mut buf = Vec::with_capacity(n);
                for _ in 0..n {
                    buf.push(get_gauge(r)?);
                }
                let series = GaugeSeries::from_raw_parts(cap, head, total, buf)
                    .map_err(SnapshotError::Corrupt)?;
                let n = r.get_len()?;
                let mut accums = Vec::with_capacity(n);
                for _ in 0..n {
                    accums.push(spam_metrics::ChannelAccum {
                        busy_ns: r.get_u64()?,
                        acquisitions: r.get_u64()?,
                        ocrq_wait_ns: r.get_u64()?,
                        header_stalls: r.get_u64()?,
                    });
                }
                let mut ocrq_last = Vec::with_capacity(n);
                for _ in 0..n {
                    ocrq_last.push(r.get_u64()?);
                }
                let channels = ChannelScoreboard::from_raw_parts(accums, ocrq_last)
                    .map_err(SnapshotError::Corrupt)?;
                sim.metrics = Some(MetricsState {
                    ticker,
                    sample_every_ns,
                    series,
                    channels,
                });
            }
            Ok(())
        })?;

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
fn read_section<T>(
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

fn put_slot(w: &mut SnapWriter, sid: SlotId) {
    w.put_u32(sid.index() as u32);
    w.put_u32(sid.generation());
}

fn get_slot(r: &mut SnapReader) -> Result<SlotId, SnapshotError> {
    let idx = r.get_u32()?;
    let gen = r.get_u32()?;
    Ok(SlotId::from_raw(idx, gen))
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
    w.put_u32(s.src.0);
    w.put_len(s.dests.len());
    for d in &s.dests {
        w.put_u32(d.0);
    }
    w.put_u32(s.len);
    w.put_u64(s.gen_time.as_ns());
    w.put_u64(s.tag);
}

fn get_spec(r: &mut SnapReader) -> Result<MessageSpec, SnapshotError> {
    let src = NodeId(r.get_u32()?);
    let n = r.get_len()?;
    let mut dests = Vec::with_capacity(n);
    for _ in 0..n {
        dests.push(NodeId(r.get_u32()?));
    }
    Ok(MessageSpec {
        src,
        dests,
        len: r.get_u32()?,
        gen_time: Time::from_ns(r.get_u64()?),
        tag: r.get_u64()?,
    })
}

fn put_route_error(w: &mut SnapWriter, e: &crate::routing::RouteError) {
    use crate::routing::RouteError as E;
    match *e {
        E::NoLegalMove { node, target } => {
            w.put_u8(0);
            w.put_u32(node.0);
            w.put_u32(target.0);
        }
        E::NoDestinationSubtree { node } => {
            w.put_u8(1);
            w.put_u32(node.0);
        }
        E::NoPlan { tag, node } => {
            w.put_u8(2);
            w.put_u64(tag);
            w.put_u32(node.0);
        }
        E::NoSuchLink { from, to } => {
            w.put_u8(3);
            w.put_u32(from.0);
            w.put_u32(to.0);
        }
        E::UnreachableDestination { dest } => {
            w.put_u8(4);
            w.put_u32(dest.0);
        }
        E::SourceDisconnected { src } => {
            w.put_u8(5);
            w.put_u32(src.0);
        }
    }
}

fn get_route_error(r: &mut SnapReader) -> Result<crate::routing::RouteError, SnapshotError> {
    use crate::routing::RouteError as E;
    Ok(match r.get_u8()? {
        0 => E::NoLegalMove {
            node: NodeId(r.get_u32()?),
            target: NodeId(r.get_u32()?),
        },
        1 => E::NoDestinationSubtree {
            node: NodeId(r.get_u32()?),
        },
        2 => E::NoPlan {
            tag: r.get_u64()?,
            node: NodeId(r.get_u32()?),
        },
        3 => E::NoSuchLink {
            from: NodeId(r.get_u32()?),
            to: NodeId(r.get_u32()?),
        },
        4 => E::UnreachableDestination {
            dest: NodeId(r.get_u32()?),
        },
        5 => E::SourceDisconnected {
            src: NodeId(r.get_u32()?),
        },
        _ => return Err(SnapshotError::Corrupt("unknown route error tag")),
    })
}

fn put_sim_error(w: &mut SnapWriter, e: &SimError) {
    match *e {
        SimError::Route { msg, node, error } => {
            w.put_u8(0);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            put_route_error(w, &error);
        }
        SimError::Misroute { msg, at } => {
            w.put_u8(1);
            w.put_u32(msg.0);
            w.put_u32(at.0);
        }
        SimError::EmptyDecision { msg, node } => {
            w.put_u8(2);
            w.put_u32(msg.0);
            w.put_u32(node.0);
        }
        SimError::ForeignChannel { msg, node, channel } => {
            w.put_u8(3);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            w.put_u32(channel.0);
        }
        SimError::DuplicateRequest { msg, node, channel } => {
            w.put_u8(4);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            w.put_u32(channel.0);
        }
        SimError::TornDown { msg, channel } => {
            w.put_u8(5);
            w.put_u32(msg.0);
            w.put_u32(channel.0);
        }
        SimError::HookSpec { msg } => {
            w.put_u8(6);
            w.put_u32(msg.0);
        }
    }
}

fn get_sim_error(r: &mut SnapReader) -> Result<SimError, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => SimError::Route {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            error: get_route_error(r)?,
        },
        1 => SimError::Misroute {
            msg: MsgId(r.get_u32()?),
            at: NodeId(r.get_u32()?),
        },
        2 => SimError::EmptyDecision {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
        },
        3 => SimError::ForeignChannel {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            channel: ChannelId(r.get_u32()?),
        },
        4 => SimError::DuplicateRequest {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            channel: ChannelId(r.get_u32()?),
        },
        5 => SimError::TornDown {
            msg: MsgId(r.get_u32()?),
            channel: ChannelId(r.get_u32()?),
        },
        6 => SimError::HookSpec {
            msg: MsgId(r.get_u32()?),
        },
        _ => return Err(SnapshotError::Corrupt("unknown sim error tag")),
    })
}

fn put_channel_list(w: &mut SnapWriter, list: &crate::trace::ChannelList) {
    w.put_len(list.len());
    for &c in list.iter() {
        w.put_u32(c.0);
    }
}

fn get_channel_list(r: &mut SnapReader) -> Result<crate::trace::ChannelList, SnapshotError> {
    let mut list = crate::trace::ChannelList::new();
    for _ in 0..r.get_len()? {
        list.push(ChannelId(r.get_u32()?));
    }
    Ok(list)
}

fn put_trace_event(w: &mut SnapWriter, e: &TraceEvent) {
    match e {
        TraceEvent::SourceReady { msg, src, at } => {
            w.put_u8(0);
            w.put_u32(msg.0);
            w.put_u32(src.0);
            w.put_u64(at.as_ns());
        }
        TraceEvent::Requested {
            msg,
            node,
            channels,
            at,
        } => {
            w.put_u8(1);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            put_channel_list(w, channels);
            w.put_u64(at.as_ns());
        }
        TraceEvent::Acquired {
            msg,
            node,
            channels,
            at,
        } => {
            w.put_u8(2);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            put_channel_list(w, channels);
            w.put_u64(at.as_ns());
        }
        TraceEvent::HeaderArrived { msg, channel, at } => {
            w.put_u8(3);
            w.put_u32(msg.0);
            w.put_u32(channel.0);
            w.put_u64(at.as_ns());
        }
        TraceEvent::Bubble {
            msg,
            node,
            channel,
            at,
        } => {
            w.put_u8(4);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            w.put_u32(channel.0);
            w.put_u64(at.as_ns());
        }
        TraceEvent::Released {
            msg,
            node,
            channels,
            at,
        } => {
            w.put_u8(5);
            w.put_u32(msg.0);
            w.put_u32(node.0);
            put_channel_list(w, channels);
            w.put_u64(at.as_ns());
        }
        TraceEvent::DeliveredTail { msg, dest, at } => {
            w.put_u8(6);
            w.put_u32(msg.0);
            w.put_u32(dest.0);
            w.put_u64(at.as_ns());
        }
        TraceEvent::LinkDown { channel, at } => {
            w.put_u8(7);
            w.put_u32(channel.0);
            w.put_u64(at.as_ns());
        }
        TraceEvent::TornDown { msg, channel, at } => {
            w.put_u8(8);
            w.put_u32(msg.0);
            w.put_u32(channel.0);
            w.put_u64(at.as_ns());
        }
    }
}

fn get_trace_event(r: &mut SnapReader) -> Result<TraceEvent, SnapshotError> {
    Ok(match r.get_u8()? {
        0 => TraceEvent::SourceReady {
            msg: MsgId(r.get_u32()?),
            src: NodeId(r.get_u32()?),
            at: Time::from_ns(r.get_u64()?),
        },
        1 => TraceEvent::Requested {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            channels: get_channel_list(r)?,
            at: Time::from_ns(r.get_u64()?),
        },
        2 => TraceEvent::Acquired {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            channels: get_channel_list(r)?,
            at: Time::from_ns(r.get_u64()?),
        },
        3 => TraceEvent::HeaderArrived {
            msg: MsgId(r.get_u32()?),
            channel: ChannelId(r.get_u32()?),
            at: Time::from_ns(r.get_u64()?),
        },
        4 => TraceEvent::Bubble {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            channel: ChannelId(r.get_u32()?),
            at: Time::from_ns(r.get_u64()?),
        },
        5 => TraceEvent::Released {
            msg: MsgId(r.get_u32()?),
            node: NodeId(r.get_u32()?),
            channels: get_channel_list(r)?,
            at: Time::from_ns(r.get_u64()?),
        },
        6 => TraceEvent::DeliveredTail {
            msg: MsgId(r.get_u32()?),
            dest: NodeId(r.get_u32()?),
            at: Time::from_ns(r.get_u64()?),
        },
        7 => TraceEvent::LinkDown {
            channel: ChannelId(r.get_u32()?),
            at: Time::from_ns(r.get_u64()?),
        },
        8 => TraceEvent::TornDown {
            msg: MsgId(r.get_u32()?),
            channel: ChannelId(r.get_u32()?),
            at: Time::from_ns(r.get_u64()?),
        },
        _ => return Err(SnapshotError::Corrupt("unknown trace event tag")),
    })
}

fn put_gauge(w: &mut SnapWriter, g: &GaugeSample) {
    w.put_u64(g.at_ns);
    for &l in &g.queue.levels {
        w.put_u32(l);
    }
    w.put_usize(g.queue.overflow);
    w.put_usize(g.queue.len);
    w.put_u32(g.live_worms);
    w.put_u32(g.live_segments);
    w.put_u32(g.ocrq_total);
    w.put_u32(g.ocrq_max);
    w.put_u32(g.epoch);
    w.put_u64(g.delivered);
    w.put_u64(g.torn_down);
    w.put_u64(g.unreachable);
}

fn get_gauge(r: &mut SnapReader) -> Result<GaugeSample, SnapshotError> {
    let at_ns = r.get_u64()?;
    let mut levels = [0u32; desim::WHEEL_LEVELS];
    for l in levels.iter_mut() {
        *l = r.get_u32()?;
    }
    Ok(GaugeSample {
        at_ns,
        queue: desim::QueueOccupancy {
            levels,
            overflow: r.get_usize()?,
            len: r.get_usize()?,
        },
        live_worms: r.get_u32()?,
        live_segments: r.get_u32()?,
        ocrq_total: r.get_u32()?,
        ocrq_max: r.get_u32()?,
        epoch: r.get_u32()?,
        delivered: r.get_u64()?,
        torn_down: r.get_u64()?,
        unreachable: r.get_u64()?,
    })
}
