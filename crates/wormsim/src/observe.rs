//! The engine's one observer seam.
//!
//! Four recorders watch a run without taking part in it: the protocol
//! trace ([`crate::trace`]), fabric telemetry ([`spam_metrics`]), the
//! coverage record ([`CoverageSet`]) and the periodic checkpointer. The
//! engine names each step of the §3.2 router protocol once, by calling
//! one [`Observers`] method at it; which recorders listen at that step,
//! and whether they are enabled at all, is decided here. Observers are
//! chosen per run from the scenario at run time, so this is one concrete
//! struct of `Option`s, not a type parameter on [`NetworkSim`].
//!
//! **Pure observers.** Nothing here schedules an event or touches engine
//! state: the sampler and the checkpointer ride [`Ticker`]s beside the
//! event queue, so the event stream — and every digest-pinned outcome
//! field — is byte-identical with any combination switched on or off.
//! Recording state is allocated when a recorder is enabled; the taps only
//! index and store.
//!
//! The seam also serializes itself: the trace and telemetry sections of a
//! snapshot, the coverage words and the checkpoint cadence are written
//! and read here, beside the state they encode.

use super::snapshot::{read_section, Index};
use super::*;
use crate::codec::{ensure, put_list, IdSpace, Snap};
use crate::coverage::CoverageSet;
use crate::trace::{ChannelList, Trace, TraceEvent};
use desim::{Duration, Ticker};
use spam_metrics::{
    ChannelAccum, ChannelScoreboard, GaugeSample, GaugeSeries, MetricsConfig, RunMetrics,
};
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

const SECT_TRACE: u32 = 8;
const SECT_METRICS: u32 = 9;

/// Telemetry recording state (see [`NetworkSim::enable_metrics`]):
/// the sampler's ticker and ring, and the per-channel accumulators.
struct MetricsState {
    ticker: Ticker,
    sample_every_ns: u64,
    series: GaugeSeries,
    channels: ChannelScoreboard,
}

/// Shared digest ledger: one `(sim_time_ns, checksum)` row per checkpoint.
pub type DigestLedger = Arc<Mutex<Vec<(u64, u64)>>>;
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
/// and so is the [`Index`] scratch the pending events are sorted in, so
/// steady-state checkpointing through a [`CheckpointSink::Digests`] sink
/// allocates nothing.
struct CheckpointState {
    ticker: Ticker,
    sink: CheckpointSink,
    writer: SnapWriter,
    index: Index,
    /// Set on the first encode failure (e.g. a routing algorithm with no
    /// header codec): checkpointing disables itself rather than
    /// perturbing or aborting the run.
    dead: Option<SnapshotError>,
}

impl CheckpointState {
    fn boxed(ticker: Ticker, sink: CheckpointSink) -> Box<Self> {
        Box::new(CheckpointState {
            ticker,
            sink,
            writer: SnapWriter::with_capacity(16 * 1024),
            index: Index::default(),
            dead: None,
        })
    }
}

/// Which of the engine's teardown entry points killed a worm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Casualty {
    /// The source's own injection link was dead at source-ready.
    InjectionDead,
    /// Routing failed mid-walk on a live-reconfiguration run.
    RouteDeadEnd,
    /// A routing decision asked for a channel that had died.
    DeadRequest,
    /// A link the worm held, waited on or fed through died.
    LinkDied,
}

/// Every recorder of one run. `None` (or, for coverage, a handful of
/// stores) is all a disabled recorder costs at a tap.
pub(super) struct Observers {
    trace: Option<Trace>,
    metrics: Option<MetricsState>,
    /// Boxed: the writer buffer and sink live off the engine's hot cache
    /// lines.
    checkpoint: Option<Box<CheckpointState>>,
    /// Always on; copied into [`Counters::coverage`] when the run ends.
    coverage: CoverageSet,
    /// What one wire transfer bills a channel (`t_channel`).
    wire_ns: u64,
}

impl Observers {
    pub(super) fn new(cfg: &SimConfig) -> Self {
        Observers {
            trace: None,
            metrics: None,
            checkpoint: cfg.checkpoint_every_ns.map(|every_ns| {
                let (sink, _) = CheckpointSink::digests();
                CheckpointState::boxed(Ticker::every(Duration::from_ns(every_ns)), sink)
            }),
            coverage: CoverageSet::default(),
            wire_ns: cfg.latency.channel_prop.as_ns(),
        }
    }

    #[inline]
    fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.events.push(f());
        }
    }

    /// Carries `ch`'s OCRQ-depth time-integral up to `now`. Must run
    /// *before* any push, pop or removal on that OCRQ so the
    /// piecewise-constant integral bills the old depth for the elapsed
    /// interval (see [`ChannelScoreboard::ocrq_carry`]).
    #[inline]
    fn ocrq_carry(&mut self, chans: &[Chan], ch: ChannelId, now: Time) {
        if let Some(m) = self.metrics.as_mut() {
            m.channels
                .ocrq_carry(ch.index(), chans[ch.index()].ocrq.len(), now.as_ns());
        }
    }

    /// **Source ready** — startup latency elapsed; the worm stands at its
    /// source processor about to request the injection channel.
    #[inline]
    pub(super) fn source_ready(&mut self, msg: MsgId, src: NodeId, now: Time) {
        self.emit(|| TraceEvent::SourceReady { msg, src, at: now });
    }

    /// **Atomic OCRQ enqueue**, one call per requested channel, *before*
    /// the request joins `ch`'s queue.
    #[inline]
    pub(super) fn enqueue(&mut self, chans: &[Chan], ch: ChannelId, now: Time) {
        self.ocrq_carry(chans, ch, now);
        let depth = chans[ch.index()].ocrq.len() as u32 + 1;
        self.coverage.note_ocrq_depth(depth);
    }

    /// **Router setup done** — the header's whole request set now sits in
    /// the OCRQs of `channels` (enqueue order), all within one event.
    #[inline]
    pub(super) fn requested(
        &mut self,
        msg: MsgId,
        node: NodeId,
        channels: &[ChannelId],
        now: Time,
    ) {
        self.emit(|| TraceEvent::Requested {
            msg,
            node,
            channels: ChannelList::from_slice(channels),
            at: now,
        });
    }

    /// **All-or-nothing acquire, refused** — `blocked` yields each output
    /// that was not free with this header at its OCRQ head. The iterator
    /// is only driven when telemetry listens.
    #[inline]
    pub(super) fn acquire_blocked(&mut self, blocked: impl Iterator<Item = ChannelId>) {
        if let Some(m) = self.metrics.as_mut() {
            for o in blocked {
                m.channels.header_stall(o.index());
            }
        }
    }

    /// **All-or-nothing acquire, granted** — called before the requests
    /// leave the OCRQs of `channels`, which the worm owns from here on.
    #[inline]
    pub(super) fn acquired(
        &mut self,
        chans: &[Chan],
        msg: MsgId,
        node: NodeId,
        channels: &[ChannelId],
        now: Time,
    ) {
        self.coverage.note_fanout(channels.len() as u32);
        self.emit(|| TraceEvent::Acquired {
            msg,
            node,
            channels: ChannelList::from_slice(channels),
            at: now,
        });
        for &o in channels {
            self.ocrq_carry(chans, o, now);
            if let Some(m) = self.metrics.as_mut() {
                m.channels.acquired(o.index());
            }
        }
    }

    /// **Wire transfer done** — a flit held `ch`'s wire for one
    /// propagation delay. `header_of` names the worm when that flit was a
    /// header that made it into the downstream input buffer. Every
    /// transfer is billed, a flit dropped on a dying link included, which
    /// keeps `sum(busy_ns) == wire_transfers * t_channel` exact.
    #[inline]
    pub(super) fn wire_done(&mut self, ch: ChannelId, header_of: Option<MsgId>, now: Time) {
        if let Some(msg) = header_of {
            self.emit(|| TraceEvent::HeaderArrived {
                msg,
                channel: ch,
                at: now,
            });
        }
        if let Some(m) = self.metrics.as_mut() {
            m.channels.wire_busy(ch.index(), self.wire_ns);
        }
    }

    /// **Bubble** — asynchronous replication put a bubble flit into the
    /// free output `channel` of a branch whose sibling is blocked.
    #[inline]
    pub(super) fn bubble(&mut self, msg: MsgId, node: NodeId, channel: ChannelId, now: Time) {
        self.emit(|| TraceEvent::Bubble {
            msg,
            node,
            channel,
            at: now,
        });
    }

    /// **Release** — the tail was replicated; `channels` go to their next
    /// OCRQ waiters.
    #[inline]
    pub(super) fn released(&mut self, msg: MsgId, node: NodeId, channels: &[ChannelId], now: Time) {
        self.emit(|| TraceEvent::Released {
            msg,
            node,
            channels: ChannelList::from_slice(channels),
            at: now,
        });
    }

    /// **Deliver** — the tail flit reached destination processor `dest`.
    #[inline]
    pub(super) fn delivered_tail(&mut self, msg: MsgId, dest: NodeId, now: Time) {
        self.emit(|| TraceEvent::DeliveredTail { msg, dest, at: now });
    }

    /// **Link down** (this repo's extension) — a scheduled fault killed
    /// the bidirectional link containing `channel`.
    #[inline]
    pub(super) fn link_down(&mut self, channel: ChannelId, now: Time) {
        self.emit(|| TraceEvent::LinkDown { channel, at: now });
    }

    /// **Teardown** (this repo's extension) — `msg` is being killed
    /// network-wide. Called before anything is released: `segs` yields the
    /// output list of each live segment, whose OCRQ entries are about to
    /// be flushed (a flushed waiter's parked time up to `now` still
    /// counts).
    #[inline]
    pub(super) fn torn_down<'s>(
        &mut self,
        chans: &[Chan],
        msg: MsgId,
        cause: &SimError,
        why: Casualty,
        segs: impl Iterator<Item = &'s [ChannelId]>,
        now: Time,
    ) {
        self.coverage.note_sim_error(cause);
        match why {
            Casualty::InjectionDead => self.coverage.set(CoverageSet::SOURCE_INJECTION_DEAD),
            Casualty::RouteDeadEnd => self.coverage.set(CoverageSet::ROUTE_DEADEND_LIVE),
            Casualty::DeadRequest => self.coverage.set(CoverageSet::DECISION_HIT_DEAD_CHANNEL),
            Casualty::LinkDied => {}
        }
        for outputs in segs {
            if outputs.len() >= 2 {
                // A fault caught a branch-replication unit mid-flight —
                // the rarest teardown shape.
                self.coverage.set(CoverageSet::TEARDOWN_DURING_BRANCH);
            }
            for &o in outputs {
                self.ocrq_carry(chans, o, now);
            }
        }
        self.emit(|| TraceEvent::TornDown {
            msg,
            channel: match *cause {
                SimError::TornDown { channel, .. } => channel,
                _ => ChannelId(u32::MAX),
            },
            at: now,
        });
    }

    /// **Rejected at the source** (live runs) — routing found a
    /// destination unreachable before any flit moved; only this message
    /// fails.
    #[inline]
    pub(super) fn unreachable_at_source(&mut self, error: &SimError) {
        self.coverage.set(CoverageSet::UNREACHABLE_AT_SOURCE);
        self.coverage.note_sim_error(error);
    }

    /// **Run-aborting error** — a routing-contract or hook-contract
    /// violation was recorded.
    #[inline]
    pub(super) fn error(&mut self, e: &SimError) {
        self.coverage.note_sim_error(e);
    }

    /// **Scheduled past the far horizon** — an event landed
    /// [`crate::WHEEL_SPAN_NS`] or more ahead. The engine detects it from
    /// its own clock, so the signal is identical under both event queues.
    #[inline]
    pub(super) fn wheel_deferral(&mut self) {
        self.coverage.set(CoverageSet::WHEEL_OVERFLOW);
        self.coverage.wheel_deferrals += 1;
    }

    /// The coverage words, where `SECT_ENGINE` has always carried them.
    pub(super) fn encode_coverage(&self, w: &mut SnapWriter) {
        self.coverage.put(w);
    }

    /// Reads back [`Self::encode_coverage`].
    pub(super) fn decode_coverage(
        &mut self,
        r: &mut SnapReader,
        ids: &mut IdSpace,
    ) -> Result<(), SnapshotError> {
        self.coverage = Snap::get(r, ids)?;
        Ok(())
    }

    /// The checkpoint cadence, the closing words of `SECT_ENGINE`.
    pub(super) fn encode_checkpointer(&self, w: &mut SnapWriter) {
        w.put_bool(self.checkpoint.is_some());
        if let Some(cs) = &self.checkpoint {
            put_ticker(w, cs.ticker);
        }
    }

    /// Reads back [`Self::encode_checkpointer`]: a snapshot taken under a
    /// checkpointer resumes with the same cadence and a fresh digest
    /// ledger (see [`NetworkSim::set_checkpoint_sink`]).
    pub(super) fn decode_checkpointer(&mut self, r: &mut SnapReader) -> Result<(), SnapshotError> {
        self.checkpoint = if r.get_bool()? {
            let (sink, _) = CheckpointSink::digests();
            Some(CheckpointState::boxed(
                get_ticker(r, "zero checkpoint cadence")?,
                sink,
            ))
        } else {
            None
        };
        Ok(())
    }

    /// The trace and telemetry sections of a snapshot. The ring and the
    /// scoreboard travel as their raw parts: the ring's capacity, cursor
    /// and running total, then what it retains; the accumulators, then
    /// one carry instant per channel (the same count, so no second length).
    pub(super) fn encode_sections(&self, w: &mut SnapWriter) {
        let s = w.begin_section(SECT_TRACE);
        self.trace.put(w);
        w.end_section(s);

        let s = w.begin_section(SECT_METRICS);
        w.put_bool(self.metrics.is_some());
        if let Some(m) = &self.metrics {
            put_ticker(w, m.ticker);
            m.sample_every_ns.put(w);
            let (cap, head, total, retained) = m.series.raw_parts();
            cap.put(w);
            head.put(w);
            total.put(w);
            put_list(w, retained);
            let (accums, ocrq_last) = m.channels.raw_parts();
            put_list(w, accums);
            for at_ns in ocrq_last {
                at_ns.put(w);
            }
        }
        w.end_section(s);
    }

    /// Reads back [`Self::encode_sections`].
    pub(super) fn decode_sections(
        &mut self,
        r: &mut SnapReader,
        ids: &mut IdSpace,
    ) -> Result<(), SnapshotError> {
        // The trace is a record, never an index: the one place the "no
        // channel" mark of a teardown without one is a valid channel id.
        ids.no_channel_ok = true;
        self.trace = read_section(r, SECT_TRACE, |r| Snap::get(r, ids))?;
        ids.no_channel_ok = false;
        self.metrics = read_section(r, SECT_METRICS, |r| {
            if !r.get_bool()? {
                return Ok(None);
            }
            let ticker = get_ticker(r, "zero sampling cadence")?;
            let sample_every_ns = Snap::get(r, ids)?;
            let series = GaugeSeries::from_raw_parts(
                Snap::get(r, ids)?,
                Snap::get(r, ids)?,
                Snap::get(r, ids)?,
                Snap::get(r, ids)?,
            )
            .map_err(SnapshotError::Corrupt)?;
            let accums: Vec<ChannelAccum> = Snap::get(r, ids)?;
            // The taps index the scoreboard by channel.
            ensure(
                accums.len() == ids.channels as usize,
                "scoreboard channel count mismatch",
            )?;
            let mut ocrq_last = Vec::with_capacity(accums.len());
            for _ in 0..accums.len() {
                ocrq_last.push(Snap::get(r, ids)?);
            }
            let channels = ChannelScoreboard::from_raw_parts(accums, ocrq_last)
                .map_err(SnapshotError::Corrupt)?;
            Ok(Some(MetricsState {
                ticker,
                sample_every_ns,
                series,
                channels,
            }))
        })?;
        Ok(())
    }
}

impl<R: RoutingAlgorithm> NetworkSim<'_, R> {
    /// Enables protocol-level tracing for this run (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.obs.trace = Some(Trace::default());
    }

    /// Enables fabric telemetry for this run (see [`spam_metrics`]): a
    /// periodic gauge sampler plus per-channel congestion accumulators,
    /// reported on [`SimOutcome::metrics`]. Telemetry is a pure observer
    /// — the simulated outcome is byte-identical with it on or off — and
    /// all recording state is preallocated here, so steady-state
    /// recording never allocates.
    pub fn enable_metrics(&mut self, cfg: MetricsConfig) {
        self.obs.metrics = Some(MetricsState {
            ticker: Ticker::every(cfg.sample_every),
            sample_every_ns: cfg.sample_every.as_ns(),
            series: GaugeSeries::with_capacity(cfg.capacity),
            channels: ChannelScoreboard::new(self.topo.num_channels()),
        });
    }

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
        self.obs.checkpoint = Some(CheckpointState::boxed(Ticker::every(every), sink));
    }

    /// Replaces the sink of an already-enabled checkpointer without
    /// touching its cadence — the call a restored run uses to re-point
    /// checkpoints at its own ledger or file.
    pub fn set_checkpoint_sink(&mut self, sink: CheckpointSink) {
        if let Some(cs) = self.obs.checkpoint.as_mut() {
            cs.sink = sink;
        }
    }

    /// **Between events** — the run loop is about to handle the event at
    /// `upto`. Sampler and checkpoint ticks due at or before that instant
    /// fire now, observing the fabric as it stood *before* the instant's
    /// events; neither ever fires past the last event.
    #[inline]
    pub(super) fn observe_through(&mut self, upto: Time, hook: &dyn CompletionHook) {
        if self.obs.metrics.is_some() {
            self.sample_through(upto);
        }
        if self.obs.checkpoint.is_some() {
            self.checkpoint_through(upto, hook);
        }
    }

    /// The engine gauges as they stand right now, stamped with `at`.
    /// Reads only — the sampler's single observation point.
    fn gauge_at(&self, at: Time) -> GaugeSample {
        let mut ocrq_total = 0u32;
        let mut ocrq_max = 0u32;
        for c in &self.chans {
            let d = c.ocrq.len() as u32;
            ocrq_total += d;
            ocrq_max = ocrq_max.max(d);
        }
        GaugeSample {
            at_ns: at.as_ns(),
            queue_len: self.sched.len(),
            live_worms: self.active as u32,
            live_segments: self.segs.len() as u32,
            ocrq_total,
            ocrq_max,
            epoch: self.fault_times.partition_point(|&ft| ft <= at) as u32,
            delivered: self.counters.messages_completed,
            torn_down: self.counters.messages_torn_down,
            unreachable: self.counters.messages_unreachable,
        }
    }

    fn sample_through(&mut self, upto: Time) {
        let Some(mut m) = self.obs.metrics.take() else {
            return;
        };
        let due = m.ticker.due_through(upto);
        if due > 0 {
            // Gauges only change at events, so every tick in this drain
            // window sees the same fabric state; compute it once and
            // re-stamp the time (and the time-dependent epoch) per tick.
            let base = self.gauge_at(Time::ZERO);
            let fault_times = &self.fault_times;
            // A far jump writes only the samples the ring keeps: the
            // earlier ticks are counted, not walked.
            let unkept = due.saturating_sub(m.series.capacity() as u64);
            m.ticker.skip(unkept);
            m.series.skip(unkept);
            m.ticker.drain_through(upto, |at| {
                let mut g = base;
                g.at_ns = at.as_ns();
                g.epoch = fault_times.partition_point(|&ft| ft <= at) as u32;
                m.series.push(g);
            });
        }
        self.obs.metrics = Some(m);
    }

    /// Engine state is constant between events, so a multi-tick drain
    /// encodes once, stamped at the last due instant — found by
    /// arithmetic, however many ticks the jump spans; the snapshot stores
    /// the *advanced* ticker, so a resumed run's ledger lines up with the
    /// original's after the resume point.
    fn checkpoint_through(&mut self, upto: Time, hook: &dyn CompletionHook) {
        let Some(cs) = self.obs.checkpoint.as_mut() else {
            return;
        };
        let due = cs.ticker.due_through(upto);
        if cs.dead.is_some() || due == 0 {
            return;
        }
        // `due` ticks fit at or before `upto`, so this cannot overflow.
        let (period, next) = cs.ticker.parts();
        let last = Time::from_ns(next + (due - 1) * period);
        cs.ticker.skip(due);
        // The encoder reads the cadence off `self`, so the checkpointer
        // stays in place and lends out its buffers for the duration.
        let mut writer = std::mem::replace(&mut cs.writer, SnapWriter::with_capacity(0));
        let mut index = std::mem::take(&mut cs.index);
        let encoded = self.encode(&mut writer, hook, &mut index);
        if let Some(cs) = self.obs.checkpoint.as_mut() {
            match encoded {
                Ok(()) => cs.sink.store(last.as_ns(), writer.seal()),
                Err(e) => cs.dead = Some(e),
            }
            cs.writer = writer;
            cs.index = index;
        }
    }

    /// **End of run** — closes every recorder out. Run-level coverage
    /// (how the run ended, how many routing epochs it crossed) comes from
    /// engine state only, so the record is identical under both event
    /// queues; it lands in [`Counters::coverage`]. Telemetry carries every
    /// OCRQ integral to the final clock and takes one last sample there:
    /// cadence ticks see start-of-instant state, so this is the one
    /// sample that reflects the very last events. Returns what the outcome
    /// reports.
    pub(super) fn finish_observers(
        &mut self,
        deadlock: Option<&DeadlockInfo>,
    ) -> (Trace, Option<RunMetrics>) {
        let cov = &mut self.obs.coverage;
        if let Some(d) = deadlock {
            cov.set(if d.queue_exhausted {
                CoverageSet::DEADLOCK_QUEUE_EXHAUSTED
            } else {
                CoverageSet::DEADLOCK_WATCHDOG
            });
        }
        if self.counters.bubbles_created > 0 {
            cov.set(CoverageSet::BUBBLES);
        }
        if self.fault_times.len() >= 2 {
            cov.set(CoverageSet::MULTI_EPOCH);
        }
        cov.epochs = cov.epochs.max(self.fault_times.len() as u32 + 1);
        self.counters.coverage = *cov;

        let end = self.sched.now();
        let metrics = self.obs.metrics.take().map(|mut m| {
            for (i, c) in self.chans.iter().enumerate() {
                m.channels.ocrq_carry(i, c.ocrq.len(), end.as_ns());
            }
            m.series.push(self.gauge_at(end));
            RunMetrics {
                sample_every_ns: m.sample_every_ns,
                series: m.series,
                channels: m.channels.into_accums(),
            }
        });
        (self.obs.trace.take().unwrap_or_default(), metrics)
    }
}

fn put_ticker(w: &mut SnapWriter, t: Ticker) {
    let (period, next) = t.parts();
    w.put_u64(period);
    w.put_u64(next);
}

fn get_ticker(r: &mut SnapReader, zero_cadence: &'static str) -> Result<Ticker, SnapshotError> {
    let period = r.get_u64()?;
    let next = r.get_u64()?;
    Ticker::from_parts(period, next).ok_or(SnapshotError::Corrupt(zero_cadence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::OracleRouting;
    use spam_metrics::MetricsConfig;

    /// `p2 — s0 — s1 — p3`, a unicast scripted across it.
    fn line() -> (Topology, OracleRouting, NodeId, NodeId) {
        let mut b = Topology::builder();
        let (s0, s1) = (b.add_switch(), b.add_switch());
        let (p2, p3) = (b.add_processor(), b.add_processor());
        b.link(p2, s0).unwrap();
        b.link(s0, s1).unwrap();
        b.link(s1, p3).unwrap();
        let topo = b.build();
        let mut oracle = OracleRouting::new(&topo);
        oracle.add_unicast_path(0, &[p2, s0, s1, p3]).unwrap();
        (topo, oracle, p2, p3)
    }

    #[test]
    fn sampling_a_jump_equals_sampling_tick_by_tick() {
        let (topo, oracle, _, _) = line();
        let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
        sim.enable_metrics(MetricsConfig {
            sample_every: Duration::from_ns(10),
            capacity: 16,
        });
        // Fault instants inside the jumps, so the retained samples' epochs
        // differ from one another.
        sim.schedule_link_down(Time::from_ns(49_995), ChannelId(2));
        sim.schedule_link_down(Time::from_ns(60_000), ChannelId(4));
        let m = sim.obs.metrics.as_ref().unwrap();
        let (mut ticker, mut series) = (m.ticker, m.series.clone());
        let base = sim.gauge_at(Time::ZERO);
        // Short and long jumps, from an empty, a partly filled and a
        // wrapped ring.
        for upto in [35, 95, 50_003, 50_010, 50_100, 1_000_000] {
            let upto = Time::from_ns(upto);
            while ticker.next_at() <= upto {
                let at = ticker.next_at();
                let mut g = base;
                g.at_ns = at.as_ns();
                g.epoch = sim.fault_times.partition_point(|&ft| ft <= at) as u32;
                series.push(g);
                ticker.advance();
            }
            sim.sample_through(upto);
            let m = sim.obs.metrics.as_ref().unwrap();
            assert_eq!(m.series.raw_parts(), series.raw_parts(), "through {upto}");
            assert_eq!(m.ticker.parts(), ticker.parts(), "through {upto}");
        }
    }

    #[test]
    fn a_far_jump_is_sampled_and_checkpointed_without_walking_it() {
        let (topo, oracle, p2, p3) = line();
        let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
        sim.enable_metrics(MetricsConfig {
            sample_every: Duration::from_ns(100),
            capacity: 8,
        });
        let (sink, ledger) = CheckpointSink::digests();
        sim.enable_checkpoints(Duration::from_ns(100), sink);
        // About 10^10 ticks of each cadence before the first event.
        let gen = Time::from_ns(1 << 40);
        sim.submit(MessageSpec::unicast(p2, p3, 4).at(gen)).unwrap();
        let out = sim.run();
        assert!(out.all_delivered());
        let ready = (gen + SimConfig::paper().latency.startup).as_ns();
        let ledger = ledger.lock().unwrap();
        assert_eq!(
            ledger[0].0,
            ready / 100 * 100,
            "stamped at the last due tick"
        );
        let series = out.metrics.unwrap().series;
        assert_eq!(series.len(), 8);
        let end = out.end_time.as_ns();
        assert_eq!(
            series.total_recorded(),
            end / 100 + 1,
            "every tick counted, plus the final sample"
        );
    }
}
