//! Scenario-level checkpoint/resume: run a validated spec while
//! streaming engine snapshots into a sink, and resume a run from any of
//! those snapshots under a freshly rebuilt environment.
//!
//! The contract mirrors the engine's (`wormsim::engine` snapshot
//! module): a resumed replication finishes **byte-identically** to its
//! uninterrupted twin — same outcome, same digest ledger suffix — for
//! every routing arm, fault arm, and completion hook a spec can
//! describe. Everything immutable (topology, routing tables, fault
//! schedule, hook shape) is rebuilt deterministically from the spec;
//! only the engine's dynamic state travels in the snapshot bytes.

use crate::run::{run_once_mode, RunMode};
use crate::spec::{ScenarioSpec, SpecError};
use desim::{Duration, QueueKind, Time};
use std::sync::{Arc, Mutex};
use wormsim::{CheckpointSink, Fnv1a, SimOutcome};

/// One checkpointed replication: the finished outcome plus every
/// snapshot taken along the way, `(sim_time_ns, sealed bytes)` in
/// checkpoint order.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The uninterrupted run's outcome.
    pub outcome: SimOutcome,
    /// Every checkpoint the run produced, time-ordered.
    pub checkpoints: Vec<(u64, Vec<u8>)>,
}

/// Reads a shared sink cell after the run, tolerating a poisoned lock
/// (the engine never panics while holding it, but the lint gate wants
/// the honest path spelled out).
fn drain<T: Default>(cell: Arc<Mutex<T>>) -> T {
    match cell.lock() {
        Ok(mut g) => std::mem::take(&mut *g),
        Err(p) => std::mem::take(&mut *p.into_inner()),
    }
}

/// Runs one replication with a keep-everything checkpoint sink at the
/// given cadence. `queue` overrides the spec's event-queue choice, as
/// in [`crate::run::run_once`].
pub fn run_once_checkpointed(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
    every_ns: u64,
) -> Result<CheckpointedRun, SpecError> {
    if every_ns == 0 {
        return Err(SpecError::ZeroCheckpointCadence);
    }
    let (sink, kept) = CheckpointSink::keep_all();
    let mode = RunMode::Checkpoint {
        every: Duration::from_ns(every_ns),
        sink,
    };
    let outcome = run_once_mode(spec, rep, queue, mode)?;
    Ok(CheckpointedRun {
        outcome,
        checkpoints: drain(kept),
    })
}

/// Resumes one replication from snapshot bytes taken by an earlier run
/// of the *same spec and replication* (any sink: keep-all or a journal
/// file) and runs it to completion. Corrupt bytes, version
/// skew, or a mismatched spec surface as [`SpecError::Snapshot`].
pub fn resume_once(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
    bytes: &[u8],
) -> Result<SimOutcome, SpecError> {
    run_once_mode(spec, rep, queue, RunMode::Resume { bytes })
}

/// A canonical digest over everything a run *means*: final clock,
/// termination verdict, engine counters, per-message completion times
/// and failures, per-channel crossing counts, and the trace length.
/// Two runs with equal digests delivered the same messages at the same
/// instants over the same channels — the equality the golden corpus and
/// the divergence bisector both pin. The fields stream straight into
/// FNV-1a, so a digest allocates nothing: each word as eight
/// little-endian bytes, each flag as one byte, each length as four.
pub fn outcome_digest(out: &SimOutcome) -> u64 {
    let mut h = Fnv1a::default();
    let len = |h: &mut Fnv1a, n: usize| h.bytes(&(n as u32).to_le_bytes());
    let opt = |h: &mut Fnv1a, t: Option<Time>| {
        h.byte(t.is_some().into());
        if let Some(t) = t {
            h.word(t.as_ns());
        }
    };
    h.word(out.end_time.as_ns());
    h.byte(out.quiescent.into());
    h.byte(out.deadlock.is_some().into());
    h.byte(out.error.is_some().into());
    let c = &out.counters;
    for v in [
        c.events,
        c.wire_transfers,
        c.bubbles_created,
        c.flits_delivered,
        c.messages_completed,
        c.acquisitions,
        c.seg_lookups,
        c.messages_torn_down,
        c.messages_unreachable,
        c.links_killed,
    ] {
        h.word(v);
    }
    len(&mut h, out.messages.len());
    for m in &out.messages {
        h.word(m.spec.tag);
        opt(&mut h, m.completed_at);
        len(&mut h, m.dest_done_at.len());
        for &d in &m.dest_done_at {
            opt(&mut h, d);
        }
        h.byte(m.failure.is_some().into());
        if let Some(f) = &m.failure {
            h.word(f.at.as_ns());
        }
    }
    len(&mut h, out.channel_crossings.len());
    for &x in &out.channel_crossings {
        h.word(x);
    }
    len(&mut h, out.fault_times.len());
    for t in &out.fault_times {
        h.word(t.as_ns());
    }
    len(&mut h, out.trace.events.len());
    h.finish()
}
