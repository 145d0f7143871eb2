//! The golden-divergence bisector: when two runs that *should* be
//! byte-identical are not, binary-search the reference run's
//! checkpoints to localize the first divergent behavior to a sim-time
//! window, then name the first trace event where the two executions
//! part ways.
//!
//! The classic use is a golden-corpus regression: the reference spec is
//! the pinned scenario, the candidate is the same scenario under a
//! different event-queue implementation (or a changed engine) whose
//! outcome digest no longer matches. Resuming the reference's snapshot
//! at time `t` under the candidate replays `[t, end)` with the
//! candidate's engine; if that reproduces the reference outcome, the
//! divergent decision fires *before* `t` — monotone in `t` for a single
//! behavioral difference, which is exactly what a bisection needs.

use crate::run::run_once;
use crate::snapshot::{outcome_digest, resume_once, run_once_checkpointed};
use crate::spec::{ScenarioSpec, SpecError};
use wormsim::TraceEvent;

/// The first trace event at which the reference and candidate runs
/// disagree (index into the time-ordered trace; either side may simply
/// end early, in which case the longer side's event is reported alone).
#[derive(Debug, Clone, PartialEq)]
pub struct EventDivergence {
    /// Index into the trace event stream.
    pub index: usize,
    /// Sim-time of the first differing event (ns), from whichever side
    /// has an event at that index.
    pub at_ns: u64,
    /// The reference run's event, rendered (`None` = its trace ended).
    pub reference: Option<String>,
    /// The candidate run's event, rendered (`None` = its trace ended).
    pub candidate: Option<String>,
}

/// Where two supposedly-identical runs first part ways.
#[derive(Debug, Clone, PartialEq)]
pub struct DivergenceReport {
    /// The reference run's outcome digest.
    pub reference_digest: u64,
    /// The candidate run's (differing) outcome digest.
    pub candidate_digest: u64,
    /// Checkpoints the reference run produced.
    pub checkpoints: usize,
    /// Resume probes the bisection spent (≤ ⌈log₂ checkpoints⌉ + 1).
    pub probes: usize,
    /// Exclusive lower bound of the divergence window (ns); `0` means
    /// the runs diverge before the first checkpoint.
    pub window_start_ns: u64,
    /// Inclusive upper bound (ns): resuming from this checkpoint under
    /// the candidate already reproduces the reference, so the divergent
    /// decision fires at or before it. `None` means even the last
    /// checkpoint diverges — the window extends to the end of the run.
    pub window_end_ns: Option<u64>,
    /// The first differing trace event, when both specs traced.
    pub first_event: Option<EventDivergence>,
}

/// Renders one trace event for a report.
fn render(ev: &TraceEvent) -> String {
    format!("{ev:?}")
}

/// First index at which two traces differ, if any.
fn first_trace_divergence(a: &[TraceEvent], b: &[TraceEvent]) -> Option<EventDivergence> {
    let idx = a
        .iter()
        .zip(b)
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))?;
    let (r, c) = (a.get(idx), b.get(idx));
    let at_ns = r.or(c).map_or(0, |ev| ev.at().as_ns());
    Some(EventDivergence {
        index: idx,
        at_ns,
        reference: r.map(render),
        candidate: c.map(render),
    })
}

/// Runs `reference` with checkpoints and `candidate` fresh; if their
/// outcome digests differ, binary-searches the reference's checkpoints
/// (resuming each probe under the **candidate** spec) to localize the
/// divergence. Returns `Ok(None)` when the runs agree.
///
/// Both specs are run with tracing forced on so the report can name the
/// first differing event; tracing is a pure observer, so the digests
/// are unaffected. The candidate must describe the same topology,
/// buffers, and workload (it may differ in engine-neutral axes — the
/// event queue, observers, or the engine build under test); a candidate
/// whose config genuinely differs is rejected by the snapshot layer as
/// [`SpecError::Snapshot`].
pub fn bisect_divergence(
    reference: &ScenarioSpec,
    candidate: &ScenarioSpec,
    rep: u32,
    every_ns: u64,
) -> Result<Option<DivergenceReport>, SpecError> {
    let mut rspec = reference.clone();
    rspec.engine.trace = true;
    let mut cspec = candidate.clone();
    cspec.engine.trace = true;

    let golden = run_once_checkpointed(&rspec, rep, None, every_ns)?;
    let cand_out = run_once(&cspec, rep, None)?;
    let reference_digest = outcome_digest(&golden.outcome);
    let candidate_digest = outcome_digest(&cand_out);
    if reference_digest == candidate_digest {
        return Ok(None);
    }

    // Find the first checkpoint whose candidate-resume reproduces the
    // reference (the divergent decision is then strictly before it).
    let k = golden.checkpoints.len();
    let mut probes = 0usize;
    let (mut lo, mut hi) = (0usize, k);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        probes += 1;
        let out = resume_once(&cspec, rep, None, &golden.checkpoints[mid].1)?;
        if outcome_digest(&out) == reference_digest {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let window_start_ns = if lo == 0 {
        0
    } else {
        golden.checkpoints[lo - 1].0
    };
    let window_end_ns = golden.checkpoints.get(lo).map(|(at, _)| *at);

    Ok(Some(DivergenceReport {
        reference_digest,
        candidate_digest,
        checkpoints: k,
        probes,
        window_start_ns,
        window_end_ns,
        first_event: first_trace_divergence(&golden.outcome.trace.events, &cand_out.trace.events),
    }))
}
