//! Correctness oracles over one scenario run.
//!
//! Every valid mutant is run (quickened, replication 0) and checked
//! against five engine-level invariants:
//!
//! 1. **Determinism** — two bucket-queue runs of the same spec must
//!    produce byte-identical outcomes (equal [`outcome_digest`]s).
//! 2. **Queue equivalence** — a heap-queue run must match the
//!    bucket-queue digest: the constant-delay lanes in front of the heap
//!    are an optimization, never an observable behaviour change.
//! 3. **Accounting** — every submitted message ends the run either
//!    completed or with a typed failure verdict, and the run aborts on
//!    neither a simulation error nor a deadlock
//!    ([`SimOutcome::all_accounted`]).
//! 4. **Quiescence** — at the end of an accounted run the network has
//!    drained: no live channels, no segment-table entries, no parked
//!    headers ([`SimOutcome::quiescent`]).
//! 5. **Checkpoint/resume** — checkpointing the run is a pure observer
//!    (the checkpointed run matches the canonical digest), and resuming
//!    from a mid-run snapshot reproduces the canonical digest exactly.
//!
//! The checks are ordered; [`OracleReport::violation`] names the first
//! one that failed, which is also the name the minimizer preserves while
//! shrinking.

use crate::digest::outcome_digest;
use spam_scenario::{resume_once, run_once, run_once_checkpointed, ScenarioSpec, SpecError};
use wormsim::{CoverageSet, QueueKind};

/// Names of the oracles, in the order they are checked.
pub const ORACLE_NAMES: &[&str] = &[
    "determinism",
    "queue_equivalence",
    "accounting",
    "quiescence",
    "checkpoint_resume",
];

/// Outcome of running the oracle battery on one spec.
#[derive(Debug, Clone)]
pub struct OracleReport {
    /// Coverage from the canonical (first bucket-queue) run.
    pub coverage: CoverageSet,
    /// Digest of the canonical run.
    pub digest: u64,
    /// First failed oracle, or `None` when the spec passed all five.
    pub violation: Option<&'static str>,
}

impl OracleReport {
    /// True when every oracle passed.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// Runs the full oracle battery on `spec` (which must already be
/// validated). The spec is run as given — callers quicken it first; the
/// bucket/heap runs override only the event-queue choice, so a spec
/// pinning `engine.queue` is still checked under both implementations.
pub fn check_spec(spec: &ScenarioSpec) -> Result<OracleReport, SpecError> {
    let bucket = run_once(spec, 0, Some(QueueKind::Bucket))?;
    let digest = outcome_digest(&bucket);
    let coverage = bucket.counters.coverage;

    let again = run_once(spec, 0, Some(QueueKind::Bucket))?;
    if outcome_digest(&again) != digest {
        return Ok(OracleReport {
            coverage,
            digest,
            violation: Some("determinism"),
        });
    }

    let heap = run_once(spec, 0, Some(QueueKind::Heap))?;
    if outcome_digest(&heap) != digest {
        return Ok(OracleReport {
            coverage,
            digest,
            violation: Some("queue_equivalence"),
        });
    }

    if !bucket.all_accounted() {
        return Ok(OracleReport {
            coverage,
            digest,
            violation: Some("accounting"),
        });
    }

    if !bucket.quiescent {
        return Ok(OracleReport {
            coverage,
            digest,
            violation: Some("quiescence"),
        });
    }

    // Checkpoint at roughly quarter-run cadence, then resume from a
    // mid-run snapshot; both the observed run and the resumed run must
    // reproduce the canonical digest byte-for-byte. Runs too short to
    // produce a checkpoint pass vacuously.
    let every_ns = (bucket.end_time.as_ns() / 4).max(1);
    let golden = run_once_checkpointed(spec, 0, Some(QueueKind::Bucket), every_ns)?;
    let mut ok = outcome_digest(&golden.outcome) == digest;
    if ok {
        if let Some((_, bytes)) = golden.checkpoints.get(golden.checkpoints.len() / 2) {
            ok = outcome_digest(&resume_once(spec, 0, Some(QueueKind::Bucket), bytes)?) == digest;
        }
    }
    if !ok {
        return Ok(OracleReport {
            coverage,
            digest,
            violation: Some("checkpoint_resume"),
        });
    }

    Ok(OracleReport {
        coverage,
        digest,
        violation: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_example_spec_passes_every_oracle() {
        let mut spec = ScenarioSpec::example("oracle-smoke");
        spec.quicken();
        let report = check_spec(&spec).expect("example validates");
        assert!(report.clean(), "violation: {:?}", report.violation);
        assert_ne!(report.digest, 0);
        assert!(report.coverage.bits_lit() > 0);
    }

    #[test]
    fn oracle_names_cover_every_violation_value() {
        // The minimizer and the regression-spec comments both key on
        // these strings; keep the list in sync with check_spec.
        assert_eq!(
            ORACLE_NAMES,
            &[
                "determinism",
                "queue_equivalence",
                "accounting",
                "quiescence",
                "checkpoint_resume"
            ]
        );
    }
}
