//! A canonical 64-bit digest of a [`SimOutcome`] — the fuzzer's
//! byte-identity check for the rep-0 determinism and queue-equivalence
//! oracles.
//!
//! Two outcomes digest equal iff every field an experiment could observe
//! is equal. [`spam_scenario::outcome_digest`] already walks the
//! counters, the end time and verdict, per-message completion and
//! per-destination times, whether and when each message failed,
//! per-channel crossings, the fault epoch boundaries and the trace
//! length; this digest is that one plus the two things only the fuzzer
//! compares — the coverage record and *why* each failed message failed.

use wormsim::{FailureKind, Fnv1a, SimOutcome};

/// Digests everything observable about a finished run.
pub fn outcome_digest(out: &SimOutcome) -> u64 {
    let mut h = Fnv1a::default();
    h.word(spam_scenario::outcome_digest(out));
    let c = &out.counters.coverage;
    for w in [
        c.bits,
        c.max_branch_fanout as u64,
        c.max_ocrq_depth as u64,
        c.epochs as u64,
        c.max_reattached_nodes as u64,
    ] {
        h.word(w);
    }
    for m in &out.messages {
        h.word(match m.failure.map(|f| f.kind) {
            None => 0,
            Some(FailureKind::TornDown) => 1,
            Some(FailureKind::Unreachable) => 2,
        });
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv1a::default();
        a.word(1);
        a.word(2);
        let mut b = Fnv1a::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        assert_ne!(Fnv1a::default().finish(), a.finish());
    }

    /// One perturbation per field class the oracles compare — the ones
    /// the scenario digest walks and the ones only this digest adds.
    #[test]
    fn every_compared_field_moves_the_digest() {
        use desim::Time;
        use wormsim::{MessageFailure, MsgId, SimError};

        let spec = spam_scenario::ScenarioSpec::example("digest");
        let mut reference = spam_scenario::run_once(&spec, 0, None).unwrap();
        reference.messages[0].failure = Some(MessageFailure {
            at: Time::from_ns(7),
            kind: FailureKind::Unreachable,
            error: SimError::HookSpec { msg: MsgId(0) },
        });
        type Perturb = fn(&mut SimOutcome);
        let perturbations: [(&str, Perturb); 12] = [
            ("counter", |o| o.counters.acquisitions += 1),
            ("coverage bits", |o| o.counters.coverage.bits ^= 1 << 9),
            ("coverage watermark", |o| o.counters.coverage.epochs += 1),
            ("coverage watermark", |o| {
                o.counters.coverage.max_reattached_nodes += 1
            }),
            ("end time", |o| o.end_time = Time::from_ns(1)),
            ("quiescence", |o| o.quiescent = !o.quiescent),
            ("completion", |o| o.messages[0].completed_at = None),
            ("destination", |o| o.dest_done_at[0] = None),
            ("failure", |o| o.messages[0].failure = None),
            ("failure kind", |o| {
                o.messages[0].failure.as_mut().unwrap().kind = FailureKind::TornDown
            }),
            ("crossings", |o| o.channel_crossings[0] += 1),
            ("fault times", |o| o.fault_times.push(Time::from_ns(3))),
        ];
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(outcome_digest(&reference));
        for (what, perturb) in perturbations {
            let mut o = reference.clone();
            perturb(&mut o);
            assert!(seen.insert(outcome_digest(&o)), "{what} did not move it");
        }
    }
}
