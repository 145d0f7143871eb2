//! A canonical 64-bit digest of a [`SimOutcome`] — the fuzzer's
//! byte-identity check for the rep-0 determinism and queue-equivalence
//! oracles.
//!
//! Two outcomes digest equal iff every field an experiment could observe
//! is equal: all counters (including the coverage record), the end time,
//! per-message completion/failure verdicts and per-destination times,
//! per-channel crossings, and the fault epoch boundaries. FNV-1a over
//! the little-endian field stream; no allocation.

use wormsim::{FailureKind, Fnv1a, SimOutcome};

/// Digests everything observable about a finished run.
pub fn outcome_digest(out: &SimOutcome) -> u64 {
    let mut h = Fnv1a::default();
    let c = &out.counters;
    for w in [
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
        c.coverage.bits,
        c.coverage.max_branch_fanout as u64,
        c.coverage.max_ocrq_depth as u64,
        c.coverage.epochs as u64,
        c.coverage.wheel_deferrals as u64,
        c.coverage.max_reattached_nodes as u64,
        out.end_time.as_ns(),
        out.quiescent as u64,
        out.deadlock.is_some() as u64,
        out.error.is_some() as u64,
    ] {
        h.word(w);
    }
    h.word(out.messages.len() as u64);
    for m in &out.messages {
        h.word(m.completed_at.map_or(u64::MAX, |t| t.as_ns()));
        for d in &m.dest_done_at {
            h.word(d.map_or(u64::MAX, |t| t.as_ns()));
        }
        match m.failure {
            None => h.word(0),
            Some(f) => {
                h.word(match f.kind {
                    FailureKind::TornDown => 1,
                    FailureKind::Unreachable => 2,
                });
                h.word(f.at.as_ns());
            }
        }
    }
    h.word(out.channel_crossings.len() as u64);
    for &x in &out.channel_crossings {
        h.word(x);
    }
    h.word(out.fault_times.len() as u64);
    for t in &out.fault_times {
        h.word(t.as_ns());
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
}
