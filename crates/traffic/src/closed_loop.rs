//! Closed-loop injection: every source keeps at most `window` messages
//! outstanding, injecting a replacement only when one of its messages
//! completes. Unlike the open-loop generators this cannot be a
//! precomputed stream — injection times depend on simulated completions —
//! so it is a [`CompletionHook`] driven by the engine.

use crate::error::TrafficError;
use desim::{Duration, Time};
use netgraph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wormsim::{CompletionHook, MessageSpec, MsgId, SnapReader, SnapWriter, SnapshotError};

/// Configuration of a closed-loop (bounded-outstanding) workload.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoopConfig {
    /// Maximum messages a source may have outstanding (≥ 1).
    pub window: usize,
    /// Messages each source sends in total over the run.
    pub messages_per_source: usize,
    /// Flits per message.
    pub message_len: u32,
    /// Think time between a completion and the replacement injection.
    pub think: Duration,
}

impl ClosedLoopConfig {
    /// Checks the configuration against a population of `available`
    /// processors.
    pub fn validate(&self, available: usize) -> Result<(), TrafficError> {
        if self.window == 0 {
            return Err(TrafficError::ZeroDuration { what: "window" });
        }
        if self.messages_per_source == 0 {
            return Err(TrafficError::ZeroDuration {
                what: "messages_per_source",
            });
        }
        if available < 2 {
            return Err(TrafficError::TooFewSources {
                available,
                needed: 2,
            });
        }
        Ok(())
    }
}

/// The driver: submit [`ClosedLoopInjector::initial_sends`] before the
/// run, then pass the injector to
/// [`wormsim::NetworkSim::run_with_hook`]. Destinations are uniform over
/// the population (excluding the source), drawn from a seeded stream, so
/// the whole run is deterministic.
///
/// ```
/// use netgraph::gen::lattice::IrregularConfig;
/// use spam_core::SpamRouting;
/// use traffic::{ClosedLoopConfig, ClosedLoopInjector};
/// use updown::{RootSelection, UpDownLabeling};
/// use wormsim::{NetworkSim, SimConfig};
///
/// let topo = IrregularConfig::with_switches(16).generate(1);
/// let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
/// let cfg = ClosedLoopConfig {
///     window: 2,
///     messages_per_source: 4,
///     message_len: 32,
///     think: desim::Duration::from_us(1),
/// };
/// let mut inj = ClosedLoopInjector::new(cfg, &topo, 7).unwrap();
/// let mut sim = NetworkSim::new(&topo, SpamRouting::new(&topo, &ud), SimConfig::paper());
/// for spec in inj.initial_sends() {
///     sim.submit(spec).unwrap();
/// }
/// let out = sim.run_with_hook(&mut inj);
/// assert!(out.all_delivered());
/// assert_eq!(out.messages.len(), 16 * 4);
/// ```
#[derive(Debug)]
pub struct ClosedLoopInjector {
    cfg: ClosedLoopConfig,
    procs: Vec<NodeId>,
    /// Messages each source has yet to *inject* (outstanding not counted).
    remaining: Vec<usize>,
    rng: StdRng,
    next_tag: u64,
}

impl ClosedLoopInjector {
    /// Builds the injector over every processor of the topology.
    pub fn new(cfg: ClosedLoopConfig, topo: &Topology, seed: u64) -> Result<Self, TrafficError> {
        let procs: Vec<NodeId> = topo.processors().collect();
        Self::new_within(cfg, &procs, seed)
    }

    /// Builds the injector over the given processor population.
    pub fn new_within(
        cfg: ClosedLoopConfig,
        procs: &[NodeId],
        seed: u64,
    ) -> Result<Self, TrafficError> {
        cfg.validate(procs.len())?;
        let mut sorted: Vec<NodeId> = procs.to_vec();
        sorted.sort_unstable();
        Ok(ClosedLoopInjector {
            cfg,
            remaining: vec![cfg.messages_per_source; sorted.len()],
            procs: sorted,
            rng: StdRng::seed_from_u64(seed),
            next_tag: 0,
        })
    }

    fn next_from(&mut self, idx: usize, at: Time) -> Option<MessageSpec> {
        if self.remaining[idx] == 0 {
            return None;
        }
        self.remaining[idx] -= 1;
        let src = self.procs[idx];
        let mut k = self.rng.gen_range(0..self.procs.len() - 1);
        if k >= idx {
            k += 1; // skip the source's own slot in the sorted population
        }
        let dest = self.procs[k];
        let spec = MessageSpec::unicast(src, dest, self.cfg.message_len)
            .at(at)
            .tag(self.next_tag);
        self.next_tag += 1;
        Some(spec)
    }

    /// The initial window: `min(window, messages_per_source)` messages per
    /// source, all generated at time zero. Submit these before running.
    pub fn initial_sends(&mut self) -> Vec<MessageSpec> {
        let mut out = Vec::new();
        for idx in 0..self.procs.len() {
            for _ in 0..self.cfg.window.min(self.cfg.messages_per_source) {
                out.extend(self.next_from(idx, Time::ZERO));
            }
        }
        out
    }
}

impl CompletionHook for ClosedLoopInjector {
    fn on_complete(&mut self, _m: MsgId, spec: &MessageSpec, at: Time, out: &mut Vec<MessageSpec>) {
        // A source that is not one of ours belongs to another scheme of a
        // mixed run.
        if let Ok(idx) = self.procs.binary_search(&spec.src) {
            out.extend(self.next_from(idx, at + self.cfg.think));
        }
    }

    /// The injector's mutable state: per-source remaining counts, the
    /// RNG word, and the tag counter. Config and population are rebuilt
    /// from the scenario on restore, so they are not serialized.
    fn encode_state(&self, w: &mut SnapWriter) {
        w.put_len(self.remaining.len());
        for &n in &self.remaining {
            w.put_usize(n);
        }
        w.put_u64(self.rng.state());
        w.put_u64(self.next_tag);
    }

    fn decode_state(&mut self, r: &mut SnapReader) -> Result<(), SnapshotError> {
        if r.get_len()? != self.remaining.len() {
            return Err(SnapshotError::ConfigMismatch(
                "closed-loop source population differs from the snapshot's",
            ));
        }
        for n in self.remaining.iter_mut() {
            *n = r.get_usize()?;
            if *n > self.cfg.messages_per_source {
                // A resumed run would inject more than the spec allows.
                return Err(SnapshotError::Corrupt(
                    "closed-loop source has more messages left than it sends",
                ));
            }
        }
        self.rng = StdRng::seed_from_u64(r.get_u64()?);
        self.next_tag = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;
    use spam_core::SpamRouting;
    use updown::{RootSelection, UpDownLabeling};
    use wormsim::{NetworkSim, SimConfig, SimOutcome};

    fn run(window: usize, per_source: usize, seed: u64) -> SimOutcome {
        let topo = IrregularConfig::with_switches(12).generate(2);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        let cfg = ClosedLoopConfig {
            window,
            messages_per_source: per_source,
            message_len: 16,
            think: Duration::from_us(2),
        };
        let mut inj = ClosedLoopInjector::new(cfg, &topo, seed).unwrap();
        let mut sim = NetworkSim::new(&topo, SpamRouting::new(&topo, &ud), SimConfig::paper());
        for spec in inj.initial_sends() {
            sim.submit(spec).unwrap();
        }
        sim.run_with_hook(&mut inj)
    }

    /// Max simultaneous outstanding messages of any single source, from
    /// the (gen, completion) intervals of a finished run.
    fn peak_outstanding(out: &SimOutcome, src: NodeId) -> usize {
        let mut events: Vec<(Time, i32)> = Vec::new();
        for m in out.messages.iter().filter(|m| m.spec.src == src) {
            events.push((m.spec.gen_time, 1));
            events.push((m.completed_at.expect("delivered"), -1));
        }
        // Completions at an instant free the window before the injections
        // that react to them (think time > 0 guarantees this anyway).
        events.sort_by_key(|&(t, d)| (t, d));
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak as usize
    }

    #[test]
    fn every_source_sends_its_quota() {
        let out = run(2, 5, 7);
        assert!(out.all_delivered());
        assert_eq!(out.messages.len(), 12 * 5);
        for src in out.messages.iter().map(|m| m.spec.src) {
            let n = out.messages.iter().filter(|m| m.spec.src == src).count();
            assert_eq!(n, 5);
        }
    }

    #[test]
    fn window_bounds_outstanding_messages() {
        for (w, per) in [(1, 4), (2, 6), (3, 3)] {
            let out = run(w, per, 11);
            assert!(out.all_delivered());
            let mut srcs: Vec<NodeId> = out.messages.iter().map(|m| m.spec.src).collect();
            srcs.sort_unstable();
            srcs.dedup();
            for src in srcs {
                let peak = peak_outstanding(&out, src);
                assert!(peak <= w, "source {src} had {peak} > window {w}");
                assert!(peak >= 1);
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let (a, b) = (run(2, 4, 3), run(2, 4, 3));
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn restore_rejects_a_count_above_the_quota() {
        let topo = IrregularConfig::with_switches(8).generate(1);
        let cfg = ClosedLoopConfig {
            window: 2,
            messages_per_source: 3,
            message_len: 16,
            think: Duration::ZERO,
        };
        let encoded = |inj: &ClosedLoopInjector| {
            let mut w = SnapWriter::new();
            w.begin();
            inj.encode_state(&mut w);
            w.seal().to_vec()
        };
        let mut inj = ClosedLoopInjector::new(cfg, &topo, 5).unwrap();
        let mut fresh = ClosedLoopInjector::new(cfg, &topo, 5).unwrap();
        let good = encoded(&inj);
        fresh
            .decode_state(&mut SnapReader::open(&good).unwrap())
            .unwrap();
        assert_eq!(fresh.remaining, inj.remaining);

        inj.remaining[3] += 1;
        let bumped = encoded(&inj);
        assert!(matches!(
            fresh.decode_state(&mut SnapReader::open(&bumped).unwrap()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let topo = IrregularConfig::with_switches(4).generate(0);
        let cfg = ClosedLoopConfig {
            window: 0,
            messages_per_source: 1,
            message_len: 16,
            think: Duration::ZERO,
        };
        assert!(matches!(
            ClosedLoopInjector::new(cfg, &topo, 0),
            Err(TrafficError::ZeroDuration { what: "window" })
        ));
    }
}
