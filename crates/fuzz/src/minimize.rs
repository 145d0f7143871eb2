//! Greedy minimization of oracle-violating specs.
//!
//! `simplify_candidates` yields one-axis simplifications that still
//! validate. A candidate is adopted whenever the shrunk spec still trips
//! the *same named oracle*; the walk restarts from the adopted spec and
//! runs to a fixpoint (no candidate reproduces the violation) or an
//! iteration bound. The bound exists only as a backstop: every candidate
//! strictly shrinks a monotone measure, so the walk terminates on its
//! own.
//!
//! The candidate order is deliberate: the axes most likely to be
//! irrelevant to a failure (replication count, horizon, engine knobs)
//! come first, the ones most likely to carry it (faults, traffic shape,
//! topology size) last — so the greedy walk strips boilerplate before it
//! risks losing the trigger.

use crate::oracle::check_spec;
use spam_scenario::{EngineSpec, FaultsSpec, ScenarioSpec, TrafficSpec};

/// Upper bound on adopted shrink steps (backstop, not a tuning knob).
const MAX_STEPS: usize = 24;

/// Shrinks `spec` while preserving the named `violation`. Returns the
/// smallest spec found and the number of candidates adopted. `spec`
/// itself must already exhibit the violation.
pub fn minimize_violation(spec: &ScenarioSpec, violation: &'static str) -> (ScenarioSpec, usize) {
    let mut current = spec.clone();
    let mut steps = 0;
    'shrink: while steps < MAX_STEPS {
        for (_axis, cand) in simplify_candidates(&current) {
            if let Ok(report) = check_spec(&cand) {
                if report.violation == Some(violation) {
                    current = cand;
                    steps += 1;
                    continue 'shrink;
                }
            }
        }
        break;
    }
    (current, steps)
}

/// One-axis simplifications of `spec`, each labelled with the axis it
/// touches. Only candidates that (a) differ from `spec` and (b) still
/// pass [`ScenarioSpec::validate`] are returned — a minimizer step never
/// trades an oracle violation for a validation error.
pub(crate) fn simplify_candidates(spec: &ScenarioSpec) -> Vec<(&'static str, ScenarioSpec)> {
    let mut out: Vec<(&'static str, ScenarioSpec)> = Vec::new();
    let mut push = |axis: &'static str, cand: ScenarioSpec| {
        if cand != *spec && cand.validate().is_ok() {
            out.push((axis, cand));
        }
    };

    // Replications: a failure that needs rep > 0 is a seed-derivation
    // failure; try the cheapest run count first.
    if spec.replications > 1 {
        let mut c = spec.clone();
        c.replications = 1;
        push("replications", c);
    }
    // Horizon: purely a validation constraint; dropping it never changes
    // the simulation.
    if spec.horizon_us.is_some() {
        let mut c = spec.clone();
        c.horizon_us = None;
        push("horizon_us", c);
    }
    // Engine knobs back to defaults (keep the queue choice — it is an
    // oracle axis, not boilerplate).
    {
        let mut c = spec.clone();
        c.engine = EngineSpec {
            queue: spec.engine.queue,
            ..EngineSpec::default()
        };
        push("engine", c);
    }
    // Faults off entirely.
    if !matches!(spec.faults, FaultsSpec::None) {
        let mut c = spec.clone();
        c.faults = FaultsSpec::None;
        push("faults", c);
    }
    // Storm: fewer bursts.
    if let FaultsSpec::Storm { bursts, .. } = spec.faults {
        if bursts > 1 {
            let mut c = spec.clone();
            if let FaultsSpec::Storm { bursts, .. } = &mut c.faults {
                *bursts = 1;
            }
            push("faults.bursts", c);
        }
    }
    // Traffic volume: halve message counts, shrink destination sets and
    // message lengths.
    {
        let mut c = spec.clone();
        match &mut c.traffic {
            TrafficSpec::Mixed { messages, .. }
            | TrafficSpec::Hotspot { messages, .. }
            | TrafficSpec::Incast { messages, .. } => *messages = (*messages / 2).max(1),
            TrafficSpec::Permutation {
                messages_per_node, ..
            } => *messages_per_node = (*messages_per_node / 2).max(1),
            TrafficSpec::ClosedLoop {
                messages_per_source,
                ..
            } => *messages_per_source = (*messages_per_source / 2).max(1),
            TrafficSpec::SingleMulticast { .. } | TrafficSpec::BroadcastStorm { .. } => {}
        }
        push("traffic.volume", c);
    }
    {
        let mut c = spec.clone();
        match &mut c.traffic {
            TrafficSpec::SingleMulticast { dests, .. } => *dests = (*dests / 2).max(1),
            TrafficSpec::Mixed {
                multicast_dests, ..
            } => *multicast_dests = (*multicast_dests / 2).max(1),
            _ => {}
        }
        push("traffic.dests", c);
    }
    {
        let mut c = spec.clone();
        let len = match &mut c.traffic {
            TrafficSpec::SingleMulticast { len, .. }
            | TrafficSpec::Mixed { len, .. }
            | TrafficSpec::Hotspot { len, .. }
            | TrafficSpec::Permutation { len, .. }
            | TrafficSpec::Incast { len, .. }
            | TrafficSpec::BroadcastStorm { len, .. }
            | TrafficSpec::ClosedLoop { len, .. } => len,
        };
        *len = (*len / 2).max(1);
        push("traffic.len", c);
    }
    // Topology: halve the lattice (default side tracks the new count).
    if spec.topology.switches > 2 {
        let mut c = spec.clone();
        c.topology.switches = (spec.topology.switches / 2).max(2);
        c.topology.side = None;
        push("topology.switches", c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam_scenario::{ArrivalSpec, FaultModelSpec, PolicySpec, RoutingSpec};

    #[test]
    fn a_clean_spec_minimizes_to_itself() {
        // No candidate of a passing spec can exhibit a violation the
        // spec itself lacks, so the walk adopts nothing.
        let mut spec = ScenarioSpec::example("already-clean");
        spec.quicken();
        let (min, steps) = minimize_violation(&spec, "accounting");
        assert_eq!(min, spec);
        assert_eq!(steps, 0);
    }

    fn stormy() -> ScenarioSpec {
        let mut s = ScenarioSpec::example("shrink-me");
        s.replications = 5;
        s.horizon_us = Some(500);
        s.engine.input_buffer_flits = 4;
        s.routing = RoutingSpec::Spam {
            policy: PolicySpec::MinResidualDistance,
        };
        s.traffic = TrafficSpec::Mixed {
            unicast_fraction: 0.9,
            multicast_dests: 8,
            rate_per_node_per_us: 0.01,
            len: 64,
            messages: 200,
            arrival: ArrivalSpec::NegativeBinomial { r: 1 },
        };
        s.faults = FaultsSpec::Storm {
            model: FaultModelSpec::IidLinks { rate: 0.1 },
            seed: 9,
            window_start_us: 50,
            window_end_us: 150,
            bursts: 3,
        };
        s
    }

    #[test]
    fn candidates_are_valid_strict_simplifications() {
        let spec = stormy();
        assert!(spec.validate().is_ok());
        let cands = simplify_candidates(&spec);
        assert!(cands.len() >= 6, "got {}", cands.len());
        for (axis, c) in &cands {
            assert_ne!(*c, spec, "{axis} candidate is a no-op");
            assert!(c.validate().is_ok(), "{axis} candidate fails validation");
        }
    }

    #[test]
    fn iterating_candidates_reaches_a_fixpoint() {
        // Always adopting the first candidate must terminate (every
        // candidate strictly shrinks some monotone measure).
        let mut spec = stormy();
        for _ in 0..200 {
            let cands = simplify_candidates(&spec);
            match cands.into_iter().next() {
                Some((_, c)) => spec = c,
                None => return,
            }
        }
        // A long chain is fine (lengths/counts halve), but it must not
        // cycle: the measure below strictly decreases in every step the
        // loop above took, so reaching here with a candidate left means
        // something regrew an axis.
        assert!(simplify_candidates(&spec)
            .iter()
            .all(|(_, c)| *c != stormy()));
    }

    #[test]
    fn horizon_candidate_never_trades_into_a_validation_error() {
        // A storm spec whose horizon equals its window end: dropping the
        // horizon is fine, but shrinking the window past it would not be.
        let spec = stormy();
        for (_, c) in simplify_candidates(&spec) {
            assert!(c.validate().is_ok());
        }
    }
}
