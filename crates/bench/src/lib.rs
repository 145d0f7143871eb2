#![warn(missing_docs)]

//! # spam-bench — figure/table regeneration harness
//!
//! One module per experiment, each a pure function returning data rows,
//! all driven by the one `experiment <name> [--quick]` binary (see
//! [`experiment`]). Every replication a [`ScenarioSpec`] can express is
//! "build a spec ([`paper_spec`]), run it ([`run_rep`]), read one number
//! off the [`SimOutcome`]"; only the arms the spec has no axis for
//! (ablations A and C, the reconfiguration sweep's collapsed-schedule
//! control, the static hot-spot analysis) construct a simulator
//! directly. Replications follow the paper's §4 protocol (95 % CI within
//! 1 % of the mean) through [`sweep::replicate_point`].

pub mod ablations;
pub mod broadcast;
pub mod congestion;
pub mod experiment;
pub mod fault_sweep;
pub mod fig2;
pub mod fig3;
pub mod hotspot;
pub mod latency_anatomy;
pub mod reconfig_sweep;
pub mod report;
pub mod scenario_corpus;
pub mod sweep;

use spam_scenario::{split_seed, ArrivalSpec, ScenarioSpec, TrafficSpec};
use wormsim::SimOutcome;

/// One replication of a §4 experiment as a scenario: `switches` 8-port
/// switches on a random integer lattice (one processor each, default
/// labeling, SPAM routing, pristine fabric) carrying `traffic`. The
/// replication seed `s` splits into the topology stream (`0xA`) and the
/// workload stream (`0xB`); callers override further axes (routing arm,
/// buffers, faults) on the returned spec.
pub fn paper_spec(switches: usize, traffic: TrafficSpec, s: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::example("bench-replication");
    spec.topology.switches = switches;
    spec.topology.seed = split_seed(s, 0xA);
    spec.traffic = traffic;
    spec.seed = split_seed(s, 0xB);
    spec
}

/// The Figure 3 workload: 90 % unicasts / 10 % `multicast_dests`-way
/// multicasts, 128-flit messages, negative-binomial arrivals.
pub fn figure3_traffic(rate: f64, multicast_dests: usize, messages: usize) -> TrafficSpec {
    TrafficSpec::Mixed {
        unicast_fraction: 0.9,
        multicast_dests,
        rate_per_node_per_us: rate,
        len: 128,
        messages,
        arrival: ArrivalSpec::NegativeBinomial { r: 1 },
    }
}

/// Runs replication 0 of a spec that is valid by construction and
/// insists on full delivery: on the static fabrics the experiments
/// measure, an undelivered message is a deadlock — the theorem failing,
/// not a data point.
pub fn run_rep(spec: &ScenarioSpec) -> SimOutcome {
    let out = spam_scenario::run_once(spec, 0, None)
        .unwrap_or_else(|e| panic!("{} (topology seed {}): {e}", spec.name, spec.topology.seed));
    assert!(
        out.all_delivered(),
        "{}: undelivered messages (topology seed {}): error {:?}, deadlock {:?}",
        spec.name,
        spec.topology.seed,
        out.error,
        out.deadlock
    );
    out
}

/// Latency (µs) of the run's first message — the quantity of every
/// single-multicast experiment.
pub fn first_latency_us(out: &SimOutcome) -> f64 {
    out.messages[0].latency().expect("delivered").as_us_f64()
}

/// Dissemination makespan (µs): latest completion minus earliest
/// generation over every engine message. For a software multicast this
/// spans the whole binomial tree of unicasts.
pub fn makespan_us(out: &SimOutcome) -> f64 {
    let start = out.messages.iter().map(|m| m.spec.gen_time).min();
    let end = out.messages.iter().filter_map(|m| m.completed_at).max();
    end.expect("delivered")
        .since(start.expect("non-empty"))
        .as_us_f64()
}

/// A finished data point: the quantity the paper plots plus its CI.
#[derive(Debug, Clone)]
pub struct PointSummary {
    /// Independent-variable label (destination count, arrival rate, ...).
    pub x: f64,
    /// Mean of the measured quantity (µs for every figure here).
    pub mean: f64,
    /// 95 % CI half-width.
    pub ci_half_width: f64,
    /// Replications used.
    pub reps: u64,
    /// Whether the 1 % precision target was met within the budget.
    pub target_met: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam_scenario::ArtifactPrefix;

    #[test]
    fn paper_network_matches_section4() {
        let spec = paper_spec(64, TrafficSpec::SingleMulticast { dests: 8, len: 128 }, 9);
        let arts = ArtifactPrefix::of(&spec, 0).build().unwrap();
        assert_eq!(arts.topo.num_switches(), 64);
        assert_eq!(arts.topo.num_processors(), 64);
        arts.topo.validate(8).unwrap();
    }

    #[test]
    fn split_seed_streams_differ() {
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        let c = split_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(split_seed(42, 0), a, "deterministic");
    }
}
