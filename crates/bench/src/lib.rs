#![warn(missing_docs)]

//! # spam-bench — figure/table regeneration harness
//!
//! One module per experiment, each a pure function returning data rows,
//! all driven by the one `experiment <name> [--quick]` binary (see
//! [`experiment`]); `quick` is the only size a binary chooses. There is
//! one of each moving part:
//!
//! * **one fabric, one run** — every replication a [`ScenarioSpec`] can
//!   express is "build a spec ([`paper_spec`]), run it ([`run_rep`], or
//!   [`run_on_fabric`] to keep the artifacts), read one number off the
//!   [`SimOutcome`]"; the arms the spec has no axis for (ablations A and
//!   C, the reconfiguration sweep's collapsed-schedule control, the
//!   static hot-spot analysis) take the same lattice from
//!   [`paper_fabric`] and only then drive a simulator themselves;
//! * **one stopping rule** — the paper's §4 protocol (95 % CI within 1 %
//!   of the mean) is [`sweep::cell`], sized by a [`sweep::Stop`];
//! * **one record writer** — every experiment, the corpus runner and
//!   the fuzzer hand a [`report::Report`] to [`report::Report::write`];
//! * **one argument walker** — [`cli`], behind all four binaries.

pub mod ablations;
pub mod broadcast;
pub mod cli;
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

use simstats::{ConfidenceInterval, ConfidenceLevel, RunningStats};
use spam_scenario::{
    run_with_artifacts, split_seed, ArrivalSpec, ArtifactPrefix, ScenarioArtifacts, ScenarioSpec,
    TrafficSpec,
};
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

/// Builds the artifacts of replication `rep` of a spec that is valid by
/// construction and runs it on them — the one place an experiment turns
/// a spec into a fabric and an outcome. Callers that read the topology
/// or the lattice layout the run executed on keep the artifacts.
pub fn run_on_fabric(spec: &ScenarioSpec, rep: u32) -> (ScenarioArtifacts, SimOutcome) {
    let arts = fabric(spec, rep);
    let out = run_with_artifacts(spec, rep, None, &arts);
    let out = out.unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    (arts, out)
}

/// The pristine §4 fabric of [`paper_spec`] — lattice, layout and the
/// default (lowest-id root) labeling — for the arms that submit their own
/// messages because the spec has no axis for them. `topology_seed` is
/// the generator seed itself (stream `0xA` of a replication seed).
pub fn paper_fabric(switches: usize, topology_seed: u64) -> ScenarioArtifacts {
    // The artifact prefix ignores traffic; any valid one will do.
    let mut spec = paper_spec(
        switches,
        TrafficSpec::SingleMulticast { dests: 1, len: 1 },
        0,
    );
    spec.topology.seed = topology_seed;
    fabric(&spec, 0)
}

fn fabric(spec: &ScenarioSpec, rep: u32) -> ScenarioArtifacts {
    let arts = ArtifactPrefix::of(spec, rep).build();
    arts.unwrap_or_else(|e| panic!("{} (topology seed {}): {e}", spec.name, spec.topology.seed))
}

/// Runs replication 0 of a spec that is valid by construction and
/// insists on full delivery: on the static fabrics the experiments
/// measure, an undelivered message is a deadlock — the theorem failing,
/// not a data point.
pub fn run_rep(spec: &ScenarioSpec) -> SimOutcome {
    let (_, out) = run_on_fabric(spec, 0);
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

impl PointSummary {
    /// An accumulator no stopping rule controlled, described by its mean
    /// and 95 % CI (zero-width below two samples); the caller says what
    /// `target_met` means for it.
    pub fn described(x: f64, stats: &RunningStats, target_met: bool) -> Self {
        let ci = ConfidenceInterval::from_stats(stats, ConfidenceLevel::P95);
        PointSummary {
            x,
            mean: stats.mean(),
            ci_half_width: ci.map_or(0.0, |ci| ci.half_width),
            reps: stats.count(),
            target_met,
        }
    }

    /// A deterministic observation — an exact count, an analytic bound,
    /// one replication's mean: no interval to report, and nothing the
    /// precision target could fail on. `reps` is whatever the value
    /// aggregates (samples, messages, replications).
    pub fn exact(x: f64, mean: f64, reps: u64) -> Self {
        PointSummary {
            x,
            mean,
            ci_half_width: 0.0,
            reps,
            target_met: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
