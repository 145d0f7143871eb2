//! The fault sweep — SPAM beyond the paper's pristine networks.
//!
//! Sweeps link-fault rate × multicast size on the §4 irregular networks:
//! each replication draws a fresh 64-switch lattice network, kills links
//! i.i.d. at the given rate, reconfigures the largest surviving component
//! (up*/down* relabeling with root re-selection, crate `spam-faults`),
//! and then measures one multicast to destinations drawn from the
//! survivors — SPAM's single multi-head worm versus binomial software
//! multicast over classic up*/down* unicasts, both routed on the *same*
//! degraded instance. Replication control follows the paper's §4 protocol
//! (95 % CI within the target fraction of the mean).
//!
//! The headline question: does SPAM's startup advantage survive when the
//! network degrades and routes lengthen? (It does — the gap *widens*,
//! because software multicast pays per-phase startups on ever-longer
//! paths, while SPAM still pays one.)

use crate::report::{self, Report};
use crate::sweep::{cell, Stop};
use crate::{first_latency_us, makespan_us, paper_fabric, paper_spec, PointSummary};
use spam_faults::{DegradedNetwork, FaultModel};
use spam_scenario::{
    run_with_artifacts, split_seed, ArtifactPrefix, FaultModelSpec, FaultsSpec, RoutingSpec,
    ScenarioSpec, TrafficSpec,
};
use std::fmt::Write as _;

/// Flits per message.
const LEN: u32 = 128;

/// RNG stream of the sweep.
const SEED: u64 = 0xFA_017;

/// One finished sweep cell: both arms at a (rate, dest-count) point.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Link-fault rate.
    pub rate: f64,
    /// Requested destination count.
    pub dests: usize,
    /// SPAM single-worm multicast latency (µs); `x` is the rate.
    pub spam: PointSummary,
    /// Binomial software multicast over up*/down* unicasts (µs).
    pub software: PointSummary,
    /// Mean fraction of nodes surviving into the largest component.
    pub component_fraction: f64,
}

/// The degraded instance of one replication as a scenario: a §4 lattice
/// with links dead i.i.d. at `rate` before the run, SPAM routing, and one
/// `dests`-way multicast confined to the largest surviving component.
/// Deterministic in `(switches, rate, dests, seed, salt)`; the salt names
/// the retry stream [`paired_replication`] walks.
fn instance_spec(
    switches: usize,
    rate: f64,
    dests: usize,
    len: u32,
    seed: u64,
    salt: u64,
) -> ScenarioSpec {
    let s = split_seed(seed, 0xFA + salt);
    let mut spec = paper_spec(switches, TrafficSpec::SingleMulticast { dests, len }, s);
    spec.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidLinks { rate },
        seed: split_seed(s, 0xB),
    };
    spec.seed = split_seed(s, 0xC);
    spec
}

/// One paired replication: both arms measured on **one** degraded
/// instance (the topology, fault plan, relabeling, and destination draw
/// are built once and shared). Returns `(spam µs, software µs)`. An
/// instance whose largest component cannot host the multicast (vanishing
/// at these rates) is redrawn from the next salt. Panics if either scheme
/// fails to deliver to every destination — the reconfiguration guarantee
/// this sweep certifies.
pub fn paired_replication(
    switches: usize,
    rate: f64,
    dests: usize,
    len: u32,
    seed: u64,
) -> (f64, f64) {
    for salt in 0..32u64 {
        let spam = instance_spec(switches, rate, dests, len, seed, salt);
        let Ok(arts) = ArtifactPrefix::of(&spam, 0).build() else {
            continue;
        };
        // Arm 1: SPAM, one multi-head worm.
        let Ok(out) = run_with_artifacts(&spam, 0, None, &arts) else {
            continue;
        };
        // Arm 2: binomial software multicast over up*/down* unicasts, on
        // the same artifacts and the same destination draw.
        let software = ScenarioSpec {
            routing: RoutingSpec::SoftwareMulticast,
            ..spam
        };
        let soft = run_with_artifacts(&software, 0, None, &arts)
            .unwrap_or_else(|e| panic!("software arm rejected SPAM's instance: {e}"));
        for (arm, o) in [("SPAM", &out), ("software multicast", &soft)] {
            assert!(
                o.all_delivered(),
                "{arm} failed on degraded network (rate {rate}, seed {seed}): \
                 error {:?}, deadlock {:?}",
                o.error,
                o.deadlock
            );
        }
        return (first_latency_us(&out), makespan_us(&soft));
    }
    panic!("no routable component after 32 attempts (rate {rate}, seed {seed})");
}

/// Mean largest-component node fraction at a fault rate (fixed sample
/// count; descriptive, not CI-controlled).
fn mean_component_fraction(switches: usize, rate: f64, seed: u64, samples: u64) -> f64 {
    let mut acc = 0.0;
    for i in 0..samples {
        let s = split_seed(seed, 0x1_000 + i);
        let base = paper_fabric(switches, split_seed(s, 0xA)).topo;
        let plan = FaultModel::IidLinks { rate }.sample(&base, None, split_seed(s, 0xB));
        acc += DegradedNetwork::build(&base, &plan, None).largest_component_fraction(&base);
    }
    acc / samples as f64
}

/// Runs the sweep on `switches`-switch networks; one [`FaultPoint`] per
/// (rate, dest-count) cell. Each seed produces one `(spam, software)`
/// pair, and a cell runs until **both** arms are satisfied.
pub fn run(switches: usize, rates: &[f64], dest_counts: &[usize], stop: Stop) -> Vec<FaultPoint> {
    let mut out = Vec::new();
    for &k in dest_counts {
        for &rate in rates {
            let stream = split_seed(SEED, (k as u64) << 32 | (rate * 1e4) as u64);
            let [spam, software] = cell(
                stop,
                stream,
                rate,
                |s| paired_replication(switches, rate, k, LEN, s),
                |(a, b)| [Some(a), Some(b)],
            );
            out.push(FaultPoint {
                rate,
                dests: k,
                spam,
                software,
                component_fraction: mean_component_fraction(switches, rate, stream, 32),
            });
        }
    }
    out
}

/// The sweep's CSV (`results/fault_sweep.csv`).
pub fn csv(points: &[FaultPoint]) -> String {
    let mut out = String::from(
        "fault_rate,dests,spam_latency_us,spam_ci_us,spam_reps,spam_met,\
         software_latency_us,software_ci_us,software_reps,software_met,\
         speedup,largest_component_frac\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{},{:.3},{:.4}",
            p.rate,
            p.dests,
            report::stat_columns(&p.spam),
            report::stat_columns(&p.software),
            p.software.mean / p.spam.mean,
            p.component_fraction
        );
    }
    out
}

/// The `fault-sweep` experiment — 64-switch networks, fault rates
/// 0–25 %, multicast sizes 8 and 32, 1 % CI; `quick` thins the rates and
/// loosens the CI for smoke tests and CI runs. Both arms' curves per
/// multicast size; the per-cell detail (speed-up, surviving fraction) is
/// the CSV.
pub fn report(quick: bool) -> Report {
    let switches = 64;
    let dest_counts = [8, 32];
    let rates: &[f64] = if quick {
        &[0.0, 0.10, 0.20]
    } else {
        &[0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
    };
    let stop = Stop {
        target_rel: if quick { 0.05 } else { 0.01 },
        max_reps: if quick { 24 } else { 600 },
    };
    let points = run(switches, rates, &dest_counts, stop);
    let mut series = Vec::new();
    for k in dest_counts {
        let of_k = || points.iter().filter(|p| p.dests == k);
        let spam = of_k().map(|p| p.spam.clone()).collect();
        let software = of_k().map(|p| p.software.clone()).collect();
        series.push((format!("SPAM k={k}"), spam));
        series.push((format!("software k={k}"), software));
    }
    Report::figure(
        "fault_sweep",
        [
            "Fault sweep — multicast latency vs link-fault rate, degraded networks (largest component)",
            "link-fault rate",
            "latency (µs)",
        ],
        &[
            ("switches", switches.to_string()),
            ("len_flits", LEN.to_string()),
            ("target_rel", stop.target_rel.to_string()),
            ("max_reps", stop.max_reps.to_string()),
            ("seed", SEED.to_string()),
            ("quick", quick.to_string()),
        ],
        series,
        vec![report::file("fault_sweep.csv", csv(&points))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replications_are_deterministic() {
        assert_eq!(
            paired_replication(24, 0.15, 4, 32, 7),
            paired_replication(24, 0.15, 4, 32, 7)
        );
    }

    #[test]
    fn both_arms_see_the_same_instance() {
        // The arms differ in the routing axis alone, so they share one
        // artifact prefix (damage, relabeling) and one destination draw.
        let spam = instance_spec(24, 0.2, 5, 64, 3, 0);
        let software = ScenarioSpec {
            routing: RoutingSpec::SoftwareMulticast,
            ..spam.clone()
        };
        assert_eq!(
            ArtifactPrefix::of(&spam, 0),
            ArtifactPrefix::of(&software, 0)
        );
        assert_eq!(spam.seed, software.seed);
        assert_eq!(spam.traffic, software.traffic);
        assert_eq!(spam, instance_spec(24, 0.2, 5, 64, 3, 0));
    }

    #[test]
    fn spam_beats_software_even_degraded() {
        // Miniature sweep cell: one startup vs ceil(log2(d+1)) startups
        // dominates even at a 20% link-fault rate.
        let mut spam_acc = 0.0;
        let mut soft_acc = 0.0;
        for seed in 0..6 {
            let (spam, software) = paired_replication(24, 0.2, 7, 64, seed);
            spam_acc += spam;
            soft_acc += software;
        }
        assert!(
            soft_acc > spam_acc * 2.0,
            "software {soft_acc} vs spam {spam_acc}"
        );
    }

    #[test]
    fn pristine_rate_matches_fig2_style_latency() {
        // rate 0.0 reduces to an ordinary single multicast: above the
        // 10 µs startup floor, below saturation.
        let (us, _) = paired_replication(32, 0.0, 8, 128, 11);
        assert!(us > 10.0 && us < 20.0, "latency {us} µs out of range");
    }

    #[test]
    fn quick_sweep_produces_all_cells() {
        let pts = run(16, &[0.0, 0.2], &[2, 4], Stop::new(0.25, 4));
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.spam.mean > 0.0);
            assert!(p.software.mean > p.spam.mean, "software pays startups");
            assert!(p.component_fraction > 0.0 && p.component_fraction <= 1.0);
        }
        // More damage, smaller surviving component (on average).
        assert!(pts[0].component_fraction >= pts[1].component_fraction);
    }
}
