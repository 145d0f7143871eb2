//! The §4 in-text comparison: SPAM broadcast versus software multicast.
//!
//! > "SPAM incurs a latency of under 14 µs for a single broadcast in a 256
//! > node network. In contrast, the theoretical lower bound for
//! > software-based multicast to d destinations is ⌈log₂(d+1)⌉
//! > (accounting for startup latency alone), implying a lower bound of
//! > 90 µs in this case; a more than six-fold difference."
//!
//! Beyond the analytic bound, this module also *simulates* the software
//! scheme (binomial unicast-based multicast over up*/down* routing), which
//! is strictly slower than the bound — making the comparison conservative
//! in SPAM's favour exactly as the paper's argument requires.

use crate::fig2::single_multicast_latency_us;
use crate::report::{self, Report};
use crate::sweep::{single, Stop};
use crate::{makespan_us, paper_spec, run_rep, PointSummary};
use baselines::software_multicast_lower_bound;
use desim::Duration;
use simstats::RunningStats;
use spam_scenario::{split_seed, RoutingSpec, TrafficSpec};
use std::fmt::Write as _;

/// One row of the broadcast comparison table.
#[derive(Debug, Clone)]
pub struct BroadcastRow {
    /// Network size (processors).
    pub nodes: usize,
    /// Analytic lower bound with d = nodes − 1, µs.
    pub bound_d_minus_1_us: f64,
    /// Analytic lower bound with d = nodes (the paper's arithmetic), µs.
    pub bound_d_us: f64,
    /// `bound_d_us / spam.mean` — the paper's "more than six-fold" ratio.
    pub speedup_vs_bound: f64,
    /// `software.mean / spam.mean` — the end-to-end measured ratio.
    pub speedup_vs_software: f64,
    /// SPAM broadcast latency, µs (CI-controlled; `x` = nodes).
    pub spam: PointSummary,
    /// Simulated binomial unicast-multicast makespan, µs: a fixed
    /// replication count, so its CI is descriptive and `target_met` is
    /// false.
    pub software: PointSummary,
}

/// The software arm of [`single_multicast_latency_us`]: the same fresh
/// network, source and destination draw, delivered as a binomial tree of
/// up*/down* unicasts. Returns the whole tree's makespan in µs.
pub fn software_multicast_makespan_us(switches: usize, dests: usize, len: u32, seed: u64) -> f64 {
    let mut spec = paper_spec(switches, TrafficSpec::SingleMulticast { dests, len }, seed);
    spec.routing = RoutingSpec::SoftwareMulticast;
    makespan_us(&run_rep(&spec))
}

/// Builds the comparison row for one network size.
pub fn run_row(switches: usize, stop: Stop, seed: u64) -> BroadcastRow {
    // Every other processor a destination, 128 flits.
    let (x, dests) = (switches as f64, switches - 1);
    let spam = single(stop, split_seed(seed, 10), x, |s| {
        single_multicast_latency_us(switches, dests, 128, s)
    });
    let mut soft = RunningStats::new();
    // The software scheme is far slower per replication; a handful of
    // replications suffices for a ratio that is stable to a few percent.
    let soft_reps = 5.min(stop.max_reps);
    for i in 0..soft_reps {
        let s = split_seed(seed, 20 + i);
        soft.push(software_multicast_makespan_us(switches, dests, 128, s));
    }
    let software = PointSummary::described(x, &soft, false);
    let d = dests as u64;
    let startup = Duration::from_us(10);
    let bound_d_us = software_multicast_lower_bound(d + 1, startup).as_us_f64();
    BroadcastRow {
        nodes: switches,
        bound_d_minus_1_us: software_multicast_lower_bound(d, startup).as_us_f64(),
        bound_d_us,
        speedup_vs_bound: bound_d_us / spam.mean,
        speedup_vs_software: software.mean / spam.mean,
        spam,
        software,
    }
}

/// The `broadcast` experiment: the comparison for 128- and 256-node
/// networks; the ratios are the CSV's `x_bound` / `x_soft` columns.
pub fn report(quick: bool) -> Report {
    let stop = Stop {
        target_rel: if quick { 0.05 } else { 0.01 },
        max_reps: if quick { 16 } else { 500 },
    };
    let rows: Vec<BroadcastRow> = [128usize, 256]
        .iter()
        .map(|&nodes| run_row(nodes, stop, 0xB0A5))
        .collect();
    let mut csv =
        String::from("nodes,spam_us,software_us,bound_dm1_us,bound_d_us,x_bound,x_soft,reps\n");
    for r in &rows {
        writeln!(
            csv,
            "{},{:.3},{:.3},{:.1},{:.1},{:.3},{:.3},{}",
            r.nodes,
            r.spam.mean,
            r.software.mean,
            r.bound_d_minus_1_us,
            r.bound_d_us,
            r.speedup_vs_bound,
            r.speedup_vs_software,
            r.spam.reps
        )
        .expect("string write");
    }
    let bound = |r: &BroadcastRow| PointSummary::exact(r.spam.x, r.bound_d_us, 0);
    let mut report = Report::figure(
        "broadcast",
        [
            "§4 — broadcast latency: SPAM vs software multicast (simulated, and its analytic bound)",
            "nodes",
            "latency (µs)",
        ],
        &[
            ("target_rel", stop.target_rel.to_string()),
            ("quick", quick.to_string()),
        ],
        vec![
            (
                "SPAM".to_string(),
                rows.iter().map(|r| r.spam.clone()).collect(),
            ),
            (
                "software (simulated, fixed reps)".to_string(),
                rows.iter().map(|r| r.software.clone()).collect(),
            ),
            (
                "software lower bound (d = nodes)".to_string(),
                rows.iter().map(bound).collect(),
            ),
        ],
        vec![report::file("broadcast_table.csv", csv)],
    );
    let r256 = &rows[1];
    write!(
        report.text,
        "\npaper check: 256-node SPAM broadcast {:.2} µs (paper: <14), \
         vs 90 µs bound -> {:.1}x (paper: >6x)",
        r256.spam.mean, r256.speedup_vs_bound
    )
    .expect("string write");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miniature_comparison_has_the_paper_shape() {
        // 32 nodes: SPAM ~11 µs, bound = ceil(log2(32+..)) * 10 µs = 50-60,
        // simulated software slower than the bound.
        let row = run_row(32, Stop::new(0.05, 16), 77);
        assert!(row.spam.mean < 14.0, "SPAM broadcast {} µs", row.spam.mean);
        assert_eq!(row.bound_d_minus_1_us, 50.0); // d=31 -> 5 phases
        assert_eq!(row.bound_d_us, 60.0); // d=32 -> 6 phases
        assert!(
            row.software.mean >= row.bound_d_minus_1_us,
            "simulated software {} beat its own lower bound {}",
            row.software.mean,
            row.bound_d_minus_1_us
        );
        assert!(row.speedup_vs_bound > 3.0);
        assert!(row.speedup_vs_software > 3.0);
    }
}
