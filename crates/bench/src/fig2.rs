//! Figure 2: latency versus number of destinations for a single multicast
//! in 128- and 256-node networks.
//!
//! Each replication draws a fresh §4 network, a random source, and a
//! uniform destination set, then measures the latency of one SPAM
//! multicast in an otherwise idle network. Replications continue until the
//! 95 % CI is within the configured fraction of the mean (1 % in the
//! paper).
//!
//! The paper's headline result: the curve is essentially **flat** — a
//! single multi-head worm reaches 4 or 128 destinations in nearly the same
//! time — and the 256-node broadcast stays under 14 µs.

use crate::report::{self, Report};
use crate::sweep::{single, Stop};
use crate::{first_latency_us, paper_spec, run_rep, PointSummary};
use spam_scenario::{split_seed, TrafficSpec};

/// Flits per message.
const LEN: u32 = 128;

/// RNG stream of the figure.
const SEED: u64 = 0x5EED_F162;

/// One replication: fresh network + one timed multicast. Returns µs.
pub fn single_multicast_latency_us(switches: usize, dests: usize, len: u32, seed: u64) -> f64 {
    let spec = paper_spec(switches, TrafficSpec::SingleMulticast { dests, len }, seed);
    first_latency_us(&run_rep(&spec))
}

/// The paper's sweep for a network of `switches` nodes: one
/// [`PointSummary`] per destination count, at 1, 2, every further power
/// of two, and the broadcast.
pub fn run(switches: usize, stop: Stop) -> Vec<PointSummary> {
    let mut dest_counts = vec![1usize, 2];
    let mut k = 4;
    while k < switches - 1 {
        dest_counts.push(k);
        k *= 2;
    }
    dest_counts.push(switches - 1); // broadcast
    dest_counts
        .into_iter()
        .map(|k| {
            single(stop, split_seed(SEED, k as u64), k as f64, |s| {
                single_multicast_latency_us(switches, k, LEN, s)
            })
        })
        .collect()
}

/// The `fig2` experiment: both panels (128 and 256 nodes), one
/// `fig2_<nodes>.csv` each.
pub fn report(quick: bool) -> Report {
    let stop = Stop {
        target_rel: if quick { 0.05 } else { 0.01 },
        max_reps: if quick { 64 } else { 2000 },
    };
    let mut files = Vec::new();
    let mut series = Vec::new();
    for n in [128usize, 256] {
        let points = run(n, stop);
        let header = "destinations,latency_us,ci_half_width_us,reps,met_1pct";
        files.push(report::csv_file(&format!("fig2_{n}.csv"), header, &points));
        series.push((format!("{n}-node"), points));
    }
    Report::figure(
        "fig2",
        [
            "Figure 2 — Latency vs destinations, single SPAM multicast (cf. paper: flat, 10-14 µs)",
            "number of destinations",
            "latency (µs)",
        ],
        &[("quick", quick.to_string())],
        series,
        files,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replication_is_deterministic_and_sane() {
        let a = single_multicast_latency_us(32, 8, 128, 42);
        let b = single_multicast_latency_us(32, 8, 128, 42);
        assert_eq!(a, b);
        // Startup alone is 10 µs; a 32-node network adds a few hundred ns.
        assert!(a > 10.0 && a < 20.0, "latency {a} µs out of range");
    }

    #[test]
    fn latency_is_flat_in_destination_count() {
        // The Figure 2 shape at miniature scale: broadcast costs at most
        // ~20 % more than a unicast.
        let pts = run(32, Stop::new(0.05, 24));
        let uni = pts.first().unwrap().mean;
        let bcast = pts.last().unwrap().mean;
        assert!(bcast < uni * 1.2, "multicast not flat: {uni} -> {bcast}");
        // And every point is above the startup floor.
        for p in &pts {
            assert!(p.mean > 10.0);
            assert!(p.reps >= 3);
        }
    }
}
