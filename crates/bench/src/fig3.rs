//! Figure 3: latency versus average arrival rate under mixed traffic
//! (90 % unicast / 10 % multicast) in a 128-node network, for multicast
//! sizes 8, 16, 32 and 64.
//!
//! The paper's observation: even under heavy load, latency is largely
//! independent of the multicast destination count, with saturation setting
//! in past ~0.03 messages/µs/node.

use crate::report::{self, Report};
use crate::{figure3_traffic, paper_spec, run_rep, PointSummary};
use spam_scenario::split_seed;

/// Configuration of a Figure 3 sweep.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Network size in switches (128 in the paper).
    pub switches: usize,
    /// Multicast sizes (one curve each): 8, 16, 32, 64.
    pub multicast_sizes: Vec<usize>,
    /// Arrival rates in messages/µs/node (x axis: 0.005 – 0.04).
    pub rates: Vec<f64>,
    /// Messages simulated per replication.
    pub messages: usize,
    /// Fraction of messages discarded as warm-up.
    pub warmup_frac: f64,
    /// Relative CI target across replications.
    pub target_rel: f64,
    /// Replication budget per point.
    pub max_reps: u64,
    /// RNG stream.
    pub seed: u64,
}

impl Fig3Config {
    /// The paper's sweep (steady-state-sized replications), or the small
    /// `quick` variant for smoke tests and CI.
    pub fn new(quick: bool) -> Self {
        if quick {
            Fig3Config {
                switches: 32,
                multicast_sizes: vec![4, 8],
                rates: vec![0.005, 0.02],
                messages: 400,
                warmup_frac: 0.1,
                target_rel: 0.10,
                max_reps: 6,
                seed: 0x5EED_F163,
            }
        } else {
            Fig3Config {
                switches: 128,
                multicast_sizes: vec![8, 16, 32, 64],
                rates: vec![0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04],
                messages: 4000,
                warmup_frac: 0.1,
                target_rel: 0.01,
                max_reps: 200,
                seed: 0x5EED_F163,
            }
        }
    }
}

/// One replication: mean message latency (µs) over the post-warm-up
/// window of a mixed-traffic run.
pub fn mixed_traffic_mean_latency_us(
    switches: usize,
    rate: f64,
    multicast_size: usize,
    messages: usize,
    warmup_frac: f64,
    seed: u64,
) -> f64 {
    let traffic = figure3_traffic(rate, multicast_size, messages);
    let out = run_rep(&paper_spec(switches, traffic, seed));
    let warmup = (messages as f64 * warmup_frac) as u64;
    out.mean_latency_us(|m| m.spec.tag >= warmup)
        .expect("messages completed")
}

/// The whole figure: one curve per multicast size across the rate sweep.
pub fn run(cfg: &Fig3Config) -> Vec<(usize, Vec<PointSummary>)> {
    let point = |k: usize, rate: f64| {
        let stream = split_seed(cfg.seed, (k as u64) << 32 | (rate * 1e6) as u64);
        crate::sweep::replicate_point(cfg.target_rel, cfg.max_reps, stream, rate, |s| {
            mixed_traffic_mean_latency_us(cfg.switches, rate, k, cfg.messages, cfg.warmup_frac, s)
        })
    };
    cfg.multicast_sizes
        .iter()
        .map(|&k| (k, cfg.rates.iter().map(|&rate| point(k, rate)).collect()))
        .collect()
}

/// The `fig3` experiment: one curve (and one `fig3_k<dests>.csv`) per
/// multicast size.
pub fn report(quick: bool) -> Report {
    let cfg = Fig3Config::new(quick);
    let mut files = Vec::new();
    let mut series = Vec::new();
    for (k, points) in run(&cfg) {
        let header = "rate_per_node_per_us,latency_us,ci_half_width_us,reps,met_1pct";
        files.push(report::csv_file(&format!("fig3_k{k}.csv"), header, &points));
        series.push((format!("{k} destinations"), points));
    }
    Report::figure(
        "fig3",
        [
            "Figure 3 — Latency vs arrival rate, 90% unicast / 10% multicast (cf. paper: curves nearly coincide; saturation past ~0.03)",
            "average arrival rate (messages/µs/node)",
            "latency (µs)",
        ],
        &[
            ("switches", cfg.switches.to_string()),
            ("messages", cfg.messages.to_string()),
            ("quick", quick.to_string()),
        ],
        series,
        files,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_is_deterministic() {
        let a = mixed_traffic_mean_latency_us(24, 0.01, 4, 150, 0.1, 5);
        let b = mixed_traffic_mean_latency_us(24, 0.01, 4, 150, 0.1, 5);
        assert_eq!(a, b);
        assert!(a > 10.0, "latency {a} below the startup floor");
    }

    #[test]
    fn latency_rises_with_load() {
        let lo = mixed_traffic_mean_latency_us(24, 0.004, 4, 400, 0.1, 9);
        let hi = mixed_traffic_mean_latency_us(24, 0.08, 4, 400, 0.1, 9);
        assert!(hi > lo, "latency must rise with load: {lo} !< {hi}");
    }
}
