//! Figure 3: latency versus average arrival rate under mixed traffic
//! (90 % unicast / 10 % multicast) in a 128-node network, for multicast
//! sizes 8, 16, 32 and 64.
//!
//! The paper's observation: even under heavy load, latency is largely
//! independent of the multicast destination count, with saturation setting
//! in past ~0.03 messages/µs/node.

use crate::report::{self, Report};
use crate::sweep::{single, Stop};
use crate::{figure3_traffic, paper_spec, run_rep};
use spam_scenario::split_seed;

/// Fraction of each replication's messages discarded as warm-up.
const WARMUP_FRAC: f64 = 0.1;

/// RNG stream of the figure.
const SEED: u64 = 0x5EED_F163;

/// One replication: mean message latency (µs) over the post-warm-up
/// window of a mixed-traffic run.
// `run_rep` insists on full delivery and every caller's warm-up is a
// fraction below one, so the mean always has messages to average.
#[allow(clippy::expect_used)]
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

/// The `fig3` experiment: one curve (and one `fig3_k<dests>.csv`) per
/// multicast size across the rate sweep — the paper's 128-node network
/// with steady-state-sized replications, or the small `quick` variant
/// for smoke tests and CI.
pub fn report(quick: bool) -> Report {
    let switches = if quick { 32 } else { 128 };
    let sizes: &[usize] = if quick { &[4, 8] } else { &[8, 16, 32, 64] };
    let rates: &[f64] = if quick {
        &[0.005, 0.02]
    } else {
        &[0.005, 0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04]
    };
    let messages = if quick { 400 } else { 4000 };
    let stop = Stop {
        target_rel: if quick { 0.10 } else { 0.01 },
        max_reps: if quick { 6 } else { 200 },
    };
    let mut files = Vec::new();
    let mut series = Vec::new();
    for &k in sizes {
        let point = |&rate: &f64| {
            let stream = split_seed(SEED, (k as u64) << 32 | (rate * 1e6) as u64);
            single(stop, stream, rate, |s| {
                mixed_traffic_mean_latency_us(switches, rate, k, messages, WARMUP_FRAC, s)
            })
        };
        let points: Vec<_> = rates.iter().map(point).collect();
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
            ("switches", switches.to_string()),
            ("messages", messages.to_string()),
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
