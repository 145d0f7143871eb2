//! The reconfiguration sweep — SPAM through a *live* fault storm.
//!
//! The static fault sweep (`fault_sweep`) measures SPAM on networks that
//! were already degraded when the run started. This sweep measures the
//! transient instead: a stream of multicasts is in flight on a pristine
//! §4 lattice when a storm of link deaths strikes in bursts, worms caught
//! holding dead channels are torn down, the surviving fabric relabels
//! itself (incremental up*/down* reconfiguration), and traffic submitted
//! after each burst routes on the new epoch's labeling.
//!
//! Two arms on **identical damage and identical traffic**:
//!
//! * **live** — the storm strikes mid-run (`FaultSchedule::storm`);
//! * **static** — the same deaths collapsed to time zero
//!   (`FaultSchedule::collapsed_at`), i.e. the PR-2 regime where the
//!   network is degraded before any worm starts.
//!
//! The gap between the arms isolates the *transient*: the live arm loses
//! worms to teardowns and pays a latency penalty routing around fresh
//! damage, but also banks every delivery the pre-storm epochs complete on
//! fabric the static arm never had — so its delivered fraction can land
//! on either side of the control. Replication control follows the
//! paper's §4 protocol (95 % CI on the per-replication mean latency of
//! delivered messages); per-epoch latency statistics are aggregated
//! across replications by merging each replication's Welford accumulators
//! ([`RunningStats::merge`]) and latency histograms
//! ([`simstats::Histogram::merge`]).

use crate::report::{self, Report};
use crate::sweep::{cell, Stop};
use crate::{paper_fabric, PointSummary};
use desim::Time;
use netgraph::NodeId;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simstats::{Histogram, RunningStats};
use spam_faults::FaultModel;
use spam_reconfig::{EpochRouting, FaultSchedule, ReconfigScenario};
use spam_scenario::split_seed;
use std::fmt::Write as _;
use wormsim::{MessageSpec, NetworkSim, SimConfig, SimOutcome};

/// Inter-arrival spacing of the multicast stream, in µs.
const SPACING_US: u64 = 2;

/// Bursts per storm (= relabeling epochs beyond the first) in the sweep.
const BURSTS: usize = 3;

/// Flits per message in the sweep.
const LEN: u32 = 64;

/// RNG stream of the sweep.
const SEED: u64 = 0x05EC_0F16;

/// Everything one replication reports for both arms.
#[derive(Debug, Clone)]
pub struct StormReplication {
    /// Mean latency (µs) of delivered messages, live arm (`None` if the
    /// storm delivered nothing).
    pub live_latency_us: Option<f64>,
    /// Mean latency (µs) of delivered messages, static arm.
    pub static_latency_us: Option<f64>,
    /// Live-arm verdicts `(delivered, torn_down, unreachable)`.
    pub live_counts: (u64, u64, u64),
    /// Static-arm verdicts `(delivered, torn_down, unreachable)`.
    pub static_counts: (u64, u64, u64),
    /// Messages submitted.
    pub total: u64,
    /// Live-arm per-epoch delivered-latency accumulators (index = epoch).
    pub live_epoch_latency: Vec<RunningStats>,
    /// Live-arm delivered-latency histogram (µs).
    pub live_hist: Histogram,
    /// Static-arm delivered-latency histogram (µs).
    pub static_hist: Histogram,
}

/// Histogram geometry shared by every replication so cells can merge.
/// The range is generous (1 ms at 0.5 µs resolution) so congested tails
/// on larger networks stay in range instead of vanishing into the
/// overflow bucket and silently understating the p95 column.
fn latency_histogram() -> Histogram {
    Histogram::new(0.0, 1000.0, 2000)
}

fn verdict_counts(out: &SimOutcome) -> (u64, u64, u64) {
    let c = &out.counters;
    (
        c.messages_completed,
        c.messages_torn_down,
        c.messages_unreachable,
    )
}

/// One replication: build a pristine lattice and a multicast stream, then
/// run the identical (damage, traffic) pair through the live storm and
/// the static-degraded control. Deterministic in
/// `(switches, rate, dests, seed)`.
pub fn storm_replication(
    switches: usize,
    rate: f64,
    dests: usize,
    messages: usize,
    bursts: usize,
    len: u32,
    seed: u64,
) -> StormReplication {
    let arts = paper_fabric(switches, split_seed(seed, 0xA));
    let (base, ud) = (&arts.topo, &arts.labeling);
    // The storm strikes the middle half of the stream's startup-shifted
    // arrival window, so worms are in flight at every burst.
    let span_us = messages as u64 * SPACING_US;
    let window = (
        Time::from_us(10 + span_us / 4),
        Time::from_us(10 + span_us * 3 / 4),
    );
    let schedule = if rate > 0.0 {
        FaultSchedule::storm(
            &FaultModel::IidLinks { rate },
            base,
            None,
            window,
            bursts,
            split_seed(seed, 0xB),
        )
    } else {
        FaultSchedule::default()
    };

    let procs: Vec<NodeId> = base.processors().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(seed, 0xC));
    let specs: Vec<MessageSpec> = (0..messages)
        .map(|i| {
            let src = procs[rng.gen_range(0..procs.len())];
            let mut others: Vec<NodeId> = procs.iter().copied().filter(|&p| p != src).collect();
            others.shuffle(&mut rng);
            others.truncate(dests);
            MessageSpec::multicast(src, others, len).at(Time::from_us(i as u64 * SPACING_US))
        })
        .collect();

    let run = |schedule: &FaultSchedule, routing: EpochRouting<'_>| -> SimOutcome {
        let mut sim = NetworkSim::new(base, routing, SimConfig::paper());
        schedule.install(&mut sim);
        for s in &specs {
            sim.submit(s.clone()).unwrap();
        }
        sim.run()
    };

    let scenario = ReconfigScenario::build(base, ud, &schedule);
    let live = run(&schedule, scenario.routing(base));

    // Static control: the same deaths collapsed to time zero, so every
    // message routes on the post-damage labeling (the pristine epoch 0
    // ends before the first message and costs no distance row).
    let collapsed = schedule.collapsed_at(Time::ZERO);
    let static_scenario = ReconfigScenario::build(base, ud, &collapsed);
    let stat = run(&collapsed, static_scenario.routing(base));
    for (arm, out) in [("live", &live), ("static", &stat)] {
        assert!(
            out.all_accounted(),
            "{arm} arm lost messages (rate {rate}, seed {seed}): {:?} {:?}",
            out.error,
            out.deadlock
        );
    }

    let mut live_epoch_latency: Vec<RunningStats> = vec![RunningStats::new(); live.num_epochs()];
    let mut live_hist = latency_histogram();
    for m in live.messages.iter().filter(|m| m.is_complete()) {
        let us = m.latency().expect("complete").as_us_f64();
        live_epoch_latency[live.epoch_of(m.spec.gen_time)].push(us);
        live_hist.record(us);
    }
    let mut static_hist = latency_histogram();
    for us in stat.latencies_us(|_| true) {
        static_hist.record(us);
    }

    StormReplication {
        live_latency_us: live.mean_latency_us(|_| true),
        static_latency_us: stat.mean_latency_us(|_| true),
        live_counts: verdict_counts(&live),
        static_counts: verdict_counts(&stat),
        total: specs.len() as u64,
        live_epoch_latency,
        live_hist,
        static_hist,
    }
}

/// One finished sweep cell.
#[derive(Debug, Clone)]
pub struct ReconfigPoint {
    /// Storm intensity (fraction of links killed).
    pub rate: f64,
    /// Multicast destination count.
    pub dests: usize,
    /// Live-arm delivered latency (µs); `x` is the rate.
    pub live: PointSummary,
    /// Static-degraded control latency (µs).
    pub static_: PointSummary,
    /// Live-arm mean delivered fraction.
    pub live_delivered_frac: f64,
    /// Live-arm mean torn-down fraction.
    pub live_torn_frac: f64,
    /// Live-arm mean unreachable fraction.
    pub live_unreachable_frac: f64,
    /// Static-arm mean delivered fraction.
    pub static_delivered_frac: f64,
    /// Static-arm mean unreachable fraction.
    pub static_unreachable_frac: f64,
    /// Live-arm 95th-percentile delivered latency (µs), from the merged
    /// cell-level histogram.
    pub live_p95_us: Option<f64>,
    /// Static-arm 95th-percentile delivered latency (µs).
    pub static_p95_us: Option<f64>,
    /// Per-epoch delivered latency of the live arm (`x` = epoch index),
    /// merged across replications.
    pub epoch_latency: Vec<PointSummary>,
}

/// Runs the sweep on `switches`-switch lattices under a stream of
/// `messages` multicasts; one [`ReconfigPoint`] per (rate, dest-count)
/// cell (rate 0.0 = control cell, no faults).
pub fn run(
    switches: usize,
    storm_rates: &[f64],
    dest_counts: &[usize],
    messages: usize,
    stop: Stop,
) -> Vec<ReconfigPoint> {
    let mut out = Vec::new();
    for &k in dest_counts {
        for &rate in storm_rates {
            let stream = split_seed(SEED, (k as u64) << 32 | (rate * 1e4) as u64);
            let mut fracs = [RunningStats::new(); 5];
            let mut epoch_stats: Vec<RunningStats> = Vec::new();
            let mut live_hist = latency_histogram();
            let mut static_hist = latency_histogram();
            // A cell can starve an arm entirely (heavy storms on tiny
            // networks leave the static arm nothing delivered): that arm
            // reports NaN, not a panic.
            let [live, static_] = cell(
                stop,
                stream,
                rate,
                |s| storm_replication(switches, rate, k, messages, BURSTS, LEN, s),
                |r: StormReplication| {
                    let t = r.total as f64;
                    fracs[0].push(r.live_counts.0 as f64 / t);
                    fracs[1].push(r.live_counts.1 as f64 / t);
                    fracs[2].push(r.live_counts.2 as f64 / t);
                    fracs[3].push(r.static_counts.0 as f64 / t);
                    fracs[4].push(r.static_counts.2 as f64 / t);
                    // Streaming per-epoch aggregation: merge this
                    // replication's Welford accumulators and histograms
                    // into the cell's.
                    if epoch_stats.len() < r.live_epoch_latency.len() {
                        epoch_stats.resize(r.live_epoch_latency.len(), RunningStats::new());
                    }
                    for (cell, rep) in epoch_stats.iter_mut().zip(&r.live_epoch_latency) {
                        cell.merge(rep);
                    }
                    live_hist.merge(&r.live_hist);
                    static_hist.merge(&r.static_hist);
                    [r.live_latency_us, r.static_latency_us]
                },
            );
            let epoch_latency = epoch_stats
                .iter()
                .enumerate()
                .map(|(e, s)| PointSummary::described(e as f64, s, true))
                .collect();
            out.push(ReconfigPoint {
                rate,
                dests: k,
                live,
                static_,
                live_delivered_frac: fracs[0].mean(),
                live_torn_frac: fracs[1].mean(),
                live_unreachable_frac: fracs[2].mean(),
                static_delivered_frac: fracs[3].mean(),
                static_unreachable_frac: fracs[4].mean(),
                live_p95_us: live_hist.percentile(95.0),
                static_p95_us: static_hist.percentile(95.0),
                epoch_latency,
            });
        }
    }
    out
}

/// The sweep's CSV (`results/reconfig_sweep.csv`).
pub fn csv(points: &[ReconfigPoint]) -> String {
    let mut out = String::from(
        "storm_rate,dests,live_latency_us,live_ci_us,live_reps,live_met,\
         live_delivered_frac,live_torn_frac,live_unreachable_frac,live_p95_us,\
         static_latency_us,static_ci_us,static_delivered_frac,static_unreachable_frac,\
         static_p95_us,latency_penalty\n",
    );
    for p in points {
        writeln!(
            out,
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.3}",
            p.rate,
            p.dests,
            report::stat_columns(&p.live),
            p.live_delivered_frac,
            p.live_torn_frac,
            p.live_unreachable_frac,
            p.live_p95_us.unwrap_or(f64::NAN),
            p.static_.mean,
            p.static_.ci_half_width,
            p.static_delivered_frac,
            p.static_unreachable_frac,
            p.static_p95_us.unwrap_or(f64::NAN),
            p.live.mean / p.static_.mean,
        )
        .expect("string write");
    }
    out
}

/// The `reconfig-sweep` experiment — 64-switch lattices, storms killing
/// 0–30 % of links in 3 bursts under a 48-message multicast stream;
/// `quick` thins the rates and loosens the CI for smoke tests and CI
/// runs. Live and static curves per multicast size; the per-cell detail
/// (verdict fractions, p95, penalty) is the CSV. The record also carries
/// the per-epoch latency of the heaviest storm cell — the shape of the
/// transient (epoch 0 = pre-storm traffic).
pub fn report(quick: bool) -> Report {
    let switches = 64;
    let dest_counts = [4, 16];
    let storm_rates: &[f64] = if quick {
        &[0.0, 0.10, 0.30]
    } else {
        &[0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    };
    let messages = if quick { 32 } else { 48 };
    let stop = Stop {
        target_rel: if quick { 0.10 } else { 0.02 },
        max_reps: if quick { 12 } else { 400 },
    };
    let points = run(switches, storm_rates, &dest_counts, messages, stop);
    let mut series = Vec::new();
    for k in dest_counts {
        let of_k = || points.iter().filter(|p| p.dests == k);
        let live = of_k().map(|p| p.live.clone()).collect();
        let stat = of_k().map(|p| p.static_.clone()).collect();
        series.push((format!("live storm k={k}"), live));
        series.push((format!("static degraded k={k}"), stat));
    }
    let mut report = Report::figure(
        "reconfig_sweep",
        [
            "Reconfiguration sweep — delivered-message latency vs storm intensity (live storm vs static damage)",
            "storm rate (fraction of links killed)",
            "latency (µs)",
        ],
        &[
            ("switches", switches.to_string()),
            ("messages", messages.to_string()),
            ("spacing_us", SPACING_US.to_string()),
            ("bursts", BURSTS.to_string()),
            ("len_flits", LEN.to_string()),
            ("target_rel", stop.target_rel.to_string()),
            ("max_reps", stop.max_reps.to_string()),
            ("seed", SEED.to_string()),
            ("quick", quick.to_string()),
        ],
        series,
        vec![report::file("reconfig_sweep.csv", csv(&points))],
    );
    // Its x axis is the epoch index, so it joins the record after the
    // rate-axis plot is drawn.
    if let Some(worst) = points.iter().rev().find(|p| !p.epoch_latency.is_empty()) {
        report.bench.series.push((
            format!(
                "per-epoch latency (rate {:.2}, k={})",
                worst.rate, worst.dests
            ),
            worst.epoch_latency.clone(),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(seed: u64) -> StormReplication {
        storm_replication(16, 0.2, 3, 12, 2, 32, seed)
    }

    #[test]
    fn replications_are_deterministic() {
        let (a, b) = (rep(5), rep(5));
        assert_eq!(a.live_latency_us, b.live_latency_us);
        assert_eq!(a.live_counts, b.live_counts);
        assert_eq!(a.static_counts, b.static_counts);
    }

    #[test]
    fn zero_rate_arms_are_identical_and_lossless() {
        let r = storm_replication(16, 0.0, 3, 12, 2, 32, 9);
        assert_eq!(r.live_counts, (r.total, 0, 0));
        assert_eq!(r.static_counts, (r.total, 0, 0));
        assert_eq!(r.live_latency_us, r.static_latency_us);
        assert_eq!(r.live_epoch_latency.len(), 1, "no faults, one epoch");
    }

    #[test]
    fn storms_tear_down_worms_only_in_the_live_arm() {
        // Accumulate a few replications of a heavy storm under dense
        // in-flight traffic. Teardowns exist only in the live arm (the
        // static arm's damage predates every worm), verdicts partition
        // both arms, and the live arm delivers at least the pre-storm
        // epoch — often *more* than the static arm, because messages
        // submitted before a burst complete on fabric that still exists.
        let mut live_delivered = 0;
        let mut torn = 0;
        for seed in 0..6 {
            let r = storm_replication(24, 0.3, 4, 16, 2, 48, seed);
            live_delivered += r.live_counts.0;
            torn += r.live_counts.1;
            assert_eq!(r.live_counts.0 + r.live_counts.1 + r.live_counts.2, r.total);
            assert_eq!(
                r.static_counts.0 + r.static_counts.2,
                r.total,
                "static damage causes no teardowns, only unreachables"
            );
            assert_eq!(r.static_counts.1, 0);
        }
        assert!(torn > 0, "a 30% mid-run storm must catch some worms");
        assert!(live_delivered > 0, "the pre-storm epoch always lands");
    }

    #[test]
    fn quick_sweep_produces_all_cells() {
        let pts = run(16, &[0.0, 0.25], &[2, 4], 10, Stop::new(0.25, 4));
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.live.mean > 0.0);
            // The static arm may starve entirely on a tiny heavily-damaged
            // network (all dests unreachable): NaN mean, never negative.
            assert!(p.static_.mean > 0.0 || p.static_.mean.is_nan());
            assert!(p.live_delivered_frac > 0.0 && p.live_delivered_frac <= 1.0);
            assert!(!p.epoch_latency.is_empty());
            if p.rate == 0.0 {
                assert_eq!(p.live_delivered_frac, 1.0);
                assert_eq!(p.live_torn_frac, 0.0);
            }
        }
    }
}
