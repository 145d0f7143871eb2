//! Ablation studies from DESIGN.md (all grounded in §5's future-work
//! discussion).
//!
//! * **A — root selection**: the spanning-tree root shapes every route;
//!   §5 notes that "judicious selection of spanning trees ... may have
//!   significant effects on performance".
//! * **B — input-buffer depth**: §5: "by using larger input buffers ...
//!   message latency could potentially be further reduced"; the headline
//!   theorem only needs depth 1.
//! * **C — destination partitioning**: §5's proposed mitigation of the
//!   root hot-spot: split one worm into several tree-contiguous worms.
//! * **D — SPAM vs software multicast** across destination counts: the
//!   end-to-end framing of the paper's motivation (Figure 2 + the §4
//!   in-text claim combined).

use crate::broadcast::software_multicast_makespan_us;
use crate::fig2::single_multicast_latency_us;
use crate::report::{self, Report};
use crate::sweep::{single, Stop};
use crate::{figure3_traffic, first_latency_us, paper_fabric, paper_spec, run_rep, PointSummary};
use desim::Time;
use netgraph::NodeId;
use rand::{Rng, SeedableRng};
use spam_core::{partition_specs, PartitionStrategy, SpamRouting};
use spam_scenario::split_seed;
use traffic::DestinationSampler;
use updown::{RootSelection, UpDownLabeling};
use wormsim::{MessageSpec, NetworkSim, SimConfig};

/// RNG stream of the ablations.
const SEED: u64 = 0x0AB1_A7E5;

/// Paper scale (128 nodes, 1 % CI), or the fast `quick` variant for
/// smoke tests and CI.
fn scale(quick: bool) -> (usize, Stop) {
    if quick {
        (32, Stop::new(0.05, 24))
    } else {
        (128, Stop::new(0.01, 1000))
    }
}

// ---------------------------------------------------------------- A: root

/// The deterministic root-selection policies, in report order (ablation
/// A adds a seeded random root; the hot-spot analysis uses these as is).
pub const ROOT_POLICIES: [(&str, RootSelection); 3] = [
    ("lowest-id", RootSelection::LowestId),
    ("max-degree", RootSelection::MaxDegree),
    ("min-eccentricity", RootSelection::MinEccentricity),
];

/// Single-multicast latency under one root policy. The spec has no
/// root-selection axis, so this arm labels the lattice itself.
// Every message is drawn from the fabric's own processors, so a failed
// draw or submit is a bug in the sampler or the engine, not a data point.
#[allow(clippy::expect_used)]
fn root_policy_rep(switches: usize, root: RootSelection, dests: usize, seed: u64) -> f64 {
    let topo = paper_fabric(switches, split_seed(seed, 0xA)).topo;
    let ud = UpDownLabeling::build(&topo, root);
    let spam = SpamRouting::new(&topo, &ud);
    let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(seed, 0xB));
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[rng.gen_range(0..procs.len())];
    // Clamped, not rejected: the quick 32-node network has 31 candidates
    // for the 32-destination multicast.
    let count = dests.min(procs.len() - 1);
    let dset = DestinationSampler::UniformRandom { count }
        .sample(&topo, src, &mut rng)
        .expect("clamped count");
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(src, dset, 128))
        .expect("destinations drawn from the fabric");
    let out = sim.run();
    assert!(out.all_delivered());
    first_latency_us(&out)
}

/// Ablation A: multicast latency per root-selection policy (x = policy
/// index in the returned label order).
pub fn run_root_selection(
    switches: usize,
    stop: Stop,
    dests: usize,
) -> Vec<(String, PointSummary)> {
    ROOT_POLICIES
        .into_iter()
        .chain([("random", RootSelection::RandomSeeded(SEED))])
        .enumerate()
        .map(|(i, (name, root))| {
            let p = single(stop, split_seed(SEED, i as u64), i as f64, |s| {
                root_policy_rep(switches, root, dests, s)
            });
            (name.to_string(), p)
        })
        .collect()
}

// ------------------------------------------------------------- B: buffers

/// Ablation B: mixed-traffic latency versus buffer depth (§5).
// `run_rep` insists on full delivery and the warm-up is a tenth of the
// stream, so the mean always has messages to average.
#[allow(clippy::expect_used)]
pub fn run_buffer_depth(
    switches: usize,
    stop: Stop,
    depths: &[usize],
    rate: f64,
    messages: usize,
) -> Vec<PointSummary> {
    depths
        .iter()
        .map(|&depth| {
            single(stop, split_seed(SEED, depth as u64), depth as f64, |s| {
                let mut spec = paper_spec(switches, figure3_traffic(rate, 8, messages), s);
                spec.engine.input_buffer_flits = depth;
                spec.engine.output_buffer_flits = depth;
                let warmup = (messages / 10) as u64;
                run_rep(&spec)
                    .mean_latency_us(|m| m.spec.tag >= warmup)
                    .expect("messages completed")
            })
        })
        .collect()
}

// ----------------------------------------------------------- C: partition

/// One arm of ablation C: `None` is plain SPAM (one worm for all
/// destinations), `Some` splits the multicast — §5's tree-contiguous
/// groups, or naive id-sorted chunks as their baseline.
pub type PartitionArm = Option<PartitionStrategy>;

/// Short label of an arm for reports.
pub fn arm_label(arm: PartitionArm) -> String {
    match arm {
        None => "single-worm".into(),
        Some(PartitionStrategy::SubtreesUnderLca { max_groups }) => {
            format!("subtrees({max_groups})")
        }
        Some(PartitionStrategy::IdChunks { groups }) => format!("id-chunks({groups})"),
    }
}

/// One replication of ablation C: clustered destination set, background
/// unicast traffic, measure the makespan until *all* groups delivered.
// Every message is drawn from the fabric's own processors, so a failed
// draw or submit is a bug in the sampler or the engine, not a data point.
#[allow(clippy::expect_used)]
fn partition_rep(
    switches: usize,
    dests: usize,
    arm: PartitionArm,
    background: usize,
    seed: u64,
) -> f64 {
    let arts = paper_fabric(switches, split_seed(seed, 0xA));
    let (topo, ud) = (&arts.topo, &arts.labeling);
    let spam = SpamRouting::new(topo, ud);
    let mut rng = rand::rngs::StdRng::seed_from_u64(split_seed(seed, 0xB));
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[rng.gen_range(0..procs.len())];
    let dset = DestinationSampler::UniformRandom { count: dests }
        .sample(topo, src, &mut rng)
        .expect("enough processors");
    let base = MessageSpec::multicast(src, dset, 128).tag(1000);
    let specs = match arm {
        None => vec![base],
        Some(strategy) => partition_specs(ud, &base, strategy, 1000),
    };
    let mut sim = NetworkSim::new(topo, spam, SimConfig::paper());
    for s in specs {
        sim.submit(s).expect("destinations drawn from the fabric");
    }
    // Background unicasts make the root hot-spot matter.
    for i in 0..background {
        let a = procs[rng.gen_range(0..procs.len())];
        let b = DestinationSampler::UniformRandom { count: 1 }
            .sample(topo, a, &mut rng)
            .expect("enough processors");
        sim.submit(
            MessageSpec::multicast(a, b, 128)
                .at(Time::from_ns(rng.gen_range(0..5_000)))
                .tag(i as u64),
        )
        .expect("destinations drawn from the fabric");
    }
    let out = sim.run();
    assert!(out.all_delivered());
    // Makespan over the multicast's groups.
    out.messages
        .iter()
        .filter(|m| m.spec.tag >= 1000)
        .filter_map(|m| m.latency())
        .map(|l| l.as_us_f64())
        .fold(0.0, f64::max)
}

/// Ablation C: multicast makespan per partitioning arm.
pub fn run_partition(
    switches: usize,
    stop: Stop,
    dests: usize,
    background: usize,
    arms: &[PartitionArm],
) -> Vec<(String, PointSummary)> {
    arms.iter()
        .enumerate()
        .map(|(i, arm)| {
            let p = single(stop, split_seed(SEED, 0xC0 + i as u64), i as f64, |s| {
                partition_rep(switches, dests, *arm, background, s)
            });
            (arm_label(*arm), p)
        })
        .collect()
}

// ------------------------------------------------------------ D: baseline

/// Ablation D: SPAM vs simulated software multicast latency across
/// destination counts. Returns `(dests, spam, software)` summaries.
pub fn run_baseline_comparison(
    switches: usize,
    stop: Stop,
    dest_counts: &[usize],
) -> Vec<(usize, PointSummary, PointSummary)> {
    dest_counts
        .iter()
        .map(|&k| {
            let spam = single(stop, split_seed(SEED, k as u64), k as f64, |s| {
                single_multicast_latency_us(switches, k, 128, s)
            });
            // The software arm is far slower per replication: looser CI,
            // smaller budget.
            let soft_stop = Stop::new(stop.target_rel.max(0.03), stop.max_reps.min(50));
            let soft_stream = split_seed(SEED, 0xD000 + k as u64);
            let soft = single(soft_stop, soft_stream, k as f64, |s| {
                software_multicast_makespan_us(switches, k, 128, s)
            });
            (k, spam, soft)
        })
        .collect()
}

// ---------------------------------------------------------------- reports

/// A labelled-arm ablation (A, C) as a report: one single-point series
/// per arm (x = arm index), the rows in table order as `<name>.csv`.
fn labelled_report(
    name: &str,
    title: &str,
    [x_label, csv_header]: [&str; 2],
    params: &[(&str, String)],
    rows: Vec<(String, PointSummary)>,
) -> Report {
    let pts: Vec<PointSummary> = rows.iter().map(|(_, p)| p.clone()).collect();
    Report::figure(
        name,
        [title, x_label, "latency (µs)"],
        params,
        rows.into_iter().map(|(l, p)| (l, vec![p])).collect(),
        vec![report::csv_file(&format!("{name}.csv"), csv_header, &pts)],
    )
}

/// The `ablation-root` experiment: 32-destination multicasts per root
/// policy.
pub fn root_report(quick: bool) -> Report {
    let (switches, stop) = scale(quick);
    let dests = 32;
    labelled_report(
        "ablation_root",
        &format!(
            "Ablation A — root selection policy, {switches}-node network, {dests} destinations"
        ),
        [
            "policy index",
            "policy_index,latency_us,ci_half_width_us,reps,met_1pct",
        ],
        &[
            ("switches", switches.to_string()),
            ("dests", dests.to_string()),
        ],
        run_root_selection(switches, stop, dests),
    )
}

/// The `ablation-partition` experiment: makespan per partitioning arm
/// under background unicasts.
pub fn partition_report(quick: bool) -> Report {
    let (switches, stop) = scale(quick);
    let (dests, background) = if quick { (16, 16) } else { (64, 64) };
    let arms = [
        None,
        Some(PartitionStrategy::SubtreesUnderLca { max_groups: 2 }),
        Some(PartitionStrategy::SubtreesUnderLca { max_groups: 4 }),
        Some(PartitionStrategy::IdChunks { groups: 2 }),
        Some(PartitionStrategy::IdChunks { groups: 4 }),
    ];
    labelled_report(
        "ablation_partition",
        &format!(
            "Ablation C — destination partitioning (makespan), {switches}-node network, \
             {dests} dests, {background} background unicasts"
        ),
        [
            "arm index",
            "arm_index,makespan_us,ci_half_width_us,reps,met_1pct",
        ],
        &[
            ("switches", switches.to_string()),
            ("dests", dests.to_string()),
            ("background", background.to_string()),
        ],
        run_partition(switches, stop, dests, background, &arms),
    )
}

/// The `ablation-buffers` experiment: depths 1–8 at 0.02 messages/µs/node.
pub fn buffers_report(quick: bool) -> Report {
    let (switches, stop) = scale(quick);
    let rate = 0.02;
    let messages = if quick { 300 } else { 3000 };
    let points = run_buffer_depth(switches, stop, &[1, 2, 4, 8], rate, messages);
    let header = "buffer_depth,latency_us,ci_half_width_us,reps,met_1pct";
    let files = vec![report::csv_file("ablation_buffers.csv", header, &points)];
    Report::figure(
        "ablation_buffers",
        [
            "Ablation B — buffer depth vs mixed-traffic latency (§5 conjecture)",
            "buffer depth (flits)",
            "latency (µs)",
        ],
        &[
            ("switches", switches.to_string()),
            ("rate", rate.to_string()),
            ("messages", messages.to_string()),
        ],
        vec![("SPAM".to_string(), points)],
        files,
    )
}

/// The `ablation-baseline` experiment: SPAM vs software multicast across
/// destination counts.
pub fn baseline_report(quick: bool) -> Report {
    let (switches, stop) = scale(quick);
    let dest_counts: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64, 127]
    };
    let rows = run_baseline_comparison(switches, stop, dest_counts);
    let spam: Vec<PointSummary> = rows.iter().map(|(_, s, _)| s.clone()).collect();
    let soft: Vec<PointSummary> = rows.iter().map(|(_, _, u)| u.clone()).collect();
    let header = "destinations,latency_us,ci_half_width_us,reps,met_1pct";
    let file =
        |arm: &str, pts| report::csv_file(&format!("ablation_baseline_{arm}.csv"), header, pts);
    let files = vec![file("spam", &spam), file("software", &soft)];
    Report::figure(
        "ablation_baseline",
        [
            "Ablation D — SPAM vs software multicast latency (cf. paper's motivation: hardware multicast wins, gap grows with d)",
            "number of destinations",
            "latency (µs)",
        ],
        &[("switches", switches.to_string())],
        vec![
            ("SPAM (one worm)".to_string(), spam),
            ("software (binomial unicasts)".to_string(), soft),
        ],
        files,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_selection_arms_all_run() {
        let rows = run_root_selection(24, Stop::new(0.10, 8), 8);
        assert_eq!(rows.len(), 4);
        for (name, p) in &rows {
            assert!(p.mean > 10.0, "{name} mean {}", p.mean);
        }
    }

    #[test]
    fn buffer_depth_never_hurts() {
        let pts = run_buffer_depth(24, Stop::new(0.10, 6), &[1, 4], 0.02, 200);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].mean <= pts[0].mean * 1.02,
            "deeper buffers regressed latency: {} -> {}",
            pts[0].mean,
            pts[1].mean
        );
    }

    #[test]
    fn partition_arms_all_deliver() {
        let rows = run_partition(
            24,
            Stop::new(0.2, 4),
            12,
            8,
            &[
                None,
                Some(PartitionStrategy::SubtreesUnderLca { max_groups: 4 }),
                Some(PartitionStrategy::IdChunks { groups: 4 }),
            ],
        );
        assert_eq!(rows.len(), 3);
        for (label, p) in &rows {
            assert!(p.mean > 10.0, "{label}: {}", p.mean);
        }
    }

    #[test]
    fn spam_beats_software_multicast() {
        let rows = run_baseline_comparison(24, Stop::new(0.10, 8), &[8]);
        let (_, spam, soft) = &rows[0];
        assert!(
            soft.mean > spam.mean * 2.0,
            "software {} not clearly slower than SPAM {}",
            soft.mean,
            spam.mean
        );
    }
}
