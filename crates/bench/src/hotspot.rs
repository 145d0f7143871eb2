//! Ablation E (§5): the spanning-tree-root hot-spot.
//!
//! > "As the number of destinations increases, the probability that the
//! > worm must pass through the root of the underlying spanning tree
//! > increases, resulting in potential hot-spot effects at the root ...
//! > an inherent feature of the up*/down* routing algorithm."
//!
//! Quantifies that probability exactly (static analysis over sampled
//! destination sets) for each root-selection policy, alongside the mean
//! adaptivity and path stretch of the resulting labeling. A static
//! analysis of one labeled lattice — nothing a scenario replication
//! expresses — so it labels the fabric and drives the simulator itself.

use crate::ablations::ROOT_POLICIES;
use crate::report::{BenchJson, Report};
use crate::{paper_fabric, PointSummary};
use netgraph::NodeId;
use spam_core::{mean_adaptivity, path_stretch, root_transit_probability, SpamRouting};
use spam_scenario::ScenarioArtifacts;
use std::fmt::Write as _;
use updown::UpDownLabeling;
use wormsim::{MessageSpec, NetworkSim, SimConfig};

/// Network size (switches = processors) the analysis runs on.
const NODES: usize = 128;

/// The `hotspot` experiment: root-transit probability per root policy
/// and destination count, then the dynamic confirmation.
pub fn report(_quick: bool) -> Report {
    let arts = paper_fabric(NODES, 0xE0);
    let topo = &arts.topo;
    let mut text =
        format!("root hot-spot analysis, {NODES}-node §4 network (500 samples per cell)\n\n");
    let mut series: Vec<(String, Vec<PointSummary>)> = Vec::new();
    for (name, sel) in ROOT_POLICIES {
        let ud = UpDownLabeling::build(topo, sel);
        let spam = SpamRouting::new(topo, &ud);
        let (stretch_mean, stretch_max) = path_stretch(topo, &spam);
        let _ = writeln!(
            text,
            "policy {name}: root {}, adaptivity {:.2} legal moves/hop, stretch {:.3} (max {:.2})",
            ud.root(),
            mean_adaptivity(topo, &spam),
            stretch_mean,
            stretch_max
        );
        let _ = writeln!(
            text,
            "  {:>6} {:>14} {:>18}",
            "dests", "LCA = root", "must cross root"
        );
        let mut points = Vec::new();
        for k in [2usize, 4, 8, 16, 32, 64, NODES - 1] {
            let r = root_transit_probability(topo, &ud, &spam, k, 500, 0xE1);
            let _ = writeln!(
                text,
                "  {k:>6} {:>13.1}% {:>17.1}%",
                r.lca_is_root * 100.0,
                r.must_cross_root * 100.0
            );
            let samples = r.samples as u64;
            points.push(PointSummary::exact(k as f64, r.must_cross_root, samples));
        }
        series.push((format!("must_cross_root {name}"), points));
        text.push('\n');
    }
    text.push_str(
        "(the growth of both columns with the destination count is the §5\n \
         hot-spot argument; destination partitioning — ablation C — is the\n \
         paper's proposed mitigation)\n",
    );
    text.push_str(&dynamic_utilization(&arts));
    Report {
        bench: BenchJson::new("hotspot", &[("nodes", NODES.to_string())], series),
        files: Vec::new(),
        text,
    }
}

/// Dynamic confirmation: drive a broadcast storm through the network and
/// show how much hotter the root's channels run than the average channel.
fn dynamic_utilization(arts: &ScenarioArtifacts) -> String {
    let (topo, ud) = (&arts.topo, &arts.labeling);
    let spam = SpamRouting::new(topo, ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let mut sim = NetworkSim::new(topo, spam, SimConfig::paper());
    // Every 8th processor broadcasts simultaneously.
    for (i, &src) in procs.iter().enumerate().step_by(8) {
        let dests: Vec<NodeId> = procs.iter().copied().filter(|&p| p != src).collect();
        // Every destination is a processor of this fabric.
        #[allow(clippy::expect_used)]
        sim.submit(MessageSpec::multicast(src, dests, 128).tag(i as u64))
            .expect("destinations drawn from the fabric");
    }
    let out = sim.run();
    assert!(out.all_delivered(), "{:?}", out.deadlock);

    let root_channels: Vec<_> = topo.out_channels(ud.root()).to_vec();
    let root_load: u64 = root_channels
        .iter()
        .map(|c| out.channel_crossings[c.index()])
        .sum::<u64>()
        / root_channels.len() as u64;
    let switch_links: Vec<u64> = topo
        .channel_ids()
        .filter(|&c| {
            let ch = topo.channel(c);
            topo.is_switch(ch.src) && topo.is_switch(ch.dst)
        })
        .map(|c| out.channel_crossings[c.index()])
        .collect();
    let avg = switch_links.iter().sum::<u64>() / switch_links.len() as u64;
    format!(
        "\ndynamic check — broadcast storm, per-channel flit crossings:\n  \
         mean over root-adjacent channels: {root_load}\n  \
         mean over all switch-switch channels: {avg}\n  \
         hottest channels: {:?}\n  \
         root runs {:.1}x hotter than the average switch channel",
        out.hottest_channels(4),
        root_load as f64 / avg.max(1) as f64
    )
}
