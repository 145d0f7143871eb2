//! Cross-crate integration tests over the facade crate: the full pipeline
//! (generator → labeling → SPAM → flit simulator → statistics) glued
//! together exactly the way the examples and the figure harness use it.

use spam_net::prelude::*;

#[test]
fn prelude_covers_the_full_pipeline() {
    let topo = IrregularConfig::with_switches(48).generate(1);
    let ud = UpDownLabeling::build(&topo, RootSelection::MinEccentricity);
    let spam = SpamRouting::new(&topo, &ud);
    let procs: Vec<NodeId> = topo.processors().collect();

    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(procs[0], procs[1..9].to_vec(), 128))
        .unwrap();
    let out: SimOutcome = sim.run();
    assert!(out.all_delivered());

    let mut stats = RunningStats::new();
    stats.extend(out.latencies_us(|_| true));
    assert!(stats.mean() > 10.0);
}

#[test]
fn figure1_walkthrough_end_to_end() {
    let (topo, labels) = figure1();
    let by = |l: u32| labels.by_label(l).unwrap();
    let ud = UpDownLabeling::build(&topo, RootSelection::Fixed(by(1)));
    let spam = SpamRouting::new(&topo, &ud);

    // The §3.2 worked example plus simultaneous reverse traffic.
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(by(5), vec![by(8), by(9), by(10), by(11)], 128).tag(0))
        .unwrap();
    sim.submit(MessageSpec::unicast(by(11), by(5), 128).tag(1))
        .unwrap();
    sim.submit(MessageSpec::unicast(by(8), by(10), 128).tag(2))
        .unwrap();
    let out = sim.run();
    assert!(out.all_delivered(), "{:?}", out.deadlock);
}

#[test]
fn spam_multicast_beats_software_multicast_end_to_end() {
    let topo = IrregularConfig::with_switches(64).generate(5);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[0];
    let dests: Vec<NodeId> = procs[1..33].to_vec();

    // SPAM: one worm.
    let spam = SpamRouting::new(&topo, &ud);
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(src, dests.clone(), 128))
        .unwrap();
    let spam_out = sim.run();
    assert!(spam_out.all_delivered());
    let spam_us = spam_out.messages[0].latency().unwrap().as_us_f64();

    // Software: binomial unicasts over classic up*/down*.
    let router = UpDownUnicastRouting::new(&topo, &ud);
    let mut um = UnicastMulticast::new(src, &dests, 128, Duration::from_us(10));
    let mut sim = NetworkSim::new(&topo, router, SimConfig::paper());
    for s in um.initial_sends(Time::ZERO) {
        sim.submit(s).unwrap();
    }
    let soft_out = sim.run_with_hook(&mut um);
    assert!(soft_out.all_delivered());
    let soft_us = um.makespan(&soft_out).unwrap().as_us_f64();

    // 32 destinations: bound is 6 startups = 60 µs; SPAM ~12 µs.
    let bound = lower_bound::software_multicast_lower_bound(32, Duration::from_us(10)).as_us_f64();
    assert!(spam_us < 15.0, "SPAM {spam_us} µs");
    assert!(
        soft_us >= bound * 0.99,
        "software {soft_us} vs bound {bound}"
    );
    assert!(
        soft_us / spam_us > 3.0,
        "expected a clear hardware-multicast win: {spam_us} vs {soft_us}"
    );
}

#[test]
fn mixed_traffic_pipeline_with_stats_protocol() {
    // Run the §4 statistics protocol end-to-end at smoke scale: replicate
    // a mixed-traffic point until the CI is within 5 %.
    let mut ctl = simstats::PrecisionController::new(0.05, simstats::ConfidenceLevel::P95, 3, 40);
    let mut rep = 0u64;
    while !ctl.satisfied() {
        rep += 1;
        let topo = IrregularConfig::with_switches(24).generate(rep);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        let spam = SpamRouting::new(&topo, &ud);
        let stream = MixedTrafficConfig::figure3(0.01, 4, 200)
            .generate(&topo, rep)
            .unwrap();
        let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
        for spec in stream {
            sim.submit(spec).unwrap();
        }
        let out = sim.run();
        assert!(out.all_delivered());
        ctl.push(out.mean_latency_us(|m| m.spec.tag >= 20).unwrap());
    }
    let ci: ConfidenceInterval = ctl.interval().unwrap();
    assert!(ci.mean > 10.0);
    assert!(ci.relative_half_width() <= 0.05 || ctl.count() == 40);
}

#[test]
fn partitioned_multicast_delivers_same_set() {
    use spam_net::spam::{partition_specs, PartitionStrategy};

    let topo = IrregularConfig::with_switches(48).generate(9);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let spam = SpamRouting::new(&topo, &ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[0];
    let dests: Vec<NodeId> = procs[1..25].to_vec();
    let base = MessageSpec::multicast(src, dests.clone(), 64);
    let specs = partition_specs(
        &ud,
        &base,
        PartitionStrategy::SubtreesUnderLca { max_groups: 4 },
        0,
    );
    assert!(!specs.is_empty() && specs.len() <= 4);
    let mut covered: Vec<NodeId> = specs.iter().flat_map(|s| s.dests.iter().copied()).collect();
    covered.sort_unstable();
    let mut want = dests.clone();
    want.sort_unstable();
    assert_eq!(covered, want, "partition must cover exactly the dest set");

    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    for s in specs {
        sim.submit(s).unwrap();
    }
    let out = sim.run();
    assert!(out.all_delivered());
}

#[test]
fn deterministic_across_full_pipeline() {
    let run = || {
        let topo = IrregularConfig::with_switches(32).generate(77);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        let spam = SpamRouting::new(&topo, &ud);
        let stream = MixedTrafficConfig::figure3(0.02, 8, 300)
            .generate(&topo, 77)
            .unwrap();
        let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
        for spec in stream {
            sim.submit(spec).unwrap();
        }
        let out = sim.run();
        assert!(out.all_delivered());
        (
            out.messages
                .iter()
                .map(|m| m.completed_at.unwrap().as_ns())
                .collect::<Vec<_>>(),
            out.counters,
        )
    };
    assert_eq!(run(), run());
}
