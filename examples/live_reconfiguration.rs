//! Live reconfiguration: a fault storm strikes a paper-style network
//! *while multicast traffic is in flight*. Worms caught holding dead
//! channels are torn down (reservations released, request queues
//! flushed), the surviving fabric relabels itself incrementally after
//! every burst — Autonet's online story — and traffic submitted after a
//! burst routes on the new epoch's labeling while old-epoch survivors
//! drain.
//!
//! It holds a `NetworkSim` itself, not a `ScenarioSpec`, because it
//! installs the fault schedule by hand to print what a spec keeps inside
//! its artifacts — the burst times and each epoch's relabeling report —
//! and places every message of the stream itself.
//!
//! ```text
//! cargo run --example live_reconfiguration --release
//! ```

use spam_net::prelude::*;

fn main() {
    // 1. A pristine 64-switch NOW under a steady multicast load: one
    //    8-destination multicast every 2 µs for 100 µs.
    let topo = IrregularConfig::with_switches(64).generate(2024);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let procs: Vec<NodeId> = topo.processors().collect();
    println!(
        "pristine: {} switches, {} channels, root {}",
        topo.num_switches(),
        topo.num_channels(),
        ud.root()
    );

    // 2. The storm: 15 % of all links die in three bursts between 25 µs
    //    and 75 µs — squarely inside the traffic window. Same seeded
    //    fault model as the static sweeps; the schedule only adds *when*.
    let storm = FaultSchedule::storm(
        &FaultModel::IidLinks { rate: 0.15 },
        &topo,
        None,
        (Time::from_us(25), Time::from_us(75)),
        3,
        7,
    );
    println!(
        "storm: {} link deaths in {} burst(s) at {:?}",
        storm.len(),
        storm.fault_times().len(),
        storm
            .fault_times()
            .iter()
            .map(|t| t.as_us_f64())
            .collect::<Vec<_>>()
    );

    // 3. The epoch chain: relabel the survivors at every burst,
    //    incrementally — the surviving spanning-tree structure is kept,
    //    only orphaned subtrees reattach.
    let scenario = ReconfigScenario::build(&topo, &ud, &storm);
    for (i, rep) in scenario.reports().iter().enumerate() {
        println!(
            "  epoch {} -> {}: kept {} tree edges, reattached {} nodes, \
             {} channel labels changed{}",
            i,
            i + 1,
            rep.kept_tree_edges,
            rep.reattached_nodes,
            rep.changed_channels,
            if rep.full_rebuild {
                " (root died: full rebuild)"
            } else {
                ""
            }
        );
    }

    // 4. Run the storm over live traffic. Messages generated at or after
    //    a burst route on the new labeling; in-flight worms that held a
    //    dying channel are torn down with a typed per-message error.
    let routing = scenario.routing(&topo);
    let mut sim = NetworkSim::new(&topo, routing, SimConfig::paper());
    storm.install(&mut sim);
    let mut rng_state = 0x5EEDu64;
    let mut next = || {
        // Tiny deterministic LCG — good enough to spread sources around.
        rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng_state >> 33) as usize
    };
    for i in 0..50u64 {
        let src = procs[next() % procs.len()];
        let dests: Vec<NodeId> = (0..8)
            .map(|_| procs[next() % procs.len()])
            .filter(|&d| d != src)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if dests.is_empty() {
            continue;
        }
        sim.submit(MessageSpec::multicast(src, dests, 64).at(Time::from_us(2 * i)))
            .unwrap();
    }
    let out = sim.run();
    assert!(out.all_accounted(), "every message must end with a verdict");

    // 5. Per-epoch accounting: the transient, quantified.
    println!(
        "\nrun: {} delivered, {} torn down, {} unreachable of {} messages \
         ({} links killed)",
        out.counters.messages_completed,
        out.counters.messages_torn_down,
        out.counters.messages_unreachable,
        out.messages.len(),
        out.counters.links_killed,
    );
    println!(
        "  {:<6} {:>9} {:>9} {:>5} {:>8} {:>12}",
        "epoch", "submitted", "delivered", "torn", "unreach", "latency (µs)"
    );
    for s in out.epoch_stats() {
        println!(
            "  {:<6} {:>9} {:>9} {:>5} {:>8} {:>12}",
            s.epoch,
            s.submitted,
            s.delivered,
            s.torn_down,
            s.unreachable,
            s.mean_latency_us
                .map(|l| format!("{l:.2}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    // A torn-down worm reports *where* it died.
    if let Some(m) = out.messages.iter().find(|m| m.is_torn_down()) {
        let f = m.failure.unwrap();
        println!(
            "\nexample casualty: \"{}\" at {:.2} µs",
            f.error,
            f.at.as_us_f64()
        );
    }
}
