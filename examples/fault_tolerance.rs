//! Fault tolerance: kill a lattice region of a paper-style network,
//! reconfigure the survivors Autonet-style (relabel each component with a
//! fresh root), and multicast across the degraded network with SPAM.
//!
//! It holds a `NetworkSim` itself, not a `ScenarioSpec`, because the
//! damage is composed by hand — a region fault's switches plus another
//! model's link cuts in one plan, the old root offered for re-selection —
//! and because it aims a unicast *into* the dead zone, where a spec
//! confines its traffic to the surviving component.
//!
//! ```text
//! cargo run --example fault_tolerance --release
//! ```

use spam_net::prelude::*;

fn main() {
    // 1. A 64-switch NOW with its lattice layout (needed for spatially
    //    correlated faults: a dead region is a set of *adjacent* cells).
    let (topo, layout) = IrregularConfig::with_switches(64).generate_with_layout(2024);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    println!(
        "pristine: {} switches, {} channels, root {}",
        topo.num_switches(),
        topo.num_channels(),
        ud.root()
    );

    // 2. A region fault: one lattice neighborhood (radius 2) dies — think
    //    a failed rack or power zone — plus a couple of random link cuts.
    let mut plan = FaultModel::Region { radius: 2 }.sample(&topo, Some(&layout), 7);
    let cuts = FaultModel::IidLinks { rate: 0.05 }.sample(&topo, None, 7);
    plan.links = cuts.links;
    println!(
        "fault plan: {} dead switches (region), {} cut links",
        plan.switches.len(),
        plan.links.len()
    );

    // 3. Reconfigure: mask the dead hardware (node ids preserved), split
    //    into surviving components, rebuild the up*/down* labeling per
    //    component with root re-selection.
    let net = DegradedNetwork::build(&topo, &plan, Some(ud.root()));
    println!(
        "survivors: {} channels, {} component(s)",
        net.topo.num_channels(),
        net.components.len()
    );
    for (i, c) in net.components.iter().enumerate() {
        println!(
            "  component {i}: {} nodes, root {} {}",
            c.nodes.len(),
            c.root,
            if c.root == ud.root() {
                "(old root survived)"
            } else {
                "(re-selected)"
            }
        );
    }

    // 4. Broadcast to every *reachable* processor of the main component.
    //    Theorem 1 holds per component, so the worm still cannot deadlock.
    let main = net.largest().expect("network not annihilated");
    let procs = main.processors(&net.topo);
    let src = procs[0];
    let dests: Vec<NodeId> = procs[1..].to_vec();
    let spam = SpamRouting::new(&net.topo, &main.labeling);
    let mut sim = NetworkSim::new(&net.topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(src, dests.clone(), 128))
        .unwrap();
    let out = sim.run();
    assert!(out.all_delivered(), "SPAM must survive reconfiguration");
    println!(
        "degraded broadcast: {} -> {} survivors in {:.2} µs (deadlock-free, single startup)",
        src,
        dests.len(),
        out.messages[0].latency().unwrap().as_us_f64()
    );

    // 5. The counter-example: a destination inside the dead zone is
    //    unreachable by *any* routing algorithm. The engine reports a
    //    typed routing error instead of crashing or spinning.
    let stranded = topo
        .processor_of(plan.switches[0])
        .expect("every switch hosts a processor");
    let spam = SpamRouting::new(&net.topo, &main.labeling);
    let mut sim = NetworkSim::new(&net.topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::unicast(src, stranded, 128))
        .unwrap();
    let out = sim.run();
    assert!(!out.all_delivered());
    match out.error {
        Some(e) => println!("unreachable destination {stranded}: typed error \"{e}\""),
        None => println!("unreachable destination {stranded}: {:?}", out.deadlock),
    }
}
