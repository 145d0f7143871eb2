//! Quickstart: build a paper-style irregular network, label it up*/down*,
//! and send one SPAM multicast through the flit-level simulator.
//!
//! It holds a `NetworkSim` itself, not a `ScenarioSpec`, because it is the
//! tour of the layers a spec hides: the labeling's channel classes, the
//! destinations' LCA, and a message placed by hand (`procs[0]` to the next
//! sixteen) where a spec would draw source and destinations from its seed.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use spam_net::prelude::*;

fn main() {
    // 1. A 64-switch NOW on a random integer lattice, one workstation per
    //    switch, 8-port switches (§4 of the paper).
    let topo = IrregularConfig::with_switches(64).generate(2024);
    topo.validate(8)
        .expect("generator respects the port budget");
    println!(
        "network: {} switches, {} processors, {} unidirectional channels",
        topo.num_switches(),
        topo.num_processors(),
        topo.num_channels()
    );

    // 2. Up*/down* labeling from a deterministic root.
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let (up_tree, up_cross, down_tree, down_cross) = ud.class_counts();
    println!(
        "labeling: root {}, channels = {up_tree} up-tree / {up_cross} up-cross / {down_tree} down-tree / {down_cross} down-cross",
        ud.root()
    );

    // 3. SPAM routing with the paper's selection policy.
    let spam = SpamRouting::new(&topo, &ud);

    // 4. One 16-destination multicast, 128 flits, in an idle network.
    let procs: Vec<NodeId> = topo.processors().collect();
    let src = procs[0];
    let dests: Vec<NodeId> = procs[1..17].to_vec();
    let lca = ud.lca_of(&dests).unwrap();
    println!("multicast: {src} -> 16 destinations, LCA {lca}");

    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(src, dests, 128)).unwrap();
    let out = sim.run();
    assert!(out.all_delivered());

    let lat = out.messages[0].latency().unwrap();
    println!(
        "latency: {:.2} µs (startup 10 µs + header route + 127-flit pipeline)",
        lat.as_us_f64()
    );
    println!(
        "counters: {} events, {} wire transfers, {} bubbles, {} flits delivered",
        out.counters.events,
        out.counters.wire_transfers,
        out.counters.bubbles_created,
        out.counters.flits_delivered
    );

    // 5. Compare with the software multicast lower bound (§4's argument).
    let bound = lower_bound::software_multicast_lower_bound(16, Duration::from_us(10));
    println!(
        "software lower bound for 16 destinations: {:.0} µs -> SPAM is {:.1}x faster",
        bound.as_us_f64(),
        bound.as_us_f64() / lat.as_us_f64()
    );
}
