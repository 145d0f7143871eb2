//! Fast end-to-end smoke test: the shortest path through the whole stack.
//! Generates a small irregular topology, computes the up*/down* labeling,
//! routes one SPAM multicast through the flit-level simulator, and asserts
//! every destination receives the worm. Runs in milliseconds — this is the
//! first test to consult when the workspace wiring itself is in question.

use spam_net::prelude::*;

#[test]
fn small_irregular_multicast_delivers_to_all_destinations() {
    // Small §4-style network: 12 switches on a random lattice, one
    // processor each, seeded for determinism.
    let topo = IrregularConfig::with_switches(12).generate(99);
    topo.validate(8).expect("generated topology must be valid");

    // Up*/down* labeling from the default deterministic root.
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);

    // One SPAM multicast from the first processor to five others.
    let procs: Vec<NodeId> = topo.processors().collect();
    let (src, dests) = (procs[0], procs[1..6].to_vec());
    let spam = SpamRouting::new(&topo, &ud);
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(src, dests.clone(), 32))
        .expect("spec must validate against the topology");

    let out = sim.run();
    assert!(out.all_delivered(), "undelivered: {:?}", out.deadlock);
    assert_eq!(out.counters.messages_completed, 1);
    // Every destination saw the full worm: 32 flits each.
    assert_eq!(out.counters.flits_delivered, 32 * dests.len() as u64);

    let m = &out.messages[0];
    assert_eq!(out.dest_times(m).len(), dests.len());
    assert!(out.dest_times(m).iter().all(|t| t.is_some()));
    // Single startup (10 µs) plus a sane amount of network time.
    let lat = m.latency().expect("completed message has a latency");
    assert!(lat.as_ns() > 10_000 && lat.as_ns() < 100_000, "{lat}");
}
