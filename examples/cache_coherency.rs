//! Directory-based cache coherency — the paper's second motivating
//! application ("cache coherency in distributed shared-memory
//! architectures").
//!
//! On a write to a shared line, the home (directory) node must invalidate
//! every sharer and collect acknowledgements before granting ownership.
//! The invalidation fan-out is a multicast; the acks are unicasts. This
//! example measures the write-ownership latency with the invalidations
//! sent as
//!
//! 1. one SPAM multi-head worm, versus
//! 2. a sequence of unicasts from the directory (send_gap = one startup).
//!
//! It holds a `NetworkSim` itself, not a `ScenarioSpec`, because the acks
//! are *reactions*: a completion hook (`run_with_hook`) submits each
//! sharer's ack when its invalidation arrives, and a spec's traffic is
//! fixed before the run starts.
//!
//! ```text
//! cargo run --example cache_coherency --release
//! ```

use rand::seq::SliceRandom;
use rand::SeedableRng;
use spam_net::prelude::*;
use wormsim::{CompletionHook, MsgId};

const INVALIDATE_TAG: u64 = 100;
const ACK_TAG: u64 = 200;

/// Sharers acknowledge their invalidation back to the directory.
struct AckOnInvalidate {
    home: NodeId,
}

impl CompletionHook for AckOnInvalidate {
    fn on_complete(&mut self, _m: MsgId, spec: &MessageSpec, at: Time, out: &mut Vec<MessageSpec>) {
        if spec.tag == INVALIDATE_TAG {
            // Each destination of the invalidation acks with a short
            // unicast. (For the multicast case one completion fans out
            // all acks; per-destination arrival times differ by at most
            // the tail skew, which is nanoseconds here.)
            out.extend(spec.dests.iter().map(|&sharer| {
                MessageSpec::unicast(sharer, self.home, 8)
                    .at(at)
                    .tag(ACK_TAG)
            }));
        }
    }
}

fn ownership_latency_spam(
    topo: &netgraph::Topology,
    ud: &UpDownLabeling,
    home: NodeId,
    sharers: &[NodeId],
) -> f64 {
    let spam = SpamRouting::new(topo, ud);
    let mut sim = NetworkSim::new(topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(home, sharers.to_vec(), 16).tag(INVALIDATE_TAG))
        .unwrap();
    let mut hook = AckOnInvalidate { home };
    let out = sim.run_with_hook(&mut hook);
    assert!(out.all_delivered());
    // Ownership granted when the last ack arrives home.
    out.messages
        .iter()
        .filter(|m| m.spec.tag == ACK_TAG)
        .map(|m| m.completed_at.unwrap())
        .max()
        .unwrap()
        .as_us_f64()
}

fn ownership_latency_unicasts(
    topo: &netgraph::Topology,
    ud: &UpDownLabeling,
    home: NodeId,
    sharers: &[NodeId],
) -> f64 {
    let spam = SpamRouting::new(topo, ud); // same router; only the scheme differs
    let mut sim = NetworkSim::new(topo, spam, SimConfig::paper());
    // The directory serializes one invalidation send per startup period.
    for (i, &s) in sharers.iter().enumerate() {
        sim.submit(
            MessageSpec::unicast(home, s, 16)
                .at(Time::ZERO + Duration::from_us(10) * i as u64)
                .tag(INVALIDATE_TAG),
        )
        .unwrap();
    }
    let mut hook = AckOnInvalidate { home };
    let out = sim.run_with_hook(&mut hook);
    assert!(out.all_delivered());
    out.messages
        .iter()
        .filter(|m| m.spec.tag == ACK_TAG)
        .map(|m| m.completed_at.unwrap())
        .max()
        .unwrap()
        .as_us_f64()
}

fn main() {
    let topo = IrregularConfig::with_switches(64).generate(11);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let procs: Vec<NodeId> = topo.processors().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);

    println!("write-ownership latency (invalidate all sharers + collect acks):\n");
    println!(
        "{:>8} {:>14} {:>16} {:>8}",
        "sharers", "SPAM (µs)", "unicasts (µs)", "ratio"
    );
    for k in [2usize, 4, 8, 16, 32] {
        let home = procs[0];
        let mut sharers: Vec<NodeId> = procs.iter().copied().filter(|&p| p != home).collect();
        sharers.shuffle(&mut rng);
        sharers.truncate(k);
        let spam_us = ownership_latency_spam(&topo, &ud, home, &sharers);
        let ucast_us = ownership_latency_unicasts(&topo, &ud, home, &sharers);
        println!(
            "{k:>8} {spam_us:>14.2} {ucast_us:>16.2} {:>7.1}x",
            ucast_us / spam_us
        );
    }
    println!("\n(SPAM's invalidation cost is one startup regardless of sharer count;");
    println!(" serialized unicasts pay one startup per sharer)");
}
