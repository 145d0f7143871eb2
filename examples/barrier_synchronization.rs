//! Barrier synchronization — one of the motivating applications in the
//! paper's introduction ("efficient multicast communication is essential
//! in ... barrier synchronization").
//!
//! A barrier has two halves: a **gather** (every participant signals the
//! coordinator) and a **release broadcast** (the coordinator tells
//! everyone to proceed). The release is a textbook multicast; this example
//! measures the full barrier with the release implemented as
//!
//! 1. a single SPAM multi-head worm (one startup), versus
//! 2. software multicast: a binomial tree of unicasts (⌈log₂(d+1)⌉
//!    startups on the critical path).
//!
//! It holds a `NetworkSim` itself, not a `ScenarioSpec`, because the
//! release is a *reaction*: a completion hook (`run_with_hook`) counts the
//! gather's arrivals and submits the release when the last one lands, and
//! a spec's traffic is fixed before the run starts.
//!
//! ```text
//! cargo run --example barrier_synchronization --release
//! ```

use spam_net::prelude::*;
use wormsim::{CompletionHook, MsgId};

/// Gathers arrivals at the coordinator; when the last one lands, releases
/// the barrier with a single SPAM broadcast.
struct SpamBarrier {
    coordinator: NodeId,
    waiting: usize,
    participants: Vec<NodeId>,
    release_tag: u64,
}

impl CompletionHook for SpamBarrier {
    fn on_complete(&mut self, _m: MsgId, spec: &MessageSpec, at: Time, out: &mut Vec<MessageSpec>) {
        if spec.dests == [self.coordinator] {
            self.waiting -= 1;
            if self.waiting == 0 {
                out.push(
                    MessageSpec::multicast(
                        self.coordinator,
                        self.participants.iter().copied(),
                        8, // short control message
                    )
                    .at(at)
                    .tag(self.release_tag),
                );
            }
        }
    }
}

fn barrier_with_spam(topo: &netgraph::Topology, ud: &UpDownLabeling) -> f64 {
    let spam = SpamRouting::new(topo, ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let coordinator = procs[0];
    let participants: Vec<NodeId> = procs[1..].to_vec();
    let mut sim = NetworkSim::new(topo, spam, SimConfig::paper());
    for (i, &p) in participants.iter().enumerate() {
        sim.submit(MessageSpec::unicast(p, coordinator, 8).tag(i as u64))
            .unwrap();
    }
    let mut hook = SpamBarrier {
        coordinator,
        waiting: participants.len(),
        participants: participants.clone(),
        release_tag: 9_999,
    };
    let out = sim.run_with_hook(&mut hook);
    assert!(out.all_delivered());
    // Barrier time = release delivered to the last participant.
    out.messages
        .iter()
        .find(|m| m.spec.tag == 9_999)
        .and_then(|m| m.completed_at)
        .expect("release broadcast completed")
        .as_us_f64()
}

fn barrier_with_software_release(topo: &netgraph::Topology, ud: &UpDownLabeling) -> f64 {
    let router = baselines::UpDownUnicastRouting::new(topo, ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let coordinator = procs[0];
    let participants: Vec<NodeId> = procs[1..].to_vec();

    // Gather phase.
    let mut sim = NetworkSim::new(topo, router.clone(), SimConfig::paper());
    for (i, &p) in participants.iter().enumerate() {
        sim.submit(MessageSpec::unicast(p, coordinator, 8).tag(i as u64))
            .unwrap();
    }
    let gather = sim.run();
    assert!(gather.all_delivered());
    let gathered_at = gather
        .messages
        .iter()
        .map(|m| m.completed_at.unwrap())
        .max()
        .unwrap();

    // Release phase: binomial unicast multicast starting when the gather
    // finished.
    let mut um =
        baselines::UnicastMulticast::new(coordinator, &participants, 8, Duration::from_us(10))
            .with_tag(9_999);
    let mut sim = NetworkSim::new(topo, router, SimConfig::paper());
    for s in um.initial_sends(gathered_at) {
        sim.submit(s).unwrap();
    }
    let release = sim.run_with_hook(&mut um);
    assert!(release.all_delivered());
    gathered_at.as_us_f64() + um.makespan(&release).unwrap().as_us_f64()
}

fn main() {
    for switches in [32usize, 64, 128] {
        let topo = IrregularConfig::with_switches(switches).generate(7);
        let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
        let spam_us = barrier_with_spam(&topo, &ud);
        let soft_us = barrier_with_software_release(&topo, &ud);
        println!(
            "{switches:>4}-node barrier: SPAM release {spam_us:>7.2} µs | software release {soft_us:>7.2} µs | {:.1}x",
            soft_us / spam_us
        );
    }
    println!("\n(the gather half is identical in both; the release multicast is where");
    println!(" the single-phase worm removes the log2(d+1) startup chain)");
}
