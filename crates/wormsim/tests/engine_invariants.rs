//! Property tests of the engine's conservation laws on random tree
//! topologies with scripted tree routing. Trees make the expected flit
//! economics exactly computable (each real flit crosses every channel of
//! its routing tree exactly once) and make arbitrary concurrent traffic
//! provably deadlock-free (each direction's channels form a forest), so
//! full delivery is a hard requirement, not a hope.

use desim::Time;
use netgraph::{NodeId, Topology};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use wormsim::routing::OracleRouting;
use wormsim::{MessageSpec, NetworkSim, SimConfig};

/// A random recursive tree of `n` switches (parent of i is random < i),
/// one processor per switch.
struct TreeNet {
    topo: Topology,
    parent: Vec<usize>, // parent[switch_index]; parent[0] = 0
    switches: Vec<NodeId>,
    procs: Vec<NodeId>,
}

fn tree_net(n: usize, parent_picks: &[u32]) -> TreeNet {
    let mut b = Topology::builder();
    let switches = b.add_switches(n);
    let mut parent = vec![0usize; n];
    for i in 1..n {
        let p = (parent_picks[(i - 1) % parent_picks.len()] as usize) % i;
        parent[i] = p;
        b.link(switches[i], switches[p]).unwrap();
    }
    let procs: Vec<NodeId> = switches
        .iter()
        .map(|&s| {
            let p = b.add_processor();
            b.link(p, s).unwrap();
            p
        })
        .collect();
    TreeNet {
        topo: b.build(),
        parent,
        switches,
        procs,
    }
}

impl TreeNet {
    /// Switch-index path between two switch indices through the tree.
    fn path(&self, a: usize, bdx: usize) -> Vec<usize> {
        let chain = |mut x: usize| {
            let mut v = vec![x];
            while x != 0 {
                x = self.parent[x];
                v.push(x);
            }
            v
        };
        let ca = chain(a);
        let cb = chain(bdx);
        let sb: HashSet<usize> = cb.iter().copied().collect();
        let meet = *ca.iter().find(|x| sb.contains(x)).unwrap();
        let mut path: Vec<usize> = ca.iter().take_while(|&&x| x != meet).copied().collect();
        path.push(meet);
        let mut down: Vec<usize> = cb.iter().take_while(|&&x| x != meet).copied().collect();
        down.reverse();
        path.extend(down);
        path
    }

    /// Directed edge set (as node pairs) of the multicast tree from
    /// `src_sw` covering `dest_sws`, plus the processor delivery edges.
    fn plan(&self, src: usize, dests: &[usize]) -> Vec<(NodeId, NodeId)> {
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let mut seen = HashSet::new();
        for &d in dests {
            let p = self.path(src, d);
            for w in p.windows(2) {
                let e = (self.switches[w[0]], self.switches[w[1]]);
                if seen.insert(e) {
                    edges.push(e);
                }
            }
            let deliver = (self.switches[d], self.procs[d]);
            if seen.insert(deliver) {
                edges.push(deliver);
            }
        }
        edges
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flit_conservation_and_delivery_on_random_trees(
        n in 3usize..16,
        parent_picks in prop::collection::vec(any::<u32>(), 4..12),
        msgs in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u32>(), 1..5), 2u32..40, 0u64..30_000),
            1..8,
        ),
    ) {
        let net = tree_net(n, &parent_picks);
        let mut oracle = OracleRouting::new(&net.topo);
        let mut specs = Vec::new();
        let mut expected_real_crossings = 0u64;
        let mut expected_acquisitions = 0u64;
        let mut expected_delivered = 0u64;
        for (tag, (src_pick, dest_picks, len, gen_ns)) in msgs.iter().enumerate() {
            let src = (*src_pick as usize) % n;
            let dests: Vec<usize> = {
                let mut d: Vec<usize> = dest_picks
                    .iter()
                    .map(|p| (*p as usize) % n)
                    .filter(|&d| d != src)
                    .collect();
                d.sort_unstable();
                d.dedup();
                d
            };
            if dests.is_empty() {
                continue;
            }
            let edges = net.plan(src, &dests);
            // Real crossings: injection channel + one per plan edge, len each.
            expected_real_crossings += (*len as u64) * (edges.len() as u64 + 1);
            // Acquisitions: source + one per switch that forwards (distinct
            // edge sources) — the injection's switch is among them.
            let forwarding: HashSet<NodeId> = edges.iter().map(|e| e.0).collect();
            expected_acquisitions += 1 + forwarding.len() as u64;
            expected_delivered += (*len as u64) * dests.len() as u64;
            oracle.add_tree_edges(tag as u64, edges).unwrap();
            specs.push(
                MessageSpec::multicast(
                    net.procs[src],
                    dests.iter().map(|&d| net.procs[d]),
                    *len,
                )
                .tag(tag as u64)
                .at(Time::from_ns(*gen_ns)),
            );
        }
        prop_assume!(!specs.is_empty());

        let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
        for s in &specs {
            sim.submit(s.clone()).unwrap();
        }
        let out = sim.run();

        // Tree-path traffic is deadlock-free: delivery is mandatory.
        prop_assert!(out.all_delivered(), "{:?}", out.deadlock);
        // Exactly the expected number of real flits consumed.
        prop_assert_eq!(out.counters.flits_delivered, expected_delivered);
        // Every real flit crosses every channel of its tree exactly once;
        // bubbles account for the rest of the wire traffic.
        prop_assert!(out.counters.wire_transfers >= expected_real_crossings);
        prop_assert_eq!(out.counters.acquisitions, expected_acquisitions);
        prop_assert_eq!(out.counters.messages_completed, specs.len() as u64);

        // Latency lower bound per message: startup + path + pipeline.
        for m in &out.messages {
            let lat = m.latency().unwrap().as_ns();
            prop_assert!(lat >= 10_000 + (m.spec.len as u64 - 1) * 10);
        }
    }

    #[test]
    fn per_destination_times_bounded_by_completion(
        n in 3usize..12,
        parent_picks in prop::collection::vec(any::<u32>(), 4..8),
        src_pick in any::<u32>(),
        dest_picks in prop::collection::vec(any::<u32>(), 2..6),
    ) {
        let net = tree_net(n, &parent_picks);
        let src = (src_pick as usize) % n;
        let mut dests: Vec<usize> = dest_picks
            .iter()
            .map(|p| (*p as usize) % n)
            .filter(|&d| d != src)
            .collect();
        dests.sort_unstable();
        dests.dedup();
        prop_assume!(!dests.is_empty());
        let mut oracle = OracleRouting::new(&net.topo);
        oracle.add_tree_edges(0, net.plan(src, &dests)).unwrap();
        let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
        sim.submit(MessageSpec::multicast(
            net.procs[src],
            dests.iter().map(|&d| net.procs[d]),
            32,
        ))
        .unwrap();
        let out = sim.run();
        prop_assert!(out.all_delivered());
        let m = &out.messages[0];
        let done = m.completed_at.unwrap();
        let mut latest = Time::ZERO;
        for d in out.dest_times(m) {
            let t = d.unwrap();
            prop_assert!(t <= done);
            latest = latest.max(t);
        }
        prop_assert_eq!(latest, done, "completion is the max dest time");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Teardown hygiene under arbitrary mid-run link deaths: kill random
    /// links at random instants while scripted tree traffic is in flight.
    /// Every message must end with a verdict (delivered, torn down, or
    /// unreachable), the run must never deadlock — a leaked channel
    /// reservation or orphaned OCRQ entry would wedge the survivors into
    /// the watchdog — and the engine's end-of-run quiescence assertions
    /// (active in these debug-build tests) check the books directly.
    #[test]
    fn teardown_hygiene_after_arbitrary_link_deaths(
        n in 4usize..14,
        parent_picks in prop::collection::vec(any::<u32>(), 4..12),
        msgs in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(any::<u32>(), 1..5), 2u32..40, 0u64..30_000),
            2..8,
        ),
        kills in prop::collection::vec((any::<u32>(), 9_500u64..45_000), 1..5),
    ) {
        let net = tree_net(n, &parent_picks);
        let run = || {
            let mut oracle = OracleRouting::new(&net.topo);
            let mut specs = Vec::new();
            for (tag, (src_pick, dest_picks, len, gen_ns)) in msgs.iter().enumerate() {
                let src = (*src_pick as usize) % n;
                let dests: Vec<usize> = {
                    let mut d: Vec<usize> = dest_picks
                        .iter()
                        .map(|p| (*p as usize) % n)
                        .filter(|&d| d != src)
                        .collect();
                    d.sort_unstable();
                    d.dedup();
                    d
                };
                if dests.is_empty() {
                    continue;
                }
                oracle.add_tree_edges(tag as u64, net.plan(src, &dests)).unwrap();
                specs.push(
                    MessageSpec::multicast(
                        net.procs[src],
                        dests.iter().map(|&d| net.procs[d]),
                        *len,
                    )
                    .tag(tag as u64)
                    .at(Time::from_ns(*gen_ns)),
                );
            }
            let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
            for s in &specs {
                sim.submit(s.clone()).unwrap();
            }
            let links = net.topo.num_channels() / 2;
            for (pick, at_ns) in &kills {
                let link = netgraph::ChannelId(2 * ((*pick as usize % links) as u32));
                sim.schedule_link_down(Time::from_ns(*at_ns), link);
            }
            let submitted = specs.len() as u64;
            (sim.run(), submitted)
        };
        let (out, submitted) = run();
        prop_assume!(submitted > 0);
        prop_assert!(out.error.is_none(), "run aborted: {:?}", out.error);
        prop_assert!(out.deadlock.is_none(), "deadlock: {:?}", out.deadlock);
        prop_assert!(out.all_accounted());
        let c = &out.counters;
        prop_assert_eq!(
            c.messages_completed + c.messages_torn_down + c.messages_unreachable,
            submitted,
            "verdicts partition the message set"
        );
        prop_assert!(c.links_killed >= 1);
        // A torn-down message must carry the typed error and no
        // completion time; a delivered one the inverse.
        for m in &out.messages {
            match &m.failure {
                Some(f) => {
                    prop_assert!(m.completed_at.is_none());
                    let typed = matches!(
                        f.error,
                        wormsim::SimError::TornDown { .. } | wormsim::SimError::Route { .. }
                    );
                    prop_assert!(typed, "unexpected failure error {:?}", f.error);
                }
                None => prop_assert!(m.completed_at.is_some()),
            }
        }
        // Determinism: an identical run reproduces every verdict and time.
        let (out2, _) = run();
        prop_assert_eq!(&out.counters, &out2.counters);
        prop_assert_eq!(out.end_time, out2.end_time);
        for (a, b) in out.messages.iter().zip(&out2.messages) {
            prop_assert_eq!(a.completed_at, b.completed_at);
            prop_assert_eq!(a.failure.map(|f| f.at), b.failure.map(|f| f.at));
        }
    }
}

/// Regression: a fault landing inside the router-setup window of a worm
/// whose upstream segment has *already released* must still purge the
/// header's branch state. With a 2-flit worm the source segment retires as
/// soon as the tail is replicated (~10.01 µs), while the header waits out
/// its 40 ns setup at the first switch — killing the injection link at
/// 10.02 µs used to leak `branch_state[(msg, inj)]` and trip the
/// end-of-run quiescence assertions.
#[test]
fn teardown_inside_router_setup_window_leaks_nothing() {
    let mut b = Topology::builder();
    let s0 = b.add_switch();
    let s1 = b.add_switch();
    let p0 = b.add_processor();
    let p1 = b.add_processor();
    b.link(p0, s0).unwrap();
    b.link(s0, s1).unwrap();
    b.link(s1, p1).unwrap();
    let topo = b.build();
    let inj = topo.out_channels(p0)[0];
    let mut oracle = OracleRouting::new(&topo);
    oracle.add_unicast_path(0, &[p0, s0, s1, p1]).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(p0, p1, 2)).unwrap();
    sim.schedule_link_down(Time::from_ns(10_020), inj);
    let out = sim.run();
    assert!(out.error.is_none(), "{:?}", out.error);
    assert!(out.deadlock.is_none(), "{:?}", out.deadlock);
    assert!(out.messages[0].is_torn_down());
    assert_eq!(out.counters.messages_torn_down, 1);
    // The run's internal quiescence debug_asserts (active in this test
    // build) are the real check; reaching here means nothing leaked.
}

/// Determinism across buffer depths: same traffic, different buffer
/// geometry — results may differ, but each configuration is internally
/// deterministic and all deliver.
#[test]
fn all_buffer_geometries_deliver_same_message_set() {
    let net = tree_net(9, &[3, 1, 4, 1, 5]);
    let dests = vec![2usize, 5, 7];
    for (inp, outp) in [(1, 1), (2, 1), (1, 2), (4, 4)] {
        let mut oracle = OracleRouting::new(&net.topo);
        oracle.add_tree_edges(0, net.plan(0, &dests)).unwrap();
        let mut sim = NetworkSim::new(
            &net.topo,
            oracle,
            SimConfig::paper().with_buffers(inp, outp),
        );
        sim.submit(MessageSpec::multicast(
            net.procs[0],
            dests.iter().map(|&d| net.procs[d]),
            64,
        ))
        .unwrap();
        let out = sim.run();
        assert!(out.all_delivered(), "buffers ({inp},{outp})");
        assert_eq!(out.counters.flits_delivered, 64 * 3);
    }
}

/// The same plan expressed per-message via a HashMap round-trips through
/// the oracle (guards the oracle's own bookkeeping).
#[test]
fn oracle_handles_many_tags_independently() {
    let net = tree_net(8, &[2, 3, 1]);
    let mut oracle = OracleRouting::new(&net.topo);
    let mut sim_plan: HashMap<u64, Vec<usize>> = HashMap::new();
    for tag in 0..6u64 {
        let d = vec![(tag as usize + 1) % 8, (tag as usize + 3) % 8];
        let dests: Vec<usize> = d.into_iter().filter(|&x| x != 0).collect();
        oracle.add_tree_edges(tag, net.plan(0, &dests)).unwrap();
        sim_plan.insert(tag, dests);
    }
    let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
    for (tag, dests) in &sim_plan {
        sim.submit(
            MessageSpec::multicast(net.procs[0], dests.iter().map(|&d| net.procs[d]), 16).tag(*tag),
        )
        .unwrap();
    }
    let out = sim.run();
    assert!(out.all_delivered());
    assert_eq!(out.counters.messages_completed, sim_plan.len() as u64);
}
