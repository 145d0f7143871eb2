//! End-to-end behavioural tests of the wormhole engine driven by scripted
//! (oracle) routing plans: latency arithmetic, multi-head replication,
//! bubble flits, OCRQ serialization, deadlock detection (both flavours),
//! completion hooks, and determinism.

use desim::{Duration, Time};
use netgraph::{NodeId, Topology};
use spam_snapshot::Fnv1a;
use wormsim::routing::OracleRouting;
use wormsim::{
    CheckpointSink, CompletionHook, MessageSpec, MetricsConfig, MsgId, NetworkSim, SimConfig,
    SimOutcome,
};

/// p_src - s0 - s1 - p_dst chain plus helpers.
struct Chain {
    topo: Topology,
    s: Vec<NodeId>,
    p: Vec<NodeId>,
}

/// `n` switches in a line, one processor each.
fn chain(n: usize) -> Chain {
    let mut b = Topology::builder();
    let s = b.add_switches(n);
    for w in s.windows(2) {
        b.link(w[0], w[1]).unwrap();
    }
    let p: Vec<NodeId> = s
        .iter()
        .map(|&sw| {
            let p = b.add_processor();
            b.link(p, sw).unwrap();
            p
        })
        .collect();
    Chain {
        topo: b.build(),
        s,
        p,
    }
}

/// Expected uncontended unicast latency for the paper's parameters:
/// startup + channels·t_c + switches·t_r + (len-1)·t_c pipeline drain.
fn expected_unicast_ns(channels: u64, switches: u64, len: u64) -> u64 {
    10_000 + channels * 10 + switches * 40 + (len - 1) * 10
}

#[test]
fn unicast_latency_matches_cost_model() {
    for hops in [2usize, 3, 4, 7] {
        let c = chain(hops);
        let mut oracle = OracleRouting::new(&c.topo);
        let mut path = vec![c.p[0]];
        path.extend(&c.s);
        path.push(c.p[hops - 1]);
        oracle.add_unicast_path(0, &path).unwrap();
        let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper());
        sim.submit(MessageSpec::unicast(c.p[0], c.p[hops - 1], 128))
            .unwrap();
        let out = sim.run();
        assert!(out.all_delivered(), "hops={hops}");
        let lat = out.messages[0].latency().unwrap().as_ns();
        // channels = (hops-1) switch links + 2 processor links.
        let expect = expected_unicast_ns(hops as u64 + 1, hops as u64, 128);
        assert_eq!(lat, expect, "hops={hops}");
    }
}

#[test]
fn short_message_latency() {
    let c = chain(2);
    let mut oracle = OracleRouting::new(&c.topo);
    oracle
        .add_unicast_path(0, &[c.p[0], c.s[0], c.s[1], c.p[1]])
        .unwrap();
    let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(c.p[0], c.p[1], 2)).unwrap();
    let out = sim.run();
    assert_eq!(
        out.messages[0].latency().unwrap().as_ns(),
        expected_unicast_ns(3, 2, 2)
    );
}

/// Star: hub switch s0 with `k` leaf switches, one processor per switch.
fn star(k: usize) -> Chain {
    let mut b = Topology::builder();
    let hub = b.add_switch();
    let mut s = vec![hub];
    for _ in 0..k {
        let leaf = b.add_switch();
        b.link(hub, leaf).unwrap();
        s.push(leaf);
    }
    let p: Vec<NodeId> = s
        .iter()
        .map(|&sw| {
            let p = b.add_processor();
            b.link(p, sw).unwrap();
            p
        })
        .collect();
    Chain {
        topo: b.build(),
        s,
        p,
    }
}

#[test]
fn balanced_multicast_is_destination_count_independent() {
    // The Figure 2 headline behaviour in miniature: with no contention the
    // multi-head worm reaches 1, 2, or 4 equidistant destinations in the
    // same time.
    let mut latencies = Vec::new();
    for k in [1usize, 2, 4] {
        let net = star(4);
        let mut oracle = OracleRouting::new(&net.topo);
        let dests: Vec<NodeId> = (1..=k).map(|i| net.p[i]).collect();
        // Split at the hub towards each leaf switch, then deliver.
        oracle
            .add_tree_edges(0, (1..=k).map(|i| (net.s[0], net.s[i])))
            .unwrap();
        oracle
            .add_tree_edges(0, (1..=k).map(|i| (net.s[i], net.p[i])))
            .unwrap();
        let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
        sim.submit(MessageSpec::multicast(net.p[0], dests, 128))
            .unwrap();
        let out = sim.run();
        assert!(out.all_delivered());
        assert_eq!(out.counters.bubbles_created, 0, "no divergence, no bubbles");
        latencies.push(out.messages[0].latency().unwrap().as_ns());
    }
    assert_eq!(latencies[0], latencies[1]);
    assert_eq!(latencies[1], latencies[2]);
    assert_eq!(latencies[0], expected_unicast_ns(3, 2, 128));
}

#[test]
fn blocked_branch_generates_bubbles_and_all_deliver() {
    // The blockage must sit strictly *below* the branch point (a channel
    // the branch router does not request itself), otherwise the
    // all-or-nothing OCRQ acquisition simply serializes the worms. A side
    // link s3—s1 lets an interferer occupy s1->p1 without touching the
    // multicast's branch channels at the hub.
    let net = star(3);
    let mut b = Topology::builder();
    let s: Vec<NodeId> = (0..4).map(|_| b.add_switch()).collect();
    b.link(s[0], s[1]).unwrap();
    b.link(s[0], s[2]).unwrap();
    b.link(s[0], s[3]).unwrap();
    b.link(s[3], s[1]).unwrap(); // side path for the interferer
    let p: Vec<NodeId> = s
        .iter()
        .map(|&sw| {
            let pp = b.add_processor();
            b.link(pp, sw).unwrap();
            pp
        })
        .collect();
    let topo = b.build();
    drop(net);

    let mut oracle = OracleRouting::new(&topo);
    // Interferer (tag 1): p3 -> s3 -> s1 -> p1, grabbing s1->p1 first.
    oracle
        .add_unicast_path(1, &[p[3], s[3], s[1], p[1]])
        .unwrap();
    // Multicast (tag 0) from p0 at the hub to p1 and p2: splits at s0.
    oracle
        .add_tree_edges(0, [(s[0], s[1]), (s[0], s[2])])
        .unwrap();
    oracle
        .add_tree_edges(0, [(s[1], p[1]), (s[2], p[2])])
        .unwrap();

    let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(p[3], p[1], 512).tag(1).at(Time::ZERO))
        .unwrap();
    // Head start: the interferer owns s1->p1 when the multicast's branch
    // header arrives at s1.
    sim.submit(
        MessageSpec::multicast(p[0], vec![p[1], p[2]], 128)
            .tag(0)
            .at(Time::from_us(1)),
    )
    .unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    let (net_p1, net_p2) = (p[1], p[2]);
    assert!(
        out.counters.bubbles_created > 0,
        "the free branch must have advanced on bubbles: {:?}",
        out.counters
    );
    // Asynchronous replication lets the free branch's *head* advance (on
    // bubbles), but real flits replicate from one input buffer to all
    // output buffers, so the tail reaches the fast destination no earlier
    // than the slow sibling permits — exactly the paper's §3.2 example.
    let mc = &out.messages[1];
    let t1 = out.latency_to(mc, net_p1).unwrap();
    let t2 = out.latency_to(mc, net_p2).unwrap();
    assert!(t1 >= t2, "blocked branch cannot finish before the free one");
    // Both are delayed well past the uncontended multicast latency by the
    // interferer holding s1->p1.
    let uncontended = Duration::from_ns(expected_unicast_ns(3, 2, 128));
    assert!(t2 > uncontended, "contention must show up in the latency");
}

#[test]
fn ocrq_serializes_same_channel_messages_fifo() {
    let c = chain(2);
    let mut oracle = OracleRouting::new(&c.topo);
    for tag in 0..3 {
        oracle
            .add_unicast_path(tag, &[c.p[0], c.s[0], c.s[1], c.p[1]])
            .unwrap();
    }
    let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper());
    for tag in 0..3u64 {
        sim.submit(
            MessageSpec::unicast(c.p[0], c.p[1], 128)
                .tag(tag)
                .at(Time::ZERO),
        )
        .unwrap();
    }
    let out = sim.run();
    assert!(out.all_delivered());
    let done: Vec<u64> = {
        let mut v: Vec<(Time, u64)> = out
            .messages
            .iter()
            .map(|m| (m.completed_at.unwrap(), m.spec.tag))
            .collect();
        v.sort();
        v.iter().map(|(_, t)| *t).collect()
    };
    assert_eq!(done, vec![0, 1, 2], "injection order preserved by the OCRQ");
    // Back-to-back worms pipeline: each occupies the path for ~len flits.
    let first = out.messages[0].latency().unwrap().as_ns();
    let last = out.messages[2].latency().unwrap().as_ns();
    assert!(last > first, "queued messages wait for channel release");
}

/// Ring of 3 switches used for the deadlock controls.
fn ring3() -> Chain {
    let mut b = Topology::builder();
    let s = b.add_switches(3);
    b.link(s[0], s[1]).unwrap();
    b.link(s[1], s[2]).unwrap();
    b.link(s[2], s[0]).unwrap();
    let p: Vec<NodeId> = s
        .iter()
        .map(|&sw| {
            let p = b.add_processor();
            b.link(p, sw).unwrap();
            p
        })
        .collect();
    Chain {
        topo: b.build(),
        s,
        p,
    }
}

#[test]
fn cyclic_routing_deadlocks_and_is_detected_by_queue_exhaustion() {
    // Positive control: three worms chase each other around a ring, each
    // holding channel (i, i+1) and requesting (i+1, i+2). No branching, so
    // no bubble traffic — the event queue simply dries up.
    let net = ring3();
    let mut oracle = OracleRouting::new(&net.topo);
    for i in 0..3usize {
        let a = net.s[i];
        let b = net.s[(i + 1) % 3];
        let c2 = net.s[(i + 2) % 3];
        oracle
            .add_unicast_path(i as u64, &[net.p[i], a, b, c2, net.p[(i + 2) % 3]])
            .unwrap();
    }
    let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
    for i in 0..3usize {
        sim.submit(
            MessageSpec::unicast(net.p[i], net.p[(i + 2) % 3], 512)
                .tag(i as u64)
                .at(Time::ZERO),
        )
        .unwrap();
    }
    let out = sim.run();
    assert!(!out.all_delivered());
    let dl = out.deadlock.expect("the cycle must deadlock");
    assert!(dl.queue_exhausted, "no bubbles => detected by exhaustion");
    assert_eq!(dl.stuck_messages.len(), 3);
}

/// s0, s1, s2 in a ring and a free leaf s3 off s0, one processor each.
fn ring_with_leaf() -> Chain {
    let mut b = Topology::builder();
    let s = b.add_switches(4);
    b.link(s[0], s[1]).unwrap();
    b.link(s[1], s[2]).unwrap();
    b.link(s[2], s[0]).unwrap();
    b.link(s[0], s[3]).unwrap();
    let p: Vec<NodeId> = s
        .iter()
        .map(|&sw| {
            let pp = b.add_processor();
            b.link(pp, sw).unwrap();
            pp
        })
        .collect();
    Chain {
        topo: b.build(),
        s,
        p,
    }
}

/// A multicast forks at s0: one branch joins the ring deadlock, the
/// other delivers to a free leaf and then keeps receiving bubbles
/// forever, so the event queue never runs dry.
fn fork_into_ring(net: &Chain, cfg: SimConfig) -> NetworkSim<'_, OracleRouting> {
    let (s, p) = (&net.s, &net.p);
    let mut oracle = OracleRouting::new(&net.topo);
    // Ring partners (tags 1, 2) occupy (s1,s2) then want (s2,s0), and
    // (s2,s0) then want (s0,s1).
    oracle
        .add_unicast_path(1, &[p[1], s[1], s[2], s[0], p[0]])
        .unwrap();
    oracle
        .add_unicast_path(2, &[p[2], s[2], s[0], s[1], p[1]])
        .unwrap();
    // Multicast (tag 0) from p0: fork at s0 to the doomed ring branch
    // (s0->s1->s2's processor) and to the free leaf (s3).
    oracle
        .add_tree_edges(0, [(s[0], s[1]), (s[0], s[3])])
        .unwrap();
    oracle.add_tree_edges(0, [(s[1], s[2])]).unwrap();
    oracle.add_tree_edges(0, [(s[2], p[2])]).unwrap();
    oracle.add_tree_edges(0, [(s[3], p[3])]).unwrap();

    let mut sim = NetworkSim::new(&net.topo, oracle, cfg);
    sim.submit(MessageSpec::unicast(p[1], p[0], 2048).tag(1).at(Time::ZERO))
        .unwrap();
    sim.submit(MessageSpec::unicast(p[2], p[1], 2048).tag(2).at(Time::ZERO))
        .unwrap();
    sim.submit(
        MessageSpec::multicast(p[0], vec![p[2], p[3]], 2048)
            .tag(0)
            .at(Time::ZERO),
    )
    .unwrap();
    sim
}

#[test]
fn deadlocked_branch_with_live_sibling_is_caught_by_watchdog() {
    // Event-queue exhaustion never happens; the progress watchdog must
    // fire instead.
    let net = ring_with_leaf();
    let cfg = SimConfig::paper().with_watchdog(Duration::from_us(200));
    let mut sim = fork_into_ring(&net, cfg);
    let p1 = net.p[1];
    sim.submit(MessageSpec::unicast(p1, p1, 2048).tag(1).at(Time::ZERO))
        .unwrap_err(); // self destination rejected
    let out = sim.run();
    let dl = out.deadlock.expect("cyclic wait must be detected");
    assert!(
        !dl.queue_exhausted,
        "bubble traffic keeps events flowing; the watchdog must fire"
    );
    assert!(out.counters.bubbles_created > 0);
}

/// FNV-1a over what a run decided: final clock, verdict, counters,
/// per-message times and per-channel crossings.
fn outcome_digest(out: &SimOutcome) -> u64 {
    let mut h = Fnv1a::default();
    let dl = out.deadlock.as_ref();
    let c = &out.counters;
    for w in [
        out.end_time.as_ns(),
        dl.map_or(u64::MAX, |d| d.detected_at.as_ns()),
        dl.map_or(u64::MAX, |d| d.last_progress.as_ns()),
        dl.map_or(u64::MAX, |d| u64::from(d.queue_exhausted)),
        u64::from(out.error.is_some()),
        c.events,
        c.wire_transfers,
        c.bubbles_created,
        c.flits_delivered,
        c.messages_completed,
        c.acquisitions,
        c.seg_lookups,
    ] {
        h.word(w);
    }
    for m in dl.iter().flat_map(|d| &d.stuck_messages) {
        h.word(m.index() as u64);
    }
    for m in &out.messages {
        h.word(m.completed_at.map_or(u64::MAX, Time::as_ns));
        for d in out.dest_times(m) {
            h.word(d.map_or(u64::MAX, Time::as_ns));
        }
    }
    for &x in &out.channel_crossings {
        h.word(x);
    }
    h.finish()
}

/// FNV-1a over every gauge sample the run kept, and how many it took.
fn series_digest(out: &SimOutcome) -> u64 {
    let series = &out.metrics.as_ref().expect("telemetry on").series;
    let mut h = Fnv1a::default();
    h.word(series.total_recorded());
    for g in series.iter() {
        for w in [
            g.at_ns,
            g.queue_len as u64,
            u64::from(g.live_worms),
            u64::from(g.live_segments),
            u64::from(g.ocrq_total),
            u64::from(g.ocrq_max),
            u64::from(g.epoch),
            g.delivered,
        ] {
            h.word(w);
        }
    }
    h.finish()
}

/// Both observers' cadence in [`observed_fork_into_ring`]: 29 990 ns <
/// 30 000 ns, and 210 120 ns < 210 125 ns <= 210 130 ns (where the
/// watchdog fires).
const CADENCE_NS: u64 = 125;

/// True when a run stopped at an instant with an observer tick due: the
/// event that would have run next opens an instant at or after a tick
/// the last one run was before.
fn tick_due_at_stop(out: &SimOutcome) -> bool {
    let next = out.deadlock.as_ref().map_or(0, |d| d.detected_at.as_ns());
    next / CADENCE_NS > out.end_time.as_ns() / CADENCE_NS
}

/// [`fork_into_ring`] with a checkpoint into a digest ledger and a gauge
/// sample every [`CADENCE_NS`]: `(outcome, series, ledger length,
/// ledger digest)`.
fn observed_fork_into_ring(cfg: SimConfig) -> (SimOutcome, u64, usize, u64) {
    let net = ring_with_leaf();
    let mut sim = fork_into_ring(&net, cfg);
    let (sink, ledger) = CheckpointSink::digests();
    sim.enable_checkpoints(Duration::from_ns(CADENCE_NS), sink);
    sim.enable_metrics(MetricsConfig {
        sample_every: Duration::from_ns(CADENCE_NS),
        capacity: 64,
    });
    let out = sim.run();
    let ledger = ledger.lock().unwrap();
    let mut h = Fnv1a::default();
    for &(at, sum) in ledger.iter() {
        h.word(at);
        h.word(sum);
    }
    let series = series_digest(&out);
    (out, series, ledger.len(), h.finish())
}

/// Events the capped run processes: the last of them is at 29 990 ns,
/// and the next would open the instant at 30 000 ns.
const EVENT_CAP: u64 = 4_001;

/// `(outcome, gauge series, ledger length, ledger)` digests of the capped
/// and of the watchdog-aborted run.
const CAPPED_PINS: (u64, u64, usize, u64) = (
    5914715183444671105,
    14144879036956244356,
    160,
    10208991168059604521,
);
const WATCHDOG_PINS: (u64, u64, usize, u64) = (
    16613224557136489413,
    11712490525398530066,
    1601,
    18058846882651134466,
);

#[test]
fn event_cap_on_an_instants_first_event_stops_before_its_observers() {
    // Stopped by the event cap exactly when the next event opens a new
    // instant, with a checkpoint and a gauge tick due at that instant:
    // the cap must win, so neither is taken. Pinned from the run loop
    // that tested the watchdog, the cap and the observer drain before
    // every event.
    let cfg = SimConfig {
        max_events: EVENT_CAP,
        ..SimConfig::paper().with_watchdog(Duration::from_us(200))
    };
    let (out, series, ledger_len, ledger) = observed_fork_into_ring(cfg);
    let dl = out.deadlock.as_ref().expect("the cap stops the run");
    assert_eq!(out.counters.events, EVENT_CAP);
    assert!(
        dl.detected_at > out.end_time,
        "the cap lands on an instant's first event"
    );
    assert!(tick_due_at_stop(&out));
    assert_eq!(
        (outcome_digest(&out), series, ledger_len, ledger),
        CAPPED_PINS
    );
}

#[test]
fn watchdog_abort_stops_before_its_observers() {
    // The watchdog fires at an instant with a checkpoint and a gauge tick
    // due; it is tested first, so neither is taken there. Pinned from the
    // run loop that tested both before every event.
    let cfg = SimConfig::paper().with_watchdog(Duration::from_us(200));
    let (out, series, ledger_len, ledger) = observed_fork_into_ring(cfg);
    let dl = out.deadlock.as_ref().expect("the watchdog fires");
    assert!(!dl.queue_exhausted);
    assert!(tick_due_at_stop(&out));
    assert_eq!(
        (outcome_digest(&out), series, ledger_len, ledger),
        WATCHDOG_PINS
    );
}

struct ReplyHook {
    reply_len: u32,
    replies_sent: usize,
}

impl CompletionHook for ReplyHook {
    fn on_complete(&mut self, _m: MsgId, spec: &MessageSpec, at: Time) -> Vec<MessageSpec> {
        if spec.tag == 0 {
            self.replies_sent += 1;
            vec![
                MessageSpec::unicast(spec.dests[0], spec.src, self.reply_len)
                    .tag(1)
                    .at(at),
            ]
        } else {
            Vec::new()
        }
    }
}

#[test]
fn completion_hook_injects_reply() {
    let c = chain(2);
    let mut oracle = OracleRouting::new(&c.topo);
    oracle
        .add_unicast_path(0, &[c.p[0], c.s[0], c.s[1], c.p[1]])
        .unwrap();
    oracle
        .add_unicast_path(1, &[c.p[1], c.s[1], c.s[0], c.p[0]])
        .unwrap();
    let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(c.p[0], c.p[1], 64).tag(0))
        .unwrap();
    let mut hook = ReplyHook {
        reply_len: 64,
        replies_sent: 0,
    };
    let out = sim.run_with_hook(&mut hook);
    assert_eq!(hook.replies_sent, 1);
    assert_eq!(out.messages.len(), 2, "request plus injected reply");
    assert!(out.all_delivered());
    let req_done = out.messages[0].completed_at.unwrap();
    let rep_done = out.messages[1].completed_at.unwrap();
    assert!(rep_done > req_done);
    // The reply costs a full startup + transfer on top of the request.
    assert!(rep_done.since(req_done) >= Duration::from_us(10));
}

#[test]
fn deeper_buffers_never_hurt_latency() {
    let c = chain(5);
    let run = |inp: usize, outp: usize| {
        let mut oracle = OracleRouting::new(&c.topo);
        let mut path = vec![c.p[0]];
        path.extend(&c.s);
        path.push(c.p[4]);
        oracle.add_unicast_path(0, &path).unwrap();
        let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper().with_buffers(inp, outp));
        sim.submit(MessageSpec::unicast(c.p[0], c.p[4], 128))
            .unwrap();
        let out = sim.run();
        assert!(out.all_delivered());
        out.messages[0].latency().unwrap().as_ns()
    };
    let base = run(1, 1);
    for (i, o) in [(2, 1), (1, 2), (4, 4), (8, 8)] {
        assert!(run(i, o) <= base, "buffers ({i},{o}) regressed latency");
    }
}

#[test]
fn identical_runs_are_bit_identical() {
    let collect = || {
        let net = star(3);
        let mut oracle = OracleRouting::new(&net.topo);
        for (tag, leaf) in [(0u64, 1usize), (1, 2), (2, 3)] {
            oracle
                .add_unicast_path(tag, &[net.p[0], net.s[0], net.s[leaf], net.p[leaf]])
                .unwrap();
        }
        let mut sim = NetworkSim::new(&net.topo, oracle, SimConfig::paper());
        for tag in 0..3u64 {
            let leaf = tag as usize + 1;
            sim.submit(
                MessageSpec::unicast(net.p[0], net.p[leaf], 128)
                    .tag(tag)
                    .at(Time::from_ns(tag * 100)),
            )
            .unwrap();
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
    assert_eq!(collect(), collect());
}

#[test]
fn flit_accounting_is_exact() {
    let c = chain(3);
    let mut oracle = OracleRouting::new(&c.topo);
    oracle
        .add_unicast_path(0, &[c.p[0], c.s[0], c.s[1], c.s[2], c.p[2]])
        .unwrap();
    let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(c.p[0], c.p[2], 100))
        .unwrap();
    let out = sim.run();
    assert_eq!(out.counters.flits_delivered, 100);
    assert_eq!(out.counters.bubbles_created, 0);
    // 4 channels × 100 flits.
    assert_eq!(out.counters.wire_transfers, 400);
    // One acquisition at the source + one per switch.
    assert_eq!(out.counters.acquisitions, 4);
    assert_eq!(out.counters.messages_completed, 1);
}

#[test]
fn extra_header_flits_lengthen_worms_predictably() {
    let c = chain(3);
    let run = |extra: u32| {
        let mut oracle = OracleRouting::new(&c.topo);
        oracle
            .add_unicast_path(0, &[c.p[0], c.s[0], c.s[1], c.s[2], c.p[2]])
            .unwrap();
        let mut sim = NetworkSim::new(
            &c.topo,
            oracle,
            SimConfig::paper().with_extra_header_flits(extra),
        );
        sim.submit(MessageSpec::unicast(c.p[0], c.p[2], 128))
            .unwrap();
        let out = sim.run();
        assert!(out.all_delivered());
        out.messages[0].latency().unwrap().as_ns()
    };
    let base = run(0);
    // Each extra header flit adds exactly one channel cycle to the tail
    // arrival (the pipeline is one flit per 10 ns).
    assert_eq!(run(1), base + 10);
    assert_eq!(run(4), base + 40);
}

#[test]
fn channel_crossings_account_for_all_wire_traffic() {
    let c = chain(2);
    let mut oracle = OracleRouting::new(&c.topo);
    oracle
        .add_unicast_path(0, &[c.p[0], c.s[0], c.s[1], c.p[1]])
        .unwrap();
    let mut sim = NetworkSim::new(&c.topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(c.p[0], c.p[1], 64))
        .unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    let total: u64 = out.channel_crossings.iter().sum();
    assert_eq!(total, out.counters.wire_transfers);
    // The three path channels carried 64 flits each; the rest nothing.
    let mut loads: Vec<u64> = out.channel_crossings.clone();
    loads.sort_unstable();
    loads.reverse();
    assert_eq!(&loads[..3], &[64, 64, 64]);
    assert!(loads[3..].iter().all(|&l| l == 0));
    assert_eq!(out.hottest_channels(1)[0].1, 64);
}
