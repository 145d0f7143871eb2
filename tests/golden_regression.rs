//! Golden regression values: exact latencies for pinned seeds. Any change
//! to the engine's event ordering, the routing tables, the generators, or
//! the labeling that alters simulated behaviour will trip these — on
//! purpose. Update the constants only for *intentional* semantic changes,
//! and record why in the commit.

use spam_net::prelude::*;

fn fig1_multicast_latency_ns() -> u64 {
    let (topo, labels) = figure1();
    let by = |l: u32| labels.by_label(l).unwrap();
    let ud = UpDownLabeling::build(&topo, RootSelection::Fixed(by(1)));
    let spam = SpamRouting::new(&topo, &ud);
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(
        by(5),
        vec![by(8), by(9), by(10), by(11)],
        128,
    ))
    .unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    out.messages[0].latency().unwrap().as_ns()
}

#[test]
fn figure1_multicast_latency_is_pinned() {
    // 10_000 (startup) + 4 channels x 10 + 3 switches x 40 + 127 x 10.
    assert_eq!(fig1_multicast_latency_ns(), 11_430);
}

#[test]
fn seeded_64_node_broadcast_is_pinned() {
    let topo = IrregularConfig::with_switches(64).generate(2024);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let spam = SpamRouting::new(&topo, &ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let dests: Vec<NodeId> = procs[1..].to_vec();
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(procs[0], dests, 128))
        .unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    let lat = out.messages[0].latency().unwrap().as_ns();
    // Golden value for (seed 2024, lowest-id root, min-distance selection),
    // pinned against the workspace's deterministic SplitMix64 `rand` shim.
    assert_eq!(lat, 12_230);
    assert_eq!(out.counters.flits_delivered, 128 * 63);
    // Even an idle network produces some bubbles on a broadcast: subtree
    // depths differ, so a branch whose header is still paying router setup
    // transiently blocks its siblings, which then advance on bubbles.
    assert_eq!(out.counters.bubbles_created, 1_232);
}

#[test]
fn seeded_mixed_traffic_run_is_pinned() {
    let topo = IrregularConfig::with_switches(32).generate(7);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let spam = SpamRouting::new(&topo, &ud);
    let stream = MixedTrafficConfig::figure3(0.02, 8, 250)
        .generate(&topo, 7)
        .unwrap();
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
    for s in stream {
        sim.submit(s).unwrap();
    }
    let out = sim.run();
    assert!(out.all_delivered());
    let mean = out.mean_latency_us(|_| true).unwrap();
    // Golden mean latency for this exact (topology, stream) pair, pinned
    // against the workspace's deterministic SplitMix64 `rand` shim.
    let expect = 11.709_800_000_000_005;
    assert!(
        (mean - expect).abs() < 1e-6,
        "mean latency drifted: {mean} vs {expect}"
    );
}

#[test]
fn degraded_network_broadcast_is_pinned() {
    // A fixed fault scenario end to end: seeded 64-switch lattice, seeded
    // 15 % i.i.d. link kills, reconfiguration (components + relabeling
    // with root re-selection), then a broadcast across the largest
    // surviving component. Pins the fault sampler, the masking, the
    // partial relabeling, and degraded-network routing determinism.
    let base = IrregularConfig::with_switches(64).generate(2024);
    let plan = FaultModel::IidLinks { rate: 0.15 }.sample(&base, None, 99);
    assert_eq!(plan.links.len(), 25, "fault sampler stream pinned");
    let net = DegradedNetwork::build(&base, &plan, None);
    assert_eq!(net.topo.num_channels(), 284);
    assert_eq!(net.components.len(), 2);
    let comp = net.largest().unwrap();
    assert_eq!(comp.nodes.len(), 108);
    assert_eq!(comp.root, NodeId(5), "re-selected root pinned");
    let procs = comp.processors(&net.topo);
    assert_eq!(procs.len(), 49);
    let spam = SpamRouting::new(&net.topo, &comp.labeling);
    let mut sim = NetworkSim::new(&net.topo, spam, SimConfig::paper());
    sim.submit(MessageSpec::multicast(procs[0], procs[1..].to_vec(), 128))
        .unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    // Golden values for (topo seed 2024, fault seed 99, lowest-id root
    // re-selection), pinned against the workspace's deterministic
    // SplitMix64 `rand` shim.
    assert_eq!(out.messages[0].latency().unwrap().as_ns(), 12_130);
    assert_eq!(out.counters.bubbles_created, 884);
    assert_eq!(out.counters.flits_delivered, 128 * 48);
}

fn mid_run_link_death_outcome() -> SimOutcome {
    // A live-reconfiguration scenario end to end: seeded 64-switch
    // lattice, a broadcast in flight when a processor's only link dies at
    // 10.5 µs (tearing the broadcast down mid-worm), then post-fault
    // traffic routing on the relabeled epoch — one multicast that must
    // deliver and one unicast to the stranded processor that must surface
    // as unreachable. Pins the storm scheduling, the engine's chain of
    // teardowns, the incremental relabeling, and the epoch routing swap.
    let topo = IrregularConfig::with_switches(64).generate(2024);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let procs: Vec<NodeId> = topo.processors().collect();
    let doomed = procs[5];
    let dead_link = topo.out_channels(doomed)[0];
    let sched = FaultSchedule::new(vec![FaultEvent {
        at: Time::from_ns(10_500),
        kind: FaultKind::LinkDown(dead_link),
    }]);
    let scenario = ReconfigScenario::build(&topo, &ud, &sched);
    let routing = scenario.routing(&topo);
    let mut sim = NetworkSim::new(&topo, routing, SimConfig::paper());
    sched.install(&mut sim);
    sim.submit(MessageSpec::multicast(procs[0], procs[1..].to_vec(), 128))
        .unwrap();
    sim.submit(
        MessageSpec::multicast(procs[0], vec![procs[7], procs[9]], 64).at(Time::from_us(15)),
    )
    .unwrap();
    sim.submit(MessageSpec::unicast(procs[0], doomed, 64).at(Time::from_us(15)))
        .unwrap();
    sim.run()
}

#[test]
fn mid_run_link_death_is_pinned() {
    let out = mid_run_link_death_outcome();
    assert!(out.all_accounted(), "{:?} {:?}", out.error, out.deadlock);
    // Exactly one verdict of each kind.
    assert!(out.messages[0].is_torn_down(), "broadcast caught mid-worm");
    assert!(out.messages[1].is_complete(), "epoch-1 multicast delivers");
    assert!(out.messages[2].is_unreachable(), "stranded destination");
    assert_eq!(out.counters.messages_completed, 1);
    assert_eq!(out.counters.messages_torn_down, 1);
    assert_eq!(out.counters.messages_unreachable, 1);
    assert_eq!(out.counters.links_killed, 1);
    assert_eq!(out.fault_times, vec![Time::from_ns(10_500)]);
    // The teardown happened at the fault instant, with the typed error.
    let failure = out.messages[0].failure.unwrap();
    assert_eq!(failure.at, Time::from_ns(10_500));
    assert!(matches!(failure.error, SimError::TornDown { .. }));
    // Golden post-fault latency for (topo seed 2024, fault at 10.5 µs),
    // pinned against the workspace's deterministic SplitMix64 `rand`
    // shim. Update only for intentional semantic changes.
    assert_eq!(out.messages[1].latency().unwrap().as_ns(), 10_890);
    // Per-epoch accounting splits exactly at the fault.
    let stats = out.epoch_stats();
    assert_eq!((stats[0].submitted, stats[0].torn_down), (1, 1));
    assert_eq!(
        (stats[1].submitted, stats[1].delivered, stats[1].unreachable),
        (2, 1, 1)
    );
}

#[test]
fn mid_run_link_death_is_deterministic_across_runs() {
    let (a, b) = (mid_run_link_death_outcome(), mid_run_link_death_outcome());
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.end_time, b.end_time);
    for (ma, mb) in a.messages.iter().zip(&b.messages) {
        assert_eq!(ma.completed_at, mb.completed_at);
        assert_eq!(ma.failure.map(|f| f.at), mb.failure.map(|f| f.at));
    }
}

#[test]
fn golden_values_are_stable_across_repeated_runs() {
    assert_eq!(fig1_multicast_latency_ns(), fig1_multicast_latency_ns());
}

/// Full-outcome equality between two runs (everything that is observable
/// and deterministic: per-message results, counters, timing, per-channel
/// utilization, epoch boundaries).
fn assert_outcomes_identical(a: &SimOutcome, b: &SimOutcome, what: &str) {
    assert_eq!(a.counters, b.counters, "{what}: counters diverged");
    assert_eq!(a.end_time, b.end_time, "{what}: end time diverged");
    assert_eq!(
        a.channel_crossings, b.channel_crossings,
        "{what}: channel utilization diverged"
    );
    assert_eq!(a.fault_times, b.fault_times, "{what}: epochs diverged");
    assert_eq!(a.error, b.error, "{what}: error diverged");
    assert_eq!(a.messages.len(), b.messages.len());
    for (ma, mb) in a.messages.iter().zip(&b.messages) {
        assert_eq!(ma.completed_at, mb.completed_at, "{what}: latency diverged");
        assert_eq!(
            ma.dest_done_at, mb.dest_done_at,
            "{what}: dest timing diverged"
        );
        assert_eq!(ma.failure, mb.failure, "{what}: failure diverged");
    }
}

fn seeded_broadcast_outcome(queue: QueueKind) -> SimOutcome {
    let topo = IrregularConfig::with_switches(64).generate(2024);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let spam = SpamRouting::new(&topo, &ud);
    let procs: Vec<NodeId> = topo.processors().collect();
    let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper().with_queue(queue));
    sim.submit(MessageSpec::multicast(procs[0], procs[1..].to_vec(), 128))
        .unwrap();
    sim.run()
}

#[test]
fn bucket_and_heap_queues_produce_identical_outcomes() {
    // The engine defaults to constant-delay lanes in front of the binary
    // heap; the heap alone stays selectable as the reference. Both must
    // simulate the exact same run: the golden values above pin the bucket
    // default, this pins the equivalence — including a
    // live-reconfiguration run whose chains of teardowns are maximally
    // order-sensitive.
    let lanes = seeded_broadcast_outcome(QueueKind::Bucket);
    let heap = seeded_broadcast_outcome(QueueKind::Heap);
    assert!(lanes.all_delivered());
    assert_outcomes_identical(&lanes, &heap, "seeded broadcast");
    assert_eq!(lanes.messages[0].latency().unwrap().as_ns(), 12_230);
}

/// Pinned digest of one corpus scenario's replication 0.
struct CorpusPin {
    name: &'static str,
    /// (submitted, delivered, torn_down, unreachable) — exact.
    counts: (u64, u64, u64, u64),
    /// Engine events processed — exact (the strongest cheap pin: any
    /// event-ordering or routing change moves it).
    events: u64,
    /// Latency digest (µs): mean / p50 / p99 over delivered messages,
    /// `None` when nothing delivered.
    mean_us: Option<f64>,
    p50_us: Option<f64>,
    p99_us: Option<f64>,
}

/// Golden values for replication 0 of every committed scenario, pinned
/// against the workspace's deterministic SplitMix64 `rand` shim. Update
/// only for *intentional* semantic changes, and record why in the
/// commit. (Cross-check: `fig3_mixed_negbinomial` reproduces the
/// `seeded_mixed_traffic_run_is_pinned` mean exactly — the declarative
/// layer and the direct API drive identical simulations.)
const CORPUS_PINS: &[CorpusPin] = &[
    CorpusPin {
        name: "bit_complement_spam",
        counts: (189, 189, 0, 0),
        events: 242_775,
        mean_us: Some(30.7356),
        p50_us: Some(13.98),
        p99_us: Some(170.65),
    },
    CorpusPin {
        name: "broadcast_storm_32",
        counts: (32, 32, 0, 0),
        events: 162_923,
        mean_us: Some(25.1509),
        p50_us: Some(24.64),
        p99_us: Some(39.79),
    },
    CorpusPin {
        name: "bursty_onoff_mixed",
        counts: (250, 250, 0, 0),
        events: 312_553,
        mean_us: Some(11.7049),
        p50_us: Some(11.58),
        p99_us: Some(13.61),
    },
    CorpusPin {
        name: "closed_loop_window4",
        counts: (144, 144, 0, 0),
        events: 52_130,
        mean_us: Some(14.0247),
        p50_us: Some(13.20),
        p99_us: Some(23.53),
    },
    CorpusPin {
        name: "fig2_single_multicast",
        counts: (1, 1, 0, 0),
        events: 8_505,
        mean_us: Some(12.18),
        p50_us: Some(12.18),
        p99_us: Some(12.18),
    },
    CorpusPin {
        name: "fig3_mixed_negbinomial",
        counts: (250, 250, 0, 0),
        events: 269_727,
        mean_us: Some(11.7098),
        p50_us: Some(11.58),
        p99_us: Some(13.27),
    },
    CorpusPin {
        name: "fuzzed_relabel_reattach",
        counts: (189, 169, 7, 13),
        events: 125_699,
        mean_us: Some(11.2388),
        p50_us: Some(11.19),
        p99_us: Some(12.75),
    },
    CorpusPin {
        name: "fuzzed_teardown_branch",
        counts: (150, 51, 5, 94),
        events: 38_706,
        mean_us: Some(11.5335),
        p50_us: Some(11.48),
        p99_us: Some(12.81),
    },
    CorpusPin {
        name: "fuzzed_wheel_overflow",
        counts: (64, 64, 0, 0),
        events: 104_813,
        mean_us: Some(11.1323),
        p50_us: Some(11.13),
        p99_us: Some(11.38),
    },
    CorpusPin {
        name: "hotspot_link_storm",
        counts: (300, 28, 5, 267),
        events: 13_937,
        mean_us: Some(11.0229),
        p50_us: Some(10.94),
        p99_us: Some(11.75),
    },
    CorpusPin {
        name: "incast_degraded_256",
        counts: (400, 400, 0, 0),
        events: 431_015,
        mean_us: Some(31.52),
        p50_us: Some(13.18),
        p99_us: Some(189.73),
    },
    CorpusPin {
        name: "region_fault_hotspot",
        counts: (200, 200, 0, 0),
        events: 84_150,
        mean_us: Some(10.9462),
        p50_us: Some(10.90),
        p99_us: Some(11.70),
    },
    CorpusPin {
        name: "software_multicast_mixed",
        counts: (183, 183, 0, 0),
        events: 63_960,
        mean_us: Some(10.8732),
        p50_us: Some(10.84),
        p99_us: Some(11.45),
    },
    CorpusPin {
        name: "transpose_updown_unicast",
        counts: (171, 171, 0, 0),
        events: 92_235,
        mean_us: Some(11.0653),
        p50_us: Some(10.99),
        p99_us: Some(12.20),
    },
];

#[test]
fn scenario_corpus_is_pinned_and_queue_equivalent() {
    // The corpus runner: every committed `scenarios/*.scenario.json`
    // executes from JSON alone; replication 0 of each is pinned
    // (delivered / torn-down / unreachable counts, event count, latency
    // digest) and must be byte-identical under both event-queue
    // implementations — the declarative layer adds no nondeterminism on
    // top of the engine equivalence pinned above.
    let corpus = spam_net::scenario::load_dir(std::path::Path::new("scenarios"))
        .expect("committed corpus loads and validates");
    assert_eq!(
        corpus.len(),
        CORPUS_PINS.len(),
        "corpus size pinned: add a CorpusPin for every new scenario"
    );
    let close = |got: Option<f64>, want: Option<f64>, what: &str, name: &str| match (got, want) {
        (Some(g), Some(w)) => assert!((g - w).abs() < 5e-4, "{name}: {what} drifted: {g} vs {w}"),
        (g, w) => assert_eq!(g.is_some(), w.is_some(), "{name}: {what} presence"),
    };
    for ((path, spec), pin) in corpus.iter().zip(CORPUS_PINS) {
        assert_eq!(
            spec.name,
            pin.name,
            "corpus order pinned ({})",
            path.display()
        );
        let lanes = spam_net::scenario::run_once(spec, 0, Some(QueueKind::Bucket))
            .unwrap_or_else(|e| panic!("{}: {e}", pin.name));
        let heap = spam_net::scenario::run_once(spec, 0, Some(QueueKind::Heap))
            .unwrap_or_else(|e| panic!("{}: {e}", pin.name));
        assert_outcomes_identical(&lanes, &heap, pin.name);
        assert!(lanes.all_accounted(), "{}: not accounted", pin.name);
        let s = spam_net::scenario::summarize(0, &lanes);
        assert_eq!(
            (s.submitted, s.delivered, s.torn_down, s.unreachable),
            pin.counts,
            "{}: message accounting drifted",
            pin.name
        );
        assert_eq!(s.events, pin.events, "{}: event count drifted", pin.name);
        close(s.mean_latency_us, pin.mean_us, "mean latency", pin.name);
        close(s.p50_us, pin.p50_us, "p50 latency", pin.name);
        close(s.p99_us, pin.p99_us, "p99 latency", pin.name);
    }
}

#[test]
fn fuzzed_corpus_specs_light_their_namesake_coverage() {
    // The three fuzzer-promoted scenarios were committed *because* they
    // light engine-coverage signals the hand-authored corpus never set.
    // Pin that property: if a refactor stops a spec from reaching its
    // namesake state, the spec has lost its reason to exist.
    use spam_net::wormsim::CoverageSet;
    let check = |name: &str, mask: u64| {
        let body = std::fs::read_to_string(format!("scenarios/{name}.scenario.json")).unwrap();
        let spec = spam_net::scenario::ScenarioSpec::from_json(&body).unwrap();
        let out = spam_net::scenario::run_once(&spec, 0, None).unwrap();
        assert!(
            out.counters.coverage.has(mask),
            "{name}: coverage signal {mask:#x} lost (got {:#x})",
            out.counters.coverage.bits
        );
        assert!(out.quiescent, "{name}: network failed to drain");
    };
    check(
        "fuzzed_teardown_branch",
        CoverageSet::TEARDOWN_DURING_BRANCH,
    );
    check("fuzzed_wheel_overflow", CoverageSet::WHEEL_OVERFLOW);
    check(
        "fuzzed_relabel_reattach",
        CoverageSet::RELABEL_REATTACH | CoverageSet::SOURCE_INJECTION_DEAD,
    );
}

#[test]
fn scenario_corpus_covers_every_axis() {
    // The corpus must keep exercising the full composition surface:
    // every routing arm, every fault mode, and most of the workload
    // library. A scenario deletion that narrows coverage trips this.
    let corpus = spam_net::scenario::load_dir(std::path::Path::new("scenarios")).unwrap();
    let specs: Vec<_> = corpus.iter().map(|(_, s)| s).collect();
    use spam_net::scenario::{FaultsSpec, RoutingSpec, TrafficSpec};
    assert!(specs
        .iter()
        .any(|s| matches!(s.routing, RoutingSpec::Spam { .. })));
    assert!(specs
        .iter()
        .any(|s| matches!(s.routing, RoutingSpec::UpDownUnicast)));
    assert!(specs
        .iter()
        .any(|s| matches!(s.routing, RoutingSpec::SoftwareMulticast)));
    assert!(specs.iter().any(|s| matches!(s.faults, FaultsSpec::None)));
    assert!(specs
        .iter()
        .any(|s| matches!(s.faults, FaultsSpec::Static { .. })));
    assert!(specs
        .iter()
        .any(|s| matches!(s.faults, FaultsSpec::Storm { .. })));
    let kinds: Vec<u32> = specs
        .iter()
        .map(|s| match s.traffic {
            TrafficSpec::SingleMulticast { .. } => 0,
            TrafficSpec::Mixed { .. } => 1,
            TrafficSpec::Hotspot { .. } => 2,
            TrafficSpec::Permutation { .. } => 3,
            TrafficSpec::Incast { .. } => 4,
            TrafficSpec::BroadcastStorm { .. } => 5,
            TrafficSpec::ClosedLoop { .. } => 6,
        })
        .collect();
    for kind in 0..7 {
        assert!(
            kinds.contains(&kind),
            "no scenario covers traffic kind {kind}"
        );
    }
}

/// A hotspot storm whose link-downs land while worms are blocked on
/// their output requests: `switches`-switch lattice, half the traffic
/// aimed at four hot processors, an i.i.d. link storm in two bursts
/// inside 20–60 µs.
fn blocked_storm_spec(switches: u32, seed: u64, rate: f64, messages: u32) -> ScenarioSpec {
    ScenarioSpec::from_json(&format!(
        r#"{{
  "name": "blocked_storm_{switches}_{seed}",
  "topology": {{"switches": {switches}, "seed": {seed}, "strategy": "connected_growth", "ports": 8}},
  "routing": {{"kind": "spam", "policy": {{"kind": "min_residual_distance"}}}},
  "traffic": {{"kind": "hotspot", "hot_nodes": 4, "hot_fraction": 0.5,
    "rate_per_node_per_us": 0.02, "len": 64, "messages": {messages},
    "arrival": {{"kind": "negative_binomial", "r": 1}}}},
  "faults": {{"kind": "storm", "model": {{"kind": "iid_links", "rate": {rate}}},
    "seed": {seed}, "window_start_us": 20, "window_end_us": 60, "bursts": 2}},
  "engine": {{"queue": null, "input_buffer_flits": 1, "output_buffer_flits": 1,
    "extra_header_flits": 0}},
  "seed": {seed},
  "replications": 1,
  "horizon_us": 2000
}}"#
    ))
    .expect("blocked-storm spec validates")
}

/// `(switches, seed, link rate, messages)`.
type StormShape = (u32, u64, f64, u32);

/// [`StormShape`] → the outcome digest of replication 0 and its
/// `seg_lookups`. A link-down that kills no worm still wakes every
/// blocked survivor, and each wake's lookups are part of the digest:
/// these pins are what notice a fault path that skips or reorders wakes.
const BLOCKED_STORM_PINS: &[(StormShape, u64, u64)] = &[
    ((64, 11, 0.1, 300), 16_571_069_497_007_147_444, 703_610),
    ((64, 47, 0.1, 300), 11_027_912_178_522_405_228, 594_373),
    ((64, 71, 0.08, 300), 17_514_993_939_130_376_737, 562_760),
    ((96, 3, 0.08, 240), 1_206_931_866_003_751_222, 583_439),
    ((128, 5, 0.08, 200), 2_808_196_098_230_338_995, 577_859),
    ((128, 41, 0.1, 150), 8_207_202_643_273_061_700, 339_191),
    ((192, 17, 0.06, 120), 9_241_950_193_143_153_046, 394_441),
    ((256, 7, 0.05, 120), 5_900_860_437_306_253_120, 483_196),
    ((256, 1998, 0.08, 80), 17_744_966_254_813_408_481, 354_484),
];

#[test]
fn hotspot_storms_over_blocked_worms_are_pinned() {
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for &((switches, seed, rate, messages), digest, lookups) in BLOCKED_STORM_PINS {
        let spec = blocked_storm_spec(switches, seed, rate, messages);
        let lanes = spam_net::scenario::run_once(&spec, 0, Some(QueueKind::Bucket)).unwrap();
        let heap = spam_net::scenario::run_once(&spec, 0, Some(QueueKind::Heap)).unwrap();
        assert_outcomes_identical(&lanes, &heap, &spec.name);
        assert!(lanes.all_accounted(), "{}: not accounted", spec.name);
        assert!(
            lanes.counters.links_killed > 0,
            "{}: no fault fired",
            spec.name
        );
        got.push((
            spam_net::scenario::outcome_digest(&lanes),
            lanes.counters.seg_lookups,
        ));
        want.push((digest, lookups));
    }
    assert_eq!(got, want, "blocked-storm digests drifted");
}

#[test]
fn mid_run_link_death_is_identical_under_both_queues() {
    let outcomes: Vec<SimOutcome> = [QueueKind::Bucket, QueueKind::Heap]
        .into_iter()
        .map(|queue| {
            let topo = IrregularConfig::with_switches(64).generate(2024);
            let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
            let procs: Vec<NodeId> = topo.processors().collect();
            let doomed = procs[5];
            let dead_link = topo.out_channels(doomed)[0];
            let sched = FaultSchedule::new(vec![FaultEvent {
                at: Time::from_ns(10_500),
                kind: FaultKind::LinkDown(dead_link),
            }]);
            let scenario = ReconfigScenario::build(&topo, &ud, &sched);
            let routing = scenario.routing(&topo);
            let mut sim = NetworkSim::new(&topo, routing, SimConfig::paper().with_queue(queue));
            sched.install(&mut sim);
            sim.submit(MessageSpec::multicast(procs[0], procs[1..].to_vec(), 128))
                .unwrap();
            sim.submit(
                MessageSpec::multicast(procs[0], vec![procs[7], procs[9]], 64)
                    .at(Time::from_us(15)),
            )
            .unwrap();
            sim.submit(MessageSpec::unicast(procs[0], doomed, 64).at(Time::from_us(15)))
                .unwrap();
            sim.run()
        })
        .collect();
    assert!(outcomes[0].all_accounted());
    assert_outcomes_identical(&outcomes[0], &outcomes[1], "mid-run link death");
}
