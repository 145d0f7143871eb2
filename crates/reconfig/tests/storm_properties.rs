//! Property tests of the live-reconfiguration regime: fault storms at
//! 10–30 % link-death rates hitting 64-switch §4 lattices while multicast
//! traffic is in flight.
//!
//! The hard guarantees certified here:
//!
//! * **Total accounting** — every message ends delivered, torn down, or
//!   unreachable; the run never aborts and never deadlocks.
//! * **Resource hygiene** — after arbitrary teardown sequences no channel
//!   stays reserved by a dead worm and no request-queue entry is orphaned.
//!   This is checked two ways: the engine's end-of-run quiescence
//!   assertions (active in debug builds, which tests are), and the fact
//!   that *survivors keep delivering* — a leaked reservation would wedge
//!   them into the watchdog.
//! * **Determinism** — identical storms and traffic produce identical
//!   verdicts and latencies, run to run.
//! * **Wakes over blocked worms** — link-downs that land while hotspot
//!   worms wait on each other's channels. Debug builds check on every wake
//!   that each channel outside the engine's tracked list is quiescent, and
//!   the run must match the reference heap queue exactly. This property's
//!   case count follows `PROPTEST_CASES` (8 when unset), so CI can run it
//!   wide in a debug build.

use desim::Time;
use netgraph::gen::lattice::IrregularConfig;
use netgraph::NodeId;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spam_faults::FaultModel;
use spam_reconfig::{FaultSchedule, ReconfigScenario};
use updown::{RootSelection, UpDownLabeling};
use wormsim::{MessageSpec, NetworkSim, QueueKind, SimConfig, SimOutcome};

/// One storm run: 64-switch lattice, i.i.d. link storm in `bursts` bursts
/// across the traffic window, 24 multicasts submitted every 3 µs.
fn storm_run(topo_seed: u64, rate: f64, bursts: usize, traffic_seed: u64) -> SimOutcome {
    let base = IrregularConfig::with_switches(64).generate(topo_seed);
    let ud = UpDownLabeling::build(&base, RootSelection::LowestId);
    let schedule = FaultSchedule::storm(
        &FaultModel::IidLinks { rate },
        &base,
        None,
        (Time::from_us(12), Time::from_us(70)),
        bursts,
        topo_seed ^ 0xBAD_CAB1E,
    );
    let scenario = ReconfigScenario::build(&base, &ud, &schedule);
    let routing = scenario.routing(&base);
    let mut sim = NetworkSim::new(&base, routing, SimConfig::paper());
    schedule.install(&mut sim);
    let procs: Vec<NodeId> = base.processors().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(traffic_seed);
    for i in 0..24u64 {
        let src = procs[rng.gen_range(0..procs.len())];
        let mut others: Vec<NodeId> = procs.iter().copied().filter(|&p| p != src).collect();
        others.shuffle(&mut rng);
        let k = 1 + rng.gen_range(0..6);
        others.truncate(k);
        sim.submit(MessageSpec::multicast(src, others, 64).at(Time::from_us(3 * i)))
            .unwrap();
    }
    sim.run()
}

/// A hotspot storm: 64-switch lattice, 48 multicasts one every µs, each
/// to 1–3 of four hot processors (so worms queue on each other's
/// channels), and an i.i.d. link storm in two bursts inside 20–60 µs,
/// while most of them are in flight.
fn blocked_storm_run(topo_seed: u64, rate: f64, traffic_seed: u64, queue: QueueKind) -> SimOutcome {
    let base = IrregularConfig::with_switches(64).generate(topo_seed);
    let ud = UpDownLabeling::build(&base, RootSelection::LowestId);
    let schedule = FaultSchedule::storm(
        &FaultModel::IidLinks { rate },
        &base,
        None,
        (Time::from_us(20), Time::from_us(60)),
        2,
        topo_seed ^ traffic_seed,
    );
    let scenario = ReconfigScenario::build(&base, &ud, &schedule);
    let routing = scenario.routing(&base);
    let mut sim = NetworkSim::new(&base, routing, SimConfig::paper().with_queue(queue));
    schedule.install(&mut sim);
    let procs: Vec<NodeId> = base.processors().collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(traffic_seed);
    let mut hot = procs.clone();
    hot.shuffle(&mut rng);
    hot.truncate(4);
    for i in 0..48u64 {
        let src = procs[rng.gen_range(0..procs.len())];
        let mut dests: Vec<NodeId> = hot.iter().copied().filter(|&p| p != src).collect();
        dests.shuffle(&mut rng);
        dests.truncate(1 + rng.gen_range(0..3));
        sim.submit(MessageSpec::multicast(src, dests, 64).at(Time::from_us(i)))
            .unwrap();
    }
    sim.run()
}

/// Cases of the blocked-storm property: `PROPTEST_CASES` when set, else 8.
fn blocked_storm_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

fn verdicts(out: &SimOutcome) -> Vec<(bool, bool, bool, Option<u64>)> {
    out.messages
        .iter()
        .map(|m| {
            (
                m.is_complete(),
                m.is_torn_down(),
                m.is_unreachable(),
                m.latency().map(|l| l.as_ns()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn storms_account_for_every_message_and_leak_nothing(
        topo_seed in 0u64..200,
        rate_pct in 10u32..=30,
        bursts in 1usize..4,
        traffic_seed in 0u64..1000,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let out = storm_run(topo_seed, rate, bursts, traffic_seed);
        // Total accounting: a storm may kill worms, never the run.
        prop_assert!(out.error.is_none(), "run aborted: {:?}", out.error);
        prop_assert!(out.deadlock.is_none(), "deadlock: {:?}", out.deadlock);
        prop_assert!(out.all_accounted());
        let c = &out.counters;
        prop_assert_eq!(
            c.messages_completed + c.messages_torn_down + c.messages_unreachable,
            out.messages.len() as u64,
            "verdicts partition the message set"
        );
        // Epoch accounting sums to the same partition.
        let stats = out.epoch_stats();
        prop_assert_eq!(stats.iter().map(|s| s.submitted).sum::<u64>(), 24);
        prop_assert_eq!(
            stats.iter().map(|s| s.delivered).sum::<u64>(),
            c.messages_completed
        );
        prop_assert_eq!(
            stats.iter().map(|s| s.torn_down).sum::<u64>(),
            c.messages_torn_down
        );
        prop_assert_eq!(
            stats.iter().map(|s| s.unreachable).sum::<u64>(),
            c.messages_unreachable
        );
        // Every delivered message really reached every destination.
        for m in out.messages.iter().filter(|m| m.is_complete()) {
            prop_assert!(out.dest_times(m).iter().all(|d| d.is_some()));
        }
        // A torn-down or unreachable message never completed anywhere near
        // fully: its completion time must be absent.
        for m in out.messages.iter().filter(|m| m.failure.is_some()) {
            prop_assert!(m.completed_at.is_none());
        }
    }

    #[test]
    fn storm_runs_are_deterministic(
        topo_seed in 0u64..100,
        rate_pct in 10u32..=30,
        traffic_seed in 0u64..100,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let a = storm_run(topo_seed, rate, 2, traffic_seed);
        let b = storm_run(topo_seed, rate, 2, traffic_seed);
        prop_assert_eq!(verdicts(&a), verdicts(&b));
        prop_assert_eq!(a.counters, b.counters);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.fault_times, b.fault_times);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(blocked_storm_cases()))]

    #[test]
    fn storms_over_blocked_worms_match_the_reference_queue(
        topo_seed in 0u64..1000,
        rate_pct in 5u32..=12,
        traffic_seed in 0u64..1000,
    ) {
        let rate = rate_pct as f64 / 100.0;
        let lanes = blocked_storm_run(topo_seed, rate, traffic_seed, QueueKind::Bucket);
        prop_assert!(lanes.error.is_none(), "run aborted: {:?}", lanes.error);
        prop_assert!(lanes.deadlock.is_none(), "deadlock: {:?}", lanes.deadlock);
        prop_assert!(lanes.all_accounted());
        let heap = blocked_storm_run(topo_seed, rate, traffic_seed, QueueKind::Heap);
        prop_assert_eq!(verdicts(&lanes), verdicts(&heap));
        prop_assert_eq!(lanes.counters, heap.counters);
        prop_assert_eq!(lanes.channel_crossings, heap.channel_crossings);
    }
}

/// A pinned heavy-storm smoke test outside proptest, so the regime is
/// exercised even when `PROPTEST_CASES` is trimmed in CI.
#[test]
fn heavy_storm_smoke() {
    let out = storm_run(2024, 0.30, 3, 7);
    assert!(out.all_accounted(), "{:?} {:?}", out.error, out.deadlock);
    assert!(
        out.counters.messages_completed > 0,
        "survivors keep delivering through a 30% storm"
    );
    assert!(out.counters.links_killed > 0);
}
