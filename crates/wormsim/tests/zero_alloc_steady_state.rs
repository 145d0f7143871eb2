//! Steady-state allocation discipline: once a worm's segments are set up,
//! moving flits — replication, wire transfer, delivery — must not touch
//! the heap at all.
//!
//! Methodology: install a counting global allocator and run the *same*
//! scenario twice, varying only the message length. Every per-message and
//! per-segment cost (specs, segment setup, event-queue growth to its
//! steady capacity) is identical across the two runs; only the number of
//! body flits differs. If the per-flit path allocated anything, the longer
//! run would count more allocations — so the difference must be exactly
//! zero.
//!
//! This is a `harness = false` target: the libtest harness runs tests on
//! spawned threads and allocates on its own schedule, which used to force
//! a min-over-retries workaround. With the harness gone the process is
//! single-threaded and the allocator counter observes *only* the
//! simulation, so every pin below is an exact equality.

use desim::Duration;
use netgraph::gen::lattice::IrregularConfig;
use netgraph::{NodeId, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wormsim::routing::OracleRouting;
use wormsim::{
    CheckpointSink, MessageSpec, MetricsConfig, NetworkSim, QueueKind, SimConfig, SimOutcome,
};

/// The pins measure the default queue: constant-delay lanes, rings that
/// stop growing once they hold a run's peak of in-flight wires and
/// routing decisions. Pin it explicitly so the pins name the path they
/// measure.
fn cfg() -> SimConfig {
    SimConfig::paper().with_queue(QueueKind::Bucket)
}

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pass-through to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A chain `p_src - s0 - ... - s{k-1} - p_dst` plus one extra processor on
/// the middle switch (so a branching plan can fork there).
fn chain(k: usize) -> (Topology, Vec<NodeId>, NodeId, NodeId, NodeId) {
    let mut b = Topology::builder();
    let switches: Vec<NodeId> = (0..k).map(|_| b.add_switch()).collect();
    let src = b.add_processor();
    let dst = b.add_processor();
    let side = b.add_processor();
    for w in switches.windows(2) {
        b.link(w[0], w[1]).unwrap();
    }
    b.link(src, switches[0]).unwrap();
    b.link(dst, switches[k - 1]).unwrap();
    b.link(side, switches[k / 2]).unwrap();
    (b.build(), switches, src, dst, side)
}

fn run_unicast(len: u32) -> (SimOutcome, u64) {
    run_unicast_cfg(len, false)
}

fn run_unicast_cfg(len: u32, traced: bool) -> (SimOutcome, u64) {
    run_unicasts(6, len, 1, traced)
}

/// `copies` identical unicasts over `chain(hops)`, each generated 50 us
/// after the one before, so that each finds the network idle.
fn run_unicasts(hops: usize, len: u32, copies: u64, traced: bool) -> (SimOutcome, u64) {
    let (topo, switches, src, dst, _) = chain(hops);
    let mut oracle = OracleRouting::new(&topo);
    let mut path = vec![src];
    path.extend(&switches);
    path.push(dst);
    oracle.add_unicast_path(0, &path).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, cfg());
    if traced {
        sim.enable_trace();
    }
    for i in 0..copies {
        let at = desim::Time::from_us(50 * i);
        sim.submit(MessageSpec::unicast(src, dst, len).tag(0).at(at))
            .unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    (out, after - before)
}

fn run_branching(len: u32) -> (SimOutcome, u64) {
    run_branching_cfg(len, false)
}

fn run_branching_cfg(len: u32, traced: bool) -> (SimOutcome, u64) {
    let (topo, switches, src, dst, side) = chain(6);
    let mid = switches[3];
    let mut oracle = OracleRouting::new(&topo);
    // src -> s0 .. s3, then fork: one head continues to dst, the other
    // drops to the side processor — a two-output replication unit, the
    // path that used to clone its channel list per flit.
    let mut edges = vec![
        (switches[0], switches[1]),
        (switches[1], switches[2]),
        (switches[2], mid),
    ];
    edges.push((mid, switches[4]));
    edges.push((mid, side));
    edges.push((switches[4], switches[5]));
    edges.push((switches[5], dst));
    oracle.add_tree_edges(1, edges).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, cfg());
    if traced {
        sim.enable_trace();
    }
    sim.submit(MessageSpec::multicast(src, vec![dst, side], len).tag(1))
        .unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    (out, after - before)
}

fn body_flits_allocate_nothing() {
    // Warm up (first run pays one-time lazy init in the runtime).
    let _ = run_unicast(16);
    // Both measured runs are long enough to fully warm the event lanes'
    // capacities (a few microseconds of simulated time); past
    // that point the runs differ only in body-flit count, so any nonzero
    // delta is a per-flit allocation.
    let (short_out, short_allocs) = run_unicast(4096);
    let (long_out, long_allocs) = run_unicast(12288);
    let extra_flits = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert!(
        extra_flits >= 8000,
        "long run moved {extra_flits} extra flits"
    );
    assert_eq!(
        long_allocs,
        short_allocs,
        "per-flit hot path allocated: {} extra allocations over {} extra flits",
        long_allocs as i64 - short_allocs as i64,
        extra_flits
    );
}

fn hop_count_allocates_nothing() {
    // A worm strung out over more routers holds more segments at once. The
    // first worm of a run grows the engine's arenas to its footprint; the
    // second, identical one then costs what any message costs, whatever
    // its hop count: its segments sit in the engine's slab, which the first
    // worm already grew, and the message keeps no list of them.
    let second_worm = |hops| {
        let (_, one) = run_unicasts(hops, 64, 1, false);
        let (out, two) = run_unicasts(hops, 64, 2, false);
        (out.counters.acquisitions, two - one)
    };
    let _ = second_worm(6);
    let (short_hops, short_allocs) = second_worm(6);
    let (long_hops, long_allocs) = second_worm(24);
    assert!(long_hops > 3 * short_hops, "{long_hops} vs {short_hops}");
    assert_eq!(
        long_allocs, short_allocs,
        "a worm allocated by its hop count: {short_allocs} over chain(6), \
         {long_allocs} over chain(24)"
    );
}

fn repeated_runs_have_identical_alloc_counts() {
    // The exactness the harness-free process buys: the same simulation
    // allocates the same number of times, every time — no tolerance.
    let _ = run_unicast(512);
    let (_, a) = run_unicast(512);
    let (_, b) = run_unicast(512);
    let (_, c) = run_unicast(512);
    assert_eq!(a, b, "alloc count drifted across identical runs");
    assert_eq!(b, c, "alloc count drifted across identical runs");
}

fn branch_replication_allocates_nothing_per_flit() {
    let _ = run_branching(16);
    let (short_out, short_allocs) = run_branching(4096);
    let (long_out, long_allocs) = run_branching(12288);
    let extra_flits = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert!(
        extra_flits >= 16000,
        "long run moved {extra_flits} extra flits"
    );
    assert_eq!(
        long_allocs,
        short_allocs,
        "branching hot path allocated: {} extra allocations over {} extra flits",
        long_allocs as i64 - short_allocs as i64,
        extra_flits
    );
}

fn disabled_tracing_allocates_nothing_per_flit() {
    // The tracing layer is always compiled in; its disabled path must be
    // as free as not having it. Same long/short differencing as the base
    // pin — any per-flit (or per-header-crossing) cost in the `emit`
    // guard would show up here as a nonzero delta.
    let _ = run_unicast_cfg(16, false);
    let (short_out, short_allocs) = run_unicast_cfg(4096, false);
    let (long_out, long_allocs) = run_unicast_cfg(12288, false);
    let extra = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert_eq!(
        long_allocs, short_allocs,
        "disabled tracing allocated over {extra} extra flits"
    );
}

fn enabled_tracing_allocates_nothing_per_flit() {
    // Enabled tracing records per protocol *action* (request, acquire,
    // header arrival, delivery, release) — never per body flit. Long and
    // short runs share the exact same action sequence, so the recorded
    // events (and the InlineVec channel lists inside them, which stay
    // inline up to 4-way fanout) must cost identical allocation counts.
    let _ = run_unicast_cfg(16, true);
    let (short_out, short_allocs) = run_unicast_cfg(4096, true);
    let (long_out, long_allocs) = run_unicast_cfg(12288, true);
    assert!(!long_out.trace.events.is_empty(), "tracing was on");
    let extra = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert_eq!(
        long_allocs, short_allocs,
        "enabled tracing allocated per flit: over {extra} extra flits"
    );

    // Same property through a replication fork: the branching emit sites
    // build 2-wide channel lists, which InlineVec keeps off the heap.
    let _ = run_branching_cfg(16, true);
    let (_, short_b) = run_branching_cfg(4096, true);
    let (_, long_b) = run_branching_cfg(12288, true);
    assert_eq!(
        long_b, short_b,
        "traced branch replication allocated per flit"
    );
}

/// A deliberately tiny ring: both measured runs record far more samples
/// than 64, so the series *wraps* in both — proving the ring recycles
/// slots instead of growing. Any reallocation would show up as a
/// long-vs-short delta.
fn metrics_cfg() -> MetricsConfig {
    MetricsConfig::every_ns(100).with_capacity(64)
}

fn run_unicast_metered(len: u32, metered: bool) -> (SimOutcome, u64) {
    let (topo, switches, src, dst, _) = chain(6);
    let mut oracle = OracleRouting::new(&topo);
    let mut path = vec![src];
    path.extend(&switches);
    path.push(dst);
    oracle.add_unicast_path(0, &path).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, cfg());
    if metered {
        sim.enable_metrics(metrics_cfg());
    }
    sim.submit(MessageSpec::unicast(src, dst, len).tag(0))
        .unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    (out, after - before)
}

fn run_branching_metered(len: u32) -> (SimOutcome, u64) {
    let (topo, switches, src, dst, side) = chain(6);
    let mid = switches[3];
    let mut oracle = OracleRouting::new(&topo);
    let mut edges = vec![
        (switches[0], switches[1]),
        (switches[1], switches[2]),
        (switches[2], mid),
    ];
    edges.push((mid, switches[4]));
    edges.push((mid, side));
    edges.push((switches[4], switches[5]));
    edges.push((switches[5], dst));
    oracle.add_tree_edges(1, edges).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, cfg());
    sim.enable_metrics(metrics_cfg());
    sim.submit(MessageSpec::multicast(src, vec![dst, side], len).tag(1))
        .unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    (out, after - before)
}

fn disabled_metrics_allocates_nothing_per_flit() {
    // The telemetry hooks are always compiled into the engine; with
    // metrics off, every one is an `Option` check that must cost nothing
    // — no allocation, per flit or otherwise.
    let _ = run_unicast_metered(16, false);
    let (short_out, short_allocs) = run_unicast_metered(4096, false);
    let (long_out, long_allocs) = run_unicast_metered(12288, false);
    let extra = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert!(long_out.metrics.is_none(), "metrics were off");
    assert_eq!(
        long_allocs, short_allocs,
        "disabled telemetry allocated over {extra} extra flits"
    );
}

fn enabled_metrics_allocates_nothing_per_flit() {
    // Enabled telemetry preallocates everything at `enable_metrics`:
    // the gauge ring (which *wraps*, never grows — the 64-slot ring is
    // far smaller than the hundreds of samples each run records) and one
    // accumulator per channel. The long run samples ~3x as often and
    // moves ~3x the flits through the wire-busy / acquisition /
    // OCRQ-integral hooks; if any of that touched the heap, the counts
    // would differ.
    let _ = run_unicast_metered(16, true);
    let (short_out, short_allocs) = run_unicast_metered(4096, true);
    let (long_out, long_allocs) = run_unicast_metered(12288, true);
    let m = long_out.metrics.as_ref().expect("telemetry was on");
    assert_eq!(
        m.series.len(),
        metrics_cfg().capacity,
        "the ring should have wrapped (long run records 100s of samples)"
    );
    assert!(m.channels.iter().any(|a| a.busy_ns > 0));
    let extra = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert_eq!(
        long_allocs, short_allocs,
        "enabled telemetry allocated per flit/sample: over {extra} extra flits"
    );

    // Same property through a replication fork: per-flit wire billing on
    // two outputs at once, multi-channel acquisitions, OCRQ integrals.
    let _ = run_branching_metered(16);
    let (_, short_b) = run_branching_metered(4096);
    let (_, long_b) = run_branching_metered(12288);
    assert_eq!(
        long_b, short_b,
        "metered branch replication allocated per flit"
    );
}

fn run_unicast_checkpointed(len: u32) -> (SimOutcome, u64, usize) {
    let (topo, switches, src, dst, _) = chain(6);
    let mut oracle = OracleRouting::new(&topo);
    let mut path = vec![src];
    path.extend(&switches);
    path.push(dst);
    oracle.add_unicast_path(0, &path).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, cfg());
    let (sink, ledger) = CheckpointSink::digests();
    sim.enable_checkpoints(Duration::from_ns(5_000), sink);
    sim.submit(MessageSpec::unicast(src, dst, len).tag(0))
        .unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    let checkpoints = ledger.lock().map(|v| v.len()).unwrap_or(0);
    (out, after - before, checkpoints)
}

fn enabled_checkpointing_allocates_nothing_per_flit() {
    // Digest checkpointing is built to be steady-state alloc-free: the
    // `SnapWriter` buffer is preallocated and reused for every encode,
    // and the `Digests` ledger preallocates its slots. The long run both
    // moves ~3x the flits *and* fires ~3x the checkpoints — so this pin
    // is stronger than the others: not just zero per flit, zero per
    // checkpoint too.
    let _ = run_unicast_checkpointed(16);
    let (short_out, short_allocs, short_ckpts) = run_unicast_checkpointed(4096);
    let (long_out, long_allocs, long_ckpts) = run_unicast_checkpointed(12288);
    assert!(
        short_ckpts >= 2,
        "short run checkpointed {short_ckpts} times"
    );
    assert!(
        long_ckpts > short_ckpts,
        "long run should checkpoint more ({long_ckpts} vs {short_ckpts})"
    );
    let extra = long_out.counters.flits_delivered - short_out.counters.flits_delivered;
    assert_eq!(
        long_allocs,
        short_allocs,
        "digest checkpointing allocated: {} extra allocations over {} extra flits and {} extra checkpoints",
        long_allocs as i64 - short_allocs as i64,
        extra,
        long_ckpts - short_ckpts
    );
}

/// Allocations from `NetworkSim::new` through `run` of one unicast over
/// `chain(6)`, with or without `SimConfig::checkpoint_every_ns`.
fn count_unicast_run(cadence_ns: Option<u64>) -> (SimOutcome, u64) {
    let (topo, switches, src, dst, _) = chain(6);
    let mut oracle = OracleRouting::new(&topo);
    let mut path = vec![src];
    path.extend(&switches);
    path.push(dst);
    oracle.add_unicast_path(0, &path).unwrap();
    let cfg = match cadence_ns {
        Some(n) => cfg().with_checkpoint_every_ns(n),
        None => cfg(),
    };
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut sim = NetworkSim::new(&topo, oracle, cfg);
    sim.submit(MessageSpec::unicast(src, dst, 4096).tag(0))
        .unwrap();
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    (out, after - before)
}

fn a_cadence_without_a_sink_allocates_nothing() {
    // A cadence with no sink has nowhere to put a checkpoint, so it only
    // keeps its ticker: no writer buffer, no ledger, no encode. The run
    // below crosses ~8 ticks at 5 us.
    let _ = count_unicast_run(None);
    let (plain_out, plain) = count_unicast_run(None);
    let (cadenced_out, cadenced) = count_unicast_run(Some(5_000));
    assert_eq!(plain_out.counters, cadenced_out.counters);
    assert_eq!(
        cadenced,
        plain,
        "a sinkless cadence allocated {} times more than no cadence",
        cadenced as i64 - plain as i64
    );
}

fn construction_allocations_do_not_depend_on_channel_count() {
    // Channel queues are handles into engine-wide pools that start
    // empty, so `new` is a fixed handful of allocations (the channel
    // table, the death mask, the schedule) however many channels the
    // fabric has: the 16-switch and the 1024-switch lattice cost the
    // same count. Dropping the idle simulator frees exactly those.
    let count_new = |switches: usize| {
        let topo = IrregularConfig::with_switches(switches).generate(7);
        let oracle = OracleRouting::new(&topo);
        let before = ALLOCS.load(Ordering::Relaxed);
        let sim = NetworkSim::new(&topo, oracle, cfg());
        let after = ALLOCS.load(Ordering::Relaxed);
        drop(sim);
        (topo.num_channels(), after - before)
    };
    let (small_chans, small) = count_new(16);
    let (large_chans, large) = count_new(1024);
    assert!(large_chans > 50 * small_chans);
    assert_eq!(
        small, large,
        "construction allocated per channel: {small} at {small_chans} channels, \
         {large} at {large_chans}"
    );
    assert!(small <= 4, "construction allocated {small} times");
}

/// Two four-processor stars joined by one link. `second_round_on` picks
/// the star whose processors repeat, 100 us later, the three-way
/// contention for one consumption channel that star 0 opened with.
fn run_contended_rounds(second_round_on: usize) -> (SimOutcome, u64) {
    let mut b = Topology::builder();
    let hubs = [b.add_switch(), b.add_switch()];
    b.link(hubs[0], hubs[1]).unwrap();
    let procs: Vec<Vec<NodeId>> = hubs
        .iter()
        .map(|&hub| {
            (0..4)
                .map(|_| {
                    let p = b.add_processor();
                    b.link(p, hub).unwrap();
                    p
                })
                .collect()
        })
        .collect();
    let topo = b.build();
    let mut oracle = OracleRouting::new(&topo);
    let mut msgs = Vec::new();
    for (round, star) in [0, second_round_on].into_iter().enumerate() {
        for src in 0..3 {
            let tag = (round * 3 + src) as u64;
            let (from, to) = (procs[star][src], procs[star][3]);
            oracle
                .add_unicast_path(tag, &[from, hubs[star], to])
                .unwrap();
            let at = desim::Time::from_us(100 * round as u64);
            msgs.push(MessageSpec::unicast(from, to, 64).tag(tag).at(at));
        }
    }
    let mut sim = NetworkSim::new(&topo, oracle, cfg());
    for m in msgs {
        sim.submit(m).unwrap();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = sim.run();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    (out, after - before)
}

fn first_contention_on_a_channel_allocates_nothing() {
    // Round one grows the request and flit pools to what three worms
    // fighting over one consumption channel need. Round two is the same
    // fight, either on the same channels again or on eight channels no
    // worm has touched yet: with engine-wide pools the freed cells serve
    // both, so the two runs allocate exactly equally often. (A queue
    // per channel would pay for each first use in the fresh star.)
    let _ = run_contended_rounds(0);
    let (same_out, same) = run_contended_rounds(0);
    let (fresh_out, fresh) = run_contended_rounds(1);
    assert_eq!(same_out.counters.events, fresh_out.counters.events);
    assert!(
        fresh_out
            .channel_crossings
            .iter()
            .filter(|&&c| c > 0)
            .count()
            > same_out
                .channel_crossings
                .iter()
                .filter(|&&c| c > 0)
                .count()
    );
    assert_eq!(
        fresh, same,
        "first use of a channel's queues allocated: {fresh} vs {same}"
    );
}

fn seg_lookups_are_counted() {
    // The arena refactor's accounting hook: every event-path state lookup
    // (a hash probe before, an array index now) is counted.
    let (out, _) = run_unicast(128);
    assert!(
        out.counters.seg_lookups > out.counters.flits_delivered,
        "lookups ({}) should dominate delivered flits ({})",
        out.counters.seg_lookups,
        out.counters.flits_delivered
    );
    // Startup aside, sim time should be deterministic across runs.
    let (again, _) = run_unicast(128);
    assert_eq!(out.counters, again.counters);
}

fn main() {
    let checks: [(&str, fn()); 13] = [
        ("body_flits_allocate_nothing", body_flits_allocate_nothing),
        ("hop_count_allocates_nothing", hop_count_allocates_nothing),
        (
            "repeated_runs_have_identical_alloc_counts",
            repeated_runs_have_identical_alloc_counts,
        ),
        (
            "branch_replication_allocates_nothing_per_flit",
            branch_replication_allocates_nothing_per_flit,
        ),
        (
            "disabled_tracing_allocates_nothing_per_flit",
            disabled_tracing_allocates_nothing_per_flit,
        ),
        (
            "enabled_tracing_allocates_nothing_per_flit",
            enabled_tracing_allocates_nothing_per_flit,
        ),
        (
            "disabled_metrics_allocates_nothing_per_flit",
            disabled_metrics_allocates_nothing_per_flit,
        ),
        (
            "enabled_metrics_allocates_nothing_per_flit",
            enabled_metrics_allocates_nothing_per_flit,
        ),
        (
            "enabled_checkpointing_allocates_nothing_per_flit",
            enabled_checkpointing_allocates_nothing_per_flit,
        ),
        (
            "a_cadence_without_a_sink_allocates_nothing",
            a_cadence_without_a_sink_allocates_nothing,
        ),
        ("seg_lookups_are_counted", seg_lookups_are_counted),
        (
            "construction_allocations_do_not_depend_on_channel_count",
            construction_allocations_do_not_depend_on_channel_count,
        ),
        (
            "first_contention_on_a_channel_allocates_nothing",
            first_contention_on_a_channel_allocates_nothing,
        ),
    ];
    for (name, check) in checks {
        check();
        println!("zero_alloc_steady_state::{name} ... ok");
    }
}
