//! Engine-level checkpoint/resume tests: checkpointing is a pure
//! observer, a resumed run finishes byte-identically to an
//! uninterrupted one from *every* checkpoint, digest ledgers align
//! after the resume point, and corrupt or mismatched snapshots fail
//! with typed errors instead of panics.

use desim::{Duration, QueueKind, Time};
use netgraph::{NodeId, Topology};
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use wormsim::routing::OracleRouting;
use wormsim::{
    CheckpointSink, MessageSpec, MetricsConfig, NetworkSim, SimConfig, SimOutcome, SnapshotError,
};

/// s0 - s1 - s2 chain with processors p0,p1 @ s0, p2 @ s1, p3 @ s2.
/// Three overlapping messages (one branching multicast, two unicasts,
/// one against the grain) keep worms, OCRQ entries, and in-flight flits
/// live across checkpoint instants.
fn build_topo() -> (Topology, [NodeId; 7]) {
    let mut b = Topology::builder();
    let s0 = b.add_switch();
    let s1 = b.add_switch();
    let s2 = b.add_switch();
    let p0 = b.add_processor();
    let p1 = b.add_processor();
    let p2 = b.add_processor();
    let p3 = b.add_processor();
    b.link(s0, s1).unwrap();
    b.link(s1, s2).unwrap();
    b.link(p0, s0).unwrap();
    b.link(p1, s0).unwrap();
    b.link(p2, s1).unwrap();
    b.link(p3, s2).unwrap();
    (b.build(), [s0, s1, s2, p0, p1, p2, p3])
}

fn build_oracle(topo: &Topology, n: &[NodeId; 7]) -> OracleRouting {
    let [s0, s1, s2, p0, p1, p3, ..] = *n;
    let p3n = n[6];
    let mut o = OracleRouting::new(topo);
    // tag 0: multicast p0 -> {p2, p3}, branching at s1.
    o.add_tree_edges(0, [(s0, s1), (s1, n[5]), (s1, s2), (s2, p3n)])
        .unwrap();
    // tag 1: unicast p1 -> p3, contending for s0->s1->s2.
    o.add_unicast_path(1, &[p1, s0, s1, s2, p3n]).unwrap();
    // tag 2: unicast p3 -> p0, against the grain.
    o.add_unicast_path(2, &[p3n, s2, s1, s0, p0]).unwrap();
    let _ = (p3, p0);
    o
}

fn submit_workload(sim: &mut NetworkSim<OracleRouting>, n: &[NodeId; 7], gen_ns: [u64; 3]) {
    let [_, _, _, p0, p1, _, p3] = *n;
    let p2 = n[5];
    let specs = [
        MessageSpec::multicast(p0, vec![p2, p3], 96),
        MessageSpec::unicast(p1, p3, 64),
        MessageSpec::unicast(p3, p0, 48),
    ];
    for ((spec, tag), at) in specs.into_iter().zip(0..).zip(gen_ns) {
        sim.submit(spec.tag(tag).at(Time::from_ns(at))).unwrap();
    }
}

fn fresh_sim<'a>(
    topo: &'a Topology,
    n: &[NodeId; 7],
    cfg: SimConfig,
) -> NetworkSim<'a, OracleRouting> {
    fresh_sim_at(topo, n, cfg, [0, 2_000, 5_000])
}

/// Trace and telemetry on, the three messages generated at `gen_ns`.
fn fresh_sim_at<'a>(
    topo: &'a Topology,
    n: &[NodeId; 7],
    cfg: SimConfig,
    gen_ns: [u64; 3],
) -> NetworkSim<'a, OracleRouting> {
    let mut sim = NetworkSim::new(topo, build_oracle(topo, n), cfg);
    sim.enable_trace();
    sim.enable_metrics(MetricsConfig {
        sample_every: Duration::from_ns(700),
        capacity: 64,
    });
    submit_workload(&mut sim, n, gen_ns);
    sim
}

/// Full-outcome equality, the recorders' output included: nothing a run
/// reports depends on the event-queue kind.
fn assert_same_outcome(a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.quiescent, b.quiescent);
    assert_eq!(a.deadlock, b.deadlock);
    assert_eq!(a.error, b.error);
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.channel_crossings, b.channel_crossings);
    assert_eq!(a.fault_times, b.fault_times);
    assert_eq!(a.trace.events, b.trace.events);
    assert_eq!(a.messages.len(), b.messages.len());
    for (x, y) in a.messages.iter().zip(&b.messages) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(x.completed_at, y.completed_at);
        assert_eq!(x.dest_done_at, y.dest_done_at);
        assert_eq!(x.failure, y.failure);
    }
    let (ma, mb) = (a.metrics.as_ref().unwrap(), b.metrics.as_ref().unwrap());
    assert_eq!(ma.sample_every_ns, mb.sample_every_ns);
    assert_eq!(ma.channels, mb.channels);
    assert_eq!(ma.series, mb.series);
}

#[test]
fn checkpointing_is_a_pure_observer() {
    let (topo, n) = build_topo();
    let baseline = fresh_sim(&topo, &n, SimConfig::paper()).run();
    assert!(baseline.all_delivered(), "workload must deliver cleanly");

    let cfg = SimConfig::paper().with_checkpoint_every_ns(500);
    let mut sim = fresh_sim(&topo, &n, cfg);
    let (sink, digests) = CheckpointSink::digests();
    sim.set_checkpoint_sink(sink);
    let out = sim.run();
    assert_same_outcome(&baseline, &out);
    let digests = digests.lock().unwrap();
    // Ticks landing between two events collapse into one encode (state
    // is constant there), so the count is bounded by event density, not
    // wall cadence — but several distinct instants must still appear.
    assert!(
        digests.len() >= 5,
        "a 500ns cadence over a >10us run must checkpoint repeatedly, got {}",
        digests.len()
    );
    // Ledger times are strictly increasing multiples of the cadence.
    for w in digests.windows(2) {
        assert!(w[0].0 < w[1].0);
    }
}

#[test]
fn resume_from_every_checkpoint_matches_uninterrupted_run() {
    let (topo, n) = build_topo();
    let base_cfg = SimConfig::paper().with_queue(QueueKind::Bucket);
    let baseline = fresh_sim(&topo, &n, base_cfg).run();

    let mut sim = fresh_sim(&topo, &n, base_cfg);
    let (sink, kept) = CheckpointSink::keep_all();
    sim.enable_checkpoints(Duration::from_ns(1_000), sink);
    assert_same_outcome(&baseline, &sim.run());

    let kept = kept.lock().unwrap();
    assert!(
        kept.len() >= 3,
        "expected several checkpoints, got {}",
        kept.len()
    );
    for (at_ns, bytes) in kept.iter() {
        // Resume under both queue kinds: pop order is pinned by
        // (time, seq) keys, so the queue implementation is free.
        for kind in [QueueKind::Bucket, QueueKind::Heap] {
            let cfg = SimConfig::paper().with_queue(kind);
            let sim = NetworkSim::restore(&topo, build_oracle(&topo, &n), cfg, bytes)
                .unwrap_or_else(|e| panic!("restore at {at_ns}ns failed: {e}"));
            assert_same_outcome(&baseline, &sim.run());
        }
    }
}

/// Ledger alignment, twice: over the plain workload, and with the
/// s0 - s1 link cut at 12.6 us, mid-flight, under a 500 ns cadence. The
/// second run resumes from the last checkpoint before the cut, so two
/// worms are torn down in the resumed suffix: their segment slots must
/// be freed in the same order as in the original run, or every later
/// checkpoint writes a different slab.
#[test]
fn digest_ledgers_align_after_resume() {
    let (topo, n) = build_topo();
    for (link_down, every_ns) in [(None, 1_000), (Some(Time::from_ns(12_600)), 500)] {
        let sim = || {
            let mut sim = fresh_sim(&topo, &n, SimConfig::paper());
            if let Some(at) = link_down {
                sim.schedule_link_down(at, netgraph::ChannelId(0));
            }
            sim
        };
        let mut original = sim();
        let (sink, kept) = CheckpointSink::keep_all();
        original.enable_checkpoints(Duration::from_ns(every_ns), sink);
        let out = original.run();
        assert_eq!(out.counters.messages_torn_down > 0, link_down.is_some());
        let kept = kept.lock().unwrap();
        let full_ledger: Vec<(u64, u64)> = kept
            .iter()
            .map(|(at, bytes)| (*at, spam_snapshot::fnv1a(bytes)))
            .collect();

        // Resume from a middle checkpoint, or the last one before the
        // cut, under either queue; its own ledger must equal the
        // original's suffix strictly after the resume instant.
        let (mid_at, mid_bytes) = match link_down {
            None => &kept[kept.len() / 2],
            Some(at) => kept.iter().rfind(|(t, _)| *t < at.as_ns()).unwrap(),
        };
        let suffix: Vec<(u64, u64)> = full_ledger
            .iter()
            .copied()
            .filter(|(at, _)| at > mid_at)
            .collect();
        assert!(!suffix.is_empty());
        for kind in [QueueKind::Bucket, QueueKind::Heap] {
            let cfg = SimConfig::paper().with_queue(kind);
            let mut resumed =
                NetworkSim::restore(&topo, build_oracle(&topo, &n), cfg, mid_bytes).unwrap();
            let (sink, digests) = CheckpointSink::digests();
            resumed.set_checkpoint_sink(sink);
            resumed.run();
            let ledger = digests.lock().unwrap();
            assert_eq!(*ledger, suffix, "link down at {link_down:?}, {kind:?}");
        }
    }
}

#[test]
fn corrupt_snapshots_fail_typed_never_panic() {
    let (topo, n) = build_topo();
    let mut sim = fresh_sim(&topo, &n, SimConfig::paper());
    let (sink, kept) = CheckpointSink::keep_all();
    sim.enable_checkpoints(Duration::from_ns(2_000), sink);
    sim.run();
    let kept = kept.lock().unwrap();
    let bytes = kept[kept.len() / 2].1.clone();

    // Every truncation length fails typed.
    for len in 0..bytes.len().min(64) {
        assert!(
            NetworkSim::restore(
                &topo,
                build_oracle(&topo, &n),
                SimConfig::paper(),
                &bytes[..len]
            )
            .is_err(),
            "truncated snapshot (len {len}) must not restore"
        );
    }
    assert!(NetworkSim::restore(
        &topo,
        build_oracle(&topo, &n),
        SimConfig::paper(),
        &bytes[..bytes.len() - 3],
    )
    .is_err());

    // Single-bit flips across the whole snapshot fail typed. This is
    // container integrity only: the checksum trailer catches every
    // payload flip before a section is decoded (and a flip in the
    // trailer itself is a ChecksumMismatch), so no structural decoder
    // is reached — the re-sealed sweep below covers those.
    for i in (0..bytes.len()).step_by(7) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 1 << (i % 8);
        assert!(
            NetworkSim::restore(&topo, build_oracle(&topo, &n), SimConfig::paper(), &flipped)
                .is_err(),
            "bit flip at byte {i} must not restore"
        );
    }
}

/// Runs `f` with panics caught and their default stderr report
/// silenced on this thread only; a panic comes back as its message.
fn quietly<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    thread_local! { static QUIET: Cell<bool> = const { Cell::new(false) }; }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                default(info);
            }
        }));
    });
    QUIET.set(true);
    let caught = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.set(false);
    caught.map_err(|p| match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("").to_string(),
    })
}

/// `bytes` with one bit flipped and the FNV trailer recomputed over
/// `[0, len - 8)`, so the container accepts it and the flip reaches
/// whichever structural decoder owns that byte.
fn resealed(bytes: &[u8], byte: usize, bit: u8) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[byte] ^= 1 << bit;
    let body = b.len() - 8;
    let sum = spam_snapshot::fnv1a(&b[..body]);
    b[body..].copy_from_slice(&sum.to_le_bytes());
    b
}

/// Event cap of the re-sealed sweep: far above the workload's own event
/// count, far below the hours `SimConfig::paper()`'s `u64::MAX` allows a
/// worm that never ends.
const SWEEP_EVENT_CAP: u64 = 100_000;

/// Panic messages no accepted snapshot may reach: each names an index
/// `restore` rebuilds from primary state, or a slab handle its index
/// pass checks.
const REBUILT_INVARIANTS: [&str; 4] = [
    "c.wire_busy",
    "subtract with overflow",
    "header handle live",
    "header state travels with the worm",
];

/// `msg` with every digit dropped, so panics of one kind count as one.
fn panic_class(msg: &str) -> String {
    msg.chars().filter(|c| !c.is_ascii_digit()).collect()
}

/// Re-sealed flips reach the structural decoders. `restore` must answer
/// every one with `Ok` or a typed error; what it accepts must then run
/// without indexing outside the fabric or the message table and without
/// spinning to the event cap, and without tripping an assert on an index
/// `restore` rebuilds ([`REBUILT_INVARIANTS`]). A flip that builds some
/// other state this run never reached (a flit in a buffer it never
/// entered, a header at the wrong router) can still panic in `run`:
/// those are counted by class and printed, not hidden — ROADMAP item
/// 2b's byte mutator starts from that histogram.
#[test]
fn resealed_bit_flips_never_panic_restore_nor_index_out_of_the_fabric() {
    let (topo, n) = build_topo();
    // A finite event cap, on the recording and the restoring side alike
    // (it is one of the configuration words a snapshot is compared on),
    // and a watchdog short enough that a worm a flip has stalled is
    // reported as a deadlock some 5 000 bubble events later: only a worm
    // that keeps delivering can reach the cap.
    let cfg = SimConfig {
        max_events: SWEEP_EVENT_CAP,
        ..SimConfig::paper().with_watchdog(Duration::from_us(50))
    };
    // All three worms leave their sources at 10 us and contend from
    // there; the snapshot is the first one past that instant, so no
    // `SourceReady` is pending in it. (One whose time a flip moved far
    // ahead would be a legitimate schedule, and with every worm done the
    // watchdog is off, so the sampler and the checkpointer would walk to
    // it tick by tick: minutes to centuries that no event cap bounds.
    // That is a property of the tickers, not of `restore`.)
    let mut sim = fresh_sim_at(&topo, &n, cfg, [0, 0, 0]);
    let (sink, kept) = CheckpointSink::keep_all();
    sim.enable_checkpoints(Duration::from_ns(500), sink);
    assert!(sim.run().counters.events < SWEEP_EVENT_CAP / 4);
    let kept = kept.lock().unwrap();
    let (_, bytes) = kept.iter().find(|(at_ns, _)| *at_ns > 10_500).unwrap();

    let (mut typed, mut accepted) = (0u32, 0u32);
    let (mut out_of_range, mut capped, mut invariant) = (0u32, 0u32, 0u32);
    let mut classes = std::collections::BTreeMap::<String, u32>::new();
    // Magic and version are the container's; everything between them
    // and the trailer is section payload.
    for byte in 12..bytes.len() - 8 {
        for bit in [0, 3, 7] {
            let flipped = resealed(bytes, byte, bit);
            let restored =
                quietly(|| NetworkSim::restore(&topo, build_oracle(&topo, &n), cfg, &flipped))
                    .unwrap_or_else(|msg| {
                        panic!("restore panicked at byte {byte} bit {bit}: {msg}")
                    });
            let Ok(sim) = restored else {
                typed += 1;
                continue;
            };
            accepted += 1;
            match quietly(|| sim.run()) {
                Ok(out) if out.counters.events >= SWEEP_EVENT_CAP => capped += 1,
                Ok(_) => {}
                Err(msg) if msg.contains("index out of bounds") => out_of_range += 1,
                Err(msg) => {
                    invariant += 1;
                    *classes.entry(panic_class(&msg)).or_default() += 1;
                }
            }
        }
    }
    println!(
        "re-sealed sweep over {} bytes: {typed} typed errors, {accepted} accepted; of those \
         {out_of_range} indexed out of bounds, {capped} ran to the event cap, \
         {invariant} panicked on a cross-structure invariant",
        bytes.len()
    );
    for (class, count) in &classes {
        println!("{count:>6}  {class}");
    }
    assert!(typed > 0 && accepted > 0);
    for class in classes.keys() {
        assert!(
            !REBUILT_INVARIANTS.iter().any(|i| class.contains(i)),
            "an accepted snapshot broke a rebuilt index: {class}"
        );
    }
    assert_eq!(out_of_range, 0, "an id outside the fabric must be Corrupt");
    assert_eq!(
        capped, 0,
        "a length that disagrees with its message must be Corrupt"
    );
}

#[test]
fn restore_rejects_mismatched_config_and_topology() {
    let (topo, n) = build_topo();
    let mut sim = fresh_sim(&topo, &n, SimConfig::paper());
    let (sink, kept) = CheckpointSink::keep_all();
    sim.enable_checkpoints(Duration::from_ns(2_000), sink);
    sim.run();
    let kept = kept.lock().unwrap();
    let bytes = &kept[0].1;

    let skewed = SimConfig {
        input_buffer_flits: 2,
        ..SimConfig::paper()
    };
    assert!(matches!(
        NetworkSim::restore(&topo, build_oracle(&topo, &n), skewed, bytes),
        Err(SnapshotError::ConfigMismatch("input buffer depth"))
    ));

    let (other_topo, on) = {
        let mut b = Topology::builder();
        let s0 = b.add_switch();
        let p0 = b.add_processor();
        let p1 = b.add_processor();
        b.link(p0, s0).unwrap();
        b.link(p1, s0).unwrap();
        (b.build(), [s0, s0, s0, p0, p0, p0, p1])
    };
    let _ = on;
    assert!(matches!(
        NetworkSim::restore(
            &other_topo,
            OracleRouting::new(&other_topo),
            SimConfig::paper(),
            bytes
        ),
        Err(SnapshotError::ConfigMismatch(
            "topology differs from the snapshot's"
        ))
    ));
}

#[test]
fn config_cadence_auto_enables_checkpointing() {
    // `SimConfig::checkpoint_every_ns` alone turns checkpointing on (the
    // scenario axis path); the default sink is a digest ledger, reachable
    // by swapping in one we hold.
    let (topo, n) = build_topo();
    let cfg = SimConfig::paper().with_checkpoint_every_ns(1_000);
    let mut sim = fresh_sim(&topo, &n, cfg);
    let (sink, digests) = CheckpointSink::digests();
    sim.set_checkpoint_sink(sink);
    sim.run();
    assert!(!digests.lock().unwrap().is_empty());
}
