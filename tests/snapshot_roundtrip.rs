//! Snapshot round-trip over the committed golden corpus: every
//! `scenarios/*.scenario.json` file, checkpointed mid-run, resumes to a
//! byte-identical outcome digest under **both** event-queue
//! implementations — plus a kill-and-resume drill through the on-disk
//! crash journal ([`CheckpointSink::File`]).

use spam_net::prelude::*;
use std::path::Path;

#[test]
fn every_committed_scenario_resumes_identically_under_both_queues() {
    let corpus = spam_net::scenario::load_dir(Path::new("scenarios")).expect("corpus loads");
    assert!(
        corpus.len() >= 14,
        "the committed corpus shrank to {} scenarios",
        corpus.len()
    );
    for (path, mut spec) in corpus {
        spec.quicken();
        let name = path.display();
        let baseline = run_scenario_once(&spec, 0, Some(QueueKind::Bucket))
            .unwrap_or_else(|e| panic!("[{name}] baseline: {e}"));
        let want = outcome_digest(&baseline);

        // Quarter-run cadence: a handful of checkpoints per scenario.
        let every_ns = (baseline.end_time.as_ns() / 4).max(1);
        let golden = run_once_checkpointed(&spec, 0, Some(QueueKind::Bucket), every_ns)
            .unwrap_or_else(|e| panic!("[{name}] checkpointed run: {e}"));
        assert_eq!(
            want,
            outcome_digest(&golden.outcome),
            "[{name}] checkpointing perturbed the run"
        );
        assert!(
            !golden.checkpoints.is_empty(),
            "[{name}] quarter-run cadence produced no checkpoints"
        );
        for (at_ns, bytes) in &golden.checkpoints {
            for queue in [QueueKind::Bucket, QueueKind::Heap] {
                let resumed = resume_once(&spec, 0, Some(queue), bytes)
                    .unwrap_or_else(|e| panic!("[{name}] resume at {at_ns}ns ({queue:?}): {e}"));
                assert_eq!(
                    want,
                    outcome_digest(&resumed),
                    "[{name}] resume at {at_ns}ns under {queue:?} diverged"
                );
            }
        }
    }
}

/// A crash drill through the on-disk journal: a run checkpoints into a
/// `CheckpointSink::File`; the process "dies" (we simply stop using the
/// live simulator); a fresh process restores the journal file and runs
/// to completion with the uninterrupted run's exact outcome. Also pins
/// the atomicity contract — no stale `.tmp` sibling survives.
#[test]
fn kill_and_resume_from_the_disk_journal_matches_uninterrupted_run() {
    let topo = IrregularConfig::with_switches(24).generate(5);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let stream = MixedTrafficConfig::figure3(0.1, 4, 60)
        .generate(&topo, 5)
        .expect("workload fits");
    let fresh = || {
        let mut sim = NetworkSim::new(&topo, SpamRouting::new(&topo, &ud), SimConfig::paper());
        for m in stream.iter().cloned() {
            sim.submit(m).expect("generated for this topology");
        }
        sim
    };

    let uninterrupted = fresh().run();
    assert!(uninterrupted.all_delivered());
    let want = outcome_digest(&uninterrupted);

    let dir = std::env::temp_dir().join("spam_net_kill_resume_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("crash.snap");

    // The "doomed" process: checkpoints to disk, then is abandoned.
    let mut doomed = fresh();
    doomed.enable_checkpoints(
        Duration::from_ns((uninterrupted.end_time.as_ns() / 3).max(1)),
        CheckpointSink::File(journal.clone()),
    );
    doomed.run();

    // The journal holds the last atomically renamed snapshot; its
    // `.tmp` sibling must not survive a completed write.
    let bytes = std::fs::read(&journal).expect("journal file exists after the crash");
    assert!(
        !journal.with_extension("snap.tmp").exists(),
        "atomic rename left a .tmp sibling"
    );

    // The "recovery" process: restore from disk and finish the run.
    let resumed = NetworkSim::restore(
        &topo,
        SpamRouting::new(&topo, &ud),
        SimConfig::paper(),
        &bytes,
    )
    .expect("journal restores")
    .run();
    assert_eq!(want, outcome_digest(&resumed), "recovered run diverged");

    // Corrupting the journal on disk fails typed, never panics.
    let mut broken = bytes.clone();
    let mid = broken.len() / 2;
    broken[mid] ^= 0x40;
    assert!(matches!(
        NetworkSim::restore(
            &topo,
            SpamRouting::new(&topo, &ud),
            SimConfig::paper(),
            &broken
        ),
        Err(SnapshotError::ChecksumMismatch { .. } | SnapshotError::Corrupt(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// The three small specs the byte-format pins checkpoint: a storm, a
/// closed loop (hook state) and a statically degraded open loop — each
/// with tracing and telemetry on so every section of the container is
/// non-empty.
fn format_pin_specs() -> [ScenarioSpec; 3] {
    use spam_net::scenario::{ArrivalSpec, FaultModelSpec};
    let small = |name: &str| {
        let mut s = ScenarioSpec::example(name);
        s.topology.switches = 16;
        s.topology.seed = 11;
        s.seed = 42;
        s.traffic = TrafficSpec::Mixed {
            unicast_fraction: 0.75,
            multicast_dests: 4,
            rate_per_node_per_us: 0.2,
            len: 64,
            messages: 40,
            arrival: ArrivalSpec::Poisson,
        };
        s.engine.trace = true;
        s.engine.metrics_every_ns = Some(1_000);
        s
    };
    let mut storm = small("format-storm");
    storm.faults = FaultsSpec::Storm {
        model: FaultModelSpec::IidLinks { rate: 0.15 },
        seed: 9,
        window_start_us: 5,
        window_end_us: 40,
        bursts: 2,
    };
    let mut closed = small("format-closed-loop");
    closed.traffic = TrafficSpec::ClosedLoop {
        window: 2,
        messages_per_source: 3,
        len: 32,
        think_ns: 500,
    };
    let mut degraded = small("format-static-faults");
    degraded.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidLinks { rate: 0.1 },
        seed: 7,
    };
    [storm, closed, degraded]
}

/// The first two checkpoints of `spec` under `queue`, taken at 12 and
/// 24 us. The first is past the 10 us startup, so worms are mid-flight and
/// the trace, the gauge ring and the channel scoreboard all hold data. The
/// second follows the storm's first burst (about 16.7 us), so it holds the
/// slots teardown freed and handed out again, and the statically degraded
/// run's SPAM headers.
fn pinned_checkpoints(spec: &ScenarioSpec, queue: Option<QueueKind>) -> [(u64, Vec<u8>); 2] {
    let run = run_once_checkpointed(spec, 0, queue, 12_000).expect("checkpointed run");
    assert!(!run.outcome.trace.events.is_empty(), "[{}]", spec.name);
    let mut checkpoints = run.checkpoints.into_iter();
    let mut next = || checkpoints.next().expect("checkpoints at 12 and 24 us");
    [next(), next()]
}

/// The snapshot byte format, pinned: FNV-1a of the first two checkpoints
/// of each [`format_pin_specs`] spec. A change to the layout must come
/// with a `spam_snapshot::FORMAT_VERSION` bump; a change to what the
/// engine does before a checkpoint (the order teardown frees slots in, a
/// header's encoding) moves the second pin without one.
#[test]
fn snapshot_bytes_are_pinned_for_format_version_5() {
    assert_eq!(spam_snapshot::FORMAT_VERSION, 5);
    let [storm, closed, degraded] = format_pin_specs();
    for (spec, wants) in [
        (storm, [0x8437_ff86_52f3_5318_u64, 0xab14_8842_7204_3e00]),
        (closed, [0x5eaf_38c1_d246_fa11, 0x1ac2_c254_7f79_58f7]),
        (degraded, [0x064c_b2ae_4583_ffe2, 0x8244_6080_55b2_afa4]),
    ] {
        for ((at_ns, bytes), want) in pinned_checkpoints(&spec, None).iter().zip(wants) {
            let got = spam_net::wormsim::fnv1a(bytes);
            assert_eq!(
                got,
                want,
                "[{}] checkpoint at {at_ns} ns ({} bytes) no longer encodes to the pinned bytes \
                 (got {got:#018x})",
                spec.name,
                bytes.len(),
            );
        }
    }
}

/// A snapshot is a function of the simulation, not of the event queue
/// that ran it: pending events are written in `seq` order.
#[test]
fn first_checkpoints_are_byte_identical_under_both_queues() {
    for spec in format_pin_specs() {
        let heap = pinned_checkpoints(&spec, Some(QueueKind::Heap));
        let bucket = pinned_checkpoints(&spec, Some(QueueKind::Bucket));
        assert!(
            heap == bucket,
            "[{}] checkpoint bytes depend on the queue",
            spec.name
        );
    }
}
