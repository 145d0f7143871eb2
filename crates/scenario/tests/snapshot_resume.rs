//! Scenario-level checkpoint/resume: for every routing arm, fault arm,
//! and completion hook a spec can describe, a run resumed from any
//! checkpoint finishes identically to its uninterrupted twin — under
//! both event-queue implementations — and broken snapshot bytes come
//! back as typed [`SpecError::Snapshot`] values, never panics.

use desim::QueueKind;
use spam_scenario::{
    bisect_divergence, outcome_digest, resume_once, run_once, run_once_checkpointed, ArrivalSpec,
    FaultModelSpec, FaultsSpec, RoutingSpec, ScenarioSpec, SpecError, TrafficSpec,
};

/// A small mixed workload that finishes in tens of microseconds.
fn mixed_traffic() -> TrafficSpec {
    TrafficSpec::Mixed {
        unicast_fraction: 0.75,
        multicast_dests: 4,
        rate_per_node_per_us: 0.2,
        len: 64,
        messages: 40,
        arrival: ArrivalSpec::Poisson,
    }
}

fn small(name: &str) -> ScenarioSpec {
    let mut s = ScenarioSpec::example(name);
    s.topology.switches = 16;
    s.topology.seed = 11;
    s.seed = 42;
    s.traffic = mixed_traffic();
    s
}

/// One spec per (routing arm × hook × fault arm) combination the
/// runner distinguishes.
fn arm_specs() -> Vec<ScenarioSpec> {
    let spam_open = small("spam-open");

    let mut updown = small("updown-open");
    updown.routing = RoutingSpec::UpDownUnicast;
    updown.traffic = TrafficSpec::Hotspot {
        hot_nodes: 2,
        hot_fraction: 0.6,
        rate_per_node_per_us: 0.2,
        len: 48,
        messages: 30,
        arrival: ArrivalSpec::Poisson,
    };

    let mut closed = small("spam-closed-loop");
    closed.traffic = TrafficSpec::ClosedLoop {
        window: 2,
        messages_per_source: 3,
        len: 32,
        think_ns: 500,
    };

    let mut software = small("software-multicast");
    software.routing = RoutingSpec::SoftwareMulticast;

    let mut static_faults = small("spam-static-faults");
    static_faults.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidLinks { rate: 0.1 },
        seed: 7,
    };

    let mut storm = small("spam-storm");
    storm.faults = FaultsSpec::Storm {
        model: FaultModelSpec::IidLinks { rate: 0.15 },
        seed: 9,
        window_start_us: 5,
        window_end_us: 40,
        bursts: 2,
    };

    // The storm again with both recorders on: their state rides in the
    // snapshot too, and `outcome_digest` sees only the trace's length.
    let mut observed = storm.clone();
    observed.name = "spam-storm-observed".into();
    observed.engine.trace = true;
    observed.engine.metrics_every_ns = Some(1_000);

    vec![
        spam_open,
        updown,
        closed,
        software,
        static_faults,
        storm,
        observed,
    ]
}

#[test]
fn every_arm_resumes_identically_from_every_checkpoint() {
    for spec in arm_specs() {
        let baseline = run_once(&spec, 0, None).expect("baseline run");
        let golden = run_once_checkpointed(&spec, 0, None, 5_000).expect("checkpointed run");
        let want = outcome_digest(&baseline);
        assert_eq!(
            want,
            outcome_digest(&golden.outcome),
            "[{}] checkpointing perturbed the run",
            spec.name
        );
        assert!(
            !golden.checkpoints.is_empty(),
            "[{}] a 5us cadence must checkpoint at least once",
            spec.name
        );
        for (at_ns, bytes) in &golden.checkpoints {
            for queue in [QueueKind::Bucket, QueueKind::Heap] {
                let resumed = resume_once(&spec, 0, Some(queue), bytes).unwrap_or_else(|e| {
                    panic!("[{}] resume at {at_ns}ns under {queue:?}: {e}", spec.name)
                });
                assert_eq!(
                    want,
                    outcome_digest(&resumed),
                    "[{}] resume at {at_ns}ns under {queue:?} diverged",
                    spec.name
                );
                // What the recorders report must survive the round trip
                // event for event and sample for sample, under either
                // queue (`assert!`, not `assert_eq!`: a mismatch should
                // not print both records).
                assert!(
                    resumed.trace == baseline.trace,
                    "[{}] trace differs after resuming at {at_ns}ns under {queue:?}",
                    spec.name
                );
                assert!(
                    resumed.metrics == baseline.metrics,
                    "[{}] telemetry differs after resuming at {at_ns}ns under {queue:?}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn broken_snapshot_bytes_are_typed_spec_errors() {
    let spec = small("corruption");
    let golden = run_once_checkpointed(&spec, 0, None, 5_000).expect("checkpointed run");
    let bytes = &golden.checkpoints[golden.checkpoints.len() / 2].1;

    // Truncated, flipped, and garbage bytes all surface as Snapshot.
    for broken in [&bytes[..bytes.len() / 2], &[][..], b"not a snapshot"] {
        match resume_once(&spec, 0, None, broken) {
            Err(e) => assert_eq!(e.variant_name(), "Snapshot", "got {e:?}"),
            Ok(_) => panic!("broken snapshot bytes resumed"),
        }
    }

    // A spec that describes a different run is rejected the same way:
    // the engine's config/topology fingerprints no longer match.
    let mut other = spec.clone();
    other.topology.seed = 1234;
    match resume_once(&other, 0, None, bytes) {
        Err(e) => assert_eq!(e.variant_name(), "Snapshot", "got {e:?}"),
        Ok(_) => panic!("snapshot restored onto a different topology"),
    }
}

#[test]
fn zero_cadence_is_rejected_up_front() {
    let spec = small("zero-cadence");
    assert!(matches!(
        run_once_checkpointed(&spec, 0, None, 0),
        Err(SpecError::ZeroCheckpointCadence)
    ));
}

#[test]
fn bisector_reports_no_divergence_for_identical_runs() {
    let spec = small("bisect-identical");
    // Bucket vs heap is the golden invariant: same outcomes.
    let mut candidate = spec.clone();
    candidate.engine.queue = Some(spam_scenario::QueueSpec::Heap);
    let report = bisect_divergence(&spec, &candidate, 0, 5_000).expect("bisect");
    assert!(report.is_none(), "queue kinds must not diverge: {report:?}");
}

#[test]
fn bisector_localizes_a_real_divergence() {
    // A different traffic seed diverges from the very first injection,
    // so the bisection must pin the window before the first checkpoint
    // and name a first differing trace event.
    let spec = small("bisect-reference");
    let mut candidate = spec.clone();
    candidate.seed = 4242;
    let report = bisect_divergence(&spec, &candidate, 0, 5_000)
        .expect("bisect")
        .expect("different workloads must diverge");
    assert_ne!(report.reference_digest, report.candidate_digest);
    assert!(report.checkpoints >= 1);
    assert_eq!(
        report.window_start_ns, 0,
        "divergence starts at injection time: {report:?}"
    );
    assert!(
        report.window_end_ns.is_some(),
        "resuming past the divergence must reconverge: {report:?}"
    );
    let ev = report.first_event.expect("both runs traced");
    assert!(ev.reference.is_some() || ev.candidate.is_some());
}
