//! Round-trip validation of the Perfetto exporter: the emitted bytes
//! parse as a valid length-delimited `TracePacket` stream, every packet
//! decodes, slices balance per track, and the committed example artifact
//! under `results/` stays decodable.

use spam_scenario::{
    run_with_artifacts, ArtifactPrefix, EngineSpec, FaultsSpec, PolicySpec, RoutingSpec,
    ScenarioSpec, StrategySpec, TopologySpec, TrafficSpec,
};
use spam_trace::proto::{decode_fields, decode_packets, find_bytes, find_varint, FieldValue};
use std::collections::HashMap;

/// `TracePacket` field numbers used by the exporter.
const PACKET_TRACK_EVENT: u32 = 11;
const PACKET_TRACK_DESCRIPTOR: u32 = 60;
const EVENT_TYPE: u32 = 9;
const EVENT_TRACK_UUID: u32 = 11;
const DESC_UUID: u32 = 1;

fn traced_multicast_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "perfetto-roundtrip".to_string(),
        description: "one multicast for exporter validation".to_string(),
        topology: TopologySpec {
            switches: 24,
            seed: 7,
            side: None,
            strategy: StrategySpec::ConnectedGrowth,
            ports: 8,
        },
        routing: RoutingSpec::Spam {
            policy: PolicySpec::MinResidualDistance,
        },
        traffic: TrafficSpec::SingleMulticast { dests: 6, len: 128 },
        faults: FaultsSpec::None,
        engine: EngineSpec {
            trace: true,
            ..EngineSpec::default()
        },
        seed: 11,
        replications: 1,
        horizon_us: None,
    }
}

/// Structural validity of one exported trace: all packets decode; slice
/// begins and ends balance on every track; every referenced track has a
/// descriptor.
fn assert_valid_perfetto(bytes: &[u8]) {
    let packets = decode_packets(bytes).expect("file is a TracePacket stream");
    assert!(!packets.is_empty());
    let mut declared = Vec::new();
    let mut balance: HashMap<u64, i64> = HashMap::new();
    let mut events = 0usize;
    for p in packets {
        let fields = decode_fields(p).expect("packet decodes");
        assert!(
            fields
                .iter()
                .any(|(f, _)| *f == PACKET_TRACK_EVENT || *f == PACKET_TRACK_DESCRIPTOR),
            "every packet carries a track event or a descriptor"
        );
        if let Some(desc) = find_bytes(p, PACKET_TRACK_DESCRIPTOR).unwrap() {
            declared.push(find_varint(desc, DESC_UUID).unwrap().expect("uuid"));
        }
        if let Some(ev) = find_bytes(p, PACKET_TRACK_EVENT).unwrap() {
            events += 1;
            let ty = find_varint(ev, EVENT_TYPE).unwrap().expect("event type");
            let track = find_varint(ev, EVENT_TRACK_UUID).unwrap().expect("track");
            assert!(
                declared.contains(&track),
                "track {track} used before declaration"
            );
            match ty {
                1 => *balance.entry(track).or_default() += 1, // begin
                2 => *balance.entry(track).or_default() -= 1, // end
                3 => {}                                       // instant
                other => panic!("unexpected TrackEvent type {other}"),
            }
            // Each event packet must also carry a raw varint field check:
            // decode_fields above already proved wire-format validity.
            for (f, v) in decode_fields(ev).unwrap() {
                if f == EVENT_TYPE {
                    assert!(matches!(v, FieldValue::Varint(_)));
                }
            }
        }
    }
    assert!(events > 0, "an exported run has events");
    for (track, b) in balance {
        assert_eq!(b, 0, "unbalanced slices on track {track}");
    }
}

#[test]
fn exported_multicast_run_round_trips() {
    let spec = traced_multicast_spec();
    let arts = ArtifactPrefix::of(&spec, 0).build().unwrap();
    let out = run_with_artifacts(&spec, 0, None, &arts).unwrap();
    assert!(out.all_delivered());
    assert!(!out.trace.events.is_empty(), "tracing was enabled");
    let bytes = spam_trace::export(&arts.topo, &out);
    assert_valid_perfetto(&bytes);
}

#[test]
fn exported_storm_run_round_trips() {
    let mut spec = traced_multicast_spec();
    spec.traffic = TrafficSpec::BroadcastStorm {
        len: 64,
        stagger_ns: 2_000,
    };
    spec.faults = FaultsSpec::Storm {
        model: spam_scenario::FaultModelSpec::IidLinks { rate: 0.15 },
        seed: 3,
        window_start_us: 5,
        window_end_us: 40,
        bursts: 2,
    };
    let arts = ArtifactPrefix::of(&spec, 0).build().unwrap();
    let out = run_with_artifacts(&spec, 0, None, &arts).unwrap();
    let bytes = spam_trace::export(&arts.topo, &out);
    assert_valid_perfetto(&bytes);
}

/// The committed example artifact (written by the `latency-anatomy`
/// experiment) must stay parseable — this is the acceptance gate for the
/// file in `results/`.
#[test]
fn committed_example_trace_decodes() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/fig2_single_multicast.perfetto-trace"
    );
    let bytes = std::fs::read(path)
        .expect("committed Perfetto example exists (generate with `cargo run -p spam-bench --bin experiment -- latency-anatomy`)");
    assert_valid_perfetto(&bytes);
}
