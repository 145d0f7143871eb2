//! Exhaustive negative-case table: one malformed input per
//! [`SpecError`] / [`TrafficError`] variant, asserting both the variant
//! (via its dotted [`SpecError::variant_name`]) and, for decode errors,
//! the dotted field path the codec reports. The fuzzer keys its
//! rejection accounting on `variant_name`, so this table is also the
//! proof that every name is reachable.

use spam_scenario::{
    run_once, ArrivalSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec, RoutingSpec,
    ScenarioSpec, SpecError, TrafficSpec,
};
use traffic::{HotspotConfig, TrafficError};

fn base() -> ScenarioSpec {
    ScenarioSpec::example("error-table")
}

/// Every decode-level variant, with the dotted path the codec must report.
#[test]
fn decode_errors_report_variant_and_dotted_path() {
    let good = base().to_json_string();

    // Json: not a JSON document at all.
    match ScenarioSpec::from_json("{ definitely not json") {
        Err(e) => assert_eq!(e.variant_name(), "Json"),
        Ok(_) => panic!("garbage decoded"),
    }

    // Helper: corrupt the canonical serialization and decode.
    let corrupt = |needle: &str, replacement: &str| -> SpecError {
        assert!(
            good.contains(needle),
            "canonical JSON no longer contains {needle:?}:\n{good}"
        );
        let doc = good.replacen(needle, replacement, 1);
        ScenarioSpec::from_json(&doc).expect_err("corrupted doc decoded")
    };

    // MissingField: drop the traffic tag's sibling field.
    match corrupt("\"dests\": 16,", "") {
        SpecError::MissingField { field } => assert_eq!(field, "scenario.traffic.dests"),
        e => panic!("expected MissingField, got {e:?} ({})", e.variant_name()),
    }

    // WrongType: a string where a count belongs.
    match corrupt("\"switches\": 64,", "\"switches\": \"many\",") {
        SpecError::WrongType { field, .. } => assert_eq!(field, "scenario.topology.switches"),
        e => panic!("expected WrongType, got {e:?} ({})", e.variant_name()),
    }

    // UnknownKind: a tag no enum carries.
    match corrupt("\"kind\": \"single_multicast\"", "\"kind\": \"quantum\"") {
        SpecError::UnknownKind { field, got } => {
            // The codec reports the tagged *object*, not the tag field.
            assert_eq!(field, "scenario.traffic");
            assert_eq!(got, "quantum");
        }
        e => panic!("expected UnknownKind, got {e:?} ({})", e.variant_name()),
    }

    // UnknownField: the typo guard.
    match corrupt("\"ports\": 8", "\"ports\": 8, \"portz\": 9") {
        SpecError::UnknownField { field } => assert_eq!(field, "scenario.topology.portz"),
        e => panic!("expected UnknownField, got {e:?} ({})", e.variant_name()),
    }
}

/// One spec per statically-checkable validation variant. Each entry must
/// trip exactly the named variant — earlier checks in `validate()` all
/// pass, so the table doubles as documentation of the check order.
#[test]
fn validation_errors_cover_every_variant() {
    let mut table: Vec<(&'static str, ScenarioSpec)> = Vec::new();

    let mut s = base();
    s.name = String::new();
    table.push(("EmptyName", s));

    let mut s = base();
    s.topology.switches = 1;
    table.push(("TooFewSwitches", s));

    let mut s = base();
    s.topology.side = Some(7); // 7 * 7 < 64
    table.push(("LatticeTooSmall", s));

    let mut s = base();
    s.topology.side = Some(usize::MAX); // the square wraps to 1 in a release build
    table.push(("LatticeSideOverflow", s));

    let mut s = base();
    s.topology.ports = 4;
    table.push(("BadPorts", s));

    let mut s = base();
    s.replications = 0;
    table.push(("ZeroReplications", s));

    let mut s = base();
    s.engine.input_buffer_flits = 0;
    table.push(("BadBuffers", s));

    let mut s = base();
    s.engine.metrics_every_ns = Some(0);
    table.push(("ZeroSampleCadence", s));

    let mut s = base();
    s.engine.checkpoint_every_ns = Some(0);
    table.push(("ZeroCheckpointCadence", s));

    let mut s = base();
    s.traffic = TrafficSpec::SingleMulticast { dests: 0, len: 32 };
    table.push(("Traffic.NoDestinations", s));

    let mut s = base();
    s.traffic = TrafficSpec::SingleMulticast {
        dests: 64, // == processor count: no source remains
        len: 32,
    };
    table.push(("Traffic.NotEnoughProcessors", s));

    let mut s = base();
    s.traffic = TrafficSpec::Mixed {
        unicast_fraction: 1.5,
        multicast_dests: 4,
        rate_per_node_per_us: 0.01,
        len: 32,
        messages: 10,
        arrival: ArrivalSpec::Poisson,
    };
    table.push(("Traffic.BadFraction", s));

    let mut s = base();
    s.traffic = TrafficSpec::Mixed {
        unicast_fraction: 0.5,
        multicast_dests: 4,
        rate_per_node_per_us: 0.0,
        len: 32,
        messages: 10,
        arrival: ArrivalSpec::Poisson,
    };
    table.push(("Traffic.NonPositiveRate", s));

    let mut s = base();
    s.traffic = TrafficSpec::Permutation {
        pattern: PatternSpec::Transpose,
        rate_per_node_per_us: 1e6, // mean gap < one 10 ns arrival slot
        len: 32,
        messages_per_node: 2,
        arrival: ArrivalSpec::Poisson,
    };
    table.push(("Traffic.RateTooHigh", s));

    let mut s = base();
    s.traffic = TrafficSpec::ClosedLoop {
        window: 0,
        messages_per_source: 4,
        len: 32,
        think_ns: 0,
    };
    table.push(("Traffic.ZeroDuration", s));

    let mut s = base();
    s.traffic = TrafficSpec::Mixed {
        unicast_fraction: 0.5,
        multicast_dests: 4,
        rate_per_node_per_us: 0.01,
        len: 32,
        messages: 10,
        arrival: ArrivalSpec::OnOff {
            r: 1,
            mean_on_us: u64::MAX / 1_000 + 1, // Duration::from_us would overflow
            mean_off_us: 1,
        },
    };
    table.push(("Traffic.DurationTooLarge", s));

    let mut s = base();
    s.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidLinks { rate: 1.5 },
        seed: 1,
    };
    table.push(("BadFaultRate", s));

    let storm = |model, start, end, bursts| FaultsSpec::Storm {
        model,
        seed: 1,
        window_start_us: start,
        window_end_us: end,
        bursts,
    };

    let mut s = base();
    s.faults = storm(FaultModelSpec::IidLinks { rate: 0.1 }, 100, 100, 1);
    table.push(("EmptyStormWindow", s));

    let mut s = base();
    s.faults = storm(FaultModelSpec::IidLinks { rate: 0.1 }, 50, 100, 0);
    table.push(("ZeroBursts", s));

    let mut s = base();
    s.faults = storm(FaultModelSpec::IidLinks { rate: 0.1 }, 50, 200, 1);
    s.horizon_us = Some(100);
    table.push(("FaultsPastHorizon", s));

    // Combination checks: keep traffic/faults individually valid.
    let unicast_traffic = TrafficSpec::Hotspot {
        hot_nodes: 2,
        hot_fraction: 0.5,
        rate_per_node_per_us: 0.01,
        len: 32,
        messages: 10,
        arrival: ArrivalSpec::Poisson,
    };

    let mut s = base();
    s.routing = RoutingSpec::UpDownUnicast;
    s.traffic = unicast_traffic.clone();
    s.faults = storm(FaultModelSpec::IidLinks { rate: 0.1 }, 50, 100, 1);
    table.push(("StormNeedsSpam", s));

    let mut s = base();
    s.routing = RoutingSpec::Spam {
        policy: PolicySpec::FirstLegal,
    };
    s.traffic = unicast_traffic;
    s.faults = storm(FaultModelSpec::IidLinks { rate: 0.1 }, 50, 100, 1);
    table.push(("UnsupportedCombination", s));

    let mut s = base();
    s.routing = RoutingSpec::UpDownUnicast;
    // base() traffic is a single multicast — multicast-capable.
    table.push(("UnicastRoutingNeedsUnicastTraffic", s));

    let mut covered = std::collections::BTreeSet::new();
    for (want, spec) in &table {
        let err = spec
            .validate()
            .expect_err(&format!("{want} spec unexpectedly validated"));
        assert_eq!(
            err.variant_name(),
            *want,
            "spec for {want} tripped {err:?} instead"
        );
        assert!(!err.to_string().is_empty());
        covered.insert(*want);
    }
    assert_eq!(covered.len(), table.len(), "duplicate table rows");
}

/// Variants only decidable at run time, after sampling faults.
#[test]
fn run_level_errors_are_typed_not_panics() {
    // NoSurvivingComponent, static flavor: every switch dies up front.
    let mut s = base();
    s.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidSwitches { rate: 1.0 },
        seed: 1,
    };
    match run_once(&s, 0, None) {
        Err(e) => assert_eq!(e.variant_name(), "NoSurvivingComponent"),
        Ok(_) => panic!("total destruction produced an outcome"),
    }

    // NoSurvivingComponent, storm flavor: the fuzzer's first find — this
    // used to panic inside the relabel chain instead of erroring.
    let mut s = base();
    s.routing = RoutingSpec::Spam {
        policy: PolicySpec::MinResidualDistance,
    };
    s.faults = FaultsSpec::Storm {
        model: FaultModelSpec::IidSwitches { rate: 1.0 },
        seed: 1,
        window_start_us: 10,
        window_end_us: 20,
        bursts: 1,
    };
    match run_once(&s, 0, None) {
        Err(e) => assert_eq!(e.variant_name(), "NoSurvivingComponent"),
        Ok(_) => panic!("fabric-destroying storm produced an outcome"),
    }
}

/// `TrafficError` variants unreachable through `ScenarioSpec::validate`
/// (a lattice always has ≥ 2 processors) but live at the library level,
/// where degraded populations can shrink arbitrarily.
#[test]
fn traffic_errors_unreachable_from_specs_still_have_table_rows() {
    let hotspot = HotspotConfig {
        hot_nodes: 1,
        hot_fraction: 0.5,
        rate_per_node_per_us: 0.01,
        message_len: 32,
        messages: 10,
        arrival: traffic::ArrivalKind::Poisson,
    };
    match hotspot.validate(1) {
        Err(TrafficError::TooFewSources { .. }) => {}
        other => panic!("expected TooFewSources, got {other:?}"),
    }
    assert_eq!(
        SpecError::from(TrafficError::TooFewSources {
            needed: 2,
            available: 1
        })
        .variant_name(),
        "Traffic.TooFewSources"
    );
}
