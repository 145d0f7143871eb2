//! Property tests for the scenario codec and validator: any spec the
//! model can express survives a JSON round trip unchanged, and malformed
//! specs come back as typed [`SpecError`]s — never panics.

use proptest::prelude::*;
use spam_scenario::{
    ArrivalSpec, EngineSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec, QueueSpec,
    RoutingSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec, TrafficSpec,
};
use traffic::TrafficError;

/// Builds an arbitrary (not necessarily *valid*) spec from four entropy
/// words — the codec must round-trip anything the model can express.
fn arb_spec(a: u64, b: u64, c: u64, d: u64) -> ScenarioSpec {
    let frac = |x: u64, m: u64| (x % (m + 1)) as f64 / m as f64;
    let arrival = match a % 4 {
        0 => ArrivalSpec::NegativeBinomial {
            r: 1 + (a >> 2) as u32 % 8,
        },
        1 => ArrivalSpec::Poisson,
        2 => ArrivalSpec::Deterministic,
        _ => ArrivalSpec::OnOff {
            r: 1 + (a >> 3) as u32 % 4,
            mean_on_us: 1 + (a >> 5) % 500,
            mean_off_us: (a >> 7) % 500,
        },
    };
    let traffic = match b % 7 {
        0 => TrafficSpec::SingleMulticast {
            dests: 1 + (b >> 3) as usize % 64,
            len: 2 + (b >> 9) as u32 % 256,
        },
        1 => TrafficSpec::Mixed {
            unicast_fraction: frac(b >> 3, 20),
            multicast_dests: 1 + (b >> 8) as usize % 32,
            rate_per_node_per_us: 0.001 + frac(b >> 13, 50) * 0.05,
            len: 2 + (b >> 19) as u32 % 256,
            messages: (b >> 27) as usize % 500,
            arrival,
        },
        2 => TrafficSpec::Hotspot {
            hot_nodes: 1 + (b >> 3) as usize % 8,
            hot_fraction: frac(b >> 7, 20),
            rate_per_node_per_us: 0.001 + frac(b >> 12, 50) * 0.05,
            len: 2 + (b >> 18) as u32 % 256,
            messages: (b >> 26) as usize % 500,
            arrival,
        },
        3 => TrafficSpec::Permutation {
            pattern: if b & 8 == 0 {
                PatternSpec::Transpose
            } else {
                PatternSpec::BitComplement
            },
            rate_per_node_per_us: 0.001 + frac(b >> 4, 50) * 0.05,
            len: 2 + (b >> 10) as u32 % 256,
            messages_per_node: 1 + (b >> 18) as usize % 16,
            arrival,
        },
        4 => TrafficSpec::Incast {
            servers: 1 + (b >> 3) as usize % 8,
            rate_per_client_per_us: 0.001 + frac(b >> 7, 50) * 0.05,
            len: 2 + (b >> 13) as u32 % 256,
            messages: (b >> 21) as usize % 500,
            arrival,
        },
        5 => TrafficSpec::BroadcastStorm {
            len: 2 + (b >> 3) as u32 % 256,
            stagger_ns: (b >> 11) % 10_000,
        },
        _ => TrafficSpec::ClosedLoop {
            window: 1 + (b >> 3) as usize % 8,
            messages_per_source: 1 + (b >> 7) as usize % 16,
            len: 2 + (b >> 12) as u32 % 256,
            think_ns: (b >> 20) % 100_000,
        },
    };
    let routing = match c % 3 {
        0 => RoutingSpec::Spam {
            policy: match (c >> 2) % 3 {
                0 => PolicySpec::MinResidualDistance,
                1 => PolicySpec::FirstLegal,
                _ => PolicySpec::RandomLegal { seed: c >> 4 },
            },
        },
        1 => RoutingSpec::UpDownUnicast,
        _ => RoutingSpec::SoftwareMulticast,
    };
    let model = match (c >> 8) % 3 {
        0 => FaultModelSpec::IidLinks {
            rate: frac(c >> 10, 40),
        },
        1 => FaultModelSpec::IidSwitches {
            rate: frac(c >> 10, 40),
        },
        _ => FaultModelSpec::Region {
            radius: (c >> 10) as usize % 4,
        },
    };
    let faults = match (c >> 4) % 3 {
        0 => FaultsSpec::None,
        1 => FaultsSpec::Static {
            model,
            seed: c >> 16,
        },
        _ => FaultsSpec::Storm {
            model,
            seed: c >> 16,
            window_start_us: (d >> 3) % 100,
            window_end_us: 100 + (d >> 10) % 100,
            bursts: 1 + (d >> 17) as usize % 5,
        },
    };
    ScenarioSpec {
        name: format!("prop-{a:x}"),
        description: "generated by spec_properties".to_string(),
        topology: TopologySpec {
            switches: 2 + (d >> 20) as usize % 200,
            seed: d,
            side: if d & 1 == 0 {
                None
            } else {
                Some(40 + (d >> 28) as usize % 40)
            },
            strategy: if d & 2 == 0 {
                StrategySpec::ConnectedGrowth
            } else {
                StrategySpec::UniformRetry
            },
            ports: 5 + (d >> 30) as usize % 8,
        },
        routing,
        traffic,
        faults,
        engine: EngineSpec {
            queue: match (d >> 33) % 3 {
                0 => None,
                1 => Some(QueueSpec::Bucket),
                _ => Some(QueueSpec::Heap),
            },
            input_buffer_flits: 1 + (d >> 35) as usize % 4,
            output_buffer_flits: 1 + (d >> 38) as usize % 4,
            extra_header_flits: (d >> 41) as u32 % 4,
            trace: (d >> 43) & 1 == 1,
            metrics_every_ns: match (d >> 50) % 3 {
                0 => None,
                1 => Some((d >> 52) % 5_000), // zero sometimes: must be rejected, not panic
                _ => Some(1 + (d >> 52) % 1_000_000),
            },
            checkpoint_every_ns: match (d >> 54) % 3 {
                0 => None,
                1 => Some((d >> 56) % 5_000), // zero sometimes: must be rejected, not panic
                _ => Some(1 + (d >> 56) % 1_000_000),
            },
        },
        seed: a ^ b,
        replications: 1 + (d >> 44) as u32 % 5,
        horizon_us: if d & 4 == 0 {
            None
        } else {
            Some((d >> 47) % 10_000)
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_spec_round_trips_exactly(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
    ) {
        let spec = arb_spec(a, b, c, d);
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json(&text).unwrap();
        prop_assert_eq!(&spec, &back);
        // Idempotent: a second round trip reproduces the same document.
        prop_assert_eq!(text, back.to_json_string());
    }

    #[test]
    fn validation_never_panics(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        d in any::<u64>(),
    ) {
        // Arbitrary specs may be invalid — validate() must always return.
        let _ = arb_spec(a, b, c, d).validate();
        // So must it at the edges of the machine word, where `side * side`
        // wraps (release) or panics (debug) unless checked.
        const HALF: usize = 1 << (usize::BITS / 2);
        const EXTREMES: [usize; 6] = [0, 1, HALF - 1, HALF, HALF + 1, usize::MAX];
        let mut spec = arb_spec(a, b, c, d);
        spec.topology.side = Some(EXTREMES[(a % 6) as usize]);
        spec.topology.switches = EXTREMES[(b % 6) as usize];
        let _ = spec.validate();
    }

    #[test]
    fn truncated_documents_error_not_panic(
        a in any::<u64>(),
        cut in 0usize..2000,
    ) {
        let text = arb_spec(a, a ^ 0xBEEF, a ^ 0xCAFE, a ^ 0xF00D).to_json_string();
        let cut = cut.min(text.len());
        if cut < text.len() {
            prop_assert!(ScenarioSpec::from_json(&text[..cut]).is_err());
        }
    }
}

#[test]
fn overflowing_side_is_typed() {
    // A decodable document whose `side * side` wraps to 2^33 + 1 >= 64.
    let text = ScenarioSpec::example("huge-side").to_json_string().replace(
        "\"seed\": 0,\n    \"strategy\"",
        "\"seed\": 0,\n    \"side\": 4294967297,\n    \"strategy\"",
    );
    let spec = ScenarioSpec::from_json(&text).unwrap();
    assert_eq!(spec.topology.side, Some(4294967297));
    assert_eq!(
        spec.validate(),
        Err(SpecError::LatticeSideOverflow { side: 4294967297 })
    );
}

#[test]
fn oversized_multicast_is_typed() {
    // k ≥ processors: the classic unrealizable spec.
    let mut spec = ScenarioSpec::example("bad-k");
    spec.topology.switches = 16;
    spec.traffic = TrafficSpec::SingleMulticast {
        dests: 16,
        len: 128,
    };
    assert_eq!(
        spec.validate(),
        Err(SpecError::Traffic(TrafficError::NotEnoughProcessors {
            requested: 16,
            available: 15
        }))
    );
    spec.traffic = TrafficSpec::Mixed {
        unicast_fraction: 0.9,
        multicast_dests: 20,
        rate_per_node_per_us: 0.02,
        len: 128,
        messages: 100,
        arrival: ArrivalSpec::NegativeBinomial { r: 1 },
    };
    assert!(matches!(
        spec.validate(),
        Err(SpecError::Traffic(TrafficError::NotEnoughProcessors { .. }))
    ));
}

#[test]
fn bad_fractions_and_rates_are_typed() {
    let mut spec = ScenarioSpec::example("bad-knobs");
    spec.traffic = TrafficSpec::Hotspot {
        hot_nodes: 2,
        hot_fraction: 1.5,
        rate_per_node_per_us: 0.02,
        len: 64,
        messages: 50,
        arrival: ArrivalSpec::NegativeBinomial { r: 1 },
    };
    assert_eq!(
        spec.validate(),
        Err(SpecError::Traffic(TrafficError::BadFraction {
            what: "hot_fraction",
            value: 1.5
        }))
    );
    spec.traffic = TrafficSpec::Incast {
        servers: 2,
        rate_per_client_per_us: 0.0,
        len: 64,
        messages: 50,
        arrival: ArrivalSpec::Poisson,
    };
    assert_eq!(
        spec.validate(),
        Err(SpecError::Traffic(TrafficError::NonPositiveRate {
            rate: 0.0
        }))
    );
}

#[test]
fn fault_rules_are_typed() {
    let mut spec = ScenarioSpec::example("bad-faults");
    spec.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidLinks { rate: 1.2 },
        seed: 0,
    };
    assert_eq!(spec.validate(), Err(SpecError::BadFaultRate { rate: 1.2 }));

    let storm = |start, end, bursts| FaultsSpec::Storm {
        model: FaultModelSpec::IidLinks { rate: 0.1 },
        seed: 0,
        window_start_us: start,
        window_end_us: end,
        bursts,
    };
    spec.faults = storm(50, 50, 2);
    assert_eq!(
        spec.validate(),
        Err(SpecError::EmptyStormWindow {
            start_us: 50,
            end_us: 50
        })
    );
    spec.faults = storm(10, 50, 0);
    assert_eq!(spec.validate(), Err(SpecError::ZeroBursts));

    // Fault times past the declared horizon.
    spec.faults = storm(10, 500, 2);
    spec.horizon_us = Some(100);
    assert_eq!(
        spec.validate(),
        Err(SpecError::FaultsPastHorizon {
            at_us: 500,
            horizon_us: 100
        })
    );
    spec.horizon_us = Some(500);
    assert_eq!(spec.validate(), Ok(()));
}

#[test]
fn combination_rules_are_typed() {
    let mut spec = ScenarioSpec::example("bad-combo");
    spec.faults = FaultsSpec::Storm {
        model: FaultModelSpec::IidLinks { rate: 0.1 },
        seed: 0,
        window_start_us: 10,
        window_end_us: 50,
        bursts: 2,
    };
    spec.routing = RoutingSpec::UpDownUnicast;
    // Storm + unicast routing fails on the storm rule first; make the
    // traffic unicast so only that rule can fire.
    spec.traffic = TrafficSpec::Hotspot {
        hot_nodes: 1,
        hot_fraction: 0.5,
        rate_per_node_per_us: 0.02,
        len: 64,
        messages: 50,
        arrival: ArrivalSpec::Poisson,
    };
    assert_eq!(spec.validate(), Err(SpecError::StormNeedsSpam));

    spec.faults = FaultsSpec::None;
    spec.traffic = TrafficSpec::BroadcastStorm {
        len: 64,
        stagger_ns: 0,
    };
    assert_eq!(
        spec.validate(),
        Err(SpecError::UnicastRoutingNeedsUnicastTraffic)
    );

    spec.routing = RoutingSpec::SoftwareMulticast;
    spec.traffic = TrafficSpec::ClosedLoop {
        window: 2,
        messages_per_source: 4,
        len: 64,
        think_ns: 0,
    };
    assert!(matches!(
        spec.validate(),
        Err(SpecError::UnsupportedCombination { .. })
    ));
}

#[test]
fn decode_errors_name_the_field() {
    // Missing required field.
    let e = ScenarioSpec::from_json("{\"name\": \"x\"}").unwrap_err();
    assert_eq!(
        e,
        SpecError::MissingField {
            field: "scenario.topology".to_string()
        }
    );
    // Unknown field (typo guard).
    let mut spec = ScenarioSpec::example("typo");
    let text = spec.to_json_string().replace("\"seed\"", "\"sede\"");
    assert!(matches!(
        ScenarioSpec::from_json(&text),
        Err(SpecError::UnknownField { .. })
    ));
    // Unknown enum tag.
    spec.routing = RoutingSpec::UpDownUnicast;
    let text = spec
        .to_json_string()
        .replace("updown_unicast", "left_right");
    match ScenarioSpec::from_json(&text) {
        Err(SpecError::UnknownKind { field, got }) => {
            assert_eq!(field, "scenario.routing");
            assert_eq!(got, "left_right");
        }
        other => panic!("expected UnknownKind, got {other:?}"),
    }
    // Wrong type.
    let text = ScenarioSpec::example("t")
        .to_json_string()
        .replace("\"switches\": 64", "\"switches\": \"many\"");
    assert!(matches!(
        ScenarioSpec::from_json(&text),
        Err(SpecError::WrongType { .. })
    ));
}
