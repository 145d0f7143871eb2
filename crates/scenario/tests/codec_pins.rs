//! Pins on the scenario codec that hold whatever its internals look
//! like: a structural probe of every key the encoder writes (renamed,
//! retyped, deleted — each must come back as the right [`SpecError`] at
//! the right dotted path), the order two defects in one document are
//! reported in, and a byte golden of the encoder (the committed
//! `scenarios/*.json` predate three engine keys, so they pin nothing
//! about what [`ScenarioSpec::to_json_string`] writes).

use spam_scenario::json::{Json, Text};
use spam_scenario::{
    ArrivalSpec, ArtifactPrefix, EngineSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec,
    QueueSpec, RoutingSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec, TrafficSpec,
};

/// One spec per traffic kind (permutation twice, once per pattern), every
/// optional key present, and between them every routing arm, selection
/// policy, arrival process, fault kind, fault model, lattice strategy and
/// queue. They need not validate: decoding is structural.
fn populated() -> Vec<ScenarioSpec> {
    let storm = |model| FaultsSpec::Storm {
        model,
        seed: 0xFEED_FACE_CAFE_F00D,
        window_start_us: 40,
        window_end_us: 90,
        bursts: 3,
    };
    let on_off = ArrivalSpec::OnOff {
        r: 2,
        mean_on_us: 30,
        mean_off_us: 70,
    };
    let axes: Vec<(TrafficSpec, RoutingSpec, FaultsSpec, QueueSpec)> = vec![
        (
            TrafficSpec::SingleMulticast { dests: 9, len: 128 },
            RoutingSpec::Spam {
                policy: PolicySpec::MinResidualDistance,
            },
            FaultsSpec::None,
            QueueSpec::Bucket,
        ),
        (
            TrafficSpec::Mixed {
                unicast_fraction: 0.9,
                multicast_dests: 8,
                rate_per_node_per_us: 0.0125,
                len: 64,
                messages: 400,
                arrival: ArrivalSpec::NegativeBinomial { r: 3 },
            },
            RoutingSpec::Spam {
                policy: PolicySpec::FirstLegal,
            },
            FaultsSpec::Static {
                model: FaultModelSpec::IidLinks { rate: 0.05 },
                seed: 11,
            },
            QueueSpec::Heap,
        ),
        (
            TrafficSpec::Hotspot {
                hot_nodes: 2,
                hot_fraction: 0.25,
                rate_per_node_per_us: 1e-3,
                len: 32,
                messages: 120,
                arrival: ArrivalSpec::Poisson,
            },
            RoutingSpec::Spam {
                policy: PolicySpec::RandomLegal { seed: u64::MAX },
            },
            FaultsSpec::Static {
                model: FaultModelSpec::IidSwitches { rate: 0.5 },
                seed: 12,
            },
            QueueSpec::Bucket,
        ),
        (
            TrafficSpec::Permutation {
                pattern: PatternSpec::Transpose,
                rate_per_node_per_us: 0.02,
                len: 16,
                messages_per_node: 5,
                arrival: ArrivalSpec::Deterministic,
            },
            RoutingSpec::UpDownUnicast,
            FaultsSpec::Static {
                model: FaultModelSpec::Region { radius: 2 },
                seed: 13,
            },
            QueueSpec::Heap,
        ),
        (
            TrafficSpec::Permutation {
                pattern: PatternSpec::BitComplement,
                rate_per_node_per_us: 0.04,
                len: 24,
                messages_per_node: 1,
                arrival: on_off,
            },
            RoutingSpec::SoftwareMulticast,
            storm(FaultModelSpec::IidLinks { rate: 0.2 }),
            QueueSpec::Bucket,
        ),
        (
            TrafficSpec::Incast {
                servers: 4,
                rate_per_client_per_us: 0.003,
                len: 48,
                messages: 77,
                arrival: on_off,
            },
            RoutingSpec::SoftwareMulticast,
            storm(FaultModelSpec::IidSwitches { rate: 1.0 }),
            QueueSpec::Heap,
        ),
        (
            TrafficSpec::BroadcastStorm {
                len: 8,
                stagger_ns: 1 << 36,
            },
            RoutingSpec::Spam {
                policy: PolicySpec::MinResidualDistance,
            },
            storm(FaultModelSpec::Region { radius: 0 }),
            QueueSpec::Bucket,
        ),
        (
            TrafficSpec::ClosedLoop {
                window: 4,
                messages_per_source: 6,
                len: 96,
                think_ns: 250,
            },
            RoutingSpec::Spam {
                policy: PolicySpec::FirstLegal,
            },
            FaultsSpec::None,
            QueueSpec::Heap,
        ),
    ];
    axes.into_iter()
        .enumerate()
        .map(|(i, (traffic, routing, faults, queue))| ScenarioSpec {
            name: format!("populated-{i}"),
            description: "every key, \"quoted\" and\ttabbed".to_string(),
            topology: TopologySpec {
                switches: 48 + i,
                seed: 1998 + i as u64,
                side: Some(9 + i),
                strategy: if i % 2 == 0 {
                    StrategySpec::ConnectedGrowth
                } else {
                    StrategySpec::UniformRetry
                },
                ports: 5 + i,
            },
            routing,
            traffic,
            faults,
            engine: EngineSpec {
                queue: Some(queue),
                input_buffer_flits: 1 + i,
                output_buffer_flits: 2 + i,
                extra_header_flits: i as u32,
                trace: i % 2 == 1,
                metrics_every_ns: Some(500 + i as u64),
                checkpoint_every_ns: Some(10_000 + i as u64),
            },
            seed: 0xA5A5_0000 + i as u64,
            replications: 1 + i as u32,
            horizon_us: Some(100 + i as u64),
        })
        .collect()
}

/// The committed corpus, the populated specs, and the all-defaults
/// example (absent `side` / `horizon_us`, `null` queue and cadences).
fn probe_set() -> Vec<ScenarioSpec> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let corpus = spam_scenario::load_dir(dir.as_ref()).expect("corpus loads");
    assert!(corpus.len() >= 14, "corpus shrank to {}", corpus.len());
    let mut specs: Vec<ScenarioSpec> = corpus.into_iter().map(|(_, s)| s).collect();
    specs.extend(populated());
    specs.push(ScenarioSpec::example("all-defaults"));
    specs
}

type Fields = Vec<(Text, Json)>;

/// `doc` with `edit` applied to the field list of the object at `path`.
fn edited(doc: &Json, path: &[String], edit: &dyn Fn(&mut Fields)) -> Json {
    let mut out = doc.clone();
    let mut here = &mut out;
    for key in path {
        let Json::Obj(fields) = here else {
            panic!("{path:?} leaves the objects at {key}");
        };
        here = &mut fields
            .iter_mut()
            .find(|(k, _)| k == key.as_str())
            .unwrap()
            .1;
    }
    let Json::Obj(fields) = here else {
        panic!("{path:?} is not an object");
    };
    edit(fields);
    out
}

/// Probes every key of the object at `path`, then recurses into the
/// object-valued ones. Returns the number of keys probed.
fn probe_object(doc: &Json, path: &mut Vec<String>) -> usize {
    let mut here = doc;
    for key in path.iter() {
        here = here.get(key).unwrap();
    }
    let Json::Obj(fields) = here else {
        panic!("{path:?} is not an object");
    };
    let dotted = std::iter::once("scenario")
        .chain(path.iter().map(String::as_str))
        .collect::<Vec<_>>()
        .join(".");
    let mut probed = 0;
    for (i, (key, value)) in fields.iter().enumerate() {
        let field = format!("{dotted}.{key}");

        let renamed = edited(doc, path, &|f| f[i].0 = format!("{key}_x").into());
        let want = if key == "kind" {
            SpecError::MissingField {
                field: field.clone(),
            }
        } else {
            SpecError::UnknownField {
                field: format!("{field}_x"),
            }
        };
        assert_eq!(ScenarioSpec::from_value(&renamed), Err(want), "rename");

        let retyped = edited(doc, path, &|f| f[i].1 = Json::Arr(Vec::new()));
        match ScenarioSpec::from_value(&retyped) {
            Err(SpecError::WrongType { field: got, .. }) => assert_eq!(got, field, "retype"),
            other => panic!("{field} = [] decoded to {other:?}"),
        }

        let deleted = edited(doc, path, &|f| {
            f.remove(i);
        });
        match ScenarioSpec::from_value(&deleted) {
            Ok(_) => {}
            Err(SpecError::MissingField { field: got }) => assert_eq!(got, field, "delete"),
            Err(other) => panic!("deleting {field} reported {other:?}"),
        }

        probed += 1;
        if matches!(value, Json::Obj(_)) {
            path.push(key.to_string());
            probed += probe_object(doc, path);
            path.pop();
        }
    }
    probed
}

#[test]
fn every_encoded_key_is_required_typed_and_typo_guarded() {
    let mut probed = 0;
    for spec in probe_set() {
        let doc = spec.to_json();
        assert_eq!(ScenarioSpec::from_value(&doc).as_ref(), Ok(&spec));
        probed += probe_object(&doc, &mut Vec::new());
    }
    // 14 corpus files + 8 populated specs + the example; a shrinking
    // count means the walk stopped descending, not that keys went away.
    assert!(probed >= 780, "only {probed} keys probed");
}

#[test]
fn an_unknown_key_is_reported_before_a_bad_sibling_or_a_nested_defect() {
    let spec = &populated()[1];
    let doc = spec.to_json();
    let unknown = |field: &str| {
        Err(SpecError::UnknownField {
            field: field.to_string(),
        })
    };

    // One object, two defects, in either document order.
    for typo_first in [true, false] {
        let both = edited(&doc, &["topology".to_string()], &|f| {
            let at = if typo_first { 0 } else { f.len() };
            f.insert(at, ("portz".into(), Json::Null));
            let switches = f.iter_mut().find(|(k, _)| k == "switches").unwrap();
            switches.1 = Json::Str("many".into());
        });
        assert_eq!(
            ScenarioSpec::from_value(&both),
            unknown("scenario.topology.portz")
        );
    }
    let tagged = edited(&doc, &["traffic".to_string()], &|f| {
        f.push(("lenn".into(), Json::Null));
        f.retain(|(k, _)| k != "len");
    });
    assert_eq!(
        ScenarioSpec::from_value(&tagged),
        unknown("scenario.traffic.lenn")
    );

    // A root typo beats a defect inside a nested object that the decoder
    // reaches first, and a nested typo beats a later root value.
    let root = edited(&doc, &[], &|f| {
        f.push(("sede".into(), Json::Null));
        f.iter_mut().find(|(k, _)| k == "topology").unwrap().1 = Json::Null;
    });
    assert_eq!(ScenarioSpec::from_value(&root), unknown("scenario.sede"));
    let nested = edited(&doc, &[], &|f| {
        f.iter_mut().find(|(k, _)| k == "seed").unwrap().1 = Json::Null;
        let Json::Obj(engine) = &mut f.iter_mut().find(|(k, _)| k == "engine").unwrap().1 else {
            panic!("engine is an object");
        };
        engine.push(("tracee".into(), Json::Bool(true)));
    });
    assert_eq!(
        ScenarioSpec::from_value(&nested),
        unknown("scenario.engine.tracee")
    );

    // With no unknown key, the first bad value in decoder order wins.
    let two_values = edited(&doc, &[], &|f| {
        f.iter_mut().find(|(k, _)| k == "seed").unwrap().1 = Json::Null;
        f.iter_mut().find(|(k, _)| k == "name").unwrap().1 = Json::Null;
    });
    assert_eq!(
        ScenarioSpec::from_value(&two_values),
        Err(SpecError::WrongType {
            field: "scenario.name".to_string(),
            expected: "a string"
        })
    );
}

#[test]
fn encoder_bytes_are_pinned() {
    let mut got = String::new();
    // The example adds what a populated spec cannot show: absent `side` /
    // `horizon_us`, a `null` queue and `null` cadences.
    for spec in populated()
        .into_iter()
        .chain([ScenarioSpec::example("all-defaults")])
    {
        got.push_str(&spec.to_json_string());
        got.push_str(&ArtifactPrefix::of(&spec, spec.replications - 1).canonical_json());
        got.push('\n');
    }
    let want = include_str!("golden/codec_encoder.txt");
    assert!(
        got == want,
        "encoder output left tests/golden/codec_encoder.txt; it now writes:\n{got}"
    );
}
