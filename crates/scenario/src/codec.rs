//! JSON encoding/decoding of [`ScenarioSpec`].
//!
//! The schema is explicit and strict: tagged enums carry a `"kind"`
//! field, unknown fields are typo errors, and every decode failure names
//! the dotted path of the offending field. Encoding always writes every
//! field, so a round trip through [`ScenarioSpec::to_json_string`] and
//! [`ScenarioSpec::from_json`] reproduces the value exactly (seeds are
//! `u64`-exact — see [`crate::json::Num`]).

use crate::json::{parse, Json, Num};
use crate::spec::{
    ArrivalSpec, EngineSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec, QueueSpec,
    RoutingSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec, TrafficSpec,
};

// ---------------------------------------------------------------------
// Decoding helpers

fn fields<'a>(v: &'a Json, path: &str) -> Result<&'a [(String, Json)], SpecError> {
    match v {
        Json::Obj(f) => Ok(f),
        _ => Err(SpecError::WrongType {
            field: path.to_string(),
            expected: "an object",
        }),
    }
}

fn get<'a>(f: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    f.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require<'a>(f: &'a [(String, Json)], path: &str, key: &str) -> Result<&'a Json, SpecError> {
    get(f, key).ok_or_else(|| SpecError::MissingField {
        field: format!("{path}.{key}"),
    })
}

fn check_unknown(f: &[(String, Json)], path: &str, allowed: &[&str]) -> Result<(), SpecError> {
    for (k, _) in f {
        if !allowed.contains(&k.as_str()) {
            return Err(SpecError::UnknownField {
                field: format!("{path}.{k}"),
            });
        }
    }
    Ok(())
}

fn str_of(v: &Json, path: &str) -> Result<String, SpecError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| SpecError::WrongType {
            field: path.to_string(),
            expected: "a string",
        })
}

fn u64_of(v: &Json, path: &str) -> Result<u64, SpecError> {
    v.as_num()
        .and_then(|n| n.as_u64())
        .ok_or_else(|| SpecError::WrongType {
            field: path.to_string(),
            expected: "a non-negative integer",
        })
}

fn usize_of(v: &Json, path: &str) -> Result<usize, SpecError> {
    u64_of(v, path).and_then(|n| {
        usize::try_from(n).map_err(|_| SpecError::WrongType {
            field: path.to_string(),
            expected: "a machine-sized integer",
        })
    })
}

fn u32_of(v: &Json, path: &str) -> Result<u32, SpecError> {
    u64_of(v, path).and_then(|n| {
        u32::try_from(n).map_err(|_| SpecError::WrongType {
            field: path.to_string(),
            expected: "a 32-bit integer",
        })
    })
}

fn bool_of(v: &Json, path: &str) -> Result<bool, SpecError> {
    v.as_bool().ok_or_else(|| SpecError::WrongType {
        field: path.to_string(),
        expected: "a boolean",
    })
}

fn f64_of(v: &Json, path: &str) -> Result<f64, SpecError> {
    v.as_num()
        .map(|n| n.as_f64())
        .ok_or_else(|| SpecError::WrongType {
            field: path.to_string(),
            expected: "a number",
        })
}

fn kind_of<'a>(f: &'a [(String, Json)], path: &str) -> Result<&'a str, SpecError> {
    require(f, path, "kind")?
        .as_str()
        .ok_or_else(|| SpecError::WrongType {
            field: format!("{path}.kind"),
            expected: "a string",
        })
}

/// A tagged object with no payload fields beyond `kind`.
fn kind_only(f: &[(String, Json)], path: &str) -> Result<(), SpecError> {
    check_unknown(f, path, &["kind"])
}

// ---------------------------------------------------------------------
// Encoding helpers

fn u(v: u64) -> Json {
    Json::Num(Num::U(v))
}

fn uz(v: usize) -> Json {
    Json::Num(Num::U(v as u64))
}

fn f(v: f64) -> Json {
    Json::Num(Num::F(v))
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn kind(tag: &str, mut rest: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("kind", s(tag))];
    all.append(&mut rest);
    Json::obj(all)
}

impl ScenarioSpec {
    /// Parses and decodes a scenario document. Decoding is structural
    /// only; call [`ScenarioSpec::validate`] for the semantic rules.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_value(&parse(text)?)
    }

    /// Decodes an already-parsed document.
    pub fn from_value(v: &Json) -> Result<Self, SpecError> {
        let f = fields(v, "scenario")?;
        check_unknown(
            f,
            "scenario",
            &[
                "name",
                "description",
                "topology",
                "routing",
                "traffic",
                "faults",
                "engine",
                "seed",
                "replications",
                "horizon_us",
            ],
        )?;
        let name = str_of(require(f, "scenario", "name")?, "scenario.name")?;
        let description = match get(f, "description") {
            Some(v) => str_of(v, "scenario.description")?,
            None => String::new(),
        };
        let topology = decode_topology(require(f, "scenario", "topology")?)?;
        let routing = decode_routing(require(f, "scenario", "routing")?)?;
        let traffic = decode_traffic(require(f, "scenario", "traffic")?)?;
        let faults = match get(f, "faults") {
            Some(v) => decode_faults(v)?,
            None => FaultsSpec::None,
        };
        let engine = match get(f, "engine") {
            Some(v) => decode_engine(v)?,
            None => EngineSpec::default(),
        };
        let seed = match get(f, "seed") {
            Some(v) => u64_of(v, "scenario.seed")?,
            None => 0,
        };
        let replications = match get(f, "replications") {
            Some(v) => u32_of(v, "scenario.replications")?,
            None => 1,
        };
        let horizon_us = match get(f, "horizon_us") {
            Some(Json::Null) | None => None,
            Some(v) => Some(u64_of(v, "scenario.horizon_us")?),
        };
        Ok(ScenarioSpec {
            name,
            description,
            topology,
            routing,
            traffic,
            faults,
            engine,
            seed,
            replications,
            horizon_us,
        })
    }

    /// Encodes to the JSON document model. Every field is written, so
    /// the output is self-describing and round-trips exactly.
    pub fn to_json(&self) -> Json {
        let mut top = vec![
            ("name", s(&self.name)),
            ("description", s(&self.description)),
            ("topology", encode_topology(&self.topology)),
            ("routing", encode_routing(&self.routing)),
            ("traffic", encode_traffic(&self.traffic)),
            ("faults", encode_faults(&self.faults)),
            ("engine", encode_engine(&self.engine)),
            ("seed", u(self.seed)),
            ("replications", u(self.replications as u64)),
        ];
        if let Some(h) = self.horizon_us {
            top.push(("horizon_us", u(h)));
        }
        Json::obj(top)
    }

    /// Encodes to pretty-printed JSON text (the `*.scenario.json`
    /// format).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }
}

pub(crate) fn decode_topology(v: &Json) -> Result<TopologySpec, SpecError> {
    let p = "scenario.topology";
    let f = fields(v, p)?;
    check_unknown(f, p, &["switches", "seed", "side", "strategy", "ports"])?;
    Ok(TopologySpec {
        switches: usize_of(require(f, p, "switches")?, "scenario.topology.switches")?,
        seed: match get(f, "seed") {
            Some(v) => u64_of(v, "scenario.topology.seed")?,
            None => 0,
        },
        side: match get(f, "side") {
            Some(Json::Null) | None => None,
            Some(v) => Some(usize_of(v, "scenario.topology.side")?),
        },
        strategy: match get(f, "strategy") {
            None => StrategySpec::ConnectedGrowth,
            Some(v) => match str_of(v, "scenario.topology.strategy")?.as_str() {
                "connected_growth" => StrategySpec::ConnectedGrowth,
                "uniform_retry" => StrategySpec::UniformRetry,
                other => {
                    return Err(SpecError::UnknownKind {
                        field: "scenario.topology.strategy".to_string(),
                        got: other.to_string(),
                    })
                }
            },
        },
        ports: match get(f, "ports") {
            Some(v) => usize_of(v, "scenario.topology.ports")?,
            None => 8,
        },
    })
}

pub(crate) fn encode_topology(t: &TopologySpec) -> Json {
    let mut out = vec![("switches", uz(t.switches)), ("seed", u(t.seed))];
    if let Some(side) = t.side {
        out.push(("side", uz(side)));
    }
    out.push((
        "strategy",
        s(match t.strategy {
            StrategySpec::ConnectedGrowth => "connected_growth",
            StrategySpec::UniformRetry => "uniform_retry",
        }),
    ));
    out.push(("ports", uz(t.ports)));
    Json::obj(out)
}

fn decode_routing(v: &Json) -> Result<RoutingSpec, SpecError> {
    let p = "scenario.routing";
    let f = fields(v, p)?;
    match kind_of(f, p)? {
        "spam" => {
            check_unknown(f, p, &["kind", "policy"])?;
            let policy = match get(f, "policy") {
                None => PolicySpec::MinResidualDistance,
                Some(v) => decode_policy(v)?,
            };
            Ok(RoutingSpec::Spam { policy })
        }
        "updown_unicast" => {
            kind_only(f, p)?;
            Ok(RoutingSpec::UpDownUnicast)
        }
        "software_multicast" => {
            kind_only(f, p)?;
            Ok(RoutingSpec::SoftwareMulticast)
        }
        other => Err(SpecError::UnknownKind {
            field: p.to_string(),
            got: other.to_string(),
        }),
    }
}

fn decode_policy(v: &Json) -> Result<PolicySpec, SpecError> {
    let p = "scenario.routing.policy";
    let f = fields(v, p)?;
    match kind_of(f, p)? {
        "min_residual_distance" => {
            kind_only(f, p)?;
            Ok(PolicySpec::MinResidualDistance)
        }
        "first_legal" => {
            kind_only(f, p)?;
            Ok(PolicySpec::FirstLegal)
        }
        "random_legal" => {
            check_unknown(f, p, &["kind", "seed"])?;
            Ok(PolicySpec::RandomLegal {
                seed: u64_of(require(f, p, "seed")?, "scenario.routing.policy.seed")?,
            })
        }
        other => Err(SpecError::UnknownKind {
            field: p.to_string(),
            got: other.to_string(),
        }),
    }
}

fn encode_routing(r: &RoutingSpec) -> Json {
    match r {
        RoutingSpec::Spam { policy } => kind(
            "spam",
            vec![(
                "policy",
                match policy {
                    PolicySpec::MinResidualDistance => kind("min_residual_distance", vec![]),
                    PolicySpec::FirstLegal => kind("first_legal", vec![]),
                    PolicySpec::RandomLegal { seed } => {
                        kind("random_legal", vec![("seed", u(*seed))])
                    }
                },
            )],
        ),
        RoutingSpec::UpDownUnicast => kind("updown_unicast", vec![]),
        RoutingSpec::SoftwareMulticast => kind("software_multicast", vec![]),
    }
}

fn decode_arrival(v: &Json, p: &str) -> Result<ArrivalSpec, SpecError> {
    let f = fields(v, p)?;
    match kind_of(f, p)? {
        "negative_binomial" => {
            check_unknown(f, p, &["kind", "r"])?;
            Ok(ArrivalSpec::NegativeBinomial {
                r: u32_of(require(f, p, "r")?, &format!("{p}.r"))?,
            })
        }
        "poisson" => {
            kind_only(f, p)?;
            Ok(ArrivalSpec::Poisson)
        }
        "deterministic" => {
            kind_only(f, p)?;
            Ok(ArrivalSpec::Deterministic)
        }
        "on_off" => {
            check_unknown(f, p, &["kind", "r", "mean_on_us", "mean_off_us"])?;
            Ok(ArrivalSpec::OnOff {
                r: u32_of(require(f, p, "r")?, &format!("{p}.r"))?,
                mean_on_us: u64_of(require(f, p, "mean_on_us")?, &format!("{p}.mean_on_us"))?,
                mean_off_us: u64_of(require(f, p, "mean_off_us")?, &format!("{p}.mean_off_us"))?,
            })
        }
        other => Err(SpecError::UnknownKind {
            field: p.to_string(),
            got: other.to_string(),
        }),
    }
}

fn encode_arrival(a: &ArrivalSpec) -> Json {
    match *a {
        ArrivalSpec::NegativeBinomial { r } => kind("negative_binomial", vec![("r", u(r as u64))]),
        ArrivalSpec::Poisson => kind("poisson", vec![]),
        ArrivalSpec::Deterministic => kind("deterministic", vec![]),
        ArrivalSpec::OnOff {
            r,
            mean_on_us,
            mean_off_us,
        } => kind(
            "on_off",
            vec![
                ("r", u(r as u64)),
                ("mean_on_us", u(mean_on_us)),
                ("mean_off_us", u(mean_off_us)),
            ],
        ),
    }
}

fn decode_traffic(v: &Json) -> Result<TrafficSpec, SpecError> {
    let p = "scenario.traffic";
    let f = fields(v, p)?;
    let arrival = |key: &str| -> Result<ArrivalSpec, SpecError> {
        match get(f, key) {
            Some(v) => decode_arrival(v, &format!("{p}.{key}")),
            None => Ok(ArrivalSpec::NegativeBinomial { r: 1 }),
        }
    };
    match kind_of(f, p)? {
        "single_multicast" => {
            check_unknown(f, p, &["kind", "dests", "len"])?;
            Ok(TrafficSpec::SingleMulticast {
                dests: usize_of(require(f, p, "dests")?, "scenario.traffic.dests")?,
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
            })
        }
        "mixed" => {
            check_unknown(
                f,
                p,
                &[
                    "kind",
                    "unicast_fraction",
                    "multicast_dests",
                    "rate_per_node_per_us",
                    "len",
                    "messages",
                    "arrival",
                ],
            )?;
            Ok(TrafficSpec::Mixed {
                unicast_fraction: f64_of(
                    require(f, p, "unicast_fraction")?,
                    "scenario.traffic.unicast_fraction",
                )?,
                multicast_dests: usize_of(
                    require(f, p, "multicast_dests")?,
                    "scenario.traffic.multicast_dests",
                )?,
                rate_per_node_per_us: f64_of(
                    require(f, p, "rate_per_node_per_us")?,
                    "scenario.traffic.rate_per_node_per_us",
                )?,
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
                messages: usize_of(require(f, p, "messages")?, "scenario.traffic.messages")?,
                arrival: arrival("arrival")?,
            })
        }
        "hotspot" => {
            check_unknown(
                f,
                p,
                &[
                    "kind",
                    "hot_nodes",
                    "hot_fraction",
                    "rate_per_node_per_us",
                    "len",
                    "messages",
                    "arrival",
                ],
            )?;
            Ok(TrafficSpec::Hotspot {
                hot_nodes: usize_of(require(f, p, "hot_nodes")?, "scenario.traffic.hot_nodes")?,
                hot_fraction: f64_of(
                    require(f, p, "hot_fraction")?,
                    "scenario.traffic.hot_fraction",
                )?,
                rate_per_node_per_us: f64_of(
                    require(f, p, "rate_per_node_per_us")?,
                    "scenario.traffic.rate_per_node_per_us",
                )?,
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
                messages: usize_of(require(f, p, "messages")?, "scenario.traffic.messages")?,
                arrival: arrival("arrival")?,
            })
        }
        "permutation" => {
            check_unknown(
                f,
                p,
                &[
                    "kind",
                    "pattern",
                    "rate_per_node_per_us",
                    "len",
                    "messages_per_node",
                    "arrival",
                ],
            )?;
            let pattern =
                match str_of(require(f, p, "pattern")?, "scenario.traffic.pattern")?.as_str() {
                    "transpose" => PatternSpec::Transpose,
                    "bit_complement" => PatternSpec::BitComplement,
                    other => {
                        return Err(SpecError::UnknownKind {
                            field: "scenario.traffic.pattern".to_string(),
                            got: other.to_string(),
                        })
                    }
                };
            Ok(TrafficSpec::Permutation {
                pattern,
                rate_per_node_per_us: f64_of(
                    require(f, p, "rate_per_node_per_us")?,
                    "scenario.traffic.rate_per_node_per_us",
                )?,
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
                messages_per_node: usize_of(
                    require(f, p, "messages_per_node")?,
                    "scenario.traffic.messages_per_node",
                )?,
                arrival: arrival("arrival")?,
            })
        }
        "incast" => {
            check_unknown(
                f,
                p,
                &[
                    "kind",
                    "servers",
                    "rate_per_client_per_us",
                    "len",
                    "messages",
                    "arrival",
                ],
            )?;
            Ok(TrafficSpec::Incast {
                servers: usize_of(require(f, p, "servers")?, "scenario.traffic.servers")?,
                rate_per_client_per_us: f64_of(
                    require(f, p, "rate_per_client_per_us")?,
                    "scenario.traffic.rate_per_client_per_us",
                )?,
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
                messages: usize_of(require(f, p, "messages")?, "scenario.traffic.messages")?,
                arrival: arrival("arrival")?,
            })
        }
        "broadcast_storm" => {
            check_unknown(f, p, &["kind", "len", "stagger_ns"])?;
            Ok(TrafficSpec::BroadcastStorm {
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
                stagger_ns: match get(f, "stagger_ns") {
                    Some(v) => u64_of(v, "scenario.traffic.stagger_ns")?,
                    None => 0,
                },
            })
        }
        "closed_loop" => {
            check_unknown(
                f,
                p,
                &["kind", "window", "messages_per_source", "len", "think_ns"],
            )?;
            Ok(TrafficSpec::ClosedLoop {
                window: usize_of(require(f, p, "window")?, "scenario.traffic.window")?,
                messages_per_source: usize_of(
                    require(f, p, "messages_per_source")?,
                    "scenario.traffic.messages_per_source",
                )?,
                len: u32_of(require(f, p, "len")?, "scenario.traffic.len")?,
                think_ns: match get(f, "think_ns") {
                    Some(v) => u64_of(v, "scenario.traffic.think_ns")?,
                    None => 0,
                },
            })
        }
        other => Err(SpecError::UnknownKind {
            field: p.to_string(),
            got: other.to_string(),
        }),
    }
}

fn encode_traffic(t: &TrafficSpec) -> Json {
    match t {
        TrafficSpec::SingleMulticast { dests, len } => kind(
            "single_multicast",
            vec![("dests", uz(*dests)), ("len", u(*len as u64))],
        ),
        TrafficSpec::Mixed {
            unicast_fraction,
            multicast_dests,
            rate_per_node_per_us,
            len,
            messages,
            arrival,
        } => kind(
            "mixed",
            vec![
                ("unicast_fraction", f(*unicast_fraction)),
                ("multicast_dests", uz(*multicast_dests)),
                ("rate_per_node_per_us", f(*rate_per_node_per_us)),
                ("len", u(*len as u64)),
                ("messages", uz(*messages)),
                ("arrival", encode_arrival(arrival)),
            ],
        ),
        TrafficSpec::Hotspot {
            hot_nodes,
            hot_fraction,
            rate_per_node_per_us,
            len,
            messages,
            arrival,
        } => kind(
            "hotspot",
            vec![
                ("hot_nodes", uz(*hot_nodes)),
                ("hot_fraction", f(*hot_fraction)),
                ("rate_per_node_per_us", f(*rate_per_node_per_us)),
                ("len", u(*len as u64)),
                ("messages", uz(*messages)),
                ("arrival", encode_arrival(arrival)),
            ],
        ),
        TrafficSpec::Permutation {
            pattern,
            rate_per_node_per_us,
            len,
            messages_per_node,
            arrival,
        } => kind(
            "permutation",
            vec![
                (
                    "pattern",
                    s(match pattern {
                        PatternSpec::Transpose => "transpose",
                        PatternSpec::BitComplement => "bit_complement",
                    }),
                ),
                ("rate_per_node_per_us", f(*rate_per_node_per_us)),
                ("len", u(*len as u64)),
                ("messages_per_node", uz(*messages_per_node)),
                ("arrival", encode_arrival(arrival)),
            ],
        ),
        TrafficSpec::Incast {
            servers,
            rate_per_client_per_us,
            len,
            messages,
            arrival,
        } => kind(
            "incast",
            vec![
                ("servers", uz(*servers)),
                ("rate_per_client_per_us", f(*rate_per_client_per_us)),
                ("len", u(*len as u64)),
                ("messages", uz(*messages)),
                ("arrival", encode_arrival(arrival)),
            ],
        ),
        TrafficSpec::BroadcastStorm { len, stagger_ns } => kind(
            "broadcast_storm",
            vec![("len", u(*len as u64)), ("stagger_ns", u(*stagger_ns))],
        ),
        TrafficSpec::ClosedLoop {
            window,
            messages_per_source,
            len,
            think_ns,
        } => kind(
            "closed_loop",
            vec![
                ("window", uz(*window)),
                ("messages_per_source", uz(*messages_per_source)),
                ("len", u(*len as u64)),
                ("think_ns", u(*think_ns)),
            ],
        ),
    }
}

fn decode_model(v: &Json, p: &str) -> Result<FaultModelSpec, SpecError> {
    let f = fields(v, p)?;
    match kind_of(f, p)? {
        "iid_links" => {
            check_unknown(f, p, &["kind", "rate"])?;
            Ok(FaultModelSpec::IidLinks {
                rate: f64_of(require(f, p, "rate")?, &format!("{p}.rate"))?,
            })
        }
        "iid_switches" => {
            check_unknown(f, p, &["kind", "rate"])?;
            Ok(FaultModelSpec::IidSwitches {
                rate: f64_of(require(f, p, "rate")?, &format!("{p}.rate"))?,
            })
        }
        "region" => {
            check_unknown(f, p, &["kind", "radius"])?;
            Ok(FaultModelSpec::Region {
                radius: usize_of(require(f, p, "radius")?, &format!("{p}.radius"))?,
            })
        }
        other => Err(SpecError::UnknownKind {
            field: p.to_string(),
            got: other.to_string(),
        }),
    }
}

fn encode_model(m: &FaultModelSpec) -> Json {
    match *m {
        FaultModelSpec::IidLinks { rate } => kind("iid_links", vec![("rate", f(rate))]),
        FaultModelSpec::IidSwitches { rate } => kind("iid_switches", vec![("rate", f(rate))]),
        FaultModelSpec::Region { radius } => kind("region", vec![("radius", uz(radius))]),
    }
}

pub(crate) fn decode_faults(v: &Json) -> Result<FaultsSpec, SpecError> {
    let p = "scenario.faults";
    let f = fields(v, p)?;
    match kind_of(f, p)? {
        "none" => {
            kind_only(f, p)?;
            Ok(FaultsSpec::None)
        }
        "static" => {
            check_unknown(f, p, &["kind", "model", "seed"])?;
            Ok(FaultsSpec::Static {
                model: decode_model(require(f, p, "model")?, "scenario.faults.model")?,
                seed: match get(f, "seed") {
                    Some(v) => u64_of(v, "scenario.faults.seed")?,
                    None => 0,
                },
            })
        }
        "storm" => {
            check_unknown(
                f,
                p,
                &[
                    "kind",
                    "model",
                    "seed",
                    "window_start_us",
                    "window_end_us",
                    "bursts",
                ],
            )?;
            Ok(FaultsSpec::Storm {
                model: decode_model(require(f, p, "model")?, "scenario.faults.model")?,
                seed: match get(f, "seed") {
                    Some(v) => u64_of(v, "scenario.faults.seed")?,
                    None => 0,
                },
                window_start_us: u64_of(
                    require(f, p, "window_start_us")?,
                    "scenario.faults.window_start_us",
                )?,
                window_end_us: u64_of(
                    require(f, p, "window_end_us")?,
                    "scenario.faults.window_end_us",
                )?,
                bursts: usize_of(require(f, p, "bursts")?, "scenario.faults.bursts")?,
            })
        }
        other => Err(SpecError::UnknownKind {
            field: p.to_string(),
            got: other.to_string(),
        }),
    }
}

pub(crate) fn encode_faults(fs: &FaultsSpec) -> Json {
    match fs {
        FaultsSpec::None => kind("none", vec![]),
        FaultsSpec::Static { model, seed } => kind(
            "static",
            vec![("model", encode_model(model)), ("seed", u(*seed))],
        ),
        FaultsSpec::Storm {
            model,
            seed,
            window_start_us,
            window_end_us,
            bursts,
        } => kind(
            "storm",
            vec![
                ("model", encode_model(model)),
                ("seed", u(*seed)),
                ("window_start_us", u(*window_start_us)),
                ("window_end_us", u(*window_end_us)),
                ("bursts", uz(*bursts)),
            ],
        ),
    }
}

fn decode_engine(v: &Json) -> Result<EngineSpec, SpecError> {
    let p = "scenario.engine";
    let f = fields(v, p)?;
    check_unknown(
        f,
        p,
        &[
            "queue",
            "input_buffer_flits",
            "output_buffer_flits",
            "extra_header_flits",
            "trace",
            "metrics_every_ns",
            "checkpoint_every_ns",
        ],
    )?;
    let d = EngineSpec::default();
    Ok(EngineSpec {
        queue: match get(f, "queue") {
            Some(Json::Null) | None => None,
            Some(v) => Some(match str_of(v, "scenario.engine.queue")?.as_str() {
                "bucket" => QueueSpec::Bucket,
                "heap" => QueueSpec::Heap,
                other => {
                    return Err(SpecError::UnknownKind {
                        field: "scenario.engine.queue".to_string(),
                        got: other.to_string(),
                    })
                }
            }),
        },
        input_buffer_flits: match get(f, "input_buffer_flits") {
            Some(v) => usize_of(v, "scenario.engine.input_buffer_flits")?,
            None => d.input_buffer_flits,
        },
        output_buffer_flits: match get(f, "output_buffer_flits") {
            Some(v) => usize_of(v, "scenario.engine.output_buffer_flits")?,
            None => d.output_buffer_flits,
        },
        extra_header_flits: match get(f, "extra_header_flits") {
            Some(v) => u32_of(v, "scenario.engine.extra_header_flits")?,
            None => d.extra_header_flits,
        },
        trace: match get(f, "trace") {
            Some(v) => bool_of(v, "scenario.engine.trace")?,
            None => d.trace,
        },
        metrics_every_ns: match get(f, "metrics_every_ns") {
            Some(Json::Null) | None => None,
            Some(v) => Some(u64_of(v, "scenario.engine.metrics_every_ns")?),
        },
        checkpoint_every_ns: match get(f, "checkpoint_every_ns") {
            Some(Json::Null) | None => None,
            Some(v) => Some(u64_of(v, "scenario.engine.checkpoint_every_ns")?),
        },
    })
}

fn encode_engine(e: &EngineSpec) -> Json {
    Json::obj(vec![
        (
            "queue",
            match e.queue {
                None => Json::Null,
                Some(QueueSpec::Bucket) => s("bucket"),
                Some(QueueSpec::Heap) => s("heap"),
            },
        ),
        ("input_buffer_flits", uz(e.input_buffer_flits)),
        ("output_buffer_flits", uz(e.output_buffer_flits)),
        ("extra_header_flits", u(e.extra_header_flits as u64)),
        ("trace", Json::Bool(e.trace)),
        (
            "metrics_every_ns",
            match e.metrics_every_ns {
                None => Json::Null,
                Some(n) => u(n),
            },
        ),
        (
            "checkpoint_every_ns",
            match e.checkpoint_every_ns {
                None => Json::Null,
                Some(n) => u(n),
            },
        ),
    ])
}
