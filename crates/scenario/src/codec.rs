//! JSON encoding/decoding of [`ScenarioSpec`].
//!
//! The schema is explicit and strict: tagged enums carry a `"kind"`
//! field, unknown fields are typo errors, and every decode failure names
//! the dotted path of the offending field. Encoding always writes every
//! field, so a round trip through [`ScenarioSpec::to_json_string`] and
//! [`ScenarioSpec::from_json`] reproduces the value exactly (seeds are
//! `u64`-exact — see [`crate::json::Num`]).
//!
//! Every decoder reads its object through one `Reader`, which owns
//! lookup, coercion, defaults, error paths and the unknown-key check, so
//! a key is spelled once in its decoder and once in its encoder.

use crate::json::{parse, Json, Num};
use crate::spec::{
    ArrivalSpec, EngineSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec, QueueSpec,
    RoutingSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec, TrafficSpec,
};
use std::cell::Cell;

// ---------------------------------------------------------------------
// Decoding: the object reader

/// The dotted path of the value being decoded. A closure, so the string
/// is built only when an error has to name it.
pub(crate) type At<'x> = &'x dyn Fn() -> String;

/// One JSON object being decoded.
///
/// The reader learns which keys are legal only by being asked for them,
/// and a key nobody asked for must be reported before a bad value. So a
/// bad value does not return early: the first one is kept, the getter
/// hands back a stand-in so that the decoder goes on to ask for the rest
/// of its keys, and [`Reader::finish`] reports the unknown key, else the
/// kept error, else the value. The cells let a decoder be one
/// expression: `o.finish(T { a: o.req("a", u64_of), .. })`.
pub(crate) struct Reader<'a, 'p> {
    fields: &'a [(String, Json)],
    path: At<'p>,
    /// Bit `i` is set once field `i` has been asked for.
    asked: Cell<u64>,
    /// The first bad value.
    bad: Cell<Option<SpecError>>,
}

impl<'a, 'p> Reader<'a, 'p> {
    pub(crate) fn new(v: &'a Json, path: At<'p>) -> Result<Self, SpecError> {
        match v {
            Json::Obj(fields) => Ok(Reader {
                fields,
                path,
                asked: Cell::new(0),
                bad: Cell::new(None),
            }),
            _ => Err(wrong_type(path, "an object")),
        }
    }

    fn at(&self, key: &str) -> String {
        format!("{}.{key}", (self.path)())
    }

    /// Marks `key` asked for and, if the object has it, coerces its value.
    fn get<T>(
        &self,
        key: &str,
        of: impl FnOnce(&'a Json, At<'_>) -> Result<T, SpecError>,
    ) -> Option<Result<T, SpecError>> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        // `json::parse` rejects repeated keys and no object has 64 legal
        // ones, so a field past bit 63 is never the first unknown one.
        if i < 64 {
            self.asked.set(self.asked.get() | 1 << i);
        }
        Some(of(&self.fields[i].1, &|| self.at(key)))
    }

    /// A key the object has to have. The error is returned, not kept.
    fn must<T>(
        &self,
        key: &str,
        of: impl FnOnce(&'a Json, At<'_>) -> Result<T, SpecError>,
    ) -> Result<T, SpecError> {
        match self.get(key, of) {
            Some(got) => got,
            None => Err(SpecError::MissingField {
                field: self.at(key),
            }),
        }
    }

    /// Unwraps `got`; a bad value is kept if it is the first, and
    /// `stand_in` takes its place.
    fn keep<T>(&self, got: Result<T, SpecError>, stand_in: T) -> T {
        got.unwrap_or_else(|e| {
            self.bad.set(self.bad.take().or(Some(e)));
            stand_in
        })
    }

    /// A required key.
    pub(crate) fn req<T: Default>(
        &self,
        key: &str,
        of: impl FnOnce(&'a Json, At<'_>) -> Result<T, SpecError>,
    ) -> T {
        self.req_as(key, of, T::default())
    }

    /// A required key of a type with no `Default`. `stand_in` is not a
    /// default: it only ever accompanies a kept error, and `finish`
    /// returns that error instead of the value built around it.
    pub(crate) fn req_as<T>(
        &self,
        key: &str,
        of: impl FnOnce(&'a Json, At<'_>) -> Result<T, SpecError>,
        stand_in: T,
    ) -> T {
        self.keep(self.must(key, of), stand_in)
    }

    /// A key that decodes to `default` when absent (`null` is a value,
    /// and the wrong type).
    fn or<T>(
        &self,
        key: &str,
        of: impl FnOnce(&'a Json, At<'_>) -> Result<T, SpecError>,
        default: T,
    ) -> T {
        match self.get(key, of) {
            Some(got) => self.keep(got, default),
            None => default,
        }
    }

    /// A key that may be absent or `null`.
    fn opt<T>(
        &self,
        key: &str,
        of: impl FnOnce(&'a Json, At<'_>) -> Result<T, SpecError>,
    ) -> Option<T> {
        let or_null = |v: &'a Json, at: At<'_>| match v {
            Json::Null => Ok(None),
            v => of(v, at).map(Some),
        };
        self.or(key, or_null, None)
    }

    /// The `kind` tag. It picks the decoder's arm, so unlike every other
    /// value a bad one returns at once.
    fn kind(&self) -> Result<&'a str, SpecError> {
        self.must("kind", str_of)
    }

    /// Ends the object: the first key nobody asked for, else the first
    /// bad value, else `value`.
    pub(crate) fn finish<T>(&self, value: T) -> Result<T, SpecError> {
        let asked = self.asked.get();
        let mut fields = self.fields.iter().enumerate();
        match fields.find(|&(i, _)| i >= 64 || asked >> i & 1 == 0) {
            Some((_, (key, _))) => Err(SpecError::UnknownField {
                field: self.at(key),
            }),
            None => self.bad.take().map_or(Ok(value), Err),
        }
    }
}

fn wrong_type(at: At<'_>, expected: &'static str) -> SpecError {
    SpecError::WrongType {
        field: at(),
        expected,
    }
}

fn unknown_kind(at: At<'_>, got: &str) -> SpecError {
    SpecError::UnknownKind {
        field: at(),
        got: got.to_string(),
    }
}

fn str_of<'a>(v: &'a Json, at: At<'_>) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| wrong_type(at, "a string"))
}

fn u64_of(v: &Json, at: At<'_>) -> Result<u64, SpecError> {
    let n = v.as_num().and_then(|n| n.as_u64());
    n.ok_or_else(|| wrong_type(at, "a non-negative integer"))
}

fn usize_of(v: &Json, at: At<'_>) -> Result<usize, SpecError> {
    usize::try_from(u64_of(v, at)?).map_err(|_| wrong_type(at, "a machine-sized integer"))
}

pub(crate) fn u32_of(v: &Json, at: At<'_>) -> Result<u32, SpecError> {
    u32::try_from(u64_of(v, at)?).map_err(|_| wrong_type(at, "a 32-bit integer"))
}

fn bool_of(v: &Json, at: At<'_>) -> Result<bool, SpecError> {
    v.as_bool().ok_or_else(|| wrong_type(at, "a boolean"))
}

fn f64_of(v: &Json, at: At<'_>) -> Result<f64, SpecError> {
    let n = v.as_num().map(|n| n.as_f64());
    n.ok_or_else(|| wrong_type(at, "a number"))
}

/// The `(tag, value)` rows of a string-tagged enum: [`tag`] reads
/// through them and [`tag_json`] writes through them.
type Tags<T> = &'static [(&'static str, T)];

const STRATEGIES: Tags<StrategySpec> = &[
    ("connected_growth", StrategySpec::ConnectedGrowth),
    ("uniform_retry", StrategySpec::UniformRetry),
];

const PATTERNS: Tags<PatternSpec> = &[
    ("transpose", PatternSpec::Transpose),
    ("bit_complement", PatternSpec::BitComplement),
];

const QUEUES: Tags<QueueSpec> = &[("bucket", QueueSpec::Bucket), ("heap", QueueSpec::Heap)];

fn tag<T: Copy>(tags: Tags<T>) -> impl Fn(&Json, At<'_>) -> Result<T, SpecError> {
    move |v, at| {
        let got = str_of(v, at)?;
        let row = tags.iter().find(|(name, _)| *name == got);
        row.map(|&(_, value)| value)
            .ok_or_else(|| unknown_kind(at, got))
    }
}

fn tag_json<T: PartialEq>(tags: Tags<T>, value: T) -> Json {
    let row = tags.iter().find(|(_, v)| *v == value);
    s(row.map_or("", |(name, _)| name))
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

fn nullable(v: Option<u64>) -> Json {
    v.map_or(Json::Null, u)
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
        let o = Reader::new(v, &|| "scenario".to_string())?;
        o.finish(ScenarioSpec {
            name: o.req("name", str_of).to_string(),
            description: o.or("description", str_of, "").to_string(),
            topology: o.req("topology", decode_topology),
            routing: o.req_as("routing", decode_routing, RoutingSpec::UpDownUnicast),
            traffic: o.req_as("traffic", decode_traffic, NO_TRAFFIC),
            faults: o.or("faults", decode_faults, FaultsSpec::None),
            engine: o.or("engine", decode_engine, EngineSpec::default()),
            seed: o.or("seed", u64_of, 0),
            replications: o.or("replications", u32_of, 1),
            horizon_us: o.opt("horizon_us", u64_of),
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

pub(crate) fn decode_topology(v: &Json, at: At<'_>) -> Result<TopologySpec, SpecError> {
    let o = Reader::new(v, at)?;
    o.finish(TopologySpec {
        switches: o.req("switches", usize_of),
        seed: o.or("seed", u64_of, 0),
        side: o.opt("side", usize_of),
        strategy: o.or("strategy", tag(STRATEGIES), StrategySpec::ConnectedGrowth),
        ports: o.or("ports", usize_of, 8),
    })
}

pub(crate) fn encode_topology(t: &TopologySpec) -> Json {
    let mut out = vec![("switches", uz(t.switches)), ("seed", u(t.seed))];
    if let Some(side) = t.side {
        out.push(("side", uz(side)));
    }
    out.push(("strategy", tag_json(STRATEGIES, t.strategy)));
    out.push(("ports", uz(t.ports)));
    Json::obj(out)
}

fn decode_routing(v: &Json, at: At<'_>) -> Result<RoutingSpec, SpecError> {
    let o = Reader::new(v, at)?;
    match o.kind()? {
        "spam" => o.finish(RoutingSpec::Spam {
            policy: o.or("policy", decode_policy, PolicySpec::MinResidualDistance),
        }),
        "updown_unicast" => o.finish(RoutingSpec::UpDownUnicast),
        "software_multicast" => o.finish(RoutingSpec::SoftwareMulticast),
        other => Err(unknown_kind(at, other)),
    }
}

fn decode_policy(v: &Json, at: At<'_>) -> Result<PolicySpec, SpecError> {
    let o = Reader::new(v, at)?;
    match o.kind()? {
        "min_residual_distance" => o.finish(PolicySpec::MinResidualDistance),
        "first_legal" => o.finish(PolicySpec::FirstLegal),
        "random_legal" => o.finish(PolicySpec::RandomLegal {
            seed: o.req("seed", u64_of),
        }),
        other => Err(unknown_kind(at, other)),
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

/// What an absent `arrival` decodes to: the §4 geometric slot counts.
const GEOMETRIC: ArrivalSpec = ArrivalSpec::NegativeBinomial { r: 1 };

fn decode_arrival(v: &Json, at: At<'_>) -> Result<ArrivalSpec, SpecError> {
    let o = Reader::new(v, at)?;
    match o.kind()? {
        "negative_binomial" => o.finish(ArrivalSpec::NegativeBinomial {
            r: o.req("r", u32_of),
        }),
        "poisson" => o.finish(ArrivalSpec::Poisson),
        "deterministic" => o.finish(ArrivalSpec::Deterministic),
        "on_off" => o.finish(ArrivalSpec::OnOff {
            r: o.req("r", u32_of),
            mean_on_us: o.req("mean_on_us", u64_of),
            mean_off_us: o.req("mean_off_us", u64_of),
        }),
        other => Err(unknown_kind(at, other)),
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

/// The stand-in of a `traffic` object that did not decode.
const NO_TRAFFIC: TrafficSpec = TrafficSpec::BroadcastStorm {
    len: 0,
    stagger_ns: 0,
};

fn decode_traffic(v: &Json, at: At<'_>) -> Result<TrafficSpec, SpecError> {
    let o = Reader::new(v, at)?;
    match o.kind()? {
        "single_multicast" => o.finish(TrafficSpec::SingleMulticast {
            dests: o.req("dests", usize_of),
            len: o.req("len", u32_of),
        }),
        "mixed" => o.finish(TrafficSpec::Mixed {
            unicast_fraction: o.req("unicast_fraction", f64_of),
            multicast_dests: o.req("multicast_dests", usize_of),
            rate_per_node_per_us: o.req("rate_per_node_per_us", f64_of),
            len: o.req("len", u32_of),
            messages: o.req("messages", usize_of),
            arrival: o.or("arrival", decode_arrival, GEOMETRIC),
        }),
        "hotspot" => o.finish(TrafficSpec::Hotspot {
            hot_nodes: o.req("hot_nodes", usize_of),
            hot_fraction: o.req("hot_fraction", f64_of),
            rate_per_node_per_us: o.req("rate_per_node_per_us", f64_of),
            len: o.req("len", u32_of),
            messages: o.req("messages", usize_of),
            arrival: o.or("arrival", decode_arrival, GEOMETRIC),
        }),
        "permutation" => o.finish(TrafficSpec::Permutation {
            pattern: o.req_as("pattern", tag(PATTERNS), PatternSpec::Transpose),
            rate_per_node_per_us: o.req("rate_per_node_per_us", f64_of),
            len: o.req("len", u32_of),
            messages_per_node: o.req("messages_per_node", usize_of),
            arrival: o.or("arrival", decode_arrival, GEOMETRIC),
        }),
        "incast" => o.finish(TrafficSpec::Incast {
            servers: o.req("servers", usize_of),
            rate_per_client_per_us: o.req("rate_per_client_per_us", f64_of),
            len: o.req("len", u32_of),
            messages: o.req("messages", usize_of),
            arrival: o.or("arrival", decode_arrival, GEOMETRIC),
        }),
        "broadcast_storm" => o.finish(TrafficSpec::BroadcastStorm {
            len: o.req("len", u32_of),
            stagger_ns: o.or("stagger_ns", u64_of, 0),
        }),
        "closed_loop" => o.finish(TrafficSpec::ClosedLoop {
            window: o.req("window", usize_of),
            messages_per_source: o.req("messages_per_source", usize_of),
            len: o.req("len", u32_of),
            think_ns: o.or("think_ns", u64_of, 0),
        }),
        other => Err(unknown_kind(at, other)),
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
                ("pattern", tag_json(PATTERNS, *pattern)),
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

/// The stand-in of a `model` object that did not decode.
const NO_MODEL: FaultModelSpec = FaultModelSpec::Region { radius: 0 };

fn decode_model(v: &Json, at: At<'_>) -> Result<FaultModelSpec, SpecError> {
    let o = Reader::new(v, at)?;
    match o.kind()? {
        "iid_links" => o.finish(FaultModelSpec::IidLinks {
            rate: o.req("rate", f64_of),
        }),
        "iid_switches" => o.finish(FaultModelSpec::IidSwitches {
            rate: o.req("rate", f64_of),
        }),
        "region" => o.finish(FaultModelSpec::Region {
            radius: o.req("radius", usize_of),
        }),
        other => Err(unknown_kind(at, other)),
    }
}

fn encode_model(m: &FaultModelSpec) -> Json {
    match *m {
        FaultModelSpec::IidLinks { rate } => kind("iid_links", vec![("rate", f(rate))]),
        FaultModelSpec::IidSwitches { rate } => kind("iid_switches", vec![("rate", f(rate))]),
        FaultModelSpec::Region { radius } => kind("region", vec![("radius", uz(radius))]),
    }
}

pub(crate) fn decode_faults(v: &Json, at: At<'_>) -> Result<FaultsSpec, SpecError> {
    let o = Reader::new(v, at)?;
    match o.kind()? {
        "none" => o.finish(FaultsSpec::None),
        "static" => o.finish(FaultsSpec::Static {
            model: o.req_as("model", decode_model, NO_MODEL),
            seed: o.or("seed", u64_of, 0),
        }),
        "storm" => o.finish(FaultsSpec::Storm {
            model: o.req_as("model", decode_model, NO_MODEL),
            seed: o.or("seed", u64_of, 0),
            window_start_us: o.req("window_start_us", u64_of),
            window_end_us: o.req("window_end_us", u64_of),
            bursts: o.req("bursts", usize_of),
        }),
        other => Err(unknown_kind(at, other)),
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

fn decode_engine(v: &Json, at: At<'_>) -> Result<EngineSpec, SpecError> {
    let o = Reader::new(v, at)?;
    let d = EngineSpec::default();
    o.finish(EngineSpec {
        queue: o.opt("queue", tag(QUEUES)),
        input_buffer_flits: o.or("input_buffer_flits", usize_of, d.input_buffer_flits),
        output_buffer_flits: o.or("output_buffer_flits", usize_of, d.output_buffer_flits),
        extra_header_flits: o.or("extra_header_flits", u32_of, d.extra_header_flits),
        trace: o.or("trace", bool_of, d.trace),
        metrics_every_ns: o.opt("metrics_every_ns", u64_of),
        checkpoint_every_ns: o.opt("checkpoint_every_ns", u64_of),
    })
}

fn encode_engine(e: &EngineSpec) -> Json {
    Json::obj(vec![
        ("queue", e.queue.map_or(Json::Null, |q| tag_json(QUEUES, q))),
        ("input_buffer_flits", uz(e.input_buffer_flits)),
        ("output_buffer_flits", uz(e.output_buffer_flits)),
        ("extra_header_flits", u(e.extra_header_flits as u64)),
        ("trace", Json::Bool(e.trace)),
        ("metrics_every_ns", nullable(e.metrics_every_ns)),
        ("checkpoint_every_ns", nullable(e.checkpoint_every_ns)),
    ])
}
