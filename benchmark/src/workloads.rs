//! The five workloads, generated from `--seed`.
//!
//! Every workload is a list of *passes*; a pass is a fixed request list
//! with four standard requests to every heavy one (the corpus keeps its
//! own mix), so the pass median sits inside the standard class and the
//! pass p90 inside the heavy class. Four workloads replay one pass; the
//! cold one consumes a fresh slice of a pre-rendered pool each pass.

use spam_scenario::json;
use spam_scenario::{
    run_once, split_seed, ArrivalSpec, FaultModelSpec, FaultsSpec, RoutingSpec, ScenarioSpec,
    TrafficSpec,
};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "engine_saturated_256",
    "cold_fabric_1024",
    "sweep_warm_tiny",
    "storm_resume_256",
    "corpus_mix",
];

/// The 14 committed scenarios `corpus_mix` replays. Frozen here so that a
/// scenario added later does not silently change the workload.
const CORPUS: [&str; 14] = [
    "bit_complement_spam",
    "broadcast_storm_32",
    "bursty_onoff_mixed",
    "closed_loop_window4",
    "fig2_single_multicast",
    "fig3_mixed_negbinomial",
    "fuzzed_relabel_reattach",
    "fuzzed_teardown_branch",
    "fuzzed_wheel_overflow",
    "hotspot_link_storm",
    "incast_degraded_256",
    "region_fault_hotspot",
    "software_multicast_mixed",
    "transpose_updown_unicast",
];

/// Requests per pass of the two engine-bound workloads: eight standard,
/// two heavy.
const PASS_LEN: usize = 10;

/// What one request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `run` line through `ServeCore`: handle_line → step → ack.
    Serve,
    /// `run_once_checkpointed` + `resume_once` + digest comparison.
    Resume,
}

pub struct Request {
    pub spec: ScenarioSpec,
    /// The pre-rendered `{"op":"run","spec":…}` line (`Kind::Serve`).
    pub line: String,
    pub heavy: bool,
}

impl Request {
    fn new(spec: ScenarioSpec, heavy: bool) -> Self {
        let line = run_line(&spec.to_json().to_string_compact());
        Request { spec, line, heavy }
    }
}

fn run_line(spec_json: &str) -> String {
    format!(r#"{{"op":"run","spec":{spec_json}}}"#)
}

pub struct Workload {
    pub kind: Kind,
    /// `pass_len` requests when `repeats`, else a pool consumed
    /// `pass_len` at a time.
    pub requests: Vec<Request>,
    pub pass_len: usize,
    /// Every pass replays `requests[..pass_len]`, so after set-up every
    /// artifact lookup is a hit and pass-to-pass counts repeat exactly.
    pub repeats: bool,
    /// Requests set-up sends first so the cache is at its steady
    /// eviction state before timing (cold workload only).
    pub fill: Vec<Request>,
    /// Untimed passes set-up runs after its cold pass. Frozen: set-up is
    /// fixed work, so `setup_s` compares across commits.
    pub warmup_passes: usize,
}

impl Workload {
    /// Passes the request list allows (unbounded when it repeats).
    pub fn max_passes(&self) -> usize {
        if self.repeats {
            usize::MAX
        } else {
            self.requests.len() / self.pass_len
        }
    }

    /// The requests of pass `p`.
    pub fn pass(&self, p: usize) -> &[Request] {
        let start = if self.repeats { 0 } else { p * self.pass_len };
        &self.requests[start..start + self.pass_len]
    }
}

/// Builds the named workload. `tick` is called between the sizing runs
/// (the calibration kernel's turn, see `run::set_up`).
pub fn build(
    name: &str,
    seed: u64,
    seconds: u64,
    tick: &mut dyn FnMut(),
) -> Result<Workload, String> {
    match name {
        "engine_saturated_256" => Ok(engine_saturated(seed, tick)),
        "cold_fabric_1024" => Ok(cold_fabric(seed, seconds)),
        "sweep_warm_tiny" => Ok(sweep_warm_tiny(seed)),
        "storm_resume_256" => Ok(storm_resume(seed, tick)),
        "corpus_mix" => corpus_mix(seed),
        other => Err(format!(
            "unknown workload '{other}' (one of: {})",
            NAMES.join(", ")
        )),
    }
}

fn negbin() -> ArrivalSpec {
    ArrivalSpec::NegativeBinomial { r: 1 }
}

fn messages_mut(spec: &mut ScenarioSpec) -> &mut usize {
    match &mut spec.traffic {
        TrafficSpec::Mixed { messages, .. } | TrafficSpec::Hotspot { messages, .. } => messages,
        _ => unreachable!("only mixed and hotspot specs are sized by event count"),
    }
}

/// Sets the spec's message count so one run processes about `target`
/// engine events. Events per message swing ±5 % with the topology and
/// traffic seeds; sizing by events keeps request cost — and with it p50,
/// p90 and throughput — comparable from one `--seed` to the next. A
/// 40-message probe finds the scale, one full-size run corrects it.
fn size_to_events(spec: &mut ScenarioSpec, target: u64, tick: &mut dyn FnMut()) {
    *messages_mut(spec) = 40;
    for _ in 0..2 {
        let seen = run_once(spec, 0, None)
            .expect("generated spec runs")
            .counters
            .events;
        tick();
        let m = messages_mut(spec);
        *m = (*m as f64 * target as f64 / seen as f64).round().max(8.0) as usize;
    }
}

/// Ten resident 256-switch fabrics, one per request, under saturating
/// mixed multicast: every message is generated within the first
/// microseconds, so the fabric is backlogged until the last tail drains.
/// A fabric per request, because events per message, allocations and
/// simulated latency follow the topology: over ten of them the pass
/// totals move a third as much from one `--seed` to the next.
fn engine_saturated(seed: u64, tick: &mut dyn FnMut()) -> Workload {
    let requests = (0..PASS_LEN as u64)
        .map(|i| {
            let heavy = i % 5 == 4;
            let mut spec = ScenarioSpec::example(&format!("engine-{i}"));
            spec.topology.switches = 256;
            spec.topology.seed = split_seed(seed, 1 + i);
            spec.traffic = TrafficSpec::Mixed {
                unicast_fraction: 0.5,
                multicast_dests: 8,
                rate_per_node_per_us: 1.0,
                len: 32,
                messages: 0,
                arrival: negbin(),
            };
            spec.seed = split_seed(seed, 100 + i);
            size_to_events(&mut spec, if heavy { 750_000 } else { 250_000 }, tick);
            Request::new(spec, heavy)
        })
        .collect();
    Workload {
        kind: Kind::Serve,
        requests,
        pass_len: PASS_LEN,
        repeats: true,
        fill: Vec::new(),
        warmup_passes: 1,
    }
}

/// A fresh 1024-switch topology per request and one small multicast, so
/// the engine idles and artifact construction does the work. The heavy
/// request adds a two-burst link storm that strikes after the multicast
/// has been delivered: its cost is the epoch chain and per-epoch tables.
fn cold_request(seed: u64, index: u64, heavy: bool) -> Request {
    let mut spec = ScenarioSpec::example(&format!("cold-{index}"));
    spec.topology.switches = 1024;
    spec.topology.seed = split_seed(seed, 1_000 + index);
    spec.traffic = TrafficSpec::SingleMulticast { dests: 8, len: 32 };
    spec.seed = split_seed(seed, 500_000 + index);
    if heavy {
        spec.faults = FaultsSpec::Storm {
            model: FaultModelSpec::IidLinks { rate: 0.01 },
            seed: split_seed(seed, 900_000 + index),
            window_start_us: 60,
            window_end_us: 120,
            bursts: 2,
        };
    }
    Request::new(spec, heavy)
}

fn cold_fabric(seed: u64, seconds: u64) -> Workload {
    // Pool sized for a box three times faster than the one the workload
    // was sized on (a standard request took 72 ms there); a run that
    // exhausts it just ends its timed phase early.
    let passes = (seconds * 8).max(4);
    let requests = (0..passes * 5)
        .map(|i| cold_request(seed, i, i % 5 == 4))
        .collect();
    // Disjoint from the pool; enough to overflow the 256 MiB budget so
    // every timed insert evicts.
    let fill = (0..10u64)
        .map(|i| cold_request(seed, 400_000 + i, i % 5 == 4))
        .collect();
    Workload {
        kind: Kind::Serve,
        requests,
        pass_len: 5,
        repeats: false,
        fill,
        warmup_passes: 0,
    }
}

/// 500 distinct request lines over 8 resident fabrics (six of 16
/// switches, two of 64), arms rotating SPAM / up*/down* unicast /
/// software multicast: the smallest-packet case, where per-request
/// overhead around the engine is about half of each request.
fn sweep_warm_tiny(seed: u64) -> Workload {
    let requests = (0..500u64)
        .map(|i| {
            let heavy = i % 5 == 4;
            let (switches, fabric, dests, len) = if heavy {
                (64, 6 + (i / 5) % 2, 8, 64)
            } else {
                (16, i % 6, 2, 8)
            };
            let mut spec = ScenarioSpec::example(&format!("sweep-{i}"));
            spec.topology.switches = switches;
            spec.topology.seed = split_seed(seed, 10 + fabric);
            spec.seed = split_seed(seed, 1_000 + i);
            match (i / 5 + i % 5) % 3 {
                0 => spec.traffic = TrafficSpec::SingleMulticast { dests, len },
                1 => {
                    spec.routing = RoutingSpec::UpDownUnicast;
                    spec.traffic = TrafficSpec::Mixed {
                        unicast_fraction: 1.0,
                        multicast_dests: 1,
                        rate_per_node_per_us: 0.02,
                        len,
                        messages: dests,
                        arrival: negbin(),
                    };
                }
                _ => {
                    spec.routing = RoutingSpec::SoftwareMulticast;
                    spec.traffic = TrafficSpec::SingleMulticast { dests, len };
                }
            }
            Request::new(spec, heavy)
        })
        .collect();
    Workload {
        kind: Kind::Serve,
        requests,
        pass_len: 500,
        repeats: true,
        fill: Vec::new(),
        warmup_passes: 20,
    }
}

/// 256 switches, hotspot traffic under a two-burst link storm; the
/// request checkpoints a run, resumes it from one checkpoint and
/// compares digests. Heavy requests carry twice the events and resume
/// from the first checkpoint instead of the middle one. A fabric and a
/// storm per request, for the reason given at `engine_saturated`.
fn storm_resume(seed: u64, tick: &mut dyn FnMut()) -> Workload {
    let requests = (0..PASS_LEN as u64)
        .map(|i| {
            let heavy = i % 5 == 4;
            let mut spec = ScenarioSpec::example(&format!("storm-{i}"));
            spec.topology.switches = 256;
            spec.topology.seed = split_seed(seed, 1 + i);
            spec.traffic = TrafficSpec::Hotspot {
                hot_nodes: 4,
                hot_fraction: 0.3,
                rate_per_node_per_us: 0.01,
                len: 64,
                messages: 0,
                arrival: negbin(),
            };
            spec.faults = FaultsSpec::Storm {
                model: FaultModelSpec::IidLinks { rate: 0.05 },
                seed: split_seed(seed, 50 + i),
                window_start_us: 20,
                window_end_us: 60,
                bursts: 2,
            };
            spec.seed = split_seed(seed, 100 + i);
            size_to_events(&mut spec, if heavy { 200_000 } else { 100_000 }, tick);
            Request {
                spec,
                line: String::new(),
                heavy,
            }
        })
        .collect();
    Workload {
        kind: Kind::Resume,
        requests,
        pass_len: PASS_LEN,
        repeats: true,
        fill: Vec::new(),
        warmup_passes: 1,
    }
}

/// The committed corpus verbatim (each file's own JSON, compacted to one
/// line); the seed only picks the order within the pass.
fn corpus_mix(seed: u64) -> Result<Workload, String> {
    let dir = crate::repo_root().join("scenarios");
    let mut requests = Vec::with_capacity(CORPUS.len());
    for name in CORPUS {
        let path = dir.join(format!("{name}.scenario.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let spec =
            ScenarioSpec::from_value(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        requests.push(Request {
            spec,
            line: run_line(&doc.to_string_compact()),
            heavy: false,
        });
    }
    for i in (1..requests.len()).rev() {
        let j = (split_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        requests.swap(i, j);
    }
    Ok(Workload {
        kind: Kind::Serve,
        pass_len: requests.len(),
        requests,
        repeats: true,
        fill: Vec::new(),
        warmup_passes: 4,
    })
}
