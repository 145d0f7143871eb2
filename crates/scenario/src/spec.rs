//! The declarative scenario model: every axis the workspace can vary —
//! topology, routing algorithm, traffic pattern, fault plan, event queue,
//! seeds, replication — as one serializable value with typed validation.

use std::fmt;
use traffic::TrafficError;

// The §4 vocabulary the spec shares with the library: one type per
// concept, under the names the codec, the mutator and callers use.
pub use desim::QueueKind as QueueSpec;
pub use netgraph::gen::lattice::LatticeStrategy as StrategySpec;
pub use spam_core::SelectionPolicy as PolicySpec;
pub use traffic::ArrivalKind as ArrivalSpec;
pub use traffic::PermutationPattern as PatternSpec;

/// A complete, self-contained experiment description. One
/// `*.scenario.json` file decodes to one of these; see
/// [`ScenarioSpec::from_json`] / [`ScenarioSpec::to_json`] and
/// [`ScenarioSpec::validate`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (reports and result files key on it).
    pub name: String,
    /// Free-form description (defaults to empty).
    pub description: String,
    /// The network.
    pub topology: TopologySpec,
    /// The routing scheme under test.
    pub routing: RoutingSpec,
    /// The offered load.
    pub traffic: TrafficSpec,
    /// What breaks, and when.
    pub faults: FaultsSpec,
    /// Engine knobs (buffers, queue implementation, header encoding).
    pub engine: EngineSpec,
    /// Base seed for workload generation. Replication `r` derives its
    /// seeds deterministically from the spec seeds (replication 0 uses
    /// them verbatim).
    pub seed: u64,
    /// Independent replications to run (≥ 1).
    pub replications: u32,
    /// Optional validation horizon in µs: every scheduled fault must fall
    /// inside it. (The simulation itself always runs to completion.)
    pub horizon_us: Option<u64>,
}

/// The §4 irregular-lattice network generator's knobs.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TopologySpec {
    /// Switches (= processors; one per switch).
    pub switches: usize,
    /// Generator seed.
    pub seed: u64,
    /// Lattice side (default: ~60 % occupancy for `switches`).
    pub side: Option<usize>,
    /// Cell-selection strategy.
    pub strategy: StrategySpec,
    /// Switch port budget to validate against (the paper's switches have
    /// 8; the generator uses ≤ 4 switch links + 1 processor link).
    pub ports: usize,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            switches: 64,
            seed: 0,
            side: None,
            strategy: StrategySpec::ConnectedGrowth,
            ports: 8,
        }
    }
}

/// Which routing scheme carries the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RoutingSpec {
    /// SPAM: one multi-head worm per multicast (the paper's algorithm).
    Spam {
        /// Adaptive-selection policy of the unicast stage.
        policy: PolicySpec,
    },
    /// Classic up*/down* unicast routing — unicast-only workloads.
    UpDownUnicast,
    /// Software multicast: every multicast expands into a binomial tree
    /// of up*/down* unicasts (completion-driven forwarding).
    SoftwareMulticast,
}

/// The offered load. Every variant corresponds to one generator of the
/// `traffic` crate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TrafficSpec {
    /// Figure 2: one `dests`-destination multicast in an idle network,
    /// source and destinations drawn uniformly.
    SingleMulticast {
        /// Destination count.
        dests: usize,
        /// Flits per message.
        len: u32,
    },
    /// Figure 3: per-node arrival processes, `unicast_fraction` unicasts,
    /// the rest `multicast_dests`-destination multicasts.
    Mixed {
        /// Fraction of unicasts (0.9 in the paper).
        unicast_fraction: f64,
        /// Destinations per multicast.
        multicast_dests: usize,
        /// Mean per-node arrival rate, messages/µs.
        rate_per_node_per_us: f64,
        /// Flits per message.
        len: u32,
        /// Total messages.
        messages: usize,
        /// Arrival process.
        arrival: ArrivalSpec,
    },
    /// Hotspot unicasts: `hot_fraction` of traffic aims at the
    /// `hot_nodes` lowest-id processors.
    Hotspot {
        /// Number of hot processors.
        hot_nodes: usize,
        /// Fraction of traffic aimed at them.
        hot_fraction: f64,
        /// Mean per-node arrival rate, messages/µs.
        rate_per_node_per_us: f64,
        /// Flits per message.
        len: u32,
        /// Total messages.
        messages: usize,
        /// Arrival process.
        arrival: ArrivalSpec,
    },
    /// Lattice-coordinate permutation unicasts (transpose or
    /// bit-complement partners through the generator's layout).
    Permutation {
        /// The coordinate map.
        pattern: PatternSpec,
        /// Mean per-node arrival rate, messages/µs.
        rate_per_node_per_us: f64,
        /// Flits per message.
        len: u32,
        /// Messages per (non-self-mapped) source.
        messages_per_node: usize,
        /// Arrival process.
        arrival: ArrivalSpec,
    },
    /// Client–server incast: everyone streams at the `servers` lowest-id
    /// processors.
    Incast {
        /// Number of servers.
        servers: usize,
        /// Mean per-client arrival rate, messages/µs.
        rate_per_client_per_us: f64,
        /// Flits per message.
        len: u32,
        /// Total messages.
        messages: usize,
        /// Arrival process.
        arrival: ArrivalSpec,
    },
    /// Broadcast storm: every processor multicasts to every other.
    BroadcastStorm {
        /// Flits per message.
        len: u32,
        /// Gap between consecutive sources' generation times (ns).
        stagger_ns: u64,
    },
    /// Closed-loop injection: at most `window` outstanding messages per
    /// source, replacements injected on completion.
    ClosedLoop {
        /// Max outstanding per source.
        window: usize,
        /// Messages each source sends in total.
        messages_per_source: usize,
        /// Flits per message.
        len: u32,
        /// Completion-to-injection think time (ns).
        think_ns: u64,
    },
}

/// What breaks during (or before) the run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FaultsSpec {
    /// A pristine network.
    None,
    /// Damage exists before the run: the network is degraded, relabeled,
    /// and traffic runs on the largest surviving component.
    Static {
        /// What dies.
        model: FaultModelSpec,
        /// Fault-sampler seed.
        seed: u64,
    },
    /// A live reconfiguration storm: deaths strike mid-run in `bursts`
    /// bursts inside the window; worms are torn down, the network
    /// relabels, traffic keeps flowing (requires SPAM routing).
    Storm {
        /// What dies.
        model: FaultModelSpec,
        /// Fault-sampler seed.
        seed: u64,
        /// Storm window start, µs.
        window_start_us: u64,
        /// Storm window end, µs (exclusive; must exceed the start).
        window_end_us: u64,
        /// Number of fault bursts (= epoch boundaries).
        bursts: usize,
    },
}

/// Stochastic fault model. The one mirror left of a library enum
/// (`spam_faults::FaultModel`): the benchmark's replica calls
/// [`FaultModelSpec::to_model`], so it goes when the replica does.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum FaultModelSpec {
    /// I.i.d. link deaths.
    IidLinks {
        /// Per-link death probability.
        rate: f64,
    },
    /// I.i.d. switch deaths.
    IidSwitches {
        /// Per-switch death probability.
        rate: f64,
    },
    /// A lattice region (Manhattan ball) dies.
    Region {
        /// Manhattan radius (0 = one switch).
        radius: usize,
    },
}

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EngineSpec {
    /// Event-queue arrangement; `None` defers to the engine default
    /// (`bucket`: constant-delay lanes in front of the heap).
    pub queue: Option<QueueSpec>,
    /// Input buffer depth per channel, flits (≥ 1).
    pub input_buffer_flits: usize,
    /// Output buffer depth per channel, flits (≥ 1).
    pub output_buffer_flits: usize,
    /// Extra header flits per worm (multi-flit address encoding).
    pub extra_header_flits: u32,
    /// Record the protocol-level event trace during the run (pure
    /// observer: outcomes are identical with it on or off). Off by
    /// default; omitted in documents means off, so older corpus files
    /// keep parsing unchanged.
    pub trace: bool,
    /// Fabric-telemetry sampling cadence in ns; `Some(n)` enables the
    /// gauge sampler and congestion accumulators (another pure observer —
    /// outcomes are byte-identical with it on or off). `None` (the
    /// default, and what an omitted field decodes to) disables telemetry,
    /// so older corpus files keep parsing unchanged.
    pub metrics_every_ns: Option<u64>,
    /// Engine-checkpoint cadence in sim-time ns; `Some(n)` sets the
    /// engine's checkpoint ticker (a third pure observer — outcomes are
    /// byte-identical with it on or off). Snapshots carry the cadence; a
    /// run only encodes once a sink is attached. `None` (the default,
    /// and what an omitted field decodes to) disables checkpointing, so
    /// older corpus files keep parsing unchanged.
    pub checkpoint_every_ns: Option<u64>,
}

impl Default for EngineSpec {
    fn default() -> Self {
        EngineSpec {
            queue: None,
            input_buffer_flits: 1,
            output_buffer_flits: 1,
            extra_header_flits: 0,
            trace: false,
            metrics_every_ns: None,
            checkpoint_every_ns: None,
        }
    }
}

/// Why a scenario document cannot be decoded or executed. Every failure
/// mode of a bad spec is one of these — never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not JSON.
    Json(crate::json::JsonError),
    /// A required field is absent.
    MissingField {
        /// Dotted path of the field.
        field: String,
    },
    /// A field holds the wrong JSON type or an out-of-range number.
    WrongType {
        /// Dotted path of the field.
        field: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An enum tag (`kind`) has no such variant.
    UnknownKind {
        /// Dotted path of the tagged object.
        field: String,
        /// The unrecognized tag.
        got: String,
    },
    /// A field not in the schema (typo guard).
    UnknownField {
        /// Dotted path of the field.
        field: String,
    },
    /// The scenario has no name.
    EmptyName,
    /// `switches` must be ≥ 2 (one processor cannot exchange messages).
    TooFewSwitches {
        /// Configured value.
        switches: usize,
    },
    /// An explicit lattice side too small for the switch count.
    LatticeTooSmall {
        /// Configured switch count.
        switches: usize,
        /// Configured side.
        side: usize,
    },
    /// An explicit lattice side whose square does not fit a machine word
    /// (the generator indexes cells by `row * side + col`).
    LatticeSideOverflow {
        /// Configured side.
        side: usize,
    },
    /// Port budget below the generator's requirement (4 lattice links + 1
    /// processor link).
    BadPorts {
        /// Configured value.
        ports: usize,
    },
    /// `replications` must be ≥ 1.
    ZeroReplications,
    /// Buffers must hold at least one flit.
    BadBuffers {
        /// Configured input depth.
        input: usize,
        /// Configured output depth.
        output: usize,
    },
    /// A telemetry sampling cadence of zero — that sampler never fires;
    /// disable telemetry with `null` instead.
    ZeroSampleCadence,
    /// An engine-checkpoint cadence of zero — that ticker never fires;
    /// disable checkpointing with `null` instead.
    ZeroCheckpointCadence,
    /// The workload cannot be realized on this topology (oversized
    /// destination sets, bad fractions, bad rates, ...).
    Traffic(TrafficError),
    /// A fault-model probability outside `[0, 1]`.
    BadFaultRate {
        /// The offending rate.
        rate: f64,
    },
    /// A storm window whose end does not exceed its start.
    EmptyStormWindow {
        /// Window start, µs.
        start_us: u64,
        /// Window end, µs.
        end_us: u64,
    },
    /// A storm needs at least one burst.
    ZeroBursts,
    /// A scheduled fault lies past the declared horizon.
    FaultsPastHorizon {
        /// Latest fault instant, µs.
        at_us: u64,
        /// Declared horizon, µs.
        horizon_us: u64,
    },
    /// Live storms reroute through per-epoch SPAM tables; the other
    /// routing arms have no reconfiguration path.
    StormNeedsSpam,
    /// Up*/down* unicast routing cannot carry multicast-capable traffic.
    UnicastRoutingNeedsUnicastTraffic,
    /// Closed-loop injection reacts to completions; under a storm,
    /// torn-down messages never complete and the software-multicast
    /// forwarding chain breaks the same way.
    UnsupportedCombination {
        /// What was combined.
        what: &'static str,
    },
    /// Static damage (or a storm's survivors) left no component that can
    /// host the workload.
    NoSurvivingComponent,
    /// A generated message was rejected by the engine (generator bug —
    /// reported, not panicked).
    Message {
        /// The engine's description.
        detail: String,
    },
    /// A checkpoint snapshot could not be restored (corrupt bytes, a
    /// format-version skew, or a spec that does not match the run the
    /// snapshot was taken from).
    Snapshot {
        /// The snapshot layer's description.
        detail: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::MissingField { field } => write!(f, "missing field '{field}'"),
            SpecError::WrongType { field, expected } => {
                write!(f, "field '{field}' must be {expected}")
            }
            SpecError::UnknownKind { field, got } => {
                write!(f, "'{field}' has unknown kind \"{got}\"")
            }
            SpecError::UnknownField { field } => write!(f, "unknown field '{field}'"),
            SpecError::EmptyName => write!(f, "scenario name must not be empty"),
            SpecError::TooFewSwitches { switches } => {
                write!(f, "topology needs >= 2 switches, got {switches}")
            }
            SpecError::LatticeTooSmall { switches, side } => {
                write!(f, "lattice {side}x{side} cannot hold {switches} switches")
            }
            SpecError::LatticeSideOverflow { side } => {
                write!(f, "lattice side {side} squared overflows a machine word")
            }
            SpecError::BadPorts { ports } => {
                write!(f, "ports = {ports} below the generator's 5-port floor")
            }
            SpecError::ZeroReplications => write!(f, "replications must be >= 1"),
            SpecError::BadBuffers { input, output } => {
                write!(f, "buffers must hold >= 1 flit (got {input}/{output})")
            }
            SpecError::ZeroSampleCadence => {
                write!(
                    f,
                    "metrics_every_ns must be > 0 (use null to disable telemetry)"
                )
            }
            SpecError::ZeroCheckpointCadence => {
                write!(
                    f,
                    "checkpoint_every_ns must be > 0 (use null to disable checkpointing)"
                )
            }
            SpecError::Traffic(e) => write!(f, "traffic: {e}"),
            SpecError::BadFaultRate { rate } => {
                write!(f, "fault rate {rate} is not a probability in [0, 1]")
            }
            SpecError::EmptyStormWindow { start_us, end_us } => {
                write!(f, "storm window [{start_us}, {end_us}) us is empty")
            }
            SpecError::ZeroBursts => write!(f, "a storm needs at least one burst"),
            SpecError::FaultsPastHorizon { at_us, horizon_us } => {
                write!(
                    f,
                    "fault at {at_us} us lies past the {horizon_us} us horizon"
                )
            }
            SpecError::StormNeedsSpam => {
                write!(
                    f,
                    "live fault storms require SPAM routing (epoch reconfiguration)"
                )
            }
            SpecError::UnicastRoutingNeedsUnicastTraffic => write!(
                f,
                "up*/down* unicast routing cannot carry multicast-capable traffic"
            ),
            SpecError::UnsupportedCombination { what } => {
                write!(f, "unsupported combination: {what}")
            }
            SpecError::NoSurvivingComponent => {
                write!(f, "no surviving component can host the workload")
            }
            SpecError::Message { detail } => write!(f, "generated message rejected: {detail}"),
            SpecError::Snapshot { detail } => write!(f, "snapshot rejected: {detail}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl SpecError {
    /// Stable variant name, used as a coverage key by the fuzzer and
    /// asserted by the exhaustive negative-case table test. Nested
    /// traffic errors read `Traffic.<variant>`.
    pub fn variant_name(&self) -> &'static str {
        match self {
            SpecError::Json(_) => "Json",
            SpecError::MissingField { .. } => "MissingField",
            SpecError::WrongType { .. } => "WrongType",
            SpecError::UnknownKind { .. } => "UnknownKind",
            SpecError::UnknownField { .. } => "UnknownField",
            SpecError::EmptyName => "EmptyName",
            SpecError::TooFewSwitches { .. } => "TooFewSwitches",
            SpecError::LatticeTooSmall { .. } => "LatticeTooSmall",
            SpecError::LatticeSideOverflow { .. } => "LatticeSideOverflow",
            SpecError::BadPorts { .. } => "BadPorts",
            SpecError::ZeroReplications => "ZeroReplications",
            SpecError::BadBuffers { .. } => "BadBuffers",
            SpecError::ZeroSampleCadence => "ZeroSampleCadence",
            SpecError::ZeroCheckpointCadence => "ZeroCheckpointCadence",
            SpecError::Traffic(t) => match t {
                TrafficError::NotEnoughProcessors { .. } => "Traffic.NotEnoughProcessors",
                TrafficError::NoDestinations => "Traffic.NoDestinations",
                TrafficError::TooFewSources { .. } => "Traffic.TooFewSources",
                TrafficError::BadFraction { .. } => "Traffic.BadFraction",
                TrafficError::NonPositiveRate { .. } => "Traffic.NonPositiveRate",
                TrafficError::RateTooHigh { .. } => "Traffic.RateTooHigh",
                TrafficError::ZeroDuration { .. } => "Traffic.ZeroDuration",
                TrafficError::DurationTooLarge { .. } => "Traffic.DurationTooLarge",
            },
            SpecError::BadFaultRate { .. } => "BadFaultRate",
            SpecError::EmptyStormWindow { .. } => "EmptyStormWindow",
            SpecError::ZeroBursts => "ZeroBursts",
            SpecError::FaultsPastHorizon { .. } => "FaultsPastHorizon",
            SpecError::StormNeedsSpam => "StormNeedsSpam",
            SpecError::UnicastRoutingNeedsUnicastTraffic => "UnicastRoutingNeedsUnicastTraffic",
            SpecError::UnsupportedCombination { .. } => "UnsupportedCombination",
            SpecError::NoSurvivingComponent => "NoSurvivingComponent",
            SpecError::Message { .. } => "Message",
            SpecError::Snapshot { .. } => "Snapshot",
        }
    }
}

impl From<TrafficError> for SpecError {
    fn from(e: TrafficError) -> Self {
        SpecError::Traffic(e)
    }
}

impl From<crate::json::JsonError> for SpecError {
    fn from(e: crate::json::JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl ScenarioSpec {
    /// A minimal valid scenario: the Figure 2 single multicast on a
    /// 64-switch lattice under SPAM. A convenient starting point for
    /// programmatic construction.
    pub fn example(name: &str) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            description: String::new(),
            topology: TopologySpec::default(),
            routing: RoutingSpec::Spam {
                policy: PolicySpec::MinResidualDistance,
            },
            traffic: TrafficSpec::SingleMulticast {
                dests: 16,
                len: 128,
            },
            faults: FaultsSpec::None,
            engine: EngineSpec::default(),
            seed: 0,
            replications: 1,
            horizon_us: None,
        }
    }

    /// Full validation: every structural, numeric, and cross-axis rule.
    /// A spec that validates will execute without panicking; anything the
    /// runner can only discover dynamically (e.g. fault damage leaving
    /// too few survivors) still comes back as a typed [`SpecError`] from
    /// [`crate::run_spec`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::EmptyName);
        }
        self.topology.check()?;
        if self.replications == 0 {
            return Err(SpecError::ZeroReplications);
        }
        let e = &self.engine;
        if e.input_buffer_flits == 0 || e.output_buffer_flits == 0 {
            return Err(SpecError::BadBuffers {
                input: e.input_buffer_flits,
                output: e.output_buffer_flits,
            });
        }
        if e.metrics_every_ns == Some(0) {
            return Err(SpecError::ZeroSampleCadence);
        }
        if e.checkpoint_every_ns == Some(0) {
            return Err(SpecError::ZeroCheckpointCadence);
        }
        self.validate_traffic()?;
        self.validate_faults()?;
        self.validate_combinations()
    }

    /// Traffic-level checks against the pristine processor count (the
    /// runner re-checks against the surviving population when faults
    /// shrink it).
    // The `expect("variant checked")` calls are per-arm: each
    // `*_config()` accessor returns `Some` exactly for the variant its
    // match arm just destructured.
    #[allow(clippy::expect_used)]
    fn validate_traffic(&self) -> Result<(), SpecError> {
        let procs = self.topology.switches; // one processor per switch
        match &self.traffic {
            TrafficSpec::SingleMulticast { dests, len: _ } => {
                if *dests == 0 {
                    return Err(TrafficError::NoDestinations.into());
                }
                if *dests >= procs {
                    return Err(TrafficError::NotEnoughProcessors {
                        requested: *dests,
                        available: procs - 1,
                    }
                    .into());
                }
                Ok(())
            }
            TrafficSpec::Mixed { .. } => Ok(self
                .mixed_config()
                .expect("variant checked")
                .validate(procs)?),
            TrafficSpec::Hotspot { .. } => Ok(self
                .hotspot_config()
                .expect("variant checked")
                .validate(procs)?),
            TrafficSpec::Permutation { .. } => Ok(self
                .permutation_config()
                .expect("variant checked")
                .validate(procs)?),
            TrafficSpec::Incast { .. } => Ok(self
                .incast_config()
                .expect("variant checked")
                .validate(procs)?),
            TrafficSpec::BroadcastStorm { .. } => Ok(()),
            TrafficSpec::ClosedLoop { .. } => Ok(self
                .closed_loop_config()
                .expect("variant checked")
                .validate(procs)?),
        }
    }

    /// The fault rules, then the one that needs the scenario around
    /// them: a storm must end inside the declared horizon.
    fn validate_faults(&self) -> Result<(), SpecError> {
        self.faults.check()?;
        match (self.faults, self.horizon_us) {
            (FaultsSpec::Storm { window_end_us, .. }, Some(h)) if window_end_us > h => {
                Err(SpecError::FaultsPastHorizon {
                    at_us: window_end_us,
                    horizon_us: h,
                })
            }
            _ => Ok(()),
        }
    }

    fn validate_combinations(&self) -> Result<(), SpecError> {
        let storm = matches!(self.faults, FaultsSpec::Storm { .. });
        if storm {
            match self.routing {
                RoutingSpec::Spam {
                    policy: PolicySpec::MinResidualDistance,
                } => {}
                RoutingSpec::Spam { .. } => {
                    // Epoch routing rebuilds its per-epoch SPAM tables with
                    // the default policy; a non-default policy would be
                    // silently ignored, so reject it instead.
                    return Err(SpecError::UnsupportedCombination {
                        what: "a live storm with a non-default SPAM selection policy",
                    });
                }
                _ => return Err(SpecError::StormNeedsSpam),
            }
        }
        let multicast_capable = match &self.traffic {
            TrafficSpec::SingleMulticast { .. } | TrafficSpec::BroadcastStorm { .. } => true,
            TrafficSpec::Mixed {
                unicast_fraction, ..
            } => *unicast_fraction < 1.0,
            _ => false,
        };
        if matches!(self.routing, RoutingSpec::UpDownUnicast) && multicast_capable {
            return Err(SpecError::UnicastRoutingNeedsUnicastTraffic);
        }
        if matches!(self.traffic, TrafficSpec::ClosedLoop { .. }) {
            if storm {
                return Err(SpecError::UnsupportedCombination {
                    what: "closed-loop injection under a live storm (teardowns stall the loop)",
                });
            }
            if matches!(self.routing, RoutingSpec::SoftwareMulticast) {
                return Err(SpecError::UnsupportedCombination {
                    what: "closed-loop injection with software multicast (two completion hooks)",
                });
            }
        }
        Ok(())
    }

    /// Shrinks the scenario for smoke runs (`scenario_run --quick` and
    /// the golden corpus suite): caps message counts and replications
    /// without touching the topology, routing, faults, or seeds — the
    /// quick variant still exercises the same composition.
    pub fn quicken(&mut self) {
        self.replications = self.replications.min(2);
        match &mut self.traffic {
            TrafficSpec::Mixed { messages, .. }
            | TrafficSpec::Hotspot { messages, .. }
            | TrafficSpec::Incast { messages, .. } => *messages = (*messages).min(150),
            TrafficSpec::Permutation {
                messages_per_node, ..
            } => *messages_per_node = (*messages_per_node).min(3),
            TrafficSpec::ClosedLoop {
                messages_per_source,
                ..
            } => *messages_per_source = (*messages_per_source).min(4),
            TrafficSpec::SingleMulticast { .. } | TrafficSpec::BroadcastStorm { .. } => {}
        }
    }

    // ------------------------------------------------------------------
    // Traffic-config builders (shared by validation and the runner).

    /// The [`traffic::MixedTrafficConfig`] this spec describes, if it is
    /// a mixed-traffic scenario.
    pub fn mixed_config(&self) -> Option<traffic::MixedTrafficConfig> {
        match self.traffic {
            TrafficSpec::Mixed {
                unicast_fraction,
                multicast_dests,
                rate_per_node_per_us,
                len,
                messages,
                arrival,
            } => Some(traffic::MixedTrafficConfig {
                unicast_fraction,
                multicast_dests,
                rate_per_node_per_us,
                message_len: len,
                messages,
                arrival,
            }),
            _ => None,
        }
    }

    /// The [`traffic::HotspotConfig`] this spec describes, if any.
    pub fn hotspot_config(&self) -> Option<traffic::HotspotConfig> {
        match self.traffic {
            TrafficSpec::Hotspot {
                hot_nodes,
                hot_fraction,
                rate_per_node_per_us,
                len,
                messages,
                arrival,
            } => Some(traffic::HotspotConfig {
                hot_nodes,
                hot_fraction,
                rate_per_node_per_us,
                message_len: len,
                messages,
                arrival,
            }),
            _ => None,
        }
    }

    /// The [`traffic::PermutationConfig`] this spec describes, if any.
    pub fn permutation_config(&self) -> Option<traffic::PermutationConfig> {
        match self.traffic {
            TrafficSpec::Permutation {
                pattern,
                rate_per_node_per_us,
                len,
                messages_per_node,
                arrival,
            } => Some(traffic::PermutationConfig {
                pattern,
                rate_per_node_per_us,
                message_len: len,
                messages_per_node,
                arrival,
            }),
            _ => None,
        }
    }

    /// The [`traffic::IncastConfig`] this spec describes, if any.
    pub fn incast_config(&self) -> Option<traffic::IncastConfig> {
        match self.traffic {
            TrafficSpec::Incast {
                servers,
                rate_per_client_per_us,
                len,
                messages,
                arrival,
            } => Some(traffic::IncastConfig {
                servers,
                rate_per_client_per_us,
                message_len: len,
                messages,
                arrival,
            }),
            _ => None,
        }
    }

    /// The [`traffic::ClosedLoopConfig`] this spec describes, if any.
    pub fn closed_loop_config(&self) -> Option<traffic::ClosedLoopConfig> {
        match self.traffic {
            TrafficSpec::ClosedLoop {
                window,
                messages_per_source,
                len,
                think_ns,
            } => Some(traffic::ClosedLoopConfig {
                window,
                messages_per_source,
                message_len: len,
                think: desim::Duration::from_ns(think_ns),
            }),
            _ => None,
        }
    }
}

impl TopologySpec {
    /// The topology rules, shared by [`ScenarioSpec::validate`] and
    /// `ArtifactPrefix::validate`.
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        if self.switches < 2 {
            return Err(SpecError::TooFewSwitches {
                switches: self.switches,
            });
        }
        if let Some(side) = self.side {
            let cells = side
                .checked_mul(side)
                .ok_or(SpecError::LatticeSideOverflow { side })?;
            if cells < self.switches {
                return Err(SpecError::LatticeTooSmall {
                    switches: self.switches,
                    side,
                });
            }
        }
        if self.ports < 5 {
            return Err(SpecError::BadPorts { ports: self.ports });
        }
        Ok(())
    }
}

impl FaultsSpec {
    /// The fault rules that need nothing but the fault section, shared by
    /// [`ScenarioSpec::validate`] and `ArtifactPrefix::validate`.
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        let model = match *self {
            FaultsSpec::None => return Ok(()),
            FaultsSpec::Static { model, .. } | FaultsSpec::Storm { model, .. } => model,
        };
        if let FaultModelSpec::IidLinks { rate } | FaultModelSpec::IidSwitches { rate } = model {
            if !(0.0..=1.0).contains(&rate) {
                return Err(SpecError::BadFaultRate { rate });
            }
        }
        if let FaultsSpec::Storm {
            window_start_us,
            window_end_us,
            bursts,
            ..
        } = *self
        {
            if window_end_us <= window_start_us {
                return Err(SpecError::EmptyStormWindow {
                    start_us: window_start_us,
                    end_us: window_end_us,
                });
            }
            if bursts == 0 {
                return Err(SpecError::ZeroBursts);
            }
        }
        Ok(())
    }
}

impl FaultModelSpec {
    /// The `spam-faults` crate's equivalent.
    pub fn to_model(self) -> spam_faults::FaultModel {
        match self {
            FaultModelSpec::IidLinks { rate } => spam_faults::FaultModel::IidLinks { rate },
            FaultModelSpec::IidSwitches { rate } => spam_faults::FaultModel::IidSwitches { rate },
            FaultModelSpec::Region { radius } => spam_faults::FaultModel::Region { radius },
        }
    }
}
