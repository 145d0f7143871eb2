//! Executing a validated [`ScenarioSpec`]: build the topology, compose
//! faults and routing, generate the workload, and run the wormhole
//! simulator — one deterministic [`wormsim::SimOutcome`] per replication.

use crate::artifact::{ArtifactPrefix, ScenarioArtifacts};
use crate::spec::{FaultsSpec, RoutingSpec, ScenarioSpec, SpecError, TrafficSpec};
use baselines::UnicastMulticast;
use desim::{Duration, QueueKind, Time};
use netgraph::gen::lattice::LatticeLayout;
use netgraph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use traffic::{BroadcastStormConfig, ClosedLoopInjector, DestinationSampler};
use wormsim::{
    CheckpointSink, CompletionHook, MessageSpec, MetricsConfig, MsgId, NetworkSim, NoHook,
    RoutingAlgorithm, SimConfig, SimOutcome, SnapshotError,
};

/// How the runner drives the engine: a fresh run, a fresh run that also
/// streams checkpoints into a sink, or a resume from serialized snapshot
/// bytes. On resume the topology, routing arm, and completion hook are
/// rebuilt from the spec exactly as a fresh run would build them — only
/// the engine's dynamic state comes from the snapshot — so a resumed
/// run finishes byte-identically to its uninterrupted twin.
pub(crate) enum RunMode<'a> {
    /// Plain execution (what [`run_once`] does).
    Fresh,
    /// Execute from the start, checkpointing every `every` of sim-time
    /// into `sink`.
    Checkpoint {
        /// Checkpoint cadence.
        every: Duration,
        /// Where snapshots go.
        sink: CheckpointSink,
    },
    /// Restore from a snapshot taken by an earlier run of the same spec
    /// and replication, then run to completion.
    Resume {
        /// Sealed snapshot bytes.
        bytes: &'a [u8],
    },
}

/// Every snapshot-layer failure surfaces as a typed spec error.
fn to_snap_err(e: SnapshotError) -> SpecError {
    SpecError::Snapshot {
        detail: e.to_string(),
    }
}

/// The pure observers a spec asks for (trace, telemetry), resolved once
/// per run and switched on by [`drive`].
#[derive(Debug, Clone, Copy)]
struct Observers {
    trace: bool,
    metrics: Option<MetricsConfig>,
}

impl Observers {
    fn from_spec(spec: &ScenarioSpec) -> Self {
        Observers {
            trace: spec.engine.trace,
            // A declared horizon sizes the sample ring to keep the whole
            // run; without one the default capacity rings over.
            metrics: spec.engine.metrics_every_ns.map(|n| match spec.horizon_us {
                Some(h) => MetricsConfig::for_horizon(n, h.saturating_mul(1_000)),
                None => MetricsConfig::every_ns(n),
            }),
        }
    }
}

/// The one place a simulator is built or restored, whatever the routing
/// arm, fault arm or completion hook. A fresh run switches the observers
/// on and lets `seed` say what to submit (and which faults to schedule)
/// before the first event; it is handed the hook too, because a closed
/// loop's first window and a software multicast's first sends come out
/// of the hook's own state. A resumed run takes all of that — the
/// pending stream, the fault events, the observers' and the hook's state
/// — from the snapshot, where seeding again would double every message
/// and fire every fault twice. Either way the run then goes to
/// completion under `hook`.
fn drive<'t, R: RoutingAlgorithm, H: CompletionHook>(
    topo: &'t Topology,
    routing: R,
    cfg: SimConfig,
    obs: Observers,
    mode: RunMode<'_>,
    hook: &mut H,
    seed: impl FnOnce(&mut NetworkSim<'t, R>, &mut H) -> Result<(), SpecError>,
) -> Result<SimOutcome, SpecError> {
    let sim = match mode {
        RunMode::Resume { bytes } => {
            NetworkSim::restore_with_hook(topo, routing, cfg, bytes, hook).map_err(to_snap_err)?
        }
        fresh => {
            let mut sim = NetworkSim::new(topo, routing, cfg);
            if obs.trace {
                sim.enable_trace();
            }
            if let Some(metrics) = obs.metrics {
                sim.enable_metrics(metrics);
            }
            if let RunMode::Checkpoint { every, sink } = fresh {
                sim.enable_checkpoints(every, sink);
            }
            seed(&mut sim, hook)?;
            sim
        }
    };
    Ok(sim.run_with_hook(hook))
}

/// Splits a u64 seed stream deterministically (SplitMix64).
pub fn split_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Replication `0` uses the spec's seeds verbatim (so a one-replication
/// scenario is exactly the instance its file describes); later
/// replications derive independent streams.
pub(crate) fn rep_seed(base: u64, rep: u32) -> u64 {
    if rep == 0 {
        base
    } else {
        split_seed(base, rep as u64)
    }
}

/// One replication's digest: message accounting plus a latency summary.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RepSummary {
    /// Replication index.
    pub rep: u32,
    /// Messages the engine saw (software-multicast runs count the
    /// constituent unicasts).
    pub submitted: u64,
    /// ... of which fully delivered.
    pub delivered: u64,
    /// ... torn down by mid-run faults.
    pub torn_down: u64,
    /// ... rejected at the source as unreachable.
    pub unreachable: u64,
    /// Mean end-to-end latency (µs) over delivered messages.
    pub mean_latency_us: Option<f64>,
    /// Median delivered latency (µs).
    pub p50_us: Option<f64>,
    /// 99th-percentile delivered latency (µs), nearest-rank.
    pub p99_us: Option<f64>,
    /// Engine events processed.
    pub events: u64,
    /// Simulated clock at the end of the run (µs).
    pub end_time_us: f64,
    /// True when the run ended cleanly with every message accounted for
    /// (false = deadlock or engine error — a simulation *result*, not a
    /// spec error).
    pub clean: bool,
}

/// A finished scenario: one [`RepSummary`] per replication.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub name: String,
    /// Per-replication digests, in replication order.
    pub reps: Vec<RepSummary>,
}

impl ScenarioReport {
    /// Mean of the per-replication mean latencies (µs).
    pub fn mean_latency_us(&self) -> Option<f64> {
        let xs: Vec<f64> = self.reps.iter().filter_map(|r| r.mean_latency_us).collect();
        (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
    }

    /// Total (delivered, torn down, unreachable) over all replications.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.reps.iter().fold((0, 0, 0), |(d, t, u), r| {
            (d + r.delivered, t + r.torn_down, u + r.unreachable)
        })
    }

    /// True when every replication ended cleanly.
    pub fn all_clean(&self) -> bool {
        self.reps.iter().all(|r| r.clean)
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Digests one replication's outcome.
pub fn summarize(rep: u32, out: &SimOutcome) -> RepSummary {
    let mut lat = out.latencies_us(|_| true);
    lat.sort_by(f64::total_cmp);
    RepSummary {
        rep,
        submitted: out.messages.len() as u64,
        delivered: out.counters.messages_completed,
        torn_down: out.counters.messages_torn_down,
        unreachable: out.counters.messages_unreachable,
        mean_latency_us: out.mean_latency_us(|_| true),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        events: out.counters.events,
        end_time_us: out.end_time.as_us_f64(),
        clean: out.all_accounted(),
    }
}

/// Runs every replication of a scenario. Validates first; every failure
/// mode is a typed [`SpecError`].
pub fn run_spec(spec: &ScenarioSpec) -> Result<ScenarioReport, SpecError> {
    spec.validate()?;
    let mut reps = Vec::with_capacity(spec.replications as usize);
    for rep in 0..spec.replications {
        let out = run_once(spec, rep, None)?;
        reps.push(summarize(rep, &out));
    }
    Ok(ScenarioReport {
        name: spec.name.clone(),
        reps,
    })
}

/// Runs one replication and returns the raw outcome. `queue` overrides
/// the spec's event-queue choice (the golden corpus suite uses this to
/// pin byte-identical outcomes under both implementations). Callers that
/// also need the topology or the lattice layout the run executed on
/// build the [`ScenarioArtifacts`] themselves and call
/// [`run_with_artifacts`].
pub fn run_once(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
) -> Result<SimOutcome, SpecError> {
    run_once_mode(spec, rep, queue, RunMode::Fresh)
}

/// The single execution path behind every runner that starts from a
/// spec: builds its artifacts (topology, faults, labeling — see
/// [`crate::artifact`]) and then runs it fresh, checkpointed, or resumed
/// per `mode` (see [`crate::snapshot`] for the public checkpoint/resume
/// API).
pub(crate) fn run_once_mode(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
    mode: RunMode<'_>,
) -> Result<SimOutcome, SpecError> {
    spec.validate()?;
    let arts = ArtifactPrefix::of(spec, rep).build()?;
    run_mode_with_artifacts(spec, rep, queue, mode, &arts)
}

/// Runs one replication on *prebuilt* artifacts — the warm path of the
/// `spam-serve` artifact cache: straight to traffic generation, with the
/// topology, labeling, fault precomputation, and routing tables shared
/// from `arts`. Produces byte-identical outcomes to [`run_once`] for the
/// same spec and replication (pinned by the differential cache suite).
///
/// # Panics
///
/// Panics when `arts` was built for a different topology+faults prefix
/// or replication than `(spec, rep)` — running on mismatched artifacts
/// would silently simulate the wrong network, so the contract is
/// asserted, not assumed. Use [`ArtifactPrefix::matches`] to check first
/// when the pairing is not known by construction.
pub fn run_with_artifacts(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
    arts: &ScenarioArtifacts,
) -> Result<SimOutcome, SpecError> {
    spec.validate()?;
    run_mode_with_artifacts(spec, rep, queue, RunMode::Fresh, arts)
}

pub(crate) fn run_mode_with_artifacts(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
    mode: RunMode<'_>,
    arts: &ScenarioArtifacts,
) -> Result<SimOutcome, SpecError> {
    assert!(
        arts.prefix.matches(spec, rep),
        "artifacts were built for a different topology+faults prefix"
    );
    let mut cfg = SimConfig::paper()
        .with_buffers(
            spec.engine.input_buffer_flits,
            spec.engine.output_buffer_flits,
        )
        .with_extra_header_flits(spec.engine.extra_header_flits);
    if let Some(q) = queue.or(spec.engine.queue) {
        cfg = cfg.with_queue(q);
    }
    if let Some(n) = spec.engine.checkpoint_every_ns {
        cfg = cfg.with_checkpoint_every_ns(n);
    }

    let traffic_seed = rep_seed(spec.seed, rep);
    let obs = Observers::from_spec(spec);
    let topo = &arts.topo;
    match &spec.faults {
        FaultsSpec::Storm { .. } => {
            // Live reconfiguration: per-epoch SPAM routing over the
            // pristine population; teardowns and unreachables are
            // expected per-message verdicts. The prefix match above
            // guarantees the storm artifacts exist.
            #[allow(clippy::expect_used)]
            let storm = arts
                .storm
                .as_ref()
                .expect("storm prefix has storm artifacts");
            #[allow(clippy::expect_used)]
            let routing = arts
                .epoch_routing()
                .expect("storm prefix has storm artifacts");
            let mut out = drive(topo, routing, cfg, obs, mode, &mut NoHook, |sim, _| {
                storm.schedule.install(sim);
                submit_open(sim, spec, arts, traffic_seed)
            })?;
            // Scenario-level coverage: the shape of each post-fault
            // relabel (incremental reattach vs full rebuild) is decided
            // here, not in the engine, so merge it into the run's
            // coverage record. Reports depend only on the topology and
            // the fault schedule, never on the event queue, so the
            // merged record stays queue-independent.
            for r in storm.scenario.reports() {
                let cov = &mut out.counters.coverage;
                if r.full_rebuild {
                    cov.set(wormsim::CoverageSet::RELABEL_FULL_REBUILD);
                } else if r.reattached_nodes > 0 {
                    cov.set(wormsim::CoverageSet::RELABEL_REATTACH);
                }
                cov.max_reattached_nodes = cov.max_reattached_nodes.max(r.reattached_nodes as u32);
            }
            Ok(out)
        }
        // Pristine and statically degraded networks share the dispatch:
        // the artifacts already hold the right topology, labeling, and
        // surviving-processor population for either case.
        FaultsSpec::None | FaultsSpec::Static { .. } => match spec.routing {
            RoutingSpec::Spam { policy } => {
                let routing = arts.spam_routing().with_policy(policy);
                run_hardware(spec, arts, routing, cfg, traffic_seed, obs, mode)
            }
            RoutingSpec::UpDownUnicast => {
                let routing = arts.updown_routing();
                run_hardware(spec, arts, routing, cfg, traffic_seed, obs, mode)
            }
            RoutingSpec::SoftwareMulticast => {
                // One binomial forwarding tree per multicast of the stream,
                // named by the original message's tag (tags are unique per
                // stream). The trees are pure functions of the stream, so a
                // resumed run builds the same fleet; its in-flight unicasts
                // come from the snapshot.
                let stream = open_stream(spec, topo, &arts.layout, &arts.procs, traffic_seed)?;
                let gap = cfg.latency.startup;
                let mut fleet = MulticastFleet::default();
                for m in stream.iter().filter(|m| !m.is_unicast()) {
                    let tree = UnicastMulticast::new(m.src, &m.dests, m.len, gap).with_tag(m.tag);
                    fleet.by_tag.insert(m.tag, tree);
                }
                let routing = arts.updown_routing();
                drive(topo, routing, cfg, obs, mode, &mut fleet, |sim, fleet| {
                    // Unicasts go in as they are, each tree's first sends
                    // in place of its multicast.
                    for m in stream {
                        if m.is_unicast() {
                            sim.submit(m).map_err(to_msg_err)?;
                        } else if let Some(tree) = fleet.by_tag.get(&m.tag) {
                            submit_all(sim, tree.initial_sends(m.gen_time))?;
                        }
                    }
                    Ok(())
                })
            }
        },
    }
}

/// A hardware routing arm on a static network: the workload is either a
/// closed loop, driven by the injector as completion hook, or the spec's
/// open-loop stream.
fn run_hardware<R: RoutingAlgorithm>(
    spec: &ScenarioSpec,
    arts: &ScenarioArtifacts,
    routing: R,
    cfg: SimConfig,
    traffic_seed: u64,
    obs: Observers,
    mode: RunMode<'_>,
) -> Result<SimOutcome, SpecError> {
    let topo = &arts.topo;
    match spec.closed_loop_config() {
        Some(cl) => {
            // The injector's immutable shape (population, per-source
            // quotas) rebuilds from the spec; on resume its mutable state
            // — remaining quotas, RNG position, next tag — is decoded
            // from the snapshot before the first event fires.
            let mut inj = ClosedLoopInjector::new_within(cl, &arts.procs, traffic_seed)?;
            drive(topo, routing, cfg, obs, mode, &mut inj, |sim, inj| {
                submit_all(sim, inj.initial_sends())
            })
        }
        None => drive(topo, routing, cfg, obs, mode, &mut NoHook, |sim, _| {
            submit_open(sim, spec, arts, traffic_seed)
        }),
    }
}

/// Generates the open-loop stream a spec describes, confined to `procs`.
// The `expect("variant checked")` calls are per-arm: each `*_config()`
// accessor returns `Some` exactly for the variant its match arm just
// destructured.
#[allow(clippy::expect_used)]
fn open_stream(
    spec: &ScenarioSpec,
    topo: &Topology,
    layout: &LatticeLayout,
    procs: &[NodeId],
    seed: u64,
) -> Result<Vec<MessageSpec>, SpecError> {
    match &spec.traffic {
        TrafficSpec::SingleMulticast { dests, len } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = procs[rng.gen_range(0..procs.len())];
            let d = DestinationSampler::UniformRandom { count: *dests }.sample_within_into(
                topo,
                procs,
                src,
                &mut Vec::new(),
                &mut rng,
            )?;
            Ok(vec![MessageSpec {
                src,
                dests: d,
                len: *len,
                gen_time: Time::ZERO,
                tag: 0,
            }])
        }
        TrafficSpec::Mixed { .. } => Ok(spec
            .mixed_config()
            .expect("variant checked")
            .generate_within(topo, procs, seed)?),
        TrafficSpec::Hotspot { .. } => Ok(spec
            .hotspot_config()
            .expect("variant checked")
            .generate_within(topo, procs, seed)?),
        TrafficSpec::Permutation { .. } => Ok(spec
            .permutation_config()
            .expect("variant checked")
            .generate_within(topo, layout, procs, seed)?),
        TrafficSpec::Incast { .. } => Ok(spec
            .incast_config()
            .expect("variant checked")
            .generate_within(topo, procs, seed)?),
        TrafficSpec::BroadcastStorm { len, stagger_ns } => {
            let cfg = BroadcastStormConfig {
                message_len: *len,
                stagger: Duration::from_ns(*stagger_ns),
            };
            Ok(cfg.generate_within(topo, procs)?)
        }
        TrafficSpec::ClosedLoop { .. } => unreachable!("closed loop handled by the dispatcher"),
    }
}

fn to_msg_err(e: wormsim::SpecError) -> SpecError {
    SpecError::Message {
        detail: e.to_string(),
    }
}

/// Submits `stream` in order, its arenas sized for it first.
fn submit_all<R: RoutingAlgorithm>(
    sim: &mut NetworkSim<'_, R>,
    stream: Vec<MessageSpec>,
) -> Result<(), SpecError> {
    let dests = stream.iter().map(|m| m.dests.len()).sum();
    sim.reserve(stream.len(), dests);
    for spec in stream {
        sim.submit(spec).map_err(to_msg_err)?;
    }
    Ok(())
}

/// Generates the spec's open-loop stream and submits it in order.
fn submit_open<R: RoutingAlgorithm>(
    sim: &mut NetworkSim<'_, R>,
    spec: &ScenarioSpec,
    arts: &ScenarioArtifacts,
    seed: u64,
) -> Result<(), SpecError> {
    let stream = open_stream(spec, &arts.topo, &arts.layout, &arts.procs, seed)?;
    submit_all(sim, stream)
}

/// All the in-flight software multicasts of one run, dispatched by tag.
#[derive(Default)]
struct MulticastFleet {
    by_tag: HashMap<u64, UnicastMulticast>,
}

impl CompletionHook for MulticastFleet {
    fn on_complete(&mut self, m: MsgId, spec: &MessageSpec, at: Time, out: &mut Vec<MessageSpec>) {
        if let Some(um) = self.by_tag.get_mut(&spec.tag) {
            um.on_complete(m, spec, at, out);
        }
    }
}
