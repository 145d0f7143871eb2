//! Executing a validated [`ScenarioSpec`]: build the topology, compose
//! faults and routing, generate the workload, and run the wormhole
//! simulator — one deterministic [`wormsim::SimOutcome`] per replication.

use crate::artifact::{ArtifactPrefix, ScenarioArtifacts};
use crate::spec::{
    FaultsSpec, PolicySpec, QueueSpec, RoutingSpec, ScenarioSpec, SpecError, TrafficSpec,
};
use baselines::{UnicastMulticast, UpDownUnicastRouting};
use desim::{Duration, QueueKind, Time};
use netgraph::gen::lattice::LatticeLayout;
use netgraph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spam_core::SelectionPolicy;
use std::collections::HashMap;
use traffic::{BroadcastStormConfig, ClosedLoopInjector, DestinationSampler};
use wormsim::{
    CheckpointSink, CompletionHook, MessageSpec, MetricsConfig, MsgId, NetworkSim,
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

impl RunMode<'_> {
    /// Installs the checkpoint observer on a freshly built simulator.
    /// Resume never reaches here: the engine reconstructs the snapshot's
    /// own checkpoint ticker.
    fn install<R: RoutingAlgorithm>(self, sim: &mut NetworkSim<'_, R>) {
        if let RunMode::Checkpoint { every, sink } = self {
            sim.enable_checkpoints(every, sink);
        }
    }
}

/// Every snapshot-layer failure surfaces as a typed spec error.
fn to_snap_err(e: SnapshotError) -> SpecError {
    SpecError::Snapshot {
        detail: e.to_string(),
    }
}

/// The pure observers a spec asks for (trace, telemetry), resolved once
/// per run and installed on each simulator the runner constructs.
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

    fn install<R: RoutingAlgorithm>(&self, sim: &mut NetworkSim<'_, R>) {
        if self.trace {
            sim.enable_trace();
        }
        if let Some(cfg) = self.metrics {
            sim.enable_metrics(cfg);
        }
    }
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
/// pin byte-identical outcomes under both implementations).
pub fn run_once(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
) -> Result<SimOutcome, SpecError> {
    run_once_with_topology(spec, rep, queue).map(|(out, _)| out)
}

/// Like [`run_once`], but also returns the exact [`Topology`] the run
/// executed on (post-degradation for static-fault scenarios). Trace
/// consumers — span derivation, Perfetto export, the latency-anatomy
/// report — need the topology to reconstruct worm paths from channel ids.
pub fn run_once_with_topology(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
) -> Result<(SimOutcome, Topology), SpecError> {
    run_once_full(spec, rep, queue).map(|(out, topo, _)| (out, topo))
}

/// Like [`run_once_with_topology`], but additionally returns the lattice
/// layout the topology was generated on. Telemetry consumers need it to
/// fold per-channel congestion onto the grid (node ids stay valid across
/// static-fault degradation — dead nodes are isolated, not renumbered).
pub fn run_once_full(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
) -> Result<(SimOutcome, Topology, LatticeLayout), SpecError> {
    run_once_mode(spec, rep, queue, RunMode::Fresh)
}

/// The single execution path behind every public runner: builds the
/// spec's artifacts (topology, faults, labeling — see
/// [`crate::artifact`]) and then runs it fresh, checkpointed, or resumed
/// per `mode` (see [`crate::snapshot`] for the public checkpoint/resume
/// API).
pub(crate) fn run_once_mode(
    spec: &ScenarioSpec,
    rep: u32,
    queue: Option<QueueKind>,
    mode: RunMode<'_>,
) -> Result<(SimOutcome, Topology, LatticeLayout), SpecError> {
    spec.validate()?;
    let arts = ArtifactPrefix::of(spec, rep).build()?;
    let out = run_mode_with_artifacts(spec, rep, queue, mode, &arts)?;
    let ScenarioArtifacts { topo, layout, .. } = arts;
    Ok((out, topo, layout))
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
    if let Some(q) = spec.engine.queue {
        cfg = cfg.with_queue(match q {
            QueueSpec::Bucket => QueueKind::Bucket,
            QueueSpec::Heap => QueueKind::Heap,
        });
    }
    if let Some(q) = queue {
        cfg = cfg.with_queue(q);
    }
    if let Some(n) = spec.engine.checkpoint_every_ns {
        cfg = cfg.with_checkpoint_every_ns(n);
    }

    let traffic_seed = rep_seed(spec.seed, rep);
    match &spec.faults {
        FaultsSpec::Storm { .. } => {
            // Live reconfiguration: epoch-stamped SPAM routing over the
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
            let topo = &arts.topo;
            let mut out = match mode {
                RunMode::Resume { bytes } => {
                    // The fault schedule's link-down events are *in* the
                    // snapshot — reinstalling would fire each fault twice.
                    NetworkSim::restore(topo, routing, cfg, bytes)
                        .map_err(to_snap_err)?
                        .run()
                }
                mode => {
                    let stream = open_stream(spec, topo, &arts.layout, &arts.procs, traffic_seed)?;
                    let mut sim = NetworkSim::new(topo, routing, cfg);
                    Observers::from_spec(spec).install(&mut sim);
                    mode.install(&mut sim);
                    storm.schedule.install(&mut sim);
                    submit_all(&mut sim, stream)?;
                    sim.run()
                }
            };
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
        FaultsSpec::None | FaultsSpec::Static { .. } => {
            dispatch(spec, arts, cfg, traffic_seed, mode)
        }
    }
}

/// Static-network execution: attach the routing arm to the artifacts'
/// cached precomputes and drive the workload (open-loop stream or
/// closed-loop hook).
fn dispatch(
    spec: &ScenarioSpec,
    arts: &ScenarioArtifacts,
    cfg: SimConfig,
    traffic_seed: u64,
    mode: RunMode<'_>,
) -> Result<SimOutcome, SpecError> {
    let closed_loop = spec.closed_loop_config();
    let obs = Observers::from_spec(spec);
    let (topo, layout, procs) = (&arts.topo, &arts.layout, arts.procs.as_slice());
    match spec.routing {
        RoutingSpec::Spam { policy } => {
            let routing = arts.spam_routing().with_policy(to_policy(policy));
            match closed_loop {
                Some(cl) => run_closed_loop(topo, routing, cfg, cl, procs, traffic_seed, obs, mode),
                None => {
                    let stream = open_stream(spec, topo, layout, procs, traffic_seed)?;
                    run_open(topo, routing, cfg, stream, obs, mode)
                }
            }
        }
        RoutingSpec::UpDownUnicast => {
            let routing = arts.updown_routing();
            match closed_loop {
                Some(cl) => run_closed_loop(topo, routing, cfg, cl, procs, traffic_seed, obs, mode),
                None => {
                    let stream = open_stream(spec, topo, layout, procs, traffic_seed)?;
                    run_open(topo, routing, cfg, stream, obs, mode)
                }
            }
        }
        RoutingSpec::SoftwareMulticast => {
            let routing = arts.updown_routing();
            let stream = open_stream(spec, topo, layout, procs, traffic_seed)?;
            run_software(topo, routing, cfg, stream, obs, mode)
        }
    }
}

fn to_policy(p: PolicySpec) -> SelectionPolicy {
    match p {
        PolicySpec::MinResidualDistance => SelectionPolicy::MinResidualDistance,
        PolicySpec::FirstLegal => SelectionPolicy::FirstLegal,
        PolicySpec::RandomLegal { seed } => SelectionPolicy::RandomLegal { seed },
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
            let d = DestinationSampler::UniformRandom { count: *dests }
                .sample_within(topo, procs, src, &mut rng)?;
            Ok(vec![MessageSpec::multicast(src, d, *len)])
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

fn submit_all<R: RoutingAlgorithm>(
    sim: &mut NetworkSim<'_, R>,
    stream: Vec<MessageSpec>,
) -> Result<(), SpecError> {
    for spec in stream {
        sim.submit(spec).map_err(to_msg_err)?;
    }
    Ok(())
}

fn run_open<R: RoutingAlgorithm>(
    topo: &Topology,
    routing: R,
    cfg: SimConfig,
    stream: Vec<MessageSpec>,
    obs: Observers,
    mode: RunMode<'_>,
) -> Result<SimOutcome, SpecError> {
    match mode {
        RunMode::Resume { bytes } => {
            // The pending stream (and the observers' state) lives in the
            // snapshot; submitting again would double every message.
            drop(stream);
            Ok(NetworkSim::restore(topo, routing, cfg, bytes)
                .map_err(to_snap_err)?
                .run())
        }
        mode => {
            let mut sim = NetworkSim::new(topo, routing, cfg);
            obs.install(&mut sim);
            mode.install(&mut sim);
            submit_all(&mut sim, stream)?;
            Ok(sim.run())
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_closed_loop<R: RoutingAlgorithm>(
    topo: &Topology,
    routing: R,
    cfg: SimConfig,
    cl: traffic::ClosedLoopConfig,
    procs: &[NodeId],
    seed: u64,
    obs: Observers,
    mode: RunMode<'_>,
) -> Result<SimOutcome, SpecError> {
    // The injector's immutable shape (population, per-source quotas)
    // rebuilds from the spec; on resume its mutable state — remaining
    // quotas, RNG position, next tag — is decoded from the snapshot by
    // `restore_with_hook` before the first event fires.
    let mut inj = ClosedLoopInjector::new_within(cl, procs, seed)?;
    match mode {
        RunMode::Resume { bytes } => {
            let sim = NetworkSim::restore_with_hook(topo, routing, cfg, bytes, &mut inj)
                .map_err(to_snap_err)?;
            Ok(sim.run_with_hook(&mut inj))
        }
        mode => {
            let initial = inj.initial_sends();
            let mut sim = NetworkSim::new(topo, routing, cfg);
            obs.install(&mut sim);
            mode.install(&mut sim);
            submit_all(&mut sim, initial)?;
            Ok(sim.run_with_hook(&mut inj))
        }
    }
}

/// All the in-flight software multicasts of one run, dispatched by tag.
#[derive(Default)]
struct MulticastFleet {
    by_tag: HashMap<u64, UnicastMulticast>,
}

impl CompletionHook for MulticastFleet {
    fn on_complete(&mut self, m: MsgId, spec: &MessageSpec, at: Time) -> Vec<MessageSpec> {
        match self.by_tag.get_mut(&spec.tag) {
            Some(um) => um.on_complete(m, spec, at),
            None => Vec::new(),
        }
    }
}

fn run_software(
    topo: &Topology,
    routing: UpDownUnicastRouting<'_>,
    cfg: SimConfig,
    stream: Vec<MessageSpec>,
    obs: Observers,
    mode: RunMode<'_>,
) -> Result<SimOutcome, SpecError> {
    let mut fleet = MulticastFleet::default();
    match mode {
        RunMode::Resume { bytes } => {
            // The forwarding trees are pure functions of the regenerated
            // stream (no mutable state), so rebuild the fleet without
            // submitting — every in-flight unicast is in the snapshot.
            for spec in stream {
                if !spec.is_unicast() {
                    let um =
                        UnicastMulticast::new(spec.src, &spec.dests, spec.len, cfg.latency.startup)
                            .with_tag(spec.tag);
                    fleet.by_tag.insert(spec.tag, um);
                }
            }
            let sim = NetworkSim::restore_with_hook(topo, routing, cfg, bytes, &mut fleet)
                .map_err(to_snap_err)?;
            Ok(sim.run_with_hook(&mut fleet))
        }
        mode => {
            let mut sim = NetworkSim::new(topo, routing, cfg);
            obs.install(&mut sim);
            mode.install(&mut sim);
            for spec in stream {
                if spec.is_unicast() {
                    sim.submit(spec).map_err(to_msg_err)?;
                } else {
                    // One binomial forwarding tree per multicast; the
                    // original message's tag names the tree (tags are
                    // unique per stream).
                    let um =
                        UnicastMulticast::new(spec.src, &spec.dests, spec.len, cfg.latency.startup)
                            .with_tag(spec.tag);
                    for s in um.initial_sends(spec.gen_time) {
                        sim.submit(s).map_err(to_msg_err)?;
                    }
                    fleet.by_tag.insert(spec.tag, um);
                }
            }
            Ok(sim.run_with_hook(&mut fleet))
        }
    }
}
