#![warn(missing_docs)]

//! # spam-net — facade crate
//!
//! Re-exports the whole SPAM reproduction workspace behind one dependency:
//!
//! * [`netgraph`] — switch/processor topologies and generators,
//! * [`updown`] — up*/down* labeling, ancestors, LCA,
//! * [`desim`] — the discrete-event engine,
//! * [`wormsim`] — the flit-level wormhole network simulator,
//! * [`spam`] — the SPAM routing algorithm (paper's contribution),
//! * [`baselines`] — up*/down* unicast and unicast-based multicast,
//! * [`faults`] — fault injection and reconfiguration on degraded networks,
//! * [`reconfig`] — *live* reconfiguration: timed fault storms, worm
//!   teardown, online relabeling, and epoch-based routing swaps,
//! * [`traffic`] — the workload library: the paper's two models plus
//!   hotspot, lattice permutations, bursty on/off arrivals, incast,
//!   broadcast storms, and closed-loop injection,
//! * [`scenario`] — declarative experiments: every axis above composed
//!   in one serializable spec, executed straight from
//!   `*.scenario.json` files,
//! * [`fuzz`] — coverage-guided scenario fuzzing: typed spec mutation,
//!   engine-novelty signals, correctness oracles, greedy minimization,
//! * [`trace`] — observability: per-message spans, an exact latency-phase
//!   decomposition (startup/blocking/route-setup/wire/stall), and
//!   Perfetto track-event export for `ui.perfetto.dev`,
//! * [`metrics`] — fabric telemetry: a deterministic sim-time gauge
//!   sampler, per-channel congestion accumulators, and lattice heatmaps
//!   (CSV/terminal),
//! * [`simstats`] — statistics and CI-driven replication control.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use baselines;
pub use desim;
pub use netgraph;
pub use simstats;
pub use spam_core as spam;
pub use spam_faults as faults;
pub use spam_fuzz as fuzz;
pub use spam_metrics as metrics;
pub use spam_reconfig as reconfig;
pub use spam_scenario as scenario;
pub use spam_serve as serve;
pub use spam_trace as trace;
pub use traffic;
pub use updown;
pub use wormsim;

/// Convenience prelude pulling in the names used by virtually every
/// experiment: topology generation, labeling, simulation, and SPAM routing.
pub mod prelude {
    pub use baselines::{lower_bound, ucast_multicast::UnicastMulticast, UpDownUnicastRouting};
    pub use desim::{Duration, Time};
    pub use netgraph::gen::{fixtures::figure1, IrregularConfig};
    pub use netgraph::{ChannelId, DegradedTopology, NodeId, Topology};
    pub use simstats::{ConfidenceInterval, RunningStats};
    pub use spam_core::{SelectionPolicy, SpamRouting};
    pub use spam_faults::{DegradedNetwork, FaultModel, FaultPlan};
    pub use spam_metrics::{CongestionHeatmap, HeatKey, MetricsConfig, RunMetrics};
    pub use spam_reconfig::{EpochRouting, FaultEvent, FaultKind, FaultSchedule, ReconfigScenario};
    pub use spam_scenario::{
        bisect_divergence, outcome_digest, resume_once, run_once as run_scenario_once,
        run_once_checkpointed, run_spec as run_scenario, CheckpointedRun, DivergenceReport,
        FaultsSpec, RoutingSpec, ScenarioReport, ScenarioSpec, SpecError as ScenarioError,
        TrafficSpec,
    };
    pub use spam_trace::{decompose_run, export as export_perfetto, MessageAnatomy, SpanSet};
    pub use traffic::{
        ArrivalKind, BroadcastStormConfig, ClosedLoopConfig, ClosedLoopInjector,
        DestinationSampler, HotspotConfig, IncastConfig, MixedTrafficConfig, PermutationConfig,
        PermutationPattern, TrafficError,
    };
    pub use updown::{RelabelReport, RootSelection, UpDownLabeling};
    pub use wormsim::{
        CheckpointSink, EpochStats, FailureKind, LatencyParams, MessageFailure, MessageSpec,
        NetworkSim, QueueKind, RouteError, SimConfig, SimError, SimOutcome, SnapshotError,
    };
}
