#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-scenario — declarative experiment descriptions
//!
//! Every axis the workspace can vary — topology (lattice size, ports,
//! seed), routing algorithm (SPAM, up*/down* unicast, software
//! multicast), traffic model (the full `traffic` library), fault plan
//! (static damage or a live reconfiguration storm), event-queue
//! implementation, seeds, and replication count — composed in one
//! serializable [`ScenarioSpec`]. A scenario is *data*: a
//! `*.scenario.json` file fully determines a simulation, so new
//! experiments are JSON files, not bespoke binaries.
//!
//! The pieces:
//!
//! * [`ScenarioSpec`] — the model, with [`ScenarioSpec::validate`]
//!   returning typed [`SpecError`]s for every malformed or unrealizable
//!   combination (never a panic).
//! * [`ScenarioSpec::from_json`] / [`ScenarioSpec::to_json_string`] — a
//!   strict, exact-round-trip codec over the crate's own minimal
//!   [`json`] layer (the workspace `serde` is an offline no-op shim).
//! * [`run_spec`] / [`run_once`] — deterministic execution:
//!   per-replication seeds derive from the spec seeds, replication 0
//!   uses them verbatim, and the same spec always produces byte-identical
//!   [`wormsim::SimOutcome`]s (pinned across both event-queue
//!   implementations by the golden corpus suite).
//! * [`corpus::load_dir`] — loads a committed directory of scenarios.
//!
//! ```
//! use spam_scenario::{run_spec, ScenarioSpec};
//!
//! let mut spec = ScenarioSpec::example("doc-quickstart");
//! spec.topology.switches = 24;
//! spec.topology.seed = 7;
//! // Round-trip through JSON — the file format *is* the API.
//! let spec = ScenarioSpec::from_json(&spec.to_json_string()).unwrap();
//! let report = run_spec(&spec).unwrap();
//! assert!(report.all_clean());
//! assert_eq!(report.reps.len(), 1);
//! assert!(report.mean_latency_us().unwrap() > 10.0); // startup floor
//! ```

pub mod artifact;
pub mod bisect;
pub mod codec;
pub mod corpus;
pub mod json;
pub mod minimize;
pub mod mutate;
pub mod run;
pub mod snapshot;
pub mod spec;

pub use artifact::{spec_fingerprint, ArtifactPrefix, ScenarioArtifacts, StormArtifacts};
pub use bisect::{bisect_divergence, DivergenceReport, EventDivergence};
pub use corpus::{load_dir, CorpusError, SCENARIO_SUFFIX};
pub use minimize::simplify_candidates;
pub use mutate::{mutate_spec, Mutation, STAGGER_PALETTE, SWITCH_PALETTE};
pub use run::{
    run_once, run_spec, run_with_artifacts, split_seed, summarize, RepSummary, ScenarioReport,
};
pub use snapshot::{outcome_digest, resume_once, run_once_checkpointed, CheckpointedRun};
pub use spec::{
    ArrivalSpec, EngineSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec, QueueSpec,
    RoutingSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec, TrafficSpec,
};
