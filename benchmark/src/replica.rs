//! The serve request path re-enacted stage by stage.
//!
//! `ServeCore::step()` is one opaque call from outside, so the traced
//! run replays each request through the same public functions the
//! service calls — `json::parse`, `ScenarioSpec::from_value`, `validate`,
//! `spec_fingerprint`, `ArtifactCache::lookup`, the traffic generators,
//! `NetworkSim::{new, submit, run}`, `outcome_digest`,
//! `protocol::result_line` — with a span around each. Every digest is
//! checked against the real path's, and `trace.replica_gap_share` says
//! how far the replica's request time is from the real one (it leaves
//! out the cursor log, which is private to `ServeCore`).
//!
//! Open-loop arms on a static fabric are split down to the engine calls;
//! closed-loop, software-multicast and storm arms drive the engine
//! through hooks the harness cannot reproduce from outside and are
//! reported as one `scenario.run_with_artifacts` span.

use crate::run::Reference;
use crate::trace::{Probe, Stage, Tracer};
use crate::workloads::Request;
use desim::{Duration, QueueKind, Time};
use netgraph::gen::lattice::{IrregularConfig, LatticeStrategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spam_core::SelectionPolicy;
use spam_faults::DegradedNetwork;
use spam_reconfig::{FaultSchedule, ReconfigScenario};
use spam_scenario::{
    json, outcome_digest, run_with_artifacts, spec_fingerprint, split_seed, summarize,
    ArtifactPrefix, FaultsSpec, PolicySpec, QueueSpec, RoutingSpec, ScenarioArtifacts,
    ScenarioSpec, StrategySpec, TrafficSpec,
};
use spam_serve::protocol::{self, ResultMeta};
use spam_serve::{ArtifactCache, CacheConfig, CacheStats};
use std::collections::HashSet;
use std::hint::black_box;
use traffic::{BroadcastStormConfig, DestinationSampler};
use updown::{RootSelection, UpDownLabeling};
use wormsim::{MessageSpec, NetworkSim, RoutingAlgorithm, SimConfig, SimOutcome};

/// Artifact builds dissected per run (each costs as much as the build).
const ANATOMIES: usize = 10;

/// Exact engine counts summed over requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub requests: u64,
    pub events: u64,
    pub messages: u64,
    pub seg_lookups: u64,
    pub acquisitions: u64,
    /// Events and messages of the runs split down to `wormsim.run`.
    pub split_events: u64,
    pub split_messages: u64,
}

impl Counts {
    pub fn add_outcome(&mut self, out: &SimOutcome, split: bool) {
        let c = &out.counters;
        self.events += c.events;
        self.messages += out.messages.len() as u64;
        self.seg_lookups += c.seg_lookups;
        self.acquisitions += c.acquisitions;
        if split {
            self.split_events += c.events;
            self.split_messages += out.messages.len() as u64;
        }
    }
}

/// Which lazily built routing precompute a run attaches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tables {
    Spam,
    UpDown,
    Epoch,
}

pub struct Replica {
    cache: ArtifactCache,
    /// (fingerprint, tables) pairs already built on a resident entry, so
    /// only a first use is recorded as a build.
    built: HashSet<(u64, Tables)>,
    anatomies_left: usize,
    pub counts: Counts,
}

/// `run.rs`' `rep_seed`: replication 0 uses the spec's seeds verbatim.
fn rep_seed(base: u64, rep: u32) -> u64 {
    if rep == 0 {
        base
    } else {
        split_seed(base, rep as u64)
    }
}

/// The engine configuration `run_with_artifacts` derives from a spec.
fn sim_config(spec: &ScenarioSpec) -> SimConfig {
    let e = &spec.engine;
    let mut cfg = SimConfig::paper()
        .with_buffers(e.input_buffer_flits, e.output_buffer_flits)
        .with_extra_header_flits(e.extra_header_flits);
    if let Some(q) = e.queue {
        cfg = cfg.with_queue(match q {
            QueueSpec::Bucket => QueueKind::Bucket,
            QueueSpec::Heap => QueueKind::Heap,
        });
    }
    if let Some(n) = e.checkpoint_every_ns {
        cfg = cfg.with_checkpoint_every_ns(n);
    }
    cfg
}

/// The open-loop stream a spec describes, through the same public
/// generators `run_with_artifacts` uses.
fn open_stream(
    spec: &ScenarioSpec,
    arts: &ScenarioArtifacts,
    seed: u64,
) -> Result<Vec<MessageSpec>, String> {
    let (topo, procs) = (&arts.topo, arts.procs.as_slice());
    let stream = match &spec.traffic {
        TrafficSpec::SingleMulticast { dests, len } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = procs[rng.gen_range(0..procs.len())];
            DestinationSampler::UniformRandom { count: *dests }
                .sample_within(topo, procs, src, &mut rng)
                .map(|d| vec![MessageSpec::multicast(src, d, *len)])
        }
        TrafficSpec::BroadcastStorm { len, stagger_ns } => BroadcastStormConfig {
            message_len: *len,
            stagger: Duration::from_ns(*stagger_ns),
        }
        .generate_within(topo, procs),
        TrafficSpec::Mixed { .. } => spec
            .mixed_config()
            .expect("mixed spec")
            .generate_within(topo, procs, seed),
        TrafficSpec::Hotspot { .. } => spec
            .hotspot_config()
            .expect("hotspot spec")
            .generate_within(topo, procs, seed),
        TrafficSpec::Incast { .. } => spec
            .incast_config()
            .expect("incast spec")
            .generate_within(topo, procs, seed),
        TrafficSpec::Permutation { .. } => spec
            .permutation_config()
            .expect("permutation spec")
            .generate_within(topo, &arts.layout, procs, seed),
        TrafficSpec::ClosedLoop { .. } => unreachable!("closed-loop arms are not split"),
    };
    stream.map_err(|e| e.to_string())
}

/// `new` → `submit` → `run`, a span each.
fn drive<R: RoutingAlgorithm>(
    tr: &mut Tracer,
    arts: &ScenarioArtifacts,
    routing: R,
    cfg: SimConfig,
    stream: Vec<MessageSpec>,
) -> Result<SimOutcome, String> {
    let mut sim = tr.stage(Stage::WormsimNew, |_| {
        NetworkSim::new(&arts.topo, routing, cfg)
    });
    tr.stage(Stage::WormsimSubmit, |_| {
        stream.into_iter().try_for_each(|m| sim.submit(m).map(drop))
    })
    .map_err(|e| e.to_string())?;
    Ok(tr.stage(Stage::WormsimRun, |_| sim.run()))
}

/// True for the arms the harness can take apart: an open-loop stream on
/// a static fabric, no completion hook, no observers to install.
fn splittable(spec: &ScenarioSpec) -> bool {
    !matches!(spec.faults, FaultsSpec::Storm { .. })
        && !matches!(spec.traffic, TrafficSpec::ClosedLoop { .. })
        && !matches!(spec.routing, RoutingSpec::SoftwareMulticast)
        && !spec.engine.trace
        && spec.engine.metrics_every_ns.is_none()
}

impl Replica {
    pub fn new() -> Self {
        Replica {
            cache: ArtifactCache::new(CacheConfig::default()),
            built: HashSet::new(),
            anatomies_left: ANATOMIES,
            counts: Counts::default(),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Brings the replica's cache to the state set-up left the real one
    /// in (the cold workload's fill), without recording anything.
    pub fn fill(&mut self, requests: &[Request]) -> Result<(), String> {
        for req in requests {
            self.cache.lookup(&req.spec, 0).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Runs `make` — the first `spam_routing()` / `updown_routing()` /
    /// `epoch_routing()` on an entry builds its tables — as a build
    /// stage on first use and unrecorded after that.
    fn attach<R>(
        &mut self,
        tr: &mut Tracer,
        fp: u64,
        tables: Tables,
        make: impl FnOnce() -> R,
    ) -> R {
        if !self.built.insert((fp, tables)) {
            return make();
        }
        let stage = match tables {
            Tables::Spam => Stage::TablesBuild,
            Tables::UpDown => Stage::UpdownPrecomp,
            Tables::Epoch => Stage::EpochTables,
        };
        tr.stage(stage, |_| make())
    }

    /// Traffic generation and the engine run of one replication.
    /// Returns the outcome and whether the run was split.
    fn run(
        &mut self,
        tr: &mut Tracer,
        spec: &ScenarioSpec,
        rep: u32,
        arts: &ScenarioArtifacts,
        fp: u64,
    ) -> Result<(SimOutcome, bool), String> {
        if !splittable(spec) {
            // Build the tables the run will attach to first, so they show
            // as a build and not as engine time.
            match (&spec.faults, spec.routing) {
                (FaultsSpec::Storm { .. }, _) => {
                    self.attach(tr, fp, Tables::Epoch, || drop(arts.epoch_routing()))
                }
                (_, RoutingSpec::Spam { .. }) => {
                    self.attach(tr, fp, Tables::Spam, || drop(arts.spam_routing()))
                }
                _ => self.attach(tr, fp, Tables::UpDown, || drop(arts.updown_routing())),
            }
            let out = tr.stage(Stage::RunWithArtifacts, |_| {
                run_with_artifacts(spec, rep, None, arts)
            });
            return Ok((out.map_err(|e| e.to_string())?, false));
        }
        let stream = tr.stage(Stage::TrafficGenerate, |_| {
            open_stream(spec, arts, rep_seed(spec.seed, rep))
        })?;
        let cfg = sim_config(spec);
        let out = match spec.routing {
            RoutingSpec::Spam { policy } => {
                let routing = self.attach(tr, fp, Tables::Spam, || arts.spam_routing());
                let routing = routing.with_policy(match policy {
                    PolicySpec::MinResidualDistance => SelectionPolicy::MinResidualDistance,
                    PolicySpec::FirstLegal => SelectionPolicy::FirstLegal,
                    PolicySpec::RandomLegal { seed } => SelectionPolicy::RandomLegal { seed },
                });
                drive(tr, arts, routing, cfg, stream)?
            }
            RoutingSpec::UpDownUnicast => {
                let routing = self.attach(tr, fp, Tables::UpDown, || arts.updown_routing());
                drive(tr, arts, routing, cfg, stream)?
            }
            RoutingSpec::SoftwareMulticast => unreachable!("software multicast is not split"),
        };
        Ok((out, true))
    }

    /// One request, staged. `refs` are the real path's digests (absent
    /// for the cold workload, whose replica checks itself against
    /// `run_with_artifacts` instead). Returns whether every digest
    /// matched.
    pub fn request(
        &mut self,
        tr: &mut Tracer,
        req: &Request,
        refs: Option<&[Reference]>,
    ) -> Result<bool, String> {
        tr.begin_request(req.heavy);
        // Outcomes leave the request span to be summarized (and, for the
        // cold workload, re-checked) beside it.
        let mut done = Vec::with_capacity(req.spec.replications.max(1) as usize);
        let spec = tr.stage(Stage::Replica, |tr| -> Result<ScenarioSpec, String> {
            let spec = tr.stage(Stage::ReplicaHandleLine, |tr| -> Result<_, String> {
                let spec = tr.stage(Stage::ProtocolParse, |tr| -> Result<_, String> {
                    let doc = tr
                        .stage(Stage::JsonParse, |_| json::parse(&req.line))
                        .map_err(|e| e.to_string())?;
                    let spec = doc.get("spec").ok_or("run line has no spec")?;
                    tr.stage(Stage::CodecDecode, |_| ScenarioSpec::from_value(spec))
                        .map_err(|e| e.to_string())
                })?;
                tr.stage(Stage::SpecValidate, |_| spec.validate())
                    .map_err(|e| e.to_string())?;
                black_box(protocol::queued_line(&spec.name, spec.replications));
                Ok(spec)
            })?;
            tr.stage(Stage::ReplicaStep, |tr| -> Result<(), String> {
                for rep in 0..spec.replications.max(1) {
                    let fp = tr.stage(Stage::Fingerprint, |_| spec_fingerprint(&spec, rep));
                    let lookup = tr.next_index();
                    let (arts, hit) = tr
                        .stage(Stage::CacheHit, |_| self.cache.lookup(&spec, rep))
                        .map_err(|e| e.to_string())?;
                    if !hit {
                        tr.restage(lookup, Stage::CacheMiss);
                        self.built.retain(|(f, _)| *f != fp);
                    }
                    let (out, split) = self.run(tr, &spec, rep, &arts, fp)?;
                    let digest = tr.stage(Stage::OutcomeDigest, |_| outcome_digest(&out));
                    let stats = self.cache.stats();
                    let line = tr.stage(Stage::ProtocolEncode, |_| {
                        let meta = ResultMeta {
                            scenario: &spec.name,
                            rep,
                            reps: spec.replications,
                            artifact_hit: hit,
                            digest,
                        };
                        protocol::result_line(0, &meta, &out, &stats)
                    });
                    black_box(line);
                    done.push((rep, arts, hit, out, digest, split));
                }
                Ok(())
            })?;
            Ok(spec)
        })?;

        let mut ok = true;
        self.counts.requests += 1;
        for (rep, arts, hit, out, digest, split) in done {
            self.counts.add_outcome(&out, split);
            let dissect = !hit && self.anatomies_left > 0;
            self.anatomies_left -= usize::from(dissect);
            let expected = tr.stage(Stage::Anatomy, |tr| -> Result<u64, String> {
                tr.stage(Stage::Summarize, |_| black_box(summarize(rep, &out)));
                if dissect {
                    build_anatomy(tr, &spec, rep)?;
                }
                match refs {
                    Some(refs) => Ok(refs[rep as usize].digest),
                    None => run_with_artifacts(&spec, rep, None, &arts)
                        .map(|o| outcome_digest(&o))
                        .map_err(|e| e.to_string()),
                }
            })?;
            ok &= digest == expected;
        }
        Ok(ok)
    }
}

/// The artifact build taken apart: the whole `ArtifactPrefix::build`,
/// then its parts called one by one the way `build` calls them.
fn build_anatomy(tr: &mut Tracer, spec: &ScenarioSpec, rep: u32) -> Result<(), String> {
    tr.stage(Stage::ArtifactBuild, |_| {
        ArtifactPrefix::of(spec, rep).build().map(drop)
    })
    .map_err(|e| e.to_string())?;
    let t = &spec.topology;
    let gen = IrregularConfig {
        side: t
            .side
            .unwrap_or(IrregularConfig::with_switches(t.switches).side),
        strategy: match t.strategy {
            StrategySpec::ConnectedGrowth => LatticeStrategy::ConnectedGrowth,
            StrategySpec::UniformRetry => LatticeStrategy::UniformRetry,
        },
        ..IrregularConfig::with_switches(t.switches)
    };
    let (topo, layout) = tr.stage(Stage::LatticeGen, |_| {
        gen.generate_with_layout(rep_seed(t.seed, rep))
    });
    let label = |tr: &mut Tracer| {
        tr.stage(Stage::LabelingBuild, |_| {
            UpDownLabeling::build(&topo, RootSelection::LowestId)
        })
    };
    match spec.faults {
        FaultsSpec::None => drop(label(tr)),
        FaultsSpec::Storm {
            ref model,
            seed,
            window_start_us,
            window_end_us,
            bursts,
        } => {
            let labeling = label(tr);
            let schedule = FaultSchedule::storm(
                &model.to_model(),
                &topo,
                Some(&layout),
                (Time::from_us(window_start_us), Time::from_us(window_end_us)),
                bursts,
                rep_seed(seed, rep),
            );
            tr.stage(Stage::ReconfigScenarioBuild, |_| {
                black_box(ReconfigScenario::try_build(&topo, &labeling, &schedule));
            });
        }
        FaultsSpec::Static { ref model, seed } => {
            let plan = model
                .to_model()
                .sample(&topo, Some(&layout), rep_seed(seed, rep));
            tr.stage(Stage::FaultsDegrade, |_| {
                black_box(DegradedNetwork::build(&topo, &plan, None));
            });
        }
    }
    Ok(())
}
