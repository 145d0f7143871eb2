//! Content-addressed scenario artifacts: the expensive, reusable prefix
//! of a run.
//!
//! Executing a [`ScenarioSpec`] splits cleanly in two:
//!
//! 1. **Artifact build** — generate the lattice, apply static damage or
//!    precompute a reconfiguration storm's epoch chain, label the
//!    survivors up*/down*, and set up the routing precomputes (SPAM
//!    [`RoutingTables`], the up*/down* baseline's distance rows).
//!    Deterministic in the spec's *topology + faults* sections and the
//!    replication index — nothing else. The per-target residual-distance
//!    rows inside those precomputes are the one part that is not built
//!    here: each is filled in by the first run that routes to its target
//!    and kept with the artifacts, so a warm request finds every row any
//!    earlier request on the same entry built.
//! 2. **Run** — generate traffic and drive the wormhole engine.
//!
//! [`ArtifactPrefix`] names part 1: the exact sub-spec slice it depends
//! on. Two specs with equal prefixes — however much their traffic,
//! routing policy, engine knobs, or seeds differ — can share one
//! [`ScenarioArtifacts`], which is what the `spam-serve` artifact cache
//! does. [`ArtifactPrefix::fingerprint`] is the cache key: an FNV-1a 64
//! digest (the workspace's one [`wormsim::Fnv1a`] accumulator) streamed
//! directly over the prefix fields, so computing it on the request hot
//! path allocates nothing.
//!
//! The differential guarantee — a cache hit changes no outcome byte — is
//! pinned by `tests/serve_cache_differential.rs` at the workspace root:
//! all committed golden scenarios run cold and warm and must produce
//! identical `outcome_digest`s.

use crate::codec::{
    decode_faults, decode_topology, encode_faults, encode_topology, u32_of, Reader,
};
use crate::json::{self, Json, Num};
use crate::run::rep_seed;
use crate::spec::{
    FaultModelSpec, FaultsSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec,
};
use baselines::{UpDownPrecomp, UpDownUnicastRouting};
use desim::Time;
use netgraph::gen::lattice::{IrregularConfig, LatticeLayout, LatticeStrategy};
use netgraph::{NodeId, Topology};
use spam_core::{NodeMove, RoutingTables, SpamRouting};
use spam_faults::DegradedNetwork;
use spam_reconfig::{EpochRouting, FaultSchedule, ReconfigScenario};
use std::sync::{Arc, OnceLock};
use updown::{LazyRows, RootSelection, UpDownLabeling};
use wormsim::Fnv1a;

/// Bump when the fingerprinted field set or its encoding changes, so a
/// persisted cache manifest from an older layout can never alias a new
/// key.
const FINGERPRINT_VERSION: u8 = 1;

/// The slice of a [`ScenarioSpec`] the artifact build depends on: the
/// topology and fault sections plus the replication index (replications
/// beyond 0 derive their own generator and fault seeds). Everything else
/// — name, traffic, routing, engine knobs, the traffic seed, the
/// replication *count* — is irrelevant to the artifacts and deliberately
/// excluded, so specs differing only in those share a cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactPrefix {
    /// The lattice recipe.
    pub topology: TopologySpec,
    /// The damage recipe (static plan or storm schedule parameters).
    pub faults: FaultsSpec,
    /// Replication index the artifacts are built for.
    pub rep: u32,
}

impl ArtifactPrefix {
    /// Extracts the prefix of `spec` for replication `rep`.
    pub fn of(spec: &ScenarioSpec, rep: u32) -> Self {
        ArtifactPrefix {
            topology: spec.topology.clone(),
            faults: spec.faults,
            rep,
        }
    }

    /// True when `spec` at replication `rep` has exactly this prefix —
    /// the hit-path equality check behind the 64-bit fingerprint
    /// (collision safety without re-encoding anything).
    pub fn matches(&self, spec: &ScenarioSpec, rep: u32) -> bool {
        self.rep == rep && self.topology == spec.topology && self.faults == spec.faults
    }

    /// The cache key: FNV-1a 64 streamed over a versioned, tagged field
    /// encoding. Equal prefixes always fingerprint equal; distinct
    /// prefixes collide only with 64-bit-hash probability (and the cache
    /// re-checks [`Self::matches`] on every hit, so a collision surfaces
    /// as a typed error, never as wrong artifacts).
    pub fn fingerprint(&self) -> u64 {
        fingerprint_of(&self.topology, &self.faults, self.rep)
    }

    /// One-line canonical JSON of the prefix — the persistence form used
    /// by the cache manifest (artifacts themselves are deterministic
    /// rebuilds, so the manifest only needs the recipe).
    pub fn canonical_json(&self) -> String {
        Json::Obj(vec![
            ("topology".to_string(), encode_topology(&self.topology)),
            ("faults".to_string(), encode_faults(&self.faults)),
            ("rep".to_string(), Json::Num(Num::U(self.rep as u64))),
        ])
        .to_string_compact()
    }

    /// Decodes a [`Self::canonical_json`] document. Strict like the
    /// scenario codec (it reads through the same object reader): wrong
    /// shapes and unknown keys surface as typed [`SpecError`]s.
    pub fn from_canonical_json(text: &str) -> Result<Self, SpecError> {
        let doc = json::parse(text)?;
        let o = Reader::new(&doc, &|| "prefix".to_string())?;
        o.finish(ArtifactPrefix {
            topology: o.req("topology", decode_topology),
            faults: o.req_as("faults", decode_faults, FaultsSpec::None),
            rep: o.req("rep", u32_of),
        })
    }

    /// Validates the prefix fields in isolation (the subset of
    /// [`ScenarioSpec::validate`] that concerns topology and faults).
    /// Prefixes extracted from validated specs always pass; this guards
    /// prefixes decoded from a persisted cache manifest.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.topology.check()?;
        self.faults.check()
    }

    /// Builds the artifacts this prefix describes: lattice generation,
    /// fault application, labeling — everything a run needs before
    /// traffic. Deterministic: equal prefixes build byte-identical
    /// artifacts, which is the entire basis of the cache's correctness.
    pub fn build(&self) -> Result<ScenarioArtifacts, SpecError> {
        self.validate()?;
        let tspec = &self.topology;
        let rep = self.rep;
        let default_side = IrregularConfig::with_switches(tspec.switches).side;
        let gen = IrregularConfig {
            switches: tspec.switches,
            side: tspec.side.unwrap_or(default_side),
            strategy: match tspec.strategy {
                StrategySpec::ConnectedGrowth => LatticeStrategy::ConnectedGrowth,
                StrategySpec::UniformRetry => LatticeStrategy::UniformRetry,
            },
            max_retries: 64,
        };
        let (topo, layout) = gen.generate_with_layout(rep_seed(tspec.seed, rep));
        topo.validate(tspec.ports)
            .map_err(|_| SpecError::BadPorts { ports: tspec.ports })?;

        match self.faults {
            FaultsSpec::None => {
                let labeling = UpDownLabeling::build(&topo, RootSelection::LowestId);
                let procs: Vec<NodeId> = topo.processors().collect();
                Ok(ScenarioArtifacts::new(
                    self.clone(),
                    topo,
                    layout,
                    Arc::new(labeling),
                    procs,
                    None,
                ))
            }
            FaultsSpec::Storm {
                ref model,
                seed,
                window_start_us,
                window_end_us,
                bursts,
            } => {
                let labeling = Arc::new(UpDownLabeling::build(&topo, RootSelection::LowestId));
                let schedule = FaultSchedule::storm(
                    &model.to_model(),
                    &topo,
                    Some(&layout),
                    (Time::from_us(window_start_us), Time::from_us(window_end_us)),
                    bursts,
                    rep_seed(seed, rep),
                );
                // A storm can destroy the whole fabric (e.g. switch
                // faults at rate 1.0); that is a typed rejection, not a
                // panic. Epoch 0 is this entry's labeling, not a copy.
                let scenario = ReconfigScenario::try_build(&topo, Arc::clone(&labeling), &schedule)
                    .ok_or(SpecError::NoSurvivingComponent)?;
                let procs: Vec<NodeId> = topo.processors().collect();
                Ok(ScenarioArtifacts::new(
                    self.clone(),
                    topo,
                    layout,
                    labeling,
                    procs,
                    Some(StormArtifacts {
                        schedule,
                        scenario,
                        epoch_tables: OnceLock::new(),
                    }),
                ))
            }
            FaultsSpec::Static { ref model, seed } => {
                // Damage strikes before the run: reconfigure and confine
                // the workload to the largest surviving component.
                let plan = model
                    .to_model()
                    .sample(&topo, Some(&layout), rep_seed(seed, rep));
                let net = DegradedNetwork::build(&topo, &plan, None);
                let comp = net.largest().ok_or(SpecError::NoSurvivingComponent)?;
                let procs = comp.processors(&net.topo);
                if procs.len() < 2 {
                    return Err(SpecError::NoSurvivingComponent);
                }
                let labeling = Arc::new(comp.labeling.clone());
                Ok(ScenarioArtifacts::new(
                    self.clone(),
                    net.topo,
                    layout,
                    labeling,
                    procs,
                    None,
                ))
            }
        }
    }
}

/// Streaming fingerprint over a spec's prefix fields without extracting
/// (= cloning) an [`ArtifactPrefix`] — the allocation-free hit path.
pub fn spec_fingerprint(spec: &ScenarioSpec, rep: u32) -> u64 {
    fingerprint_of(&spec.topology, &spec.faults, rep)
}

fn fingerprint_of(t: &TopologySpec, f: &FaultsSpec, rep: u32) -> u64 {
    let mut h = Fnv1a::default();
    h.byte(FINGERPRINT_VERSION);
    // Topology, field-tagged in declaration order.
    h.word(t.switches as u64);
    h.word(t.seed);
    match t.side {
        None => h.byte(0),
        Some(s) => {
            h.byte(1);
            h.word(s as u64);
        }
    }
    h.byte(match t.strategy {
        StrategySpec::ConnectedGrowth => 0,
        StrategySpec::UniformRetry => 1,
    });
    h.word(t.ports as u64);
    // Faults: variant tag, then fields. Rates hash by their bits, so the
    // fingerprint distinguishes every distinct rate.
    let model = |h: &mut Fnv1a, m: &FaultModelSpec| match *m {
        FaultModelSpec::IidLinks { rate } => {
            h.byte(0);
            h.word(rate.to_bits());
        }
        FaultModelSpec::IidSwitches { rate } => {
            h.byte(1);
            h.word(rate.to_bits());
        }
        FaultModelSpec::Region { radius } => {
            h.byte(2);
            h.word(radius as u64);
        }
    };
    match *f {
        FaultsSpec::None => h.byte(0),
        FaultsSpec::Static { model: ref m, seed } => {
            h.byte(1);
            model(&mut h, m);
            h.word(seed);
        }
        FaultsSpec::Storm {
            model: ref m,
            seed,
            window_start_us,
            window_end_us,
            bursts,
        } => {
            h.byte(2);
            model(&mut h, m);
            h.word(seed);
            h.word(window_start_us);
            h.word(window_end_us);
            h.word(bursts as u64);
        }
    }
    h.word(rep as u64);
    h.finish()
}

/// A storm prefix's extra artifacts: the fault schedule and the fully
/// precomputed epoch chain, plus the per-epoch masked routing tables
/// (attached on first use, then shared; each epoch's distance rows fill
/// in as its messages first aim at them).
#[derive(Debug)]
pub struct StormArtifacts {
    /// The sampled fault schedule (link/switch deaths with timestamps).
    pub schedule: FaultSchedule,
    /// Per-epoch labelings and liveness masks.
    pub scenario: ReconfigScenario,
    epoch_tables: OnceLock<Vec<Arc<RoutingTables>>>,
}

/// Everything a run needs before traffic generation, built once per
/// [`ArtifactPrefix`] and shareable across arbitrarily many runs (the
/// struct is `Sync`; routing precomputes are `Arc`-shared, attached per
/// routing arm on first use, and grow one distance row per target first
/// routed to — concurrent runs share rows, and none is built twice).
#[derive(Debug)]
pub struct ScenarioArtifacts {
    /// The prefix these artifacts realize.
    pub prefix: ArtifactPrefix,
    /// The execution topology: pristine for `faults: none` and storms,
    /// post-degradation for static faults (dead nodes isolated, ids
    /// preserved).
    pub topo: Topology,
    /// The lattice layout the topology was generated on.
    pub layout: LatticeLayout,
    /// The up*/down* labeling runs route by: the pristine labeling for
    /// `none`/storm prefixes, the largest surviving component's for
    /// static faults. A storm's epoch 0 is this same labeling.
    pub labeling: Arc<UpDownLabeling>,
    /// The processors traffic may use (confined to the surviving
    /// component under static faults).
    pub procs: Vec<NodeId>,
    /// Storm-only extras.
    pub storm: Option<StormArtifacts>,
    spam_tables: OnceLock<Arc<RoutingTables>>,
    updown: OnceLock<UpDownPrecomp>,
}

impl ScenarioArtifacts {
    fn new(
        prefix: ArtifactPrefix,
        topo: Topology,
        layout: LatticeLayout,
        labeling: Arc<UpDownLabeling>,
        procs: Vec<NodeId>,
        storm: Option<StormArtifacts>,
    ) -> Self {
        ScenarioArtifacts {
            prefix,
            topo,
            layout,
            labeling,
            procs,
            storm,
            spam_tables: OnceLock::new(),
            updown: OnceLock::new(),
        }
    }

    /// A SPAM router over the cached topology, labeling, and shared
    /// [`RoutingTables`] — identical decisions to
    /// `SpamRouting::new(&topo, &labeling)`, with every distance row an
    /// earlier router from this entry built already in place.
    pub fn spam_routing(&self) -> SpamRouting<'_> {
        let tables = self
            .spam_tables
            .get_or_init(|| Arc::new(RoutingTables::build(&self.topo, &self.labeling)));
        SpamRouting::with_tables(&self.topo, &self.labeling, Arc::clone(tables))
    }

    /// An up*/down* unicast router over the cached precompute —
    /// identical decisions to `UpDownUnicastRouting::new`.
    pub fn updown_routing(&self) -> UpDownUnicastRouting<'_> {
        let precomp = self
            .updown
            .get_or_init(|| UpDownUnicastRouting::new(&self.topo, &self.labeling).precomp());
        UpDownUnicastRouting::with_precomp(&self.topo, &self.labeling, precomp.clone())
    }

    /// The epoch-switching router of a storm prefix (`None` otherwise),
    /// over per-epoch masked tables shared by every run on this entry —
    /// identical decisions to `ReconfigScenario::routing`.
    pub fn epoch_routing(&self) -> Option<EpochRouting<'_>> {
        let storm = self.storm.as_ref()?;
        let tables = storm
            .epoch_tables
            .get_or_init(|| storm.scenario.build_epoch_tables(&self.topo));
        Some(storm.scenario.routing_with_tables(&self.topo, tables))
    }

    /// A ceiling on the heap footprint in bytes — what a byte-budgeted
    /// cache charges for this entry. Topology and labelings are charged
    /// what they hold; routing precomputes are charged as
    /// if every distance row were already resident (and, for non-storm
    /// entries, as if both routing arms had been used), so an entry's
    /// cost never changes after insertion and the budget stays a hard
    /// bound while rows fill in. What the precomputes hold at a given
    /// moment is `RoutingTables::approx_bytes` /
    /// `UpDownPrecomp::approx_bytes`, never more than charged here.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let n = self.topo.num_nodes();
        let m = self.topo.num_channels();
        // Three phases per node and target — what a resident row holds —
        // and one move record and one mask byte per channel. The row
        // charge must stay at three cells: charging two let the
        // byte-budgeted cache keep more 1024-switch fabrics resident,
        // which raised `cold_fabric_1024` `peak_heap_mib` 5.18 → 6.24 MiB
        // (seed 1998) and 5.03 → 6.16 (seed 4242).
        let spam_tables =
            LazyRows::full_bytes(n, 3 * n) + m * (size_of::<NodeMove>() + 1) + (n + 1) * 4;
        match &self.storm {
            // Storms route SPAM-only, one masked table set per epoch.
            Some(s) => self.fixed_bytes() + s.scenario.num_epochs() * spam_tables,
            // Two phases per node and target; the rows are all the
            // up*/down* baseline keeps.
            None => self.fixed_bytes() + spam_tables + LazyRows::full_bytes(n, 2 * n),
        }
    }

    /// What is held whatever gets routed, to the byte: topology (flat
    /// adjacency + channel records), layout, processor list, and per
    /// labeling its per-node arrays and extended-ancestor runs. A storm
    /// adds a liveness mask per epoch and a labeling per epoch after the
    /// first; epoch 0 is [`Self::labeling`], charged once.
    fn fixed_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let epochs = self.storm.as_ref().map_or(0, |s| {
            let sc = &s.scenario;
            let masks: usize = (0..sc.num_epochs()).map(|e| sc.mask(e).len()).sum();
            let relabeled: usize = (1..sc.num_epochs())
                .map(|e| sc.labeling(e).approx_bytes())
                .sum();
            masks + relabeled
        });
        self.topo.approx_bytes()
            + self.labeling.approx_bytes()
            + size_of_val(&self.layout.cell[..])
            + size_of_val(&self.procs[..])
            + epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_with_artifacts;
    use crate::spec::ScenarioSpec;
    use baselines::updown_unicast::UdPhase;
    use spam_core::Phase;

    fn spec() -> ScenarioSpec {
        ScenarioSpec::example("artifact-tests")
    }

    /// The committed corpus (`scenarios/` at the workspace root).
    fn corpus() -> Vec<ScenarioSpec> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
        let specs = crate::corpus::load_dir(dir.as_ref()).expect("corpus loads");
        assert!(specs.len() >= 14, "corpus shrank to {}", specs.len());
        specs.into_iter().map(|(_, spec)| spec).collect()
    }

    /// Bytes the routing precomputes attached to `arts` hold right now.
    fn routing_resident_bytes(arts: &ScenarioArtifacts) -> usize {
        let epochs = arts.storm.as_ref().and_then(|s| s.epoch_tables.get());
        arts.spam_tables.get().map_or(0, |t| t.approx_bytes())
            + arts.updown.get().map_or(0, |p| p.approx_bytes())
            + epochs.map_or(0, |ts| ts.iter().map(|t| t.approx_bytes()).sum())
    }

    /// Every `(target, node, phase)` cell of `shared` (some rows built by
    /// a run, the rest filled by this walk) against `fresh`, a router
    /// built from scratch and walked over all targets.
    fn assert_same_cells<P: Copy + std::fmt::Debug>(
        topo: &Topology,
        phases: &[P],
        shared: impl Fn(NodeId, NodeId, P) -> u16,
        fresh: impl Fn(NodeId, NodeId, P) -> u16,
    ) {
        for target in topo.nodes() {
            for node in topo.nodes() {
                for &ph in phases {
                    assert_eq!(
                        shared(target, node, ph),
                        fresh(target, node, ph),
                        "({node}, {ph:?}) -> {target}"
                    );
                }
            }
        }
    }

    fn assert_same_spam(topo: &Topology, shared: &SpamRouting<'_>, fresh: &SpamRouting<'_>) {
        assert_same_cells(
            topo,
            &Phase::ALL,
            |t, n, ph| shared.dist(t, n, ph),
            |t, n, ph| fresh.dist(t, n, ph),
        );
    }

    #[test]
    fn corpus_rows_match_an_all_targets_walk_and_stay_under_the_charge() {
        for spec in corpus() {
            for rep in 0..spec.replications.max(1) {
                let arts = ArtifactPrefix::of(&spec, rep).build().unwrap();
                let charged = arts.approx_bytes();
                assert_eq!(routing_resident_bytes(&arts), 0, "{}", spec.name);
                run_with_artifacts(&spec, rep, None, &arts).unwrap();
                let after_run = routing_resident_bytes(&arts);
                assert!(
                    0 < after_run && after_run <= charged,
                    "{} rep {rep}: {after_run} B resident, {charged} B charged",
                    spec.name
                );
                let topo = &arts.topo;
                match (&arts.storm, arts.epoch_routing()) {
                    (Some(storm), Some(shared)) => {
                        // Held once: epoch 0 is the entry's own labeling.
                        assert!(
                            std::ptr::eq(storm.scenario.labeling(0), &*arts.labeling),
                            "{}",
                            spec.name
                        );
                        let fresh = storm.scenario.routing(topo);
                        for e in 0..shared.num_epochs() {
                            assert_same_spam(topo, shared.epoch(e), fresh.epoch(e));
                        }
                    }
                    _ => {
                        let fresh = SpamRouting::new(topo, &arts.labeling);
                        assert_same_spam(topo, &arts.spam_routing(), &fresh);
                        let (shared, fresh) = (
                            arts.updown_routing(),
                            UpDownUnicastRouting::new(topo, &arts.labeling),
                        );
                        assert_same_cells(
                            topo,
                            &[UdPhase::Up, UdPhase::Down],
                            |t, n, ph| shared.dist(t, n, ph),
                            |t, n, ph| fresh.dist(t, n, ph),
                        );
                    }
                }
                // Every row of every arm is resident now: the charge is
                // for exactly this state, and still covers it — the
                // routing rows and everything else the entry holds. (The
                // corpus has 24- to 256-switch fabrics, six of them 64.)
                let full = routing_resident_bytes(&arts);
                assert!(after_run < full, "{}", spec.name);
                let held = arts.fixed_bytes() + full;
                assert!(
                    held <= charged,
                    "{}: {held} B held, {charged} B charged",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn prefix_round_trips_through_canonical_json() {
        let mut s = spec();
        s.faults = FaultsSpec::Storm {
            model: FaultModelSpec::IidLinks { rate: 0.25 },
            seed: 9,
            window_start_us: 5,
            window_end_us: 50,
            bursts: 3,
        };
        let p = ArtifactPrefix::of(&s, 2);
        let round = ArtifactPrefix::from_canonical_json(&p.canonical_json()).unwrap();
        assert_eq!(p, round);
        assert_eq!(p.fingerprint(), round.fingerprint());

        // Strict both ways: a typo'd key and a non-object are typed errors.
        let typo = p.canonical_json().replace("\"rep\"", "\"rep\":2,\"reps\"");
        assert_eq!(
            ArtifactPrefix::from_canonical_json(&typo),
            Err(SpecError::UnknownField {
                field: "prefix.reps".to_string()
            })
        );
        assert_eq!(
            ArtifactPrefix::from_canonical_json("[]"),
            Err(SpecError::WrongType {
                field: "prefix".to_string(),
                expected: "an object"
            })
        );
    }

    #[test]
    fn fingerprint_ignores_traffic_and_traffic_seed() {
        let a = spec();
        let mut b = spec();
        b.name = "renamed".into();
        b.seed = a.seed ^ 0xDEAD;
        b.replications = 7;
        b.engine.trace = true;
        assert_eq!(spec_fingerprint(&a, 0), spec_fingerprint(&b, 0));
    }

    #[test]
    fn fingerprint_separates_reps_and_prefix_fields() {
        let a = spec();
        assert_ne!(spec_fingerprint(&a, 0), spec_fingerprint(&a, 1));
        let mut b = spec();
        b.topology.seed ^= 1;
        assert_ne!(spec_fingerprint(&a, 0), spec_fingerprint(&b, 0));
        let mut c = spec();
        c.faults = FaultsSpec::Static {
            model: FaultModelSpec::IidLinks { rate: 0.1 },
            seed: 0,
        };
        assert_ne!(spec_fingerprint(&a, 0), spec_fingerprint(&c, 0));
    }

    #[test]
    fn build_is_deterministic() {
        let p = ArtifactPrefix::of(&spec(), 0);
        let x = p.build().unwrap();
        let y = p.build().unwrap();
        assert_eq!(x.topo.num_nodes(), y.topo.num_nodes());
        assert_eq!(x.topo.num_channels(), y.topo.num_channels());
        assert_eq!(x.procs, y.procs);
        assert!(x.approx_bytes() > 0);
    }

    #[test]
    fn manifest_prefix_validation_rejects_bad_fields() {
        let mut p = ArtifactPrefix::of(&spec(), 0);
        p.topology.switches = 1;
        assert!(matches!(
            p.build(),
            Err(SpecError::TooFewSwitches { switches: 1 })
        ));
    }
}
