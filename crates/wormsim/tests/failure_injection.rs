//! Failure injection: the engine must fail *loudly and precisely* when a
//! routing algorithm violates its contract, when resource limits trip, or
//! when callers misuse the API — silent misbehaviour in a simulator
//! produces wrong science. Contract violations and misroutes surface as
//! typed [`SimError`]s on the outcome (diagnosable, e.g. on degraded
//! networks with stale labelings); only host-side API misuse panics.

use desim::{Duration, Time};
use netgraph::{ChannelId, NodeId, Topology};
use wormsim::routing::OracleRouting;
use wormsim::{
    MessageSpec, NetworkSim, RouteDecision, RouteError, RoutingAlgorithm, SimConfig, SimError,
    SpecError,
};

fn line2() -> (Topology, [NodeId; 4]) {
    let mut b = Topology::builder();
    let s0 = b.add_switch();
    let s1 = b.add_switch();
    let p0 = b.add_processor();
    let p1 = b.add_processor();
    b.link(s0, s1).unwrap();
    b.link(p0, s0).unwrap();
    b.link(p1, s1).unwrap();
    (b.build(), [s0, s1, p0, p1])
}

/// A router that returns whatever channel list it is configured with.
struct EvilRouter {
    topo: Topology,
    mode: EvilMode,
}

#[derive(Clone, Copy)]
enum EvilMode {
    Empty,
    Duplicate,
    ForeignChannel,
}

impl RoutingAlgorithm for EvilRouter {
    type Header = ();
    type Scratch = ();

    fn initial_header(&self, _spec: &MessageSpec) -> Result<Self::Header, RouteError> {
        Ok(())
    }

    fn route(
        &self,
        node: NodeId,
        _in_ch: ChannelId,
        _header: &(),
        _spec: &MessageSpec,
        _scratch: &mut (),
        out: &mut RouteDecision<()>,
    ) -> Result<(), RouteError> {
        match self.mode {
            EvilMode::Empty => {}
            EvilMode::Duplicate => {
                let c = self.topo.out_channels(node)[0];
                out.push(c, ());
                out.push(c, ());
            }
            EvilMode::ForeignChannel => {
                // A channel that does not leave `node`.
                let foreign = self
                    .topo
                    .channel_ids()
                    .find(|&c| self.topo.channel(c).src != node)
                    .unwrap();
                out.push(foreign, ());
            }
        }
        Ok(())
    }
}

fn run_evil(mode: EvilMode) -> SimError {
    let (topo, [_, _, p0, p1]) = line2();
    let mut sim = NetworkSim::new(
        &topo,
        EvilRouter {
            topo: topo.clone(),
            mode,
        },
        SimConfig::paper(),
    );
    sim.submit(MessageSpec::unicast(p0, p1, 8)).unwrap();
    let out = sim.run();
    assert!(
        !out.all_delivered(),
        "contract violation must abort the run"
    );
    out.error.expect("typed error must be reported")
}

#[test]
fn empty_route_decision_is_a_typed_error() {
    assert!(matches!(
        run_evil(EvilMode::Empty),
        SimError::EmptyDecision { .. }
    ));
}

#[test]
fn duplicate_channel_request_is_a_typed_error() {
    assert!(matches!(
        run_evil(EvilMode::Duplicate),
        SimError::DuplicateRequest { .. }
    ));
}

#[test]
fn foreign_channel_request_is_a_typed_error() {
    assert!(matches!(
        run_evil(EvilMode::ForeignChannel),
        SimError::ForeignChannel { .. }
    ));
}

#[test]
fn routing_error_surfaces_on_the_outcome() {
    // An oracle with no plan at the first switch: the typed RouteError is
    // wrapped in SimError::Route, with the failing node identified.
    let (topo, [s0, _, p0, p1]) = line2();
    let oracle = OracleRouting::new(&topo);
    let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(p0, p1, 8).tag(5)).unwrap();
    let out = sim.run();
    assert!(!out.all_delivered());
    assert!(
        matches!(
            out.error,
            Some(SimError::Route {
                node,
                error: RouteError::NoPlan { tag: 5, node: plan_node },
                ..
            }) if node == s0 && plan_node == s0
        ),
        "unexpected error: {:?}",
        out.error
    );
}

#[test]
fn misroute_is_a_typed_error() {
    // Script a path that delivers to the *wrong* processor: p0 -> s0 ->
    // s1 -> p1, but the message's destination is a third processor p2 on
    // s0. The first flit absorbed at p1 must abort with Misroute.
    let mut b = Topology::builder();
    let s0 = b.add_switch();
    let s1 = b.add_switch();
    let p0 = b.add_processor();
    let p1 = b.add_processor();
    let p2 = b.add_processor();
    b.link(s0, s1).unwrap();
    b.link(p0, s0).unwrap();
    b.link(p1, s1).unwrap();
    b.link(p2, s0).unwrap();
    let topo = b.build();
    let mut oracle = OracleRouting::new(&topo);
    oracle.add_unicast_path(0, &[p0, s0, s1, p1]).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(p0, p2, 8)).unwrap();
    let out = sim.run();
    assert!(!out.all_delivered());
    assert!(
        matches!(out.error, Some(SimError::Misroute { at, .. }) if at == p1),
        "expected a misroute at {p1}, got {:?}",
        out.error
    );
}

#[test]
fn stale_hook_spec_aborts_with_typed_error() {
    // A completion hook that submits a message generated in the past must
    // abort the run with a typed `SimError::HookSpec`, never panic.
    let (topo, [_, _, p0, p1]) = line2();
    let mut oracle = OracleRouting::new(&topo);
    oracle
        .add_unicast_path(0, &[p0, NodeId(0), NodeId(1), p1])
        .unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
    sim.submit(MessageSpec::unicast(p0, p1, 8)).unwrap();
    struct StaleHook(NodeId, NodeId);
    impl wormsim::CompletionHook for StaleHook {
        fn on_complete(
            &mut self,
            _m: wormsim::MsgId,
            _spec: &MessageSpec,
            _at: Time,
            out: &mut Vec<MessageSpec>,
        ) {
            out.push(MessageSpec::unicast(self.0, self.1, 8).at(Time::ZERO));
        }
    }
    let out = sim.run_with_hook(&mut StaleHook(p0, p1));
    assert!(
        matches!(out.error, Some(SimError::HookSpec { .. })),
        "expected a HookSpec abort, got {:?}",
        out.error
    );
}

#[test]
fn event_cap_aborts_runaway_runs() {
    let (topo, [s0, s1, p0, p1]) = line2();
    let mut oracle = OracleRouting::new(&topo);
    oracle.add_unicast_path(0, &[p0, s0, s1, p1]).unwrap();
    let cfg = SimConfig {
        max_events: 10, // far too few to deliver anything
        ..SimConfig::paper()
    };
    let mut sim = NetworkSim::new(&topo, oracle, cfg);
    sim.submit(MessageSpec::unicast(p0, p1, 128)).unwrap();
    let out = sim.run();
    assert!(!out.all_delivered());
    let dl = out.deadlock.expect("event cap must be reported");
    assert!(!dl.queue_exhausted);
    assert!(out.counters.events <= 10);
}

#[test]
fn zero_watchdog_flags_any_stall() {
    // A pathological watchdog of 0 ns: the very first gap between progress
    // instants aborts the run. Checks the watchdog path itself.
    let (topo, [s0, s1, p0, p1]) = line2();
    let mut oracle = OracleRouting::new(&topo);
    oracle.add_unicast_path(0, &[p0, s0, s1, p1]).unwrap();
    let cfg = SimConfig::paper().with_watchdog(Duration::ZERO);
    let mut sim = NetworkSim::new(&topo, oracle, cfg);
    sim.submit(MessageSpec::unicast(p0, p1, 128)).unwrap();
    let out = sim.run();
    // The run may still complete if every event makes progress, but any
    // setup wait (40 ns with no flit motion) trips the watchdog; with the
    // paper's latencies the router setup always creates such a gap.
    assert!(out.deadlock.is_some());
}

#[test]
fn submit_rejects_invalid_specs_without_state_damage() {
    let (topo, [s0, s1, p0, p1]) = line2();
    let mut oracle = OracleRouting::new(&topo);
    oracle.add_unicast_path(0, &[p0, s0, s1, p1]).unwrap();
    let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
    assert_eq!(
        sim.submit(MessageSpec::unicast(p0, p0, 8)),
        Err(SpecError::SelfDestination(p0))
    );
    assert_eq!(
        sim.submit(MessageSpec::unicast(s0, p1, 8)),
        Err(SpecError::SourceNotProcessor(s0))
    );
    // A valid message still goes through untouched by the failed submits.
    sim.submit(MessageSpec::unicast(p0, p1, 8)).unwrap();
    let out = sim.run();
    assert!(out.all_delivered());
    assert_eq!(out.messages.len(), 1);
}
