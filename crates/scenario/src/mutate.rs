//! Typed, axis-aware mutation of [`ScenarioSpec`]s for the
//! coverage-guided fuzzer (`spam-fuzz`).
//!
//! A mutation never produces junk: every mutant is a structurally valid
//! `ScenarioSpec` value that either passes [`ScenarioSpec::validate`] or
//! deliberately trips one *specific* validation rule (recorded in
//! [`Mutation::expect`], so the fuzzer can assert the rule still fires).
//! Values are drawn from small hand-chosen palettes that sit inside,
//! *at*, and just beyond each axis's validation boundary — boundary
//! probing is where fuzzers earn their keep.

use crate::spec::{
    ArrivalSpec, EngineSpec, FaultModelSpec, FaultsSpec, PatternSpec, PolicySpec, QueueSpec,
    RoutingSpec, ScenarioSpec, StrategySpec, TrafficSpec,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Switch-count palette: the floor (2), the corpus's sizes, and a large
/// outlier. All satisfy `switches >= 2`.
pub const SWITCH_PALETTE: &[usize] = &[2, 6, 12, 24, 32, 48, 64, 100];

/// Broadcast-storm stagger palette (ns), straddling the engine's far
/// horizon (`wormsim::WHEEL_SPAN_NS`) so mutants light its coverage bit:
/// same-instant (0), one router setup (40), mid-range, and just-below / at
/// / beyond the horizon.
pub const STAGGER_PALETTE: &[u64] = &[
    0,
    40,
    1_000,
    5_000_000,
    wormsim::WHEEL_SPAN_NS - 1,
    wormsim::WHEEL_SPAN_NS,
    wormsim::WHEEL_SPAN_NS + 1,
    wormsim::WHEEL_SPAN_NS * 2,
];

/// One applied mutation: the mutant plus what the mutator did and what
/// it predicts validation will say.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The mutated spec (name unchanged; the fuzzer renames mutants).
    pub spec: ScenarioSpec,
    /// Which axis was mutated (stable snake_case key, e.g.
    /// `"faults.storm"`).
    pub axis: &'static str,
    /// `Some(variant)` when the mutator deliberately violated a
    /// validation rule; the fuzzer asserts `validate()` fails with
    /// exactly this [`crate::SpecError`] variant name. `None` mutants
    /// may still fail validation (cross-axis rules), but always with a
    /// typed error.
    pub expect: Option<&'static str>,
}

/// Applies one randomly chosen axis mutation to `seed_spec`. Fully
/// deterministic in `rng`'s state.
pub fn mutate_spec(seed_spec: &ScenarioSpec, rng: &mut StdRng) -> Mutation {
    let mut spec = seed_spec.clone();
    let (axis, expect) = match rng.gen_range(0..13u32) {
        0 => resize_lattice(&mut spec, rng),
        1 => reshape_lattice(&mut spec, rng),
        2 => rotate_routing(&mut spec, rng),
        3 => perturb_traffic(&mut spec, rng),
        4 => boundary_traffic(&mut spec, rng),
        5 => swap_traffic_kind(&mut spec, rng),
        6 => add_or_move_storm(&mut spec, rng),
        7 => intensify_faults(&mut spec, rng),
        8 => static_faults(&mut spec, rng),
        9 => toggle_queue(&mut spec, rng),
        10 => perturb_engine(&mut spec, rng),
        11 => jitter_seeds(&mut spec, rng),
        _ => perturb_horizon(&mut spec, rng),
    };
    Mutation { spec, axis, expect }
}

fn resize_lattice(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    spec.topology.switches = *pick(SWITCH_PALETTE, rng);
    // The default side tracks the switch count; an explicit stale side
    // from the seed spec could no longer fit.
    spec.topology.side = None;
    ("topology.switches", None)
}

fn reshape_lattice(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    // An unbounded search always finds a side whose square covers the
    // switch count.
    #[allow(clippy::unwrap_used)]
    let min_side = (1..).find(|s| s * s >= spec.topology.switches).unwrap();
    match rng.gen_range(0..4u32) {
        // Tight square, roomy square: both valid.
        0 => spec.topology.side = Some(min_side),
        1 => spec.topology.side = Some(min_side + rng.gen_range(1..4usize)),
        2 => {
            spec.topology.strategy = match spec.topology.strategy {
                StrategySpec::ConnectedGrowth => StrategySpec::UniformRetry,
                StrategySpec::UniformRetry => StrategySpec::ConnectedGrowth,
            }
        }
        // One below the floor: side^2 < switches must be rejected.
        _ => {
            if min_side > 1 {
                spec.topology.side = Some(min_side - 1);
                return ("topology.side", Some("LatticeTooSmall"));
            }
            spec.topology.side = Some(min_side);
        }
    }
    ("topology.side", None)
}

fn rotate_routing(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    spec.routing = match rng.gen_range(0..5u32) {
        0 => RoutingSpec::Spam {
            policy: PolicySpec::MinResidualDistance,
        },
        1 => RoutingSpec::Spam {
            policy: PolicySpec::FirstLegal,
        },
        2 => RoutingSpec::Spam {
            policy: PolicySpec::RandomLegal {
                seed: rng.gen_range(0..u64::MAX),
            },
        },
        3 => RoutingSpec::UpDownUnicast,
        _ => RoutingSpec::SoftwareMulticast,
    };
    // Cross-axis rules (storm needs default-policy SPAM, unicast routing
    // needs unicast traffic, ...) may reject the combination — that is
    // the point: the rejection is a typed SpecError the fuzzer records.
    ("routing", None)
}

fn perturb_traffic(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    match &mut spec.traffic {
        TrafficSpec::SingleMulticast { dests, len } => {
            *dests = rng.gen_range(1..spec.topology.switches.max(2));
            *len = *pick(&[1, 8, 128, 1024], rng);
        }
        TrafficSpec::Mixed {
            unicast_fraction,
            multicast_dests,
            rate_per_node_per_us,
            len,
            ..
        } => {
            *unicast_fraction = *pick(&[0.0, 0.25, 0.5, 0.9, 1.0], rng);
            *multicast_dests = rng.gen_range(1..spec.topology.switches.max(2));
            *rate_per_node_per_us = *pick(&[0.001, 0.01, 0.05], rng);
            *len = *pick(&[1, 16, 128], rng);
        }
        TrafficSpec::Hotspot {
            hot_nodes,
            hot_fraction,
            ..
        } => {
            *hot_nodes = rng.gen_range(1..spec.topology.switches.max(2));
            *hot_fraction = *pick(&[0.0, 0.5, 1.0], rng);
        }
        TrafficSpec::Permutation {
            pattern, arrival, ..
        } => {
            *pattern = match pattern {
                PatternSpec::Transpose => PatternSpec::BitComplement,
                PatternSpec::BitComplement => PatternSpec::Transpose,
            };
            *arrival = *pick(
                &[
                    ArrivalSpec::Poisson,
                    ArrivalSpec::Deterministic,
                    ArrivalSpec::NegativeBinomial { r: 1 },
                    ArrivalSpec::OnOff {
                        r: 1,
                        mean_on_us: 20,
                        mean_off_us: 80,
                    },
                ],
                rng,
            );
        }
        TrafficSpec::Incast { servers, .. } => {
            *servers = rng.gen_range(1..spec.topology.switches.max(2));
        }
        TrafficSpec::BroadcastStorm { stagger_ns, len } => {
            *stagger_ns = *pick(STAGGER_PALETTE, rng);
            *len = *pick(&[1, 8, 64], rng);
        }
        TrafficSpec::ClosedLoop {
            window, think_ns, ..
        } => {
            *window = rng.gen_range(1..9usize);
            *think_ns = *pick(&[0, 100, 10_000], rng);
        }
    }
    ("traffic", None)
}

/// Pushes one traffic knob *past* its validation boundary and predicts
/// the exact rejection.
fn boundary_traffic(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    let procs = spec.topology.switches;
    match &mut spec.traffic {
        TrafficSpec::SingleMulticast { dests, .. } => {
            if rng.gen_bool(0.5) {
                *dests = 0;
                ("traffic.dests", Some("Traffic.NoDestinations"))
            } else {
                *dests = procs;
                ("traffic.dests", Some("Traffic.NotEnoughProcessors"))
            }
        }
        TrafficSpec::Mixed {
            unicast_fraction,
            rate_per_node_per_us,
            ..
        } => {
            if rng.gen_bool(0.5) {
                *unicast_fraction = 1.0 + f64::EPSILON * 4.0;
                ("traffic.unicast_fraction", Some("Traffic.BadFraction"))
            } else {
                *rate_per_node_per_us = 0.0;
                (
                    "traffic.rate_per_node_per_us",
                    Some("Traffic.NonPositiveRate"),
                )
            }
        }
        TrafficSpec::Hotspot { hot_fraction, .. } => {
            *hot_fraction = -0.125;
            ("traffic.hot_fraction", Some("Traffic.BadFraction"))
        }
        TrafficSpec::Permutation {
            rate_per_node_per_us,
            ..
        } => {
            // Above one message per arrival slot: unrepresentable.
            *rate_per_node_per_us = 1.0e6;
            ("traffic.rate_per_node_per_us", Some("Traffic.RateTooHigh"))
        }
        TrafficSpec::Incast {
            rate_per_client_per_us,
            ..
        } => {
            *rate_per_client_per_us = -1.0;
            (
                "traffic.rate_per_client_per_us",
                Some("Traffic.NonPositiveRate"),
            )
        }
        TrafficSpec::ClosedLoop { window, .. } => {
            *window = 0;
            ("traffic.window", Some("Traffic.ZeroDuration"))
        }
        TrafficSpec::BroadcastStorm { .. } => {
            // The storm has no rejectable knob; violate the topology
            // floor instead.
            spec.topology.switches = 1;
            spec.topology.side = None;
            ("topology.switches", Some("TooFewSwitches"))
        }
    }
}

fn swap_traffic_kind(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    let procs = spec.topology.switches;
    let dests = (procs / 4).clamp(1, procs.saturating_sub(1).max(1));
    spec.traffic = match rng.gen_range(0..7u32) {
        0 => TrafficSpec::SingleMulticast { dests, len: 128 },
        1 => TrafficSpec::Mixed {
            unicast_fraction: 0.9,
            multicast_dests: dests,
            rate_per_node_per_us: 0.01,
            len: 32,
            messages: 120,
            arrival: ArrivalSpec::NegativeBinomial { r: 1 },
        },
        2 => TrafficSpec::Hotspot {
            hot_nodes: 2.min(procs - 1).max(1),
            hot_fraction: 0.7,
            rate_per_node_per_us: 0.01,
            len: 32,
            messages: 120,
            arrival: ArrivalSpec::Poisson,
        },
        3 => TrafficSpec::Permutation {
            pattern: PatternSpec::Transpose,
            rate_per_node_per_us: 0.01,
            len: 32,
            messages_per_node: 3,
            arrival: ArrivalSpec::Deterministic,
        },
        4 => TrafficSpec::Incast {
            servers: 1,
            rate_per_client_per_us: 0.005,
            len: 32,
            messages: 120,
            arrival: ArrivalSpec::Poisson,
        },
        5 => TrafficSpec::BroadcastStorm {
            len: 8,
            stagger_ns: *pick(STAGGER_PALETTE, rng),
        },
        _ => TrafficSpec::ClosedLoop {
            window: 2,
            messages_per_source: 4,
            len: 32,
            think_ns: 100,
        },
    };
    ("traffic.kind", None)
}

fn add_or_move_storm(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    let model = random_model(rng);
    let start = *pick(&[0, 20, 100, 400], rng);
    let span = *pick(&[1, 50, 200], rng);
    spec.faults = FaultsSpec::Storm {
        model,
        seed: rng.gen_range(0..u64::MAX),
        window_start_us: start,
        window_end_us: start + span,
        bursts: rng.gen_range(1..4usize),
    };
    // Storms require default-policy SPAM and open-loop traffic; steer
    // the mutant toward a runnable composition most of the time, leave
    // the occasional cross-axis rejection as negative coverage.
    if rng.gen_bool(0.8) {
        spec.routing = RoutingSpec::Spam {
            policy: PolicySpec::MinResidualDistance,
        };
        if matches!(spec.traffic, TrafficSpec::ClosedLoop { .. }) {
            spec.traffic = TrafficSpec::Mixed {
                unicast_fraction: 0.9,
                multicast_dests: (spec.topology.switches / 4).max(1),
                rate_per_node_per_us: 0.01,
                len: 32,
                messages: 120,
                arrival: ArrivalSpec::NegativeBinomial { r: 1 },
            };
        }
        if spec.horizon_us.is_some() {
            spec.horizon_us = Some(start + span);
        }
    }
    ("faults.storm", None)
}

fn intensify_faults(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    let bump = |m: &mut FaultModelSpec, rng: &mut StdRng| match m {
        FaultModelSpec::IidLinks { rate } | FaultModelSpec::IidSwitches { rate } => {
            *rate = *pick(&[0.0, 0.05, 0.3, 1.0], rng);
        }
        FaultModelSpec::Region { radius } => *radius = rng.gen_range(0..4usize),
    };
    match &mut spec.faults {
        FaultsSpec::None => return static_faults(spec, rng),
        FaultsSpec::Static { model, .. } => bump(model, rng),
        FaultsSpec::Storm { model, bursts, .. } => {
            bump(model, rng);
            *bursts = rng.gen_range(1..6usize);
        }
    }
    ("faults.model", None)
}

fn static_faults(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    if rng.gen_bool(0.1) {
        // Beyond the probability boundary: must be rejected.
        spec.faults = FaultsSpec::Static {
            model: FaultModelSpec::IidLinks { rate: 1.5 },
            seed: rng.gen_range(0..u64::MAX),
        };
        return ("faults.static", Some("BadFaultRate"));
    }
    spec.faults = FaultsSpec::Static {
        model: random_model(rng),
        seed: rng.gen_range(0..u64::MAX),
    };
    ("faults.static", None)
}

fn toggle_queue(spec: &mut ScenarioSpec, rng: &mut StdRng) -> (&'static str, Option<&'static str>) {
    spec.engine.queue = *pick(&[None, Some(QueueSpec::Bucket), Some(QueueSpec::Heap)], rng);
    ("engine.queue", None)
}

fn perturb_engine(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    if rng.gen_bool(0.1) {
        spec.engine.input_buffer_flits = 0;
        return ("engine.buffers", Some("BadBuffers"));
    }
    if rng.gen_bool(0.1) {
        spec.engine.metrics_every_ns = Some(0);
        return ("engine.metrics", Some("ZeroSampleCadence"));
    }
    if rng.gen_bool(0.1) {
        spec.engine.checkpoint_every_ns = Some(0);
        return ("engine.checkpoint", Some("ZeroCheckpointCadence"));
    }
    spec.engine = EngineSpec {
        queue: spec.engine.queue,
        input_buffer_flits: rng.gen_range(1..5usize),
        output_buffer_flits: rng.gen_range(1..5usize),
        extra_header_flits: rng.gen_range(0..3u32),
        trace: spec.engine.trace,
        metrics_every_ns: match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(1_000),
            _ => Some(*pick(&[100, 5_000, 250_000], rng)),
        },
        checkpoint_every_ns: match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(50_000),
            _ => Some(*pick(&[10_000, 250_000, 1_000_000], rng)),
        },
    };
    ("engine.buffers", None)
}

fn jitter_seeds(spec: &mut ScenarioSpec, rng: &mut StdRng) -> (&'static str, Option<&'static str>) {
    match rng.gen_range(0..3u32) {
        0 => spec.seed = rng.gen_range(0..u64::MAX),
        1 => spec.topology.seed = rng.gen_range(0..u64::MAX),
        _ => {
            spec.seed = rng.gen_range(0..u64::MAX);
            spec.topology.seed = rng.gen_range(0..u64::MAX);
        }
    }
    ("seed", None)
}

fn perturb_horizon(
    spec: &mut ScenarioSpec,
    rng: &mut StdRng,
) -> (&'static str, Option<&'static str>) {
    if let FaultsSpec::Storm { window_end_us, .. } = spec.faults {
        if rng.gen_bool(0.3) && window_end_us > 0 {
            // Horizon one µs short of the storm window: must be rejected.
            spec.horizon_us = Some(window_end_us - 1);
            return ("horizon_us", Some("FaultsPastHorizon"));
        }
        // Exactly at the boundary: the tightest accepted horizon.
        spec.horizon_us = Some(window_end_us);
        return ("horizon_us", None);
    }
    spec.horizon_us = match spec.horizon_us {
        None => Some(*pick(&[100, 1_000, 100_000], rng)),
        Some(_) => None,
    };
    ("horizon_us", None)
}

fn random_model(rng: &mut StdRng) -> FaultModelSpec {
    match rng.gen_range(0..3u32) {
        0 => FaultModelSpec::IidLinks {
            rate: *pick(&[0.02, 0.1, 0.3], rng),
        },
        1 => FaultModelSpec::IidSwitches {
            rate: *pick(&[0.05, 0.15], rng),
        },
        _ => FaultModelSpec::Region {
            radius: rng.gen_range(0..3usize),
        },
    }
}

fn pick<'a, T>(xs: &'a [T], rng: &mut StdRng) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Every mutant either validates or fails with a typed error — and
    /// when the mutator predicted a rejection, that exact variant fires.
    #[test]
    fn mutants_validate_or_trip_the_predicted_rule() {
        let seed = ScenarioSpec::example("mutation-source");
        let mut rng = StdRng::seed_from_u64(0xF0_22);
        let mut predicted = 0;
        for _ in 0..500 {
            let m = mutate_spec(&seed, &mut rng);
            match (m.spec.validate(), m.expect) {
                (Ok(()), None) => {}
                (Err(_), None) => {} // cross-axis rejection: typed, fine
                (Err(e), Some(want)) => {
                    assert_eq!(e.variant_name(), want, "axis {}", m.axis);
                    predicted += 1;
                }
                (Ok(()), Some(want)) => {
                    panic!("axis {} promised {want} but the mutant validated", m.axis)
                }
            }
        }
        assert!(
            predicted > 10,
            "boundary mutators barely fired: {predicted}"
        );
    }

    #[test]
    fn mutation_stream_is_deterministic() {
        let seed = ScenarioSpec::example("det");
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let ma = mutate_spec(&seed, &mut a);
            let mb = mutate_spec(&seed, &mut b);
            assert_eq!(ma.axis, mb.axis);
            assert_eq!(ma.spec, mb.spec);
        }
    }

    #[test]
    fn stagger_palette_straddles_the_wheel_horizon() {
        assert!(STAGGER_PALETTE.contains(&(wormsim::WHEEL_SPAN_NS - 1)));
        assert!(STAGGER_PALETTE.contains(&(wormsim::WHEEL_SPAN_NS + 1)));
    }
}
