//! Property: for every delivered message of a traced run, the derived
//! phase durations partition end-to-end latency **exactly** —
//! `startup + blocking + route_setup + wire + stall == completion − gen`
//! in integer nanoseconds — over random irregular lattices, mixed
//! unicast/multicast workloads, fault storms, and both routing arms.
//!
//! The phases are computed as modeled minima plus residuals obtained by
//! *checked* subtraction, so a successful decomposition also proves every
//! term nonnegative; a run violating the engine's timing model would make
//! `decompose_message` return `None` and fail the property.

use proptest::prelude::*;
use proptest::TestCaseError;
use spam_scenario::{
    run_with_artifacts, ArrivalSpec, ArtifactPrefix, EngineSpec, FaultModelSpec, FaultsSpec,
    PolicySpec, QueueSpec, RoutingSpec, ScenarioSpec, SpecError, StrategySpec, TopologySpec,
    TrafficSpec,
};
use spam_trace::{decompose_message, SpanSet};
use wormsim::{LatencyParams, MsgId};

fn base_spec(seed: u64, routing: RoutingSpec, faults: FaultsSpec) -> ScenarioSpec {
    let frac = |x: u64, m: u64| (x % (m + 1)) as f64 / m as f64;
    ScenarioSpec {
        name: format!("span-accounting-{seed:x}"),
        description: "generated by span_accounting proptest".to_string(),
        topology: TopologySpec {
            switches: 8 + (seed >> 3) as usize % 32,
            seed: seed ^ 0x5eed,
            side: None,
            strategy: if seed & 1 == 0 {
                StrategySpec::ConnectedGrowth
            } else {
                StrategySpec::UniformRetry
            },
            ports: 8,
        },
        routing,
        traffic: TrafficSpec::Mixed {
            unicast_fraction: frac(seed >> 8, 10),
            multicast_dests: 1 + (seed >> 12) as usize % 6,
            rate_per_node_per_us: 0.005 + frac(seed >> 15, 20) * 0.05,
            len: 2 + (seed >> 20) as u32 % 200,
            messages: 1 + (seed >> 28) as usize % 60,
            arrival: ArrivalSpec::Poisson,
        },
        faults,
        engine: EngineSpec {
            queue: if seed & 2 == 0 {
                Some(QueueSpec::Bucket)
            } else {
                Some(QueueSpec::Heap)
            },
            input_buffer_flits: 1 + (seed >> 33) as usize % 3,
            output_buffer_flits: 1 + (seed >> 35) as usize % 3,
            extra_header_flits: (seed >> 37) as u32 % 3,
            trace: true,
            // Telemetry on for a third of cases: the decomposition must
            // be identical with the pure observer riding along.
            metrics_every_ns: if seed.is_multiple_of(3) {
                Some(500)
            } else {
                None
            },
            // Checkpointing on for a third of cases: the snapshot
            // observer must not move a single span boundary.
            checkpoint_every_ns: if seed.is_multiple_of(3) {
                Some(2_000)
            } else {
                None
            },
        },
        seed,
        replications: 1,
        horizon_us: None,
    }
}

/// Runs a spec and checks the exact-partition property on every
/// delivered message. Storms that destroy the whole fabric are a valid
/// spec-level rejection, not a counterexample.
fn check_partition(spec: &ScenarioSpec) -> Result<(), TestCaseError> {
    let run = ArtifactPrefix::of(spec, 0)
        .build()
        .and_then(|arts| Ok((run_with_artifacts(spec, 0, None, &arts)?, arts.topo)));
    let (out, topo) = match run {
        Ok(x) => x,
        Err(SpecError::NoSurvivingComponent) => return Ok(()),
        Err(e) => return Err(TestCaseError::Fail(format!("spec rejected: {e:?}"))),
    };
    let spans = SpanSet::derive(&out);
    let latency = LatencyParams::paper();
    let mut delivered = 0usize;
    for (i, m) in out.messages.iter().enumerate() {
        if m.completed_at.is_none() {
            continue;
        }
        delivered += 1;
        let msg = MsgId(i as u32);
        let anatomy = decompose_message(
            &topo,
            &out,
            spans.of_msg(msg),
            &latency,
            spec.engine.extra_header_flits,
            msg,
        );
        let Some(a) = anatomy else {
            return Err(TestCaseError::Fail(format!(
                "delivered {msg:?} of {} has no derivable anatomy",
                spec.name
            )));
        };
        prop_assert_eq!(
            a.phase_sum(),
            a.end_to_end,
            "phases must sum exactly for {:?} of {}",
            msg,
            &spec.name
        );
        // The modeled terms are structural: startup is the §4 constant,
        // and wire/route_setup follow from chain length and worm length.
        prop_assert_eq!(a.startup, latency.startup);
        prop_assert!(a.hops >= 1, "a delivery crosses at least one router");
    }
    // Delivered messages exist in the overwhelming majority of cases;
    // the property is vacuous otherwise (e.g. every message torn down).
    let _ = delivered;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fault-free SPAM: every message delivers; every anatomy is exact.
    #[test]
    fn spam_fault_free_partitions_exactly(seed in any::<u64>()) {
        let spec = base_spec(
            seed,
            RoutingSpec::Spam { policy: PolicySpec::MinResidualDistance },
            FaultsSpec::None,
        );
        check_partition(&spec)?;
    }

    /// SPAM under a mid-run fault storm: survivors still decompose
    /// exactly (torn-down messages are excluded by definition).
    #[test]
    fn spam_under_storm_partitions_exactly(seed in any::<u64>()) {
        let spec = base_spec(
            seed,
            // Live storms only support the default selection policy.
            RoutingSpec::Spam { policy: PolicySpec::MinResidualDistance },
            FaultsSpec::Storm {
                model: FaultModelSpec::IidLinks { rate: 0.05 + (seed % 16) as f64 / 100.0 },
                seed: seed ^ 0xabcd,
                window_start_us: 5,
                window_end_us: 60,
                bursts: 1 + (seed >> 5) as usize % 3,
            },
        );
        check_partition(&spec)?;
    }

    /// Software multicast on a statically degraded fabric: the engine
    /// sees the constituent unicasts; each partitions exactly too.
    #[test]
    fn software_multicast_degraded_partitions_exactly(seed in any::<u64>()) {
        let spec = base_spec(
            seed,
            RoutingSpec::SoftwareMulticast,
            FaultsSpec::Static {
                model: FaultModelSpec::IidLinks { rate: 0.2 },
                seed: seed ^ 0x7777,
            },
        );
        check_partition(&spec)?;
    }
}
