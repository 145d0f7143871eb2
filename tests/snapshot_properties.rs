//! Property: checkpoint/resume is exact at *random* mid-run instants —
//! random lattices, both routing arms, and all three fault arms
//! (fault-free, static damage, live storm), resumed under a randomly
//! chosen event-queue implementation.

use proptest::prelude::*;
use proptest::TestCaseError;
use spam_net::prelude::*;
use spam_net::scenario::{ArrivalSpec, FaultModelSpec, PolicySpec};

/// Builds a small random spec: `arm` picks the routing arm, `fault`
/// the fault arm (a storm requires SPAM routing, so the up*/down* arm
/// maps storms to static damage).
fn random_spec(topo_seed: u64, traffic_seed: u64, arm: u64, fault: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::example("snapshot-prop");
    s.topology.switches = 8 + (topo_seed % 28) as usize;
    s.topology.seed = topo_seed;
    s.seed = traffic_seed;
    let spam = arm.is_multiple_of(2);
    if spam {
        s.routing = RoutingSpec::Spam {
            policy: PolicySpec::MinResidualDistance,
        };
        s.traffic = TrafficSpec::Mixed {
            unicast_fraction: 0.7,
            multicast_dests: 3,
            rate_per_node_per_us: 0.2,
            len: 48,
            messages: 24,
            arrival: ArrivalSpec::Poisson,
        };
    } else {
        s.routing = RoutingSpec::UpDownUnicast;
        s.traffic = TrafficSpec::Hotspot {
            hot_nodes: 2,
            hot_fraction: 0.5,
            rate_per_node_per_us: 0.2,
            len: 48,
            messages: 24,
            arrival: ArrivalSpec::Poisson,
        };
    }
    match fault % 3 {
        0 => s.faults = FaultsSpec::None,
        1 => {
            s.faults = FaultsSpec::Static {
                model: FaultModelSpec::IidLinks { rate: 0.08 },
                seed: topo_seed ^ 0xFA17,
            }
        }
        _ if spam => {
            s.faults = FaultsSpec::Storm {
                model: FaultModelSpec::IidLinks { rate: 0.1 },
                seed: topo_seed ^ 0x5707,
                window_start_us: 4,
                window_end_us: 30,
                bursts: 2,
            }
        }
        _ => {
            s.faults = FaultsSpec::Static {
                model: FaultModelSpec::IidSwitches { rate: 0.05 },
                seed: topo_seed ^ 0xFA17,
            }
        }
    }
    s
}

/// Cases of the property: `PROPTEST_CASES` when set, else 16. (The
/// proptest shim only caps a configured count by that variable, so a
/// larger run has to be asked for here.)
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn resume_at_a_random_instant_is_exact(
        topo_seed in 1u64..1_000_000,
        traffic_seed in 1u64..1_000_000,
        arm in 0u64..2,
        fault in 0u64..3,
        divisor in 2u64..9,
        pick in 0u64..64,
        heap in 0u64..2,
    ) {
        let spec = random_spec(topo_seed, traffic_seed, arm, fault);
        // Random damage can orphan the workload; that's a typed verdict,
        // not a failing case.
        let baseline = match run_scenario_once(&spec, 0, Some(QueueKind::Bucket)) {
            Ok(out) => out,
            Err(ScenarioError::NoSurvivingComponent) => return Ok(()),
            Err(e) => return Err(TestCaseError::Fail(format!("baseline: {e}"))),
        };
        let want = outcome_digest(&baseline);

        // A random cadence puts checkpoints at arbitrary mid-run
        // instants; a random pick chooses which one to resume from.
        let every_ns = (baseline.end_time.as_ns() / divisor).max(1);
        let golden = run_once_checkpointed(&spec, 0, Some(QueueKind::Bucket), every_ns)
            .map_err(|e| TestCaseError::Fail(format!("checkpointed: {e}")))?;
        prop_assert_eq!(want, outcome_digest(&golden.outcome), "observer purity");
        prop_assume!(!golden.checkpoints.is_empty());

        let (at_ns, bytes) = &golden.checkpoints[pick as usize % golden.checkpoints.len()];
        let queue = if heap == 1 { QueueKind::Heap } else { QueueKind::Bucket };
        let resumed = resume_once(&spec, 0, Some(queue), bytes)
            .map_err(|e| TestCaseError::Fail(format!("resume at {at_ns}ns: {e}")))?;
        prop_assert_eq!(
            want,
            outcome_digest(&resumed),
            "resume at {}ns under {:?} diverged (spec {:?})",
            at_ns, queue, spec.name
        );
    }
}
