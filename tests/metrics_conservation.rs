//! Conservation laws of the telemetry accumulators, property-tested over
//! randomized scenarios:
//!
//! * **Wire billing is exact**: every wire transfer — bubbles and flits
//!   dropped on a dying link included — bills one channel-propagation
//!   delay to exactly one channel, so `sum(busy_ns)` over all channels
//!   equals `Counters::wire_transfers * t_channel` to the nanosecond.
//! * **Fault-free runs bill per channel**: with nothing dropped,
//!   `busy_ns[ch] == channel_crossings[ch] * t_channel` for every single
//!   channel.
//! * **Acquisition billing is complete**: each all-or-nothing acquisition
//!   increments every channel it grabbed once, so the per-channel sum
//!   equals `Counters::acquisitions` exactly on unicast workloads (one
//!   output per hop) and never undercounts it on multicasts.
//! * **The heatmap is a partition**: folding per-channel accumulators
//!   onto the lattice loses nothing — cell totals re-sum to the channel
//!   totals, and every channel lands in exactly one cell.

use proptest::prelude::*;
use spam_net::metrics::{ChannelAccum, CongestionHeatmap, HeatKey};
use spam_net::scenario::{
    run_with_artifacts, ArrivalSpec, ArtifactPrefix, FaultModelSpec, FaultsSpec, ScenarioSpec,
    SpecError, TrafficSpec,
};

/// `t_channel` of `SimConfig::paper()`, which the scenario runner uses.
const CHANNEL_PROP_NS: u64 = 10;

fn spec_for(case: u64, seed: u64) -> ScenarioSpec {
    let mut s = ScenarioSpec::example("metrics-conservation");
    s.seed = seed;
    s.topology.switches = 16 + (seed % 3) as usize * 4;
    s.topology.seed = seed ^ 0xC0FFEE;
    // Rotate through workloads that stress different accumulators:
    // hotspot (unicast contention), incast (unicast convergence), mixed
    // (multicast fanout → bubbles + multi-channel acquisitions).
    s.traffic = match case % 3 {
        0 => TrafficSpec::Hotspot {
            hot_nodes: 2,
            hot_fraction: 0.6,
            rate_per_node_per_us: 0.02,
            len: 32,
            messages: 60,
            arrival: ArrivalSpec::Poisson,
        },
        1 => TrafficSpec::Incast {
            servers: 2,
            rate_per_client_per_us: 0.02,
            len: 32,
            messages: 60,
            arrival: ArrivalSpec::Deterministic,
        },
        _ => TrafficSpec::Mixed {
            unicast_fraction: 0.5,
            multicast_dests: 6,
            rate_per_node_per_us: 0.02,
            len: 32,
            messages: 60,
            arrival: ArrivalSpec::NegativeBinomial { r: 1 },
        },
    };
    // Every third case also degrades the network statically, and mixed
    // SPAM cases occasionally ride through a live storm — teardown paths
    // must keep the billing exact.
    s.faults = match case % 4 {
        3 => FaultsSpec::Static {
            model: FaultModelSpec::IidLinks { rate: 0.15 },
            seed: seed ^ 0xFA_07,
        },
        2 if case % 3 == 2 => FaultsSpec::Storm {
            model: FaultModelSpec::IidLinks { rate: 0.15 },
            seed: seed ^ 0x5701,
            window_start_us: 15,
            window_end_us: 80,
            bursts: 2,
        },
        _ => FaultsSpec::None,
    };
    s.engine.metrics_every_ns = Some(2_000);
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn accumulators_obey_exact_conservation_laws(case in 0u64..12, seed in 0u64..1_000_000) {
        let spec = spec_for(case, seed);
        let run = ArtifactPrefix::of(&spec, 0)
            .build()
            .and_then(|arts| Ok((run_with_artifacts(&spec, 0, None, &arts)?, arts)));
        let (out, arts) = match run {
            Ok(r) => r,
            // Heavy damage can orphan the workload; that's a spec-level
            // verdict, not a conservation case.
            Err(SpecError::NoSurvivingComponent) => return Ok(()),
            Err(e) => panic!("scenario failed: {e:?}"),
        };
        let m = out.metrics.as_ref().expect("telemetry enabled");

        // Law 1: total wire billing matches the engine's transfer count.
        let busy_sum: u64 = m.channels.iter().map(|a| a.busy_ns).sum();
        prop_assert_eq!(busy_sum, out.counters.wire_transfers * CHANNEL_PROP_NS);

        // Law 2 (fault-free only): per-channel billing matches per-channel
        // crossings — nothing was dropped on a wire.
        if matches!(spec.faults, FaultsSpec::None) {
            for (ch, a) in m.channels.iter().enumerate() {
                prop_assert_eq!(
                    a.busy_ns,
                    out.channel_crossings[ch] * CHANNEL_PROP_NS,
                    "channel {} billed wrong", ch
                );
            }
        }

        // Law 3: acquisitions — exact on unicast workloads, never an
        // undercount when multicasts grab several channels at once.
        let acq_sum: u64 = m.channels.iter().map(|a| a.acquisitions).sum();
        if matches!(spec.traffic, TrafficSpec::Hotspot { .. } | TrafficSpec::Incast { .. }) {
            prop_assert_eq!(acq_sum, out.counters.acquisitions);
        } else {
            prop_assert!(acq_sum >= out.counters.acquisitions);
        }

        // Law 4: the heatmap partitions the channels — cell totals re-sum
        // to the channel totals, every channel is counted exactly once.
        let heat = CongestionHeatmap::build(&arts.topo, &arts.layout, &m.channels);
        let mut folded = ChannelAccum::default();
        for a in &m.channels {
            folded.fold(a);
        }
        prop_assert_eq!(heat.totals(), folded);
        let cell_channels: u32 = heat.occupied().map(|(_, _, _, c)| c.channels).sum();
        prop_assert_eq!(cell_channels as usize, arts.topo.num_channels());
        if busy_sum > 0 {
            let share = heat.top_share(1, HeatKey::BusyNs);
            prop_assert!(share > 0.0 && share <= 1.0);
        }
    }
}
