//! Full traffic streams: the Figure 3 mixed unicast/multicast workload,
//! plus the shared rate-driven stream-merging core every open-loop
//! workload (mixed, hotspot, incast) builds on.

use crate::arrivals::{ArrivalGen, ArrivalKind};
use crate::dests::DestinationSampler;
use crate::error::TrafficError;
use desim::Time;
use netgraph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wormsim::{Dests, MessageSpec};

/// Merges independent per-source arrival processes into one time-sorted,
/// tag-numbered stream of `messages` messages. `pick(msg_idx, src_idx,
/// src, rng)` chooses each message's destination set (and may consult
/// the RNG); `msg_idx` equals the final tag and `src_idx` indexes
/// `sources`.
///
/// This is the §4 generation protocol factored out: every open-loop
/// workload (mixed, hotspot, incast) is this merge plus a destination
/// policy.
pub(crate) fn rate_merged_stream(
    sources: &[NodeId],
    messages: usize,
    arrival: ArrivalKind,
    rate_per_source_per_us: f64,
    len: u32,
    rng: &mut StdRng,
    mut pick: impl FnMut(usize, usize, NodeId, &mut StdRng) -> Result<Dests, TrafficError>,
) -> Result<Vec<MessageSpec>, TrafficError> {
    if sources.is_empty() {
        return Err(TrafficError::TooFewSources {
            available: 0,
            needed: 1,
        });
    }
    let mut gens: Vec<ArrivalGen> = sources
        .iter()
        .map(|_| arrival.generator(rate_per_source_per_us))
        .collect::<Result<_, _>>()?;

    // Per-source next-arrival heap: (time, source-index).
    let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    for (i, g) in gens.iter_mut().enumerate() {
        let gap = g.next_gap(rng);
        heap.push(Reverse((Time::ZERO + gap, i)));
    }

    let mut specs = Vec::with_capacity(messages);
    while specs.len() < messages {
        // One entry per source was pushed above and every pop below
        // pushes the source's next arrival back; config validation
        // guarantees at least one source.
        #[allow(clippy::expect_used)]
        let Reverse((t, i)) = heap.pop().expect("heap refilled every pop");
        let src = sources[i];
        let dests = pick(specs.len(), i, src, rng)?;
        specs.push(MessageSpec {
            src,
            dests,
            len,
            gen_time: t,
            tag: specs.len() as u64,
        });
        let gap = gens[i].next_gap(rng);
        heap.push(Reverse((t + gap, i)));
    }
    specs.sort_by_key(|s| (s.gen_time, s.tag));
    Ok(specs)
}

/// The Figure 3 workload: every processor independently generates
/// messages; each is a unicast with probability `unicast_fraction`,
/// otherwise a multicast with `multicast_dests` uniformly drawn
/// destinations.
#[derive(Debug, Clone, Copy)]
pub struct MixedTrafficConfig {
    /// Fraction of unicast messages (0.9 in the paper).
    pub unicast_fraction: f64,
    /// Destinations per multicast (8, 16, 32, 64 in Figure 3).
    pub multicast_dests: usize,
    /// Mean arrival rate per node, messages per microsecond
    /// (0.005 – 0.04 on the Figure 3 x-axis).
    pub rate_per_node_per_us: f64,
    /// Flits per message (128 in §4).
    pub message_len: u32,
    /// Total messages to generate across all nodes.
    pub messages: usize,
    /// The arrival process.
    pub arrival: ArrivalKind,
}

impl MixedTrafficConfig {
    /// The paper's Figure 3 configuration at a given rate and multicast
    /// size, for `messages` total messages.
    pub fn figure3(rate_per_node_per_us: f64, multicast_dests: usize, messages: usize) -> Self {
        MixedTrafficConfig {
            unicast_fraction: 0.9,
            multicast_dests,
            rate_per_node_per_us,
            message_len: 128,
            messages,
            arrival: ArrivalKind::NegativeBinomial { r: 1 },
        }
    }

    /// Checks the configuration against a processor population of
    /// `available` nodes.
    pub fn validate(&self, available: usize) -> Result<(), TrafficError> {
        if !(0.0..=1.0).contains(&self.unicast_fraction) {
            return Err(TrafficError::BadFraction {
                what: "unicast_fraction",
                value: self.unicast_fraction,
            });
        }
        if available < 2 {
            return Err(TrafficError::TooFewSources {
                available,
                needed: 2,
            });
        }
        // A multicast must leave the source out.
        if self.multicast_dests == 0 {
            return Err(TrafficError::NoDestinations);
        }
        if self.multicast_dests >= available {
            return Err(TrafficError::NotEnoughProcessors {
                requested: self.multicast_dests,
                available: available - 1,
            });
        }
        self.arrival.validate_rate(self.rate_per_node_per_us)
    }

    /// Generates the message stream (sorted by generation time).
    ///
    /// Every processor runs an independent arrival process; the merged
    /// stream is truncated to `self.messages` messages. Tags number the
    /// messages in generation order. Unicast destinations are uniform; a
    /// message is a multicast with probability `1 − unicast_fraction`.
    ///
    /// Returns a typed [`TrafficError`] — never panics — when the
    /// configuration cannot be realized on this topology (multicast size
    /// not below the processor count, bad fraction, bad rate).
    pub fn generate(&self, topo: &Topology, seed: u64) -> Result<Vec<MessageSpec>, TrafficError> {
        let procs: Vec<NodeId> = topo.processors().collect();
        self.generate_within(topo, &procs, seed)
    }

    /// Like [`MixedTrafficConfig::generate`], but sources and destinations
    /// are confined to the given processor population (e.g. the largest
    /// surviving component of a degraded network).
    pub fn generate_within(
        &self,
        topo: &Topology,
        procs: &[NodeId],
        seed: u64,
    ) -> Result<Vec<MessageSpec>, TrafficError> {
        self.validate(procs.len())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let unicast_fraction = self.unicast_fraction;
        let multicast_dests = self.multicast_dests;
        let mut candidates = Vec::new();
        rate_merged_stream(
            procs,
            self.messages,
            self.arrival,
            self.rate_per_node_per_us,
            self.message_len,
            &mut rng,
            |_, _, src, rng| {
                let count = if rng.gen_bool(unicast_fraction) {
                    1
                } else {
                    multicast_dests
                };
                DestinationSampler::UniformRandom { count }.sample_within_into(
                    topo,
                    procs,
                    src,
                    &mut candidates,
                    rng,
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;

    fn topo() -> Topology {
        IrregularConfig::with_switches(32).generate(1)
    }

    #[test]
    fn stream_is_sorted_and_tagged() {
        let t = topo();
        let specs = MixedTrafficConfig::figure3(0.02, 8, 200)
            .generate(&t, 42)
            .unwrap();
        assert_eq!(specs.len(), 200);
        for w in specs.windows(2) {
            assert!(w[0].gen_time <= w[1].gen_time);
        }
        for s in &specs {
            s.validate(&t).unwrap();
            assert_eq!(s.len, 128);
        }
    }

    #[test]
    fn unicast_fraction_is_respected() {
        let t = topo();
        let specs = MixedTrafficConfig::figure3(0.02, 8, 3000)
            .generate(&t, 7)
            .unwrap();
        let unicasts = specs.iter().filter(|s| s.is_unicast()).count();
        let frac = unicasts as f64 / specs.len() as f64;
        assert!(
            (frac - 0.9).abs() < 0.03,
            "unicast fraction {frac} far from 0.9"
        );
        // Multicasts have exactly the configured size.
        for s in specs.iter().filter(|s| !s.is_unicast()) {
            assert_eq!(s.dests.len(), 8);
        }
    }

    #[test]
    fn aggregate_rate_matches_configuration() {
        let t = topo();
        let cfg = MixedTrafficConfig::figure3(0.01, 8, 4000);
        let specs = cfg.generate(&t, 3).unwrap();
        let span_us = specs.last().unwrap().gen_time.as_us_f64();
        // 32 nodes at 0.01 msg/µs each -> 0.32 msg/µs aggregate.
        let rate = specs.len() as f64 / span_us;
        assert!(
            (rate - 0.32).abs() < 0.05,
            "aggregate rate {rate} far from 0.32"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let t = topo();
        let cfg = MixedTrafficConfig::figure3(0.02, 16, 100);
        assert_eq!(cfg.generate(&t, 5).unwrap(), cfg.generate(&t, 5).unwrap());
        assert_ne!(cfg.generate(&t, 5).unwrap(), cfg.generate(&t, 6).unwrap());
    }

    #[test]
    fn poisson_deterministic_and_onoff_also_work() {
        let t = topo();
        for arrival in [
            ArrivalKind::Poisson,
            ArrivalKind::Deterministic,
            ArrivalKind::OnOff {
                r: 1,
                mean_on_us: 100,
                mean_off_us: 300,
            },
        ] {
            let cfg = MixedTrafficConfig {
                arrival,
                ..MixedTrafficConfig::figure3(0.02, 4, 50)
            };
            let specs = cfg.generate(&t, 1).unwrap();
            assert_eq!(specs.len(), 50);
        }
    }

    #[test]
    fn sources_are_spread_across_nodes() {
        let t = topo();
        let specs = MixedTrafficConfig::figure3(0.02, 8, 2000)
            .generate(&t, 11)
            .unwrap();
        let mut srcs: Vec<NodeId> = specs.iter().map(|s| s.src).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert!(
            srcs.len() >= 30,
            "only {} of 32 processors ever sent",
            srcs.len()
        );
    }

    #[test]
    fn generate_within_confines_the_stream() {
        let t = topo();
        let procs: Vec<NodeId> = t.processors().collect();
        let pop = &procs[..8];
        let specs = MixedTrafficConfig::figure3(0.02, 4, 120)
            .generate_within(&t, pop, 9)
            .unwrap();
        for s in &specs {
            assert!(pop.contains(&s.src));
            for d in &s.dests {
                assert!(pop.contains(d));
            }
        }
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let t = topo();
        // Multicast size must leave the source out: 32 processors.
        assert_eq!(
            MixedTrafficConfig::figure3(0.02, 32, 10).generate(&t, 0),
            Err(TrafficError::NotEnoughProcessors {
                requested: 32,
                available: 31
            })
        );
        assert_eq!(
            MixedTrafficConfig::figure3(0.0, 8, 10).generate(&t, 0),
            Err(TrafficError::NonPositiveRate { rate: 0.0 })
        );
        let mut bad = MixedTrafficConfig::figure3(0.02, 8, 10);
        bad.unicast_fraction = 1.5;
        assert_eq!(
            bad.generate(&t, 0),
            Err(TrafficError::BadFraction {
                what: "unicast_fraction",
                value: 1.5
            })
        );
        assert_eq!(
            MixedTrafficConfig::figure3(500.0, 8, 10).generate(&t, 0),
            Err(TrafficError::RateTooHigh { rate: 500.0 })
        );
    }

    #[test]
    fn degenerate_arrival_knobs_are_typed_errors() {
        // Degenerate knobs are typed errors from validation, so a
        // validated config always builds its generators.
        let base = MixedTrafficConfig::figure3(0.02, 4, 10);
        let with = |arrival| MixedTrafficConfig { arrival, ..base };
        let t = topo();
        // Zero dispersion (r = 0) on both NB-backed kinds.
        assert_eq!(
            with(ArrivalKind::NegativeBinomial { r: 0 }).generate(&t, 0),
            Err(TrafficError::ZeroDuration {
                what: "negative-binomial dispersion r"
            })
        );
        assert!(with(ArrivalKind::OnOff {
            r: 0,
            mean_on_us: 10,
            mean_off_us: 10
        })
        .generate(&t, 0)
        .is_err());
        // On/off periods past the nanosecond range would overflow
        // Duration::from_us.
        assert_eq!(
            with(ArrivalKind::OnOff {
                r: 1,
                mean_on_us: u64::MAX / 1_000 + 1,
                mean_off_us: 0
            })
            .generate(&t, 0),
            Err(TrafficError::DurationTooLarge {
                what: "mean ON period"
            })
        );
        // Continuous kinds with a sub-nanosecond mean gap would silently
        // truncate to zero and destroy the configured rate.
        for arrival in [ArrivalKind::Deterministic, ArrivalKind::Poisson] {
            let mut cfg = with(arrival);
            cfg.rate_per_node_per_us = 2_000.0;
            assert_eq!(
                cfg.generate(&t, 0),
                Err(TrafficError::RateTooHigh { rate: 2_000.0 })
            );
        }
    }

    /// FNV-1a over the first 32 gaps (ns) of one source's generator,
    /// then one raw draw, so the pin also fixes how many RNG calls the
    /// 32 gaps consumed.
    fn stream_digest(arrival: ArrivalKind, seed: u64) -> (u64, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = arrival.generator(0.02).unwrap();
        let gaps: Vec<u64> = (0..32).map(|_| g.next_gap(&mut rng).as_ns()).collect();
        let after = rand::RngCore::next_u64(&mut rng);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in gaps.iter().chain([&after]) {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        (h, gaps)
    }

    #[test]
    fn arrival_streams_are_pinned() {
        // Every kind at 0.02 msg/µs, seeds 1 and 4242. A failure prints
        // the gaps; a deliberate change to a process means new literals.
        let on_off = |mean_off_us| ArrivalKind::OnOff {
            r: 1,
            mean_on_us: 150,
            mean_off_us,
        };
        let pins: [(ArrivalKind, [u64; 2]); 6] = [
            (
                ArrivalKind::NegativeBinomial { r: 1 },
                [0xf7f6_f807_9f0b_7f69, 0x4031_d28f_ecc4_fed1],
            ),
            (
                ArrivalKind::NegativeBinomial { r: 3 },
                [0xebb2_16d6_2e05_6173, 0xe037_0b66_62c6_2e6d],
            ),
            (
                ArrivalKind::Poisson,
                [0x96b5_46c0_9cfd_5e5b, 0x5833_1625_b7b0_bef6],
            ),
            (
                ArrivalKind::Deterministic,
                [0xa340_a2bb_988b_99b3, 0xf0cf_58b5_f3a0_a99c],
            ),
            (on_off(0), [0xff20_d6e5_0cae_b3ce, 0x4e16_d189_6f28_0260]),
            (on_off(450), [0xf784_bb4c_ccd2_c6c6, 0x8ef7_1c85_07f0_eb15]),
        ];
        for (arrival, want) in pins {
            for (seed, want) in [1, 4242].into_iter().zip(want) {
                let (got, gaps) = stream_digest(arrival, seed);
                assert_eq!(got, want, "{arrival:?} seed {seed}: {got:#x} {gaps:?}");
            }
        }
    }

    #[test]
    fn two_processor_topology_regressions() {
        // Mixed traffic on the minimal topology: unicasts are fine, any
        // multicast size ≥ 2 is a typed rejection (2 processors can never
        // host a 2-destination multicast — the source must be left out).
        let t = IrregularConfig::with_switches(2).generate(3);
        let mut cfg = MixedTrafficConfig::figure3(0.02, 2, 20);
        assert_eq!(
            cfg.generate(&t, 1),
            Err(TrafficError::NotEnoughProcessors {
                requested: 2,
                available: 1
            })
        );
        cfg.unicast_fraction = 1.0;
        cfg.multicast_dests = 1;
        let specs = cfg.generate(&t, 1).unwrap();
        assert_eq!(specs.len(), 20);
        for s in &specs {
            s.validate(&t).unwrap();
            assert!(s.is_unicast());
        }
    }
}
