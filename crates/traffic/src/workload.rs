//! Full traffic streams: the Figure 3 mixed unicast/multicast workload,
//! plus the shared rate-driven stream-merging core every open-loop
//! workload (mixed, hotspot, incast) builds on.

use crate::arrivals::{ArrivalProcess, Deterministic, NegativeBinomial, OnOff, Poisson};
use crate::dests::DestinationSampler;
use crate::error::TrafficError;
use desim::{Duration, Time};
use netgraph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wormsim::MessageSpec;

/// Which arrival process drives each node's generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// §4: negative binomial slot counts with dispersion `r` over 10 ns
    /// slots.
    NegativeBinomial {
        /// Dispersion; 1 = geometric.
        r: u32,
    },
    /// Exponential gaps (sensitivity analysis).
    Poisson,
    /// Fixed gaps (stress tests).
    Deterministic,
    /// Bursty on/off arrivals: the §4 negative-binomial process modulated
    /// by a two-state MMPP ([`OnOff`]). The configured rate is the
    /// *in-burst* rate; the long-run rate is scaled by the duty cycle
    /// `on / (on + off)`.
    OnOff {
        /// Dispersion of the inner negative-binomial process.
        r: u32,
        /// Mean ON-state duration in µs (must be positive).
        mean_on_us: u64,
        /// Mean OFF-state duration in µs (zero = always on).
        mean_off_us: u64,
    },
}

impl ArrivalKind {
    /// Validates `rate` (messages/µs/source) and this kind's own knobs.
    /// Everything `ArrivalKind::generator` would assert on is caught
    /// here first, so a validated configuration never panics downstream.
    pub fn validate_rate(&self, rate: f64) -> Result<(), TrafficError> {
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(TrafficError::NonPositiveRate { rate });
        }
        match *self {
            ArrivalKind::NegativeBinomial { r } => {
                // Mean gap must span at least one 10 ns slot.
                if 1_000.0 / rate < 10.0 {
                    return Err(TrafficError::RateTooHigh { rate });
                }
                check_dispersion(r)
            }
            ArrivalKind::OnOff {
                r,
                mean_on_us,
                mean_off_us,
            } => {
                if 1_000.0 / rate < 10.0 {
                    return Err(TrafficError::RateTooHigh { rate });
                }
                check_dispersion(r)?;
                if mean_on_us == 0 {
                    return Err(TrafficError::ZeroDuration {
                        what: "mean ON period",
                    });
                }
                // `Duration::from_us` multiplies by 1000; reject values
                // that would overflow the nanosecond representation.
                const MAX_US: u64 = u64::MAX / 1_000;
                if mean_on_us > MAX_US {
                    return Err(TrafficError::DurationTooLarge {
                        what: "mean ON period",
                    });
                }
                if mean_off_us > MAX_US {
                    return Err(TrafficError::DurationTooLarge {
                        what: "mean OFF period",
                    });
                }
                Ok(())
            }
            ArrivalKind::Poisson | ArrivalKind::Deterministic => {
                // The continuous kinds still need a representable gap:
                // past 1000 msg/µs the mean gap truncates to 0 ns and the
                // configured rate silently vanishes.
                if 1_000.0 / rate < 1.0 {
                    return Err(TrafficError::RateTooHigh { rate });
                }
                Ok(())
            }
        }
    }

    /// Builds one per-source gap generator at `rate` messages/µs.
    /// Stateless kinds share nothing; [`ArrivalKind::OnOff`] carries its
    /// modulation state, so every source needs its own generator.
    pub(crate) fn generator(&self, rate: f64) -> Result<ArrivalGen, TrafficError> {
        self.validate_rate(rate)?;
        Ok(match *self {
            ArrivalKind::NegativeBinomial { r } => ArrivalGen::Nb(
                NegativeBinomial::with_rate_per_us(rate, r, Duration::from_ns(10)),
            ),
            ArrivalKind::Poisson => ArrivalGen::Poisson(Poisson::with_rate_per_us(rate)),
            ArrivalKind::Deterministic => ArrivalGen::Det(Deterministic {
                gap: Duration::from_ns((1_000.0 / rate) as u64),
            }),
            ArrivalKind::OnOff {
                r,
                mean_on_us,
                mean_off_us,
            } => ArrivalGen::OnOff(OnOff::new(
                NegativeBinomial::with_rate_per_us(rate, r, Duration::from_ns(10)),
                Duration::from_us(mean_on_us),
                Duration::from_us(mean_off_us),
            )),
        })
    }
}

/// The negative-binomial dispersion must be at least 1 (the number of
/// geometric components); `NegativeBinomial::with_rate_per_us` asserts it.
fn check_dispersion(r: u32) -> Result<(), TrafficError> {
    if r == 0 {
        return Err(TrafficError::ZeroDuration {
            what: "negative-binomial dispersion r",
        });
    }
    Ok(())
}

/// One source's interarrival generator (enum dispatch: the trait method is
/// generic over the RNG, hence not object safe).
pub(crate) enum ArrivalGen {
    Nb(NegativeBinomial),
    Poisson(Poisson),
    Det(Deterministic),
    OnOff(OnOff<NegativeBinomial>),
}

impl ArrivalGen {
    pub(crate) fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match self {
            ArrivalGen::Nb(p) => p.next_gap(rng),
            ArrivalGen::Poisson(p) => p.next_gap(rng),
            ArrivalGen::Det(p) => p.next_gap(rng),
            ArrivalGen::OnOff(p) => p.next_gap(rng),
        }
    }
}

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
    mut pick: impl FnMut(usize, usize, NodeId, &mut StdRng) -> Result<Vec<NodeId>, TrafficError>,
) -> Result<Vec<MessageSpec>, TrafficError> {
    if sources.is_empty() {
        return Err(TrafficError::TooFewSources {
            available: 0,
            needed: 1,
        });
    }
    let gens: Vec<ArrivalGen> = sources
        .iter()
        .map(|_| arrival.generator(rate_per_source_per_us))
        .collect::<Result<_, _>>()?;

    // Per-source next-arrival heap: (time, source-index).
    let mut heap: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    for (i, g) in gens.iter().enumerate() {
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
        specs.push(
            MessageSpec::multicast(src, dests, len)
                .at(t)
                .tag(specs.len() as u64),
        );
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
        // Everything `generator()` would assert on must be caught by
        // validation first — a validated config never panics downstream.
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
