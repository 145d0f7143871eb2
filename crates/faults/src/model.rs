//! Fault models: which components die, sampled deterministically.
//!
//! Each model is a pure function of `(topology, seed)` — the same seed
//! always kills the same components, which is what makes fault sweeps
//! replicable and lets SPAM and baseline runs see *identical* damage.

use netgraph::gen::lattice::LatticeLayout;
use netgraph::{ChannelId, DegradedTopology, NodeId, Topology};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A stochastic fault model over a topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultModel {
    /// Every bidirectional link dies independently with probability
    /// `rate` — the classic i.i.d. wire/connector failure model. Includes
    /// processor links: a NOW loses hosts as well as cables.
    IidLinks {
        /// Per-link death probability in `[0, 1]`.
        rate: f64,
    },
    /// Every switch dies independently with probability `rate`, taking
    /// all incident channels (and stranding its processor).
    IidSwitches {
        /// Per-switch death probability in `[0, 1]`.
        rate: f64,
    },
    /// Spatially correlated damage on the §4 lattice: a uniformly chosen
    /// center switch and every switch within Manhattan distance `radius`
    /// of it die — a failed rack, power zone, or machine-room region.
    /// Requires the generator's [`LatticeLayout`].
    Region {
        /// Manhattan radius of the dead zone (0 = one switch).
        radius: usize,
    },
}

/// A concrete set of deaths: the output of sampling a [`FaultModel`],
/// or hand-built for scripted scenarios and regression pins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Dead links, each named by its even (forward) channel id.
    pub links: Vec<ChannelId>,
    /// Dead switches (each kills its incident links too).
    pub switches: Vec<NodeId>,
}

impl FaultModel {
    /// Samples a concrete [`FaultPlan`]. Pure in `(topo, seed)`; `layout`
    /// is required by [`FaultModel::Region`] and ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]`, or if `Region` is sampled
    /// without a layout.
    pub fn sample(&self, topo: &Topology, layout: Option<&LatticeLayout>, seed: u64) -> FaultPlan {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        match *self {
            FaultModel::IidLinks { rate } => {
                assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
                let links = iid(
                    (0..topo.num_channels())
                        .step_by(2)
                        .map(|i| ChannelId(i as u32)),
                    rate,
                    &mut rng,
                );
                FaultPlan {
                    links,
                    switches: Vec::new(),
                }
            }
            FaultModel::IidSwitches { rate } => {
                assert!((0.0..=1.0).contains(&rate), "rate must be a probability");
                let switches = iid(topo.switches(), rate, &mut rng);
                FaultPlan {
                    links: Vec::new(),
                    switches,
                }
            }
            FaultModel::Region { radius } => {
                // The documented precondition (see "Panics"): a region is
                // only defined over the generator's layout.
                #[allow(clippy::expect_used)]
                let layout = layout.expect("Region faults need the generator's LatticeLayout");
                let switches: Vec<NodeId> = topo.switches().collect();
                let Some(&center) = switches.choose(&mut rng) else {
                    return FaultPlan::default(); // no switch, nothing to kill
                };
                let dead = switches
                    .into_iter()
                    .filter(|&s| layout.manhattan(center, s) <= radius)
                    .collect();
                FaultPlan {
                    links: Vec::new(),
                    switches: dead,
                }
            }
        }
    }
}

/// The items of `pool` that independent draws of probability `rate`
/// keep, in order. The draws are made on a copy of the stream first to
/// count them, so the list is sized once; `rng` ends where one pass
/// leaves it.
fn iid<T>(
    pool: impl Iterator<Item = T> + Clone,
    rate: f64,
    rng: &mut rand::rngs::StdRng,
) -> Vec<T> {
    let mut counting = rng.clone();
    let kept = pool.clone().filter(|_| counting.gen_bool(rate)).count();
    let mut out = Vec::with_capacity(kept);
    out.extend(pool.filter(|_| rng.gen_bool(rate)));
    out
}

impl FaultPlan {
    /// True when nothing dies.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.switches.is_empty()
    }

    /// Applies the plan to `base`, returning the masked view.
    pub fn apply<'a>(&self, base: &'a Topology) -> DegradedTopology<'a> {
        let mut d = DegradedTopology::new(base);
        for &c in &self.links {
            d.kill_link(c);
        }
        for &s in &self.switches {
            d.kill_switch(s);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;

    #[test]
    fn sampling_is_deterministic_in_the_seed() {
        let topo = IrregularConfig::with_switches(48).generate(3);
        let m = FaultModel::IidLinks { rate: 0.2 };
        assert_eq!(m.sample(&topo, None, 9), m.sample(&topo, None, 9));
        assert_ne!(m.sample(&topo, None, 9), m.sample(&topo, None, 10));
    }

    #[test]
    fn zero_and_one_rates_are_degenerate() {
        let topo = IrregularConfig::with_switches(24).generate(1);
        let none = FaultModel::IidLinks { rate: 0.0 }.sample(&topo, None, 5);
        assert!(none.is_empty());
        let all = FaultModel::IidLinks { rate: 1.0 }.sample(&topo, None, 5);
        assert_eq!(all.links.len(), topo.num_channels() / 2);
        let every_switch = FaultModel::IidSwitches { rate: 1.0 }.sample(&topo, None, 5);
        assert_eq!(every_switch.switches.len(), topo.num_switches());
    }

    #[test]
    fn iid_link_rate_is_roughly_respected() {
        let topo = IrregularConfig::with_switches(128).generate(2);
        let n_links = topo.num_channels() / 2;
        let mut total = 0usize;
        for seed in 0..20 {
            total += FaultModel::IidLinks { rate: 0.25 }
                .sample(&topo, None, seed)
                .links
                .len();
        }
        let mean = total as f64 / 20.0 / n_links as f64;
        assert!((0.15..0.35).contains(&mean), "empirical rate {mean}");
    }

    #[test]
    fn region_fault_kills_a_lattice_ball() {
        let (topo, layout) = IrregularConfig::with_switches(64).generate_with_layout(11);
        let plan = FaultModel::Region { radius: 2 }.sample(&topo, Some(&layout), 4);
        assert!(!plan.switches.is_empty());
        // The dead set is a Manhattan ball: every pair is within 2*radius.
        for &a in &plan.switches {
            for &b in &plan.switches {
                assert!(layout.manhattan(a, b) <= 4);
            }
        }
        // Radius 0 kills exactly one switch.
        let one = FaultModel::Region { radius: 0 }.sample(&topo, Some(&layout), 4);
        assert_eq!(one.switches.len(), 1);
    }

    #[test]
    fn apply_reflects_the_plan() {
        let topo = IrregularConfig::with_switches(32).generate(6);
        let plan = FaultModel::IidLinks { rate: 0.3 }.sample(&topo, None, 1);
        let d = plan.apply(&topo);
        for &c in &plan.links {
            assert!(!d.is_channel_alive(c));
            assert!(!d.is_channel_alive(topo.reverse(c)));
        }
        assert_eq!(
            d.num_alive_channels(),
            topo.num_channels() - 2 * plan.links.len()
        );
    }

    #[test]
    #[should_panic(expected = "LatticeLayout")]
    fn region_without_layout_panics() {
        let topo = IrregularConfig::with_switches(16).generate(0);
        FaultModel::Region { radius: 1 }.sample(&topo, None, 0);
    }
}
