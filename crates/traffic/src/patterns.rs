//! Workloads beyond the paper's two: hotspot concentration, lattice
//! coordinate permutations, client–server incast, and the broadcast
//! storm. Each is a pure function of `(topology, population, seed)` and
//! returns a time-sorted, tag-numbered stream of [`MessageSpec`]s, like
//! [`crate::MixedTrafficConfig`].

use crate::arrivals::ArrivalKind;
use crate::error::TrafficError;
use crate::workload::rate_merged_stream;
use desim::Duration;
use netgraph::gen::lattice::LatticeLayout;
use netgraph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wormsim::MessageSpec;

/// Hotspot traffic: every processor generates unicasts; a configurable
/// fraction of them aim at one of `hot_nodes` hot processors (the
/// lowest-id processors of the population — deterministic, so SPAM and
/// baseline arms contend for the same spots), the rest are uniform.
///
/// The classic saturation stressor: the links feeding the hot switches
/// serialize an outsized share of the offered load.
#[derive(Debug, Clone, Copy)]
pub struct HotspotConfig {
    /// Number of hot processors (≥ 1, at most the population size).
    pub hot_nodes: usize,
    /// Fraction of messages aimed at a hot processor, in `[0, 1]`.
    pub hot_fraction: f64,
    /// Mean arrival rate per node, messages/µs.
    pub rate_per_node_per_us: f64,
    /// Flits per message.
    pub message_len: u32,
    /// Total messages across all nodes.
    pub messages: usize,
    /// The arrival process.
    pub arrival: ArrivalKind,
}

impl HotspotConfig {
    /// Checks the configuration against a population of `available`
    /// processors.
    pub fn validate(&self, available: usize) -> Result<(), TrafficError> {
        if !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err(TrafficError::BadFraction {
                what: "hot_fraction",
                value: self.hot_fraction,
            });
        }
        if available < 2 {
            return Err(TrafficError::TooFewSources {
                available,
                needed: 2,
            });
        }
        if self.hot_nodes == 0 || self.hot_nodes > available {
            return Err(TrafficError::NotEnoughProcessors {
                requested: self.hot_nodes,
                available,
            });
        }
        self.arrival.validate_rate(self.rate_per_node_per_us)
    }

    /// Generates the stream over every processor of the topology.
    pub fn generate(&self, topo: &Topology, seed: u64) -> Result<Vec<MessageSpec>, TrafficError> {
        let procs: Vec<NodeId> = topo.processors().collect();
        self.generate_within(topo, &procs, seed)
    }

    /// Generates the stream over the given processor population.
    pub fn generate_within(
        &self,
        _topo: &Topology,
        procs: &[NodeId],
        seed: u64,
    ) -> Result<Vec<MessageSpec>, TrafficError> {
        self.validate(procs.len())?;
        // Hot set: lowest ids of the population.
        let mut sorted: Vec<NodeId> = procs.to_vec();
        sorted.sort_unstable();
        let hot = &sorted[..self.hot_nodes];
        let hot_fraction = self.hot_fraction;
        let mut rng = StdRng::seed_from_u64(seed);
        rate_merged_stream(
            procs,
            self.messages,
            self.arrival,
            self.rate_per_node_per_us,
            self.message_len,
            &mut rng,
            |_, _, src, rng| {
                let candidates: &[NodeId] = if rng.gen_bool(hot_fraction) {
                    hot
                } else {
                    &sorted
                };
                // Uniform over candidates, skipping the source (when the
                // source is the only candidate — e.g. the lone hot node
                // sending hot traffic — fall back to the full population).
                let pick_excluding = |set: &[NodeId], rng: &mut StdRng| -> Option<NodeId> {
                    let n_other = set.iter().filter(|&&p| p != src).count();
                    if n_other == 0 {
                        return None;
                    }
                    let mut k = rng.gen_range(0..n_other);
                    for &p in set {
                        if p == src {
                            continue;
                        }
                        if k == 0 {
                            return Some(p);
                        }
                        k -= 1;
                    }
                    unreachable!("k < n_other")
                };
                // Config validation rejected populations of fewer than
                // two processors, so the all-processors fallback always
                // has a non-`src` pick.
                #[allow(clippy::expect_used)]
                let dest = pick_excluding(candidates, rng)
                    .or_else(|| pick_excluding(&sorted, rng))
                    .expect("population has >= 2 processors");
                Ok([dest].into_iter().collect())
            },
        )
    }
}

/// The coordinate permutation a [`PermutationConfig`] applies on the
/// generator's integer lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermutationPattern {
    /// `(row, col) → (col, row)`: matrix-transpose traffic, the classic
    /// adversary of dimension-ordered meshes.
    Transpose,
    /// `(row, col) → (side−1−row, side−1−col)`: on a `2^b`-sided lattice
    /// this is the per-bit complement of both coordinates; every message
    /// crosses the lattice center.
    BitComplement,
}

impl PermutationPattern {
    fn map(&self, side: usize, r: usize, c: usize) -> (usize, usize) {
        match self {
            PermutationPattern::Transpose => (c, r),
            PermutationPattern::BitComplement => (side - 1 - r, side - 1 - c),
        }
    }
}

/// Lattice-coordinate permutation traffic: every processor sends unicasts
/// to the processor whose switch sits at the permuted lattice coordinate
/// of its own switch.
///
/// The §4 networks are *irregular* — not every lattice cell is occupied —
/// so the permuted cell resolves to the nearest occupied switch of the
/// population (Manhattan distance, ties by switch id). Sources that map
/// to themselves stay silent, as in the classical permutation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct PermutationConfig {
    /// Which coordinate permutation.
    pub pattern: PermutationPattern,
    /// Mean arrival rate per node, messages/µs.
    pub rate_per_node_per_us: f64,
    /// Flits per message.
    pub message_len: u32,
    /// Messages each (non-silent) source sends.
    pub messages_per_node: usize,
    /// The arrival process.
    pub arrival: ArrivalKind,
}

impl PermutationConfig {
    /// Checks the configuration against a population of `available`
    /// processors.
    pub fn validate(&self, available: usize) -> Result<(), TrafficError> {
        if available < 2 {
            return Err(TrafficError::TooFewSources {
                available,
                needed: 2,
            });
        }
        if self.messages_per_node == 0 {
            return Err(TrafficError::ZeroDuration {
                what: "messages_per_node",
            });
        }
        self.arrival.validate_rate(self.rate_per_node_per_us)
    }

    /// The permutation itself: `dest[i]` is the partner of `procs[i]`
    /// (equal to `procs[i]` for self-maps, which stay silent).
    pub fn partners(
        &self,
        topo: &Topology,
        layout: &LatticeLayout,
        procs: &[NodeId],
    ) -> Vec<NodeId> {
        let cells: Vec<(usize, usize, NodeId)> = procs
            .iter()
            .map(|&p| {
                let s = topo.switch_of(p);
                let (r, c) = layout.position(s);
                (r, c, p)
            })
            .collect();
        procs
            .iter()
            .map(|&p| {
                let s = topo.switch_of(p);
                let (r, c) = layout.position(s);
                let (tr, tc) = self.pattern.map(layout.side, r, c);
                // Nearest occupied cell of the population; `cells` maps
                // the same processor list being iterated, so it is
                // non-empty here.
                #[allow(clippy::expect_used)]
                let (_, _, best) = cells
                    .iter()
                    .copied()
                    .min_by_key(|&(cr, cc, q)| (cr.abs_diff(tr) + cc.abs_diff(tc), q))
                    .expect("population not empty");
                best
            })
            .collect()
    }

    /// Generates the stream over every processor of the topology.
    pub fn generate(
        &self,
        topo: &Topology,
        layout: &LatticeLayout,
        seed: u64,
    ) -> Result<Vec<MessageSpec>, TrafficError> {
        let procs: Vec<NodeId> = topo.processors().collect();
        self.generate_within(topo, layout, &procs, seed)
    }

    /// Generates the stream over the given processor population.
    pub fn generate_within(
        &self,
        topo: &Topology,
        layout: &LatticeLayout,
        procs: &[NodeId],
        seed: u64,
    ) -> Result<Vec<MessageSpec>, TrafficError> {
        self.validate(procs.len())?;
        let partners = self.partners(topo, layout, procs);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut specs: Vec<MessageSpec> = Vec::new();
        for (i, (&src, &dst)) in procs.iter().zip(&partners).enumerate() {
            if src == dst {
                continue; // self-map: silent source
            }
            let mut g = self.arrival.generator(self.rate_per_node_per_us)?;
            let mut t = desim::Time::ZERO;
            for _ in 0..self.messages_per_node {
                t += g.next_gap(&mut rng);
                // Tag provisionally with the source index; re-tagged below.
                specs.push(
                    MessageSpec::unicast(src, dst, self.message_len)
                        .at(t)
                        .tag(i as u64),
                );
            }
        }
        // Deterministic global order: by time, then source index.
        specs.sort_by_key(|s| (s.gen_time, s.tag));
        for (i, s) in specs.iter_mut().enumerate() {
            s.tag = i as u64;
        }
        Ok(specs)
    }
}

/// Client–server incast: the `servers` lowest-id processors of the
/// population are servers; every other processor is a client streaming
/// unicasts to its (statically assigned, round-robin) server. The links
/// into the servers' switches become the bottleneck — the many-to-one
/// pattern behind datacenter incast collapse.
#[derive(Debug, Clone, Copy)]
pub struct IncastConfig {
    /// Number of servers (≥ 1; at least one client must remain).
    pub servers: usize,
    /// Mean arrival rate per *client*, messages/µs.
    pub rate_per_client_per_us: f64,
    /// Flits per message.
    pub message_len: u32,
    /// Total messages across all clients.
    pub messages: usize,
    /// The arrival process.
    pub arrival: ArrivalKind,
}

impl IncastConfig {
    /// Checks the configuration against a population of `available`
    /// processors.
    pub fn validate(&self, available: usize) -> Result<(), TrafficError> {
        if self.servers == 0 {
            return Err(TrafficError::NoDestinations);
        }
        if self.servers >= available {
            return Err(TrafficError::NotEnoughProcessors {
                requested: self.servers,
                available: available.saturating_sub(1),
            });
        }
        self.arrival.validate_rate(self.rate_per_client_per_us)
    }

    /// Generates the stream over every processor of the topology.
    pub fn generate(&self, topo: &Topology, seed: u64) -> Result<Vec<MessageSpec>, TrafficError> {
        let procs: Vec<NodeId> = topo.processors().collect();
        self.generate_within(topo, &procs, seed)
    }

    /// Generates the stream over the given processor population.
    pub fn generate_within(
        &self,
        _topo: &Topology,
        procs: &[NodeId],
        seed: u64,
    ) -> Result<Vec<MessageSpec>, TrafficError> {
        self.validate(procs.len())?;
        let mut sorted: Vec<NodeId> = procs.to_vec();
        sorted.sort_unstable();
        let (servers, clients) = sorted.split_at(self.servers);
        let mut rng = StdRng::seed_from_u64(seed);
        let servers: Vec<NodeId> = servers.to_vec();
        rate_merged_stream(
            clients,
            self.messages,
            self.arrival,
            self.rate_per_client_per_us,
            self.message_len,
            &mut rng,
            |_, client_idx, _, _| Ok([servers[client_idx % servers.len()]].into_iter().collect()),
        )
    }
}

/// The broadcast storm: every processor of the population multicasts to
/// every other, all (near-)simultaneously — the worst case for channel
/// contention and the OCRQ machinery.
#[derive(Debug, Clone, Copy)]
pub struct BroadcastStormConfig {
    /// Flits per message.
    pub message_len: u32,
    /// Gap between consecutive sources' generation times (zero = all at
    /// the same instant).
    pub stagger: Duration,
}

impl BroadcastStormConfig {
    /// Generates the storm over every processor of the topology.
    pub fn generate(&self, topo: &Topology) -> Result<Vec<MessageSpec>, TrafficError> {
        let procs: Vec<NodeId> = topo.processors().collect();
        self.generate_within(topo, &procs)
    }

    /// Generates the storm over the given processor population.
    pub fn generate_within(
        &self,
        _topo: &Topology,
        procs: &[NodeId],
    ) -> Result<Vec<MessageSpec>, TrafficError> {
        if procs.len() < 2 {
            return Err(TrafficError::TooFewSources {
                available: procs.len(),
                needed: 2,
            });
        }
        let mut sorted: Vec<NodeId> = procs.to_vec();
        sorted.sort_unstable();
        Ok(sorted
            .iter()
            .enumerate()
            .map(|(i, &src)| {
                // Everyone else, as an iterator of known length: one exact
                // block per message.
                let dests = sorted[..i].iter().chain(&sorted[i + 1..]).copied();
                MessageSpec::multicast(src, dests, self.message_len)
                    .at(desim::Time::ZERO + self.stagger * i as u64)
                    .tag(i as u64)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;

    fn topo_with_layout() -> (Topology, LatticeLayout) {
        IrregularConfig::with_switches(32).generate_with_layout(1)
    }

    fn hotspot(messages: usize) -> HotspotConfig {
        HotspotConfig {
            hot_nodes: 2,
            hot_fraction: 0.7,
            rate_per_node_per_us: 0.02,
            message_len: 32,
            messages,
            arrival: ArrivalKind::NegativeBinomial { r: 1 },
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let (t, _) = topo_with_layout();
        let specs = hotspot(3000).generate(&t, 5).unwrap();
        assert_eq!(specs.len(), 3000);
        let mut procs: Vec<NodeId> = t.processors().collect();
        procs.sort_unstable();
        let hot = &procs[..2];
        let to_hot =
            specs.iter().filter(|s| hot.contains(&s.dests[0])).count() as f64 / specs.len() as f64;
        // 70% aimed + a sliver of uniform traffic landing there anyway.
        assert!(
            (to_hot - 0.7).abs() < 0.05,
            "hot fraction {to_hot} far from 0.7"
        );
        for s in &specs {
            s.validate(&t).unwrap();
            assert!(s.is_unicast());
        }
    }

    #[test]
    fn hotspot_is_deterministic_and_validated() {
        let (t, _) = topo_with_layout();
        assert_eq!(
            hotspot(100).generate(&t, 9).unwrap(),
            hotspot(100).generate(&t, 9).unwrap()
        );
        let mut bad = hotspot(10);
        bad.hot_fraction = -0.1;
        assert!(matches!(
            bad.generate(&t, 0),
            Err(TrafficError::BadFraction { .. })
        ));
        bad = hotspot(10);
        bad.hot_nodes = 99;
        assert!(matches!(
            bad.generate(&t, 0),
            Err(TrafficError::NotEnoughProcessors { .. })
        ));
    }

    fn perm(pattern: PermutationPattern) -> PermutationConfig {
        PermutationConfig {
            pattern,
            rate_per_node_per_us: 0.02,
            message_len: 32,
            messages_per_node: 3,
            arrival: ArrivalKind::Deterministic,
        }
    }

    #[test]
    fn permutations_are_valid_streams() {
        let (t, layout) = topo_with_layout();
        for pattern in [
            PermutationPattern::Transpose,
            PermutationPattern::BitComplement,
        ] {
            let specs = perm(pattern).generate(&t, &layout, 3).unwrap();
            assert!(!specs.is_empty());
            for (i, s) in specs.iter().enumerate() {
                s.validate(&t).unwrap();
                assert!(s.is_unicast());
                assert_eq!(s.tag, i as u64);
            }
            for w in specs.windows(2) {
                assert!(w[0].gen_time <= w[1].gen_time);
            }
        }
    }

    #[test]
    fn transpose_partner_is_the_transposed_cell_when_occupied() {
        let (t, layout) = topo_with_layout();
        let procs: Vec<NodeId> = t.processors().collect();
        let cfg = perm(PermutationPattern::Transpose);
        let partners = cfg.partners(&t, &layout, &procs);
        for (&p, &q) in procs.iter().zip(&partners) {
            let (r, c) = layout.position(t.switch_of(p));
            let (qr, qc) = layout.position(t.switch_of(q));
            // If the exact transposed cell is occupied, it must be chosen.
            if let Some(&exact) = procs
                .iter()
                .find(|&&x| layout.position(t.switch_of(x)) == (c, r))
            {
                assert_eq!(q, exact);
            } else {
                // Otherwise the partner is at least lattice-close to it.
                assert!(qr.abs_diff(c) + qc.abs_diff(r) <= layout.side);
            }
        }
    }

    #[test]
    fn bit_complement_crosses_the_lattice() {
        let (t, layout) = topo_with_layout();
        let procs: Vec<NodeId> = t.processors().collect();
        let cfg = perm(PermutationPattern::BitComplement);
        let partners = cfg.partners(&t, &layout, &procs);
        let mut total_dist = 0usize;
        for (&p, &q) in procs.iter().zip(&partners) {
            let (r, c) = layout.position(t.switch_of(p));
            let (want_r, want_c) = (layout.side - 1 - r, layout.side - 1 - c);
            // If the complement cell is occupied, it must be chosen.
            if let Some(&exact) = procs
                .iter()
                .find(|&&x| layout.position(t.switch_of(x)) == (want_r, want_c))
            {
                assert_eq!(q, exact);
            }
            total_dist += layout.manhattan(t.switch_of(p), t.switch_of(q));
        }
        // Complement partners sit across the lattice: the mean partner
        // distance must be a sizable fraction of the lattice span.
        let mean = total_dist as f64 / procs.len() as f64;
        assert!(
            mean > layout.side as f64 * 0.5,
            "mean partner distance {mean} too small for side {}",
            layout.side
        );
    }

    fn incast(messages: usize) -> IncastConfig {
        IncastConfig {
            servers: 2,
            rate_per_client_per_us: 0.02,
            message_len: 32,
            messages,
            arrival: ArrivalKind::NegativeBinomial { r: 1 },
        }
    }

    #[test]
    fn incast_targets_only_servers() {
        let (t, _) = topo_with_layout();
        let specs = incast(500).generate(&t, 7).unwrap();
        assert_eq!(specs.len(), 500);
        let mut procs: Vec<NodeId> = t.processors().collect();
        procs.sort_unstable();
        let servers = &procs[..2];
        for s in &specs {
            s.validate(&t).unwrap();
            assert!(servers.contains(&s.dests[0]), "{} not a server", s.dests[0]);
            assert!(!servers.contains(&s.src), "servers don't send");
        }
        // Both servers receive traffic.
        for srv in servers {
            assert!(specs.iter().any(|s| s.dests[0] == *srv));
        }
    }

    #[test]
    fn incast_rejects_all_server_populations() {
        let (t, _) = topo_with_layout();
        let mut cfg = incast(10);
        cfg.servers = t.num_processors();
        assert!(matches!(
            cfg.generate(&t, 0),
            Err(TrafficError::NotEnoughProcessors { .. })
        ));
    }

    #[test]
    fn broadcast_storm_is_all_to_all() {
        let (t, _) = topo_with_layout();
        let cfg = BroadcastStormConfig {
            message_len: 16,
            stagger: Duration::from_ns(50),
        };
        let specs = cfg.generate(&t).unwrap();
        let n = t.num_processors();
        assert_eq!(specs.len(), n);
        for (i, s) in specs.iter().enumerate() {
            s.validate(&t).unwrap();
            assert_eq!(s.dests.len(), n - 1);
            assert_eq!(s.gen_time.as_ns(), 50 * i as u64);
        }
    }
}
