//! Destination-set samplers.

use crate::error::TrafficError;
use netgraph::{algo, NodeId, Topology};
use rand::seq::SliceRandom;
use rand::Rng;

/// How a multicast's destination set is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestinationSampler {
    /// `count` distinct processors, uniformly at random, excluding the
    /// source (the Figure 2 / Figure 3 model).
    UniformRandom {
        /// Number of destinations.
        count: usize,
    },
    /// Every processor except the source.
    Broadcast,
    /// `count` processors nearest (by switch-graph BFS) to a random seed
    /// switch — "groups of contiguous nodes" for the §5 partitioning
    /// study, ties broken by node id.
    Cluster {
        /// Number of destinations.
        count: usize,
    },
}

impl DestinationSampler {
    /// Draws a destination set for a message from `src`, over every
    /// processor of the topology.
    ///
    /// Returns a typed [`TrafficError`] — never panics — when the request
    /// exceeds the available processors (e.g. a 64-destination multicast
    /// on a 2-processor network).
    pub fn sample<R: Rng + ?Sized>(
        &self,
        topo: &Topology,
        src: NodeId,
        rng: &mut R,
    ) -> Result<Vec<NodeId>, TrafficError> {
        let mut others = Vec::with_capacity(topo.num_processors());
        others.extend(topo.processors().filter(|&p| p != src));
        self.draw(topo, &mut others, rng)
    }

    /// Like [`DestinationSampler::sample`], but draws only from the given
    /// processor population (e.g. the largest surviving component of a
    /// degraded network). `src` is excluded from the draw.
    pub fn sample_within<R: Rng + ?Sized>(
        &self,
        topo: &Topology,
        procs: &[NodeId],
        src: NodeId,
        rng: &mut R,
    ) -> Result<Vec<NodeId>, TrafficError> {
        self.sample_within_into(topo, procs, src, &mut Vec::new(), rng)
    }

    /// [`DestinationSampler::sample_within`] with a caller-kept candidate
    /// buffer, so a stream of draws does not collect the population anew
    /// for every message. The draw is the same.
    pub(crate) fn sample_within_into<R: Rng + ?Sized>(
        &self,
        topo: &Topology,
        procs: &[NodeId],
        src: NodeId,
        others: &mut Vec<NodeId>,
        rng: &mut R,
    ) -> Result<Vec<NodeId>, TrafficError> {
        others.clear();
        others.reserve(procs.len());
        others.extend(procs.iter().copied().filter(|&p| p != src));
        self.draw(topo, others, rng)
    }

    /// Shared core: `others` is the candidate set (source already
    /// excluded), reordered in place; the result has exactly the drawn
    /// length.
    fn draw<R: Rng + ?Sized>(
        &self,
        topo: &Topology,
        others: &mut [NodeId],
        rng: &mut R,
    ) -> Result<Vec<NodeId>, TrafficError> {
        let check = |count: usize| -> Result<(), TrafficError> {
            if count == 0 {
                return Err(TrafficError::NoDestinations);
            }
            if count > others.len() {
                return Err(TrafficError::NotEnoughProcessors {
                    requested: count,
                    available: others.len(),
                });
            }
            Ok(())
        };
        match *self {
            DestinationSampler::UniformRandom { count } => {
                check(count)?;
                others.shuffle(rng);
                Ok(others[..count].to_vec())
            }
            DestinationSampler::Broadcast => {
                check(1)?;
                Ok(others.to_vec())
            }
            DestinationSampler::Cluster { count } => {
                check(count)?;
                let switches: Vec<NodeId> = topo.switches().collect();
                let seed = switches[rng.gen_range(0..switches.len())];
                let dist = algo::bfs_distances(topo, seed);
                others.sort_by_key(|p| (dist[p.index()], *p));
                Ok(others[..count].to_vec())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::gen::lattice::IrregularConfig;
    use rand::SeedableRng;

    fn setup() -> (Topology, Vec<NodeId>) {
        let t = IrregularConfig::with_switches(24).generate(5);
        let procs: Vec<NodeId> = t.processors().collect();
        (t, procs)
    }

    #[test]
    fn uniform_excludes_source_and_is_distinct() {
        let (t, procs) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let d = DestinationSampler::UniformRandom { count: 8 }
                .sample(&t, procs[0], &mut rng)
                .unwrap();
            assert_eq!(d.len(), 8);
            assert!(!d.contains(&procs[0]));
            let mut s = d.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 8, "duplicates drawn");
        }
    }

    #[test]
    fn broadcast_hits_everyone_else() {
        let (t, procs) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let d = DestinationSampler::Broadcast
            .sample(&t, procs[3], &mut rng)
            .unwrap();
        assert_eq!(d.len(), procs.len() - 1);
        assert!(!d.contains(&procs[3]));
    }

    #[test]
    fn cluster_is_bfs_tight() {
        let (t, procs) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let d = DestinationSampler::Cluster { count: 6 }
            .sample(&t, procs[0], &mut rng)
            .unwrap();
        assert_eq!(d.len(), 6);
        // The chosen processors must be closer to each other than a random
        // spread: check max pairwise distance is below the diameter.
        let diam = netgraph::algo::switch_diameter(&t);
        let max_pair = d
            .iter()
            .flat_map(|&a| {
                let dist = algo::bfs_distances(&t, a);
                d.iter().map(move |&b| dist[b.index()]).collect::<Vec<_>>()
            })
            .max()
            .unwrap();
        assert!(
            max_pair <= diam,
            "cluster spread {max_pair} exceeds diameter {diam}"
        );
    }

    #[test]
    fn sample_within_respects_the_population() {
        let (t, procs) = setup();
        let pop = &procs[..6];
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for sampler in [
            DestinationSampler::UniformRandom { count: 3 },
            DestinationSampler::Broadcast,
            DestinationSampler::Cluster { count: 3 },
        ] {
            let d = sampler.sample_within(&t, pop, pop[0], &mut rng).unwrap();
            assert!(!d.contains(&pop[0]));
            for p in &d {
                assert!(pop.contains(p), "{p} outside the population");
            }
        }
    }

    #[test]
    fn oversized_request_is_a_typed_error() {
        let (t, procs) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        assert_eq!(
            DestinationSampler::UniformRandom { count: 1000 }.sample(&t, procs[0], &mut rng),
            Err(TrafficError::NotEnoughProcessors {
                requested: 1000,
                available: procs.len() - 1
            })
        );
        assert_eq!(
            DestinationSampler::UniformRandom { count: 0 }.sample(&t, procs[0], &mut rng),
            Err(TrafficError::NoDestinations)
        );
    }

    #[test]
    fn two_processor_topology_regressions() {
        // The smallest legal population: exactly one destination can ever
        // be drawn, and every oversized request must be a typed error —
        // not a clamp, not a spin, not a panic.
        let t = IrregularConfig::with_switches(2).generate(3);
        let procs: Vec<NodeId> = t.processors().collect();
        assert_eq!(procs.len(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ok = DestinationSampler::UniformRandom { count: 1 }
            .sample(&t, procs[0], &mut rng)
            .unwrap();
        assert_eq!(ok, vec![procs[1]]);
        assert_eq!(
            DestinationSampler::UniformRandom { count: 2 }.sample(&t, procs[0], &mut rng),
            Err(TrafficError::NotEnoughProcessors {
                requested: 2,
                available: 1
            })
        );
        assert_eq!(
            DestinationSampler::Cluster { count: 5 }.sample(&t, procs[1], &mut rng),
            Err(TrafficError::NotEnoughProcessors {
                requested: 5,
                available: 1
            })
        );
    }
}
