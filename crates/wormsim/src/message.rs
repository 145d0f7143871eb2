//! Message specifications submitted to the simulator.

use desim::Time;
use netgraph::{NodeId, NodeKind, Topology};
use std::fmt;

/// A message to inject: source processor, destination processors, length in
/// flits, and generation time. Latency is measured from `gen_time` (the
/// moment the send is initiated) to the arrival of the tail flit at the last
/// destination, exactly as in §4: "the total elapsed time from message
/// startup at the source until the last flit arrived at the last
/// destination node".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpec {
    /// Sending processor.
    pub src: NodeId,
    /// Destination processors (distinct, non-empty, excluding `src`).
    pub dests: Vec<NodeId>,
    /// Total flits including header and tail (≥ 2; the paper uses 128).
    pub len: u32,
    /// When the send is initiated; startup latency is added on top.
    pub gen_time: Time,
    /// Caller-owned correlation tag (used by routing oracles and
    /// completion hooks); not interpreted by the engine.
    pub tag: u64,
}

crate::codec::snap_struct! { MessageSpec { src, dests, len, gen_time, tag } }

/// Validation errors for a [`MessageSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The source is not a processor of this topology.
    SourceNotProcessor(NodeId),
    /// The source processor has no channel — stranded by a fault; it can
    /// inject nothing.
    SourceDetached(NodeId),
    /// A destination is not a processor of this topology.
    DestNotProcessor(NodeId),
    /// Empty destination set.
    NoDestinations,
    /// The same destination appears twice.
    DuplicateDestination(NodeId),
    /// The source is among the destinations.
    SelfDestination(NodeId),
    /// Messages need a header and a tail.
    TooShort(u32),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::SourceNotProcessor(n) => write!(f, "source {n} is not a processor"),
            SpecError::SourceDetached(n) => {
                write!(f, "source {n} has no channel (stranded by a fault)")
            }
            SpecError::DestNotProcessor(n) => write!(f, "destination {n} is not a processor"),
            SpecError::NoDestinations => write!(f, "message has no destinations"),
            SpecError::DuplicateDestination(n) => write!(f, "duplicate destination {n}"),
            SpecError::SelfDestination(n) => write!(f, "source {n} is also a destination"),
            SpecError::TooShort(l) => write!(f, "message length {l} < 2 flits"),
        }
    }
}

impl std::error::Error for SpecError {}

impl MessageSpec {
    /// A unicast of `len` flits, generated at time zero.
    pub fn unicast(src: NodeId, dest: NodeId, len: u32) -> Self {
        MessageSpec {
            src,
            dests: vec![dest],
            len,
            gen_time: Time::ZERO,
            tag: 0,
        }
    }

    /// A multicast of `len` flits to `dests`, generated at time zero.
    pub fn multicast(src: NodeId, dests: Vec<NodeId>, len: u32) -> Self {
        MessageSpec {
            src,
            dests,
            len,
            gen_time: Time::ZERO,
            tag: 0,
        }
    }

    /// Sets the generation time.
    pub fn at(mut self, t: Time) -> Self {
        self.gen_time = t;
        self
    }

    /// Sets the correlation tag.
    pub fn tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// True when this is a one-destination message.
    pub fn is_unicast(&self) -> bool {
        self.dests.len() == 1
    }

    /// Checks the spec against a topology.
    pub fn validate(&self, topo: &Topology) -> Result<(), SpecError> {
        if self.len < 2 {
            return Err(SpecError::TooShort(self.len));
        }
        if self.dests.is_empty() {
            return Err(SpecError::NoDestinations);
        }
        let is_proc =
            |n: NodeId| n.index() < topo.num_nodes() && topo.kind(n) == NodeKind::Processor;
        if !is_proc(self.src) {
            return Err(SpecError::SourceNotProcessor(self.src));
        }
        if topo.out_channels(self.src).len() != 1 {
            return Err(SpecError::SourceDetached(self.src));
        }
        // Duplicates are found by scanning the destinations before each one:
        // no allocation per message, and a quadratic term that stays small
        // at fabric sizes (a 255-destination broadcast is 32 k compares).
        for (i, &d) in self.dests.iter().enumerate() {
            if !is_proc(d) {
                return Err(SpecError::DestNotProcessor(d));
            }
            if d == self.src {
                return Err(SpecError::SelfDestination(d));
            }
            if self.dests[..i].contains(&d) {
                return Err(SpecError::DuplicateDestination(d));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = Topology::builder();
        let s = b.add_switch();
        let p0 = b.add_processor();
        let p1 = b.add_processor();
        // Two processors on one switch is not a paper topology, but fine
        // for spec validation tests.
        b.link(p0, s).unwrap();
        b.link(p1, s).unwrap();
        (b.build(), s, p0, p1)
    }

    #[test]
    fn valid_specs_pass() {
        let (t, _, p0, p1) = topo();
        MessageSpec::unicast(p0, p1, 128).validate(&t).unwrap();
        MessageSpec::multicast(p1, vec![p0], 2)
            .validate(&t)
            .unwrap();
    }

    #[test]
    fn builder_methods_chain() {
        let (_, _, p0, p1) = topo();
        let m = MessageSpec::unicast(p0, p1, 8).at(Time::from_us(3)).tag(9);
        assert_eq!(m.gen_time, Time::from_us(3));
        assert_eq!(m.tag, 9);
        assert!(m.is_unicast());
    }

    #[test]
    fn rejects_bad_specs() {
        let (t, s, p0, p1) = topo();
        assert_eq!(
            MessageSpec::unicast(s, p1, 8).validate(&t),
            Err(SpecError::SourceNotProcessor(s))
        );
        assert_eq!(
            MessageSpec::unicast(p0, s, 8).validate(&t),
            Err(SpecError::DestNotProcessor(s))
        );
        assert_eq!(
            MessageSpec::multicast(p0, vec![], 8).validate(&t),
            Err(SpecError::NoDestinations)
        );
        assert_eq!(
            MessageSpec::multicast(p0, vec![p1, p1], 8).validate(&t),
            Err(SpecError::DuplicateDestination(p1))
        );
        assert_eq!(
            MessageSpec::multicast(p0, vec![p0], 8).validate(&t),
            Err(SpecError::SelfDestination(p0))
        );
        assert_eq!(
            MessageSpec::unicast(p0, p1, 1).validate(&t),
            Err(SpecError::TooShort(1))
        );
        assert_eq!(
            MessageSpec::unicast(p0, NodeId(99), 4).validate(&t),
            Err(SpecError::DestNotProcessor(NodeId(99)))
        );
    }

    #[test]
    fn rejects_detached_source() {
        // A processor stranded by a fault (no channels) cannot inject.
        let mut b = Topology::builder();
        let s = b.add_switch();
        let p0 = b.add_processor();
        let stranded = b.add_processor();
        b.link(p0, s).unwrap();
        let t = b.build();
        assert_eq!(
            MessageSpec::unicast(stranded, p0, 8).validate(&t),
            Err(SpecError::SourceDetached(stranded))
        );
        // A stranded *destination* is a routing-time concern, not a spec
        // error — any algorithm reports it as unreachable.
        MessageSpec::unicast(p0, stranded, 8).validate(&t).unwrap();
    }
}
