//! Message specifications submitted to the simulator.

use desim::Time;
use netgraph::{NodeId, NodeKind, Topology};
use std::fmt;
use std::ops::Deref;

/// The most destinations a [`Dests`] holds without a heap block.
const INLINE_DESTS: usize = 8;

/// An immutable destination set: up to eight [`NodeId`]s in place, more in
/// one boxed slice. It is 40 bytes, 16 more than a `Vec`, and dereferences
/// to `&[NodeId]`, so a unicast or a Figure 3 multicast of eight costs no
/// heap block at all.
///
/// Built by collecting node ids (or from a `Vec`, whose block it keeps when
/// the set does not fit in place).
#[derive(Clone)]
pub struct Dests(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        ids: [NodeId; INLINE_DESTS],
    },
    Heap(Box<[NodeId]>),
}

impl Dests {
    /// The ids `iter` yields, in place; it yields at most eight.
    fn inline(iter: impl Iterator<Item = NodeId>) -> Self {
        let mut ids = [NodeId(0); INLINE_DESTS];
        let mut len = 0;
        for (slot, id) in ids.iter_mut().zip(iter) {
            *slot = id;
            len += 1;
        }
        Dests(Repr::Inline { len, ids })
    }
}

impl Deref for Dests {
    type Target = [NodeId];
    #[inline]
    fn deref(&self) -> &[NodeId] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Heap(ids) => ids,
        }
    }
}

impl From<Vec<NodeId>> for Dests {
    /// Keeps the list's block when the set does not fit in place (a block
    /// with spare capacity is shrunk to fit first).
    fn from(list: Vec<NodeId>) -> Self {
        if list.len() > INLINE_DESTS {
            Dests(Repr::Heap(list.into_boxed_slice()))
        } else {
            Dests::inline(list.into_iter())
        }
    }
}

impl FromIterator<NodeId> for Dests {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let iter = iter.into_iter();
        match iter.size_hint() {
            (_, Some(most)) if most <= INLINE_DESTS => Dests::inline(iter),
            // An iterator of known length collects into one exact block,
            // and a `Vec`'s own iterator back into its block.
            _ => Dests::from(iter.collect::<Vec<_>>()),
        }
    }
}

impl<'a> IntoIterator for &'a Dests {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Default for Dests {
    fn default() -> Self {
        Dests::inline(std::iter::empty())
    }
}

impl fmt::Debug for Dests {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Dests {
    fn eq(&self, other: &Dests) -> bool {
        **self == **other
    }
}

impl Eq for Dests {}

impl<const N: usize> PartialEq<[NodeId; N]> for Dests {
    fn eq(&self, other: &[NodeId; N]) -> bool {
        **self == *other
    }
}

impl PartialEq<Vec<NodeId>> for Dests {
    fn eq(&self, other: &Vec<NodeId>) -> bool {
        **self == **other
    }
}

/// A message to inject: source processor, destination processors, length in
/// flits, and generation time. Latency is measured from `gen_time` (the
/// moment the send is initiated) to the arrival of the tail flit at the last
/// destination, exactly as in §4: "the total elapsed time from message
/// startup at the source until the last flit arrived at the last
/// destination node".
///
/// A spec of up to eight destinations allocates nothing: its set is a
/// [`Dests`], held in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageSpec {
    /// Sending processor.
    pub src: NodeId,
    /// Destination processors (distinct, non-empty, excluding `src`).
    pub dests: Dests,
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
            dests: [dest].into_iter().collect(),
            len,
            gen_time: Time::ZERO,
            tag: 0,
        }
    }

    /// A multicast of `len` flits to `dests`, generated at time zero.
    pub fn multicast(src: NodeId, dests: impl IntoIterator<Item = NodeId>, len: u32) -> Self {
        MessageSpec {
            src,
            dests: dests.into_iter().collect(),
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
    fn dests_hold_eight_in_place_and_compare_as_slices() {
        assert!(std::mem::size_of::<Dests>() <= std::mem::size_of::<Vec<NodeId>>() + 16);
        let ids: Vec<NodeId> = (0..12).map(NodeId).collect();
        for n in [0, 1, 8, 9, 12] {
            let from_iter: Dests = ids[..n].iter().copied().collect();
            let from_vec = Dests::from(ids[..n].to_vec());
            let filtered: Dests = ids.iter().copied().filter(|d| d.0 < n as u32).collect();
            assert_eq!(&*from_iter, &ids[..n]);
            assert_eq!(from_iter, from_vec);
            assert_eq!(from_iter, filtered);
            assert_eq!(from_iter, ids[..n].to_vec());
            assert_eq!(matches!(from_iter.0, Repr::Heap(_)), n > INLINE_DESTS);
            assert_eq!(format!("{from_iter:?}"), format!("{:?}", &ids[..n]));
        }
        assert_eq!(Dests::default(), [NodeId(0); 0]);
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
