//! Snapshot words for the small types every section is made of, and two
//! table forms — [`snap_struct!`] and [`snap_enum!`]: a type's fields (or
//! its variants' tags and fields) are written once, in wire order, beside
//! the type, and both directions of the codec follow from that table — an
//! encoder and a decoder cannot drift apart. The decode direction also
//! passes every id through [`IdSpace`], the one place an id read from a
//! snapshot is held against the fabric it will index.

use crate::flit::MsgId;
use crate::message::Dests;
use desim::Time;
use netgraph::{ChannelId, NodeId, Topology};
use spam_collections::{Fifo, FifoPool, InlineVec, SlotId};
use spam_metrics::{ChannelAccum, GaugeSample};
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};

/// What an id read from a snapshot may name: node and channel ids are
/// checked against the topology, message ids against the message table,
/// as they are read (the table is the first section after the
/// configuration, and `restore` sets `msgs` from its length).
pub(crate) struct IdSpace {
    pub(crate) nodes: u32,
    pub(crate) channels: u32,
    pub(crate) msgs: u32,
    /// Lets `ChannelId(u32::MAX)` through — the mark `Observers::torn_down`
    /// traces for a teardown whose cause names no channel. Set only while
    /// the trace is read: a record the engine never indexes by.
    pub(crate) no_channel_ok: bool,
}

impl IdSpace {
    pub(crate) fn of(topo: &Topology) -> Self {
        IdSpace {
            nodes: topo.num_nodes() as u32,
            channels: topo.num_channels() as u32,
            msgs: 0,
            no_channel_ok: false,
        }
    }

    fn node(&self, id: u32) -> Result<u32, SnapshotError> {
        ensure(id < self.nodes, "node id outside the topology").map(|()| id)
    }

    fn channel(&self, id: u32) -> Result<u32, SnapshotError> {
        let named = id < self.channels || (self.no_channel_ok && id == u32::MAX);
        ensure(named, "channel id outside the topology").map(|()| id)
    }

    fn msg(&self, id: u32) -> Result<u32, SnapshotError> {
        ensure(id < self.msgs, "message id outside the message table").map(|()| id)
    }
}

/// `Corrupt(what)` unless `ok`: how every structural check reads.
pub(crate) fn ensure(ok: bool, what: &'static str) -> Result<(), SnapshotError> {
    if ok {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(what))
    }
}

/// A value with one fixed snapshot encoding.
pub(crate) trait Snap: Sized {
    /// Appends the value's words.
    fn put(&self, w: &mut SnapWriter);
    /// Reads them back; malformed input is a typed error.
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError>;
}

/// Plain words, `type => writer method / reader method` (`usize` travels
/// as the `u64` it has always been).
macro_rules! snap_words {
    ($($ty:ty => $put:ident / $get:ident),*) => {$(
        impl Snap for $ty {
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn get(r: &mut SnapReader, _: &mut IdSpace) -> Result<Self, SnapshotError> {
                r.$get()
            }
        }
    )*};
}
snap_words!(u32 => put_u32 / get_u32, u64 => put_u64 / get_u64,
    usize => put_usize / get_usize, bool => put_bool / get_bool);

impl Snap for Time {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_ns());
    }
    fn get(r: &mut SnapReader, _: &mut IdSpace) -> Result<Self, SnapshotError> {
        Ok(Time::from_ns(r.get_u64()?))
    }
}

/// Ids are one `u32` word each, `type => its IdSpace check`.
macro_rules! snap_ids {
    ($($id:ident => $check:ident),*) => {$(
        impl Snap for $id {
            fn put(&self, w: &mut SnapWriter) {
                w.put_u32(self.0);
            }
            fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
                Ok($id(ids.$check(r.get_u32()?)?))
            }
        }
    )*};
}
snap_ids!(MsgId => msg, NodeId => node, ChannelId => channel);

/// A slab handle is its slot index, then the slot's generation.
impl Snap for SlotId {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.index() as u32);
        w.put_u32(self.generation());
    }
    fn get(r: &mut SnapReader, _: &mut IdSpace) -> Result<Self, SnapshotError> {
        let index = r.get_u32()?;
        Ok(SlotId::from_raw(index, r.get_u32()?))
    }
}

/// A presence byte, then the value if there is one.
impl<T: Snap> Snap for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
        Ok(if r.get_bool()? {
            Some(T::get(r, ids)?)
        } else {
            None
        })
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn put(&self, w: &mut SnapWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
        Ok((A::get(r, ids)?, B::get(r, ids)?))
    }
}

/// A list is its length (bounded on the way back by the payload that is
/// left, so a corrupt one cannot size an allocation), then its entries in
/// order.
pub(crate) fn put_list<T: Snap>(w: &mut SnapWriter, items: &[T]) {
    w.put_len(items.len());
    for item in items {
        item.put(w);
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_list(w, self);
    }
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(T::get(r, ids)?);
        }
        Ok(list)
    }
}

/// A short list is encoded like a long one.
impl<T: Snap + Copy + Default, const N: usize> Snap for InlineVec<T, N> {
    fn put(&self, w: &mut SnapWriter) {
        put_list(w, self);
    }
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
        let mut list = InlineVec::new();
        for _ in 0..r.get_len()? {
            list.push(T::get(r, ids)?);
        }
        Ok(list)
    }
}

/// A destination set is encoded like a list, and read back in place or
/// into one exactly sized block.
impl Snap for Dests {
    fn put(&self, w: &mut SnapWriter) {
        put_list(w, self);
    }
    fn get(r: &mut SnapReader, ids: &mut IdSpace) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut short = [NodeId(0); 8];
        if let Some(short) = short.get_mut(..n) {
            for id in short.iter_mut() {
                *id = NodeId::get(r, ids)?;
            }
            return Ok(short.iter().copied().collect());
        }
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(NodeId::get(r, ids)?);
        }
        Ok(Dests::from(list))
    }
}

/// A pooled queue is encoded like a list, oldest entry first; where its
/// cells sit in the pool is not part of the format.
pub(crate) fn put_fifo<T: Snap + Copy>(w: &mut SnapWriter, pool: &FifoPool<T>, q: &Fifo<T>) {
    w.put_len(q.len());
    for item in pool.iter(q) {
        item.put(w);
    }
}

/// Reads [`put_fifo`] back straight into `pool`, behind the empty `q`.
pub(crate) fn get_fifo<T: Snap + Copy>(
    r: &mut SnapReader,
    ids: &mut IdSpace,
    pool: &mut FifoPool<T>,
    q: &mut Fifo<T>,
) -> Result<(), SnapshotError> {
    for _ in 0..r.get_len()? {
        pool.push_back(q, T::get(r, ids)?);
    }
    Ok(())
}

/// Declares the [`Snap`] codec of a struct from one table: its fields in
/// wire order. Every field must be listed — a `derived` one with the
/// expression that rebuilds it from the fields read before it, instead of
/// words on the wire — so a field added to the type without a place in
/// the table does not compile.
macro_rules! snap_struct {
    ($ty:ident { $($f:ident),* $(,)? } $(derived { $($d:ident: $e:expr),* $(,)? })?) => {
        impl $crate::codec::Snap for $ty {
            fn put(&self, w: &mut spam_snapshot::SnapWriter) {
                let $ty { $($f,)* $($($d: _,)*)? } = self;
                $($crate::codec::Snap::put($f, w);)*
            }
            fn get(
                r: &mut spam_snapshot::SnapReader,
                ids: &mut $crate::codec::IdSpace,
            ) -> Result<Self, spam_snapshot::SnapshotError> {
                $(let $f = $crate::codec::Snap::get(r, ids)?;)*
                Ok($ty { $($($d: $e,)*)? $($f,)* })
            }
        }
    };
}
pub(crate) use snap_struct;

/// Declares the [`Snap`] codec of an enum from one table,
/// `tag => Variant`, `tag => Variant(fields)` or
/// `tag => Variant { fields }` with the fields in wire order: a `u8` tag,
/// then each field's own encoding. `$unknown` is the error for a tag the
/// table does not list.
macro_rules! snap_enum {
    ($ty:ident, $unknown:literal;
     $($tag:literal => $var:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?),* $(,)?) => {
        impl $crate::codec::Snap for $ty {
            fn put(&self, w: &mut spam_snapshot::SnapWriter) {
                match self {$(
                    $ty::$var $({ $($f),* })? $(( $($t),* ))? => {
                        w.put_u8($tag);
                        $($($crate::codec::Snap::put($f, w);)*)?
                        $($($crate::codec::Snap::put($t, w);)*)?
                    }
                )*}
            }
            fn get(
                r: &mut spam_snapshot::SnapReader,
                #[allow(unused_variables)] ids: &mut $crate::codec::IdSpace,
            ) -> Result<Self, spam_snapshot::SnapshotError> {
                Ok(match r.get_u8()? {
                    $($tag => {
                        $($(let $f = $crate::codec::Snap::get(r, ids)?;)*)?
                        $($(let $t = $crate::codec::Snap::get(r, ids)?;)*)?
                        $ty::$var $({ $($f),* })? $(( $($t),* ))?
                    })*
                    _ => return Err(spam_snapshot::SnapshotError::Corrupt($unknown)),
                })
            }
        }
    };
}
pub(crate) use snap_enum;

// The tables of the `spam-metrics` types that cross the snapshot
// boundary live here: that crate does not know the codec.
snap_struct! { GaugeSample {
    at_ns, queue_len, live_worms, live_segments, ocrq_total, ocrq_max, epoch,
    delivered, torn_down, unreachable,
} }
snap_struct! { ChannelAccum { busy_ns, acquisitions, ocrq_wait_ns, header_stalls } }

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::coverage::CoverageSet;
    use crate::flit::{Flit, FlitKind};
    use crate::message::MessageSpec;
    use crate::outcome::{Counters, FailureKind, MessageFailure, SimError};
    use crate::routing::RouteError;
    use crate::trace::{ChannelList, Trace, TraceEvent};

    /// An id space no sample value falls outside of.
    fn roomy() -> IdSpace {
        IdSpace {
            nodes: 1 << 16,
            channels: 1 << 16,
            msgs: 1 << 16,
            no_channel_ok: false,
        }
    }

    /// `payload` as the body of a sealed, otherwise empty snapshot.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.begin();
        for &b in payload {
            w.put_u8(b);
        }
        w.seal().to_vec()
    }

    fn encoded<T: Snap>(x: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        x.put(&mut w);
        w.as_bytes().to_vec()
    }

    /// One table, both directions: what `put` writes `get` reads back to
    /// a value that encodes to the same bytes, consuming exactly those
    /// bytes; and every strict prefix of them is a typed error.
    pub(crate) fn round_trips<T: Snap>(x: &T) {
        round_trips_via(&encoded(x), |r, ids| {
            T::get(r, ids).map(|back| encoded(&back))
        });
    }

    /// [`round_trips`] for a layout written beside engine arenas rather
    /// than as a table: `reread` decodes a value and encodes it again.
    pub(crate) fn round_trips_via(
        bytes: &[u8],
        mut reread: impl FnMut(&mut SnapReader, &mut IdSpace) -> Result<Vec<u8>, SnapshotError>,
    ) {
        let whole = sealed(bytes);
        let mut r = SnapReader::open(&whole).unwrap();
        let back = reread(&mut r, &mut roomy()).unwrap();
        r.finish().unwrap();
        assert_eq!(back, bytes);
        for cut in 0..bytes.len() {
            let short = sealed(&bytes[..cut]);
            let mut r = SnapReader::open(&short).unwrap();
            assert!(
                matches!(
                    reread(&mut r, &mut roomy()),
                    Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt(_))
                ),
                "{} bytes of {} decoded",
                cut,
                bytes.len()
            );
        }
    }

    /// `tag`, the first one `T`'s table does not list, is the table's own
    /// error.
    pub(crate) fn rejects_tag<T: Snap>(tag: u8, unknown: &'static str) {
        let bytes = sealed(&[tag]);
        let mut r = SnapReader::open(&bytes).unwrap();
        assert_eq!(
            T::get(&mut r, &mut roomy()).err(),
            Some(SnapshotError::Corrupt(unknown))
        );
    }

    #[test]
    fn every_table_round_trips_and_rejects() {
        let (m, n, c, t) = (MsgId(7), NodeId(300), ChannelId(41), Time::from_ns(9_040));
        round_trips(&0xDEAD_BEEFu32);
        round_trips(&u64::MAX);
        round_trips(&usize::MAX);
        round_trips(&true);
        round_trips(&t);
        round_trips(&m);
        round_trips(&n);
        round_trips(&c);
        round_trips(&SlotId::from_raw(3, 9));
        round_trips(&None::<Time>);
        round_trips(&Some((m, SlotId::from_raw(1, 2))));
        round_trips(&vec![n, NodeId(0)]);
        round_trips(&InlineVec::<ChannelId, 4>::from_slice(&[c, c, c, c, c]));
        round_trips(&GaugeSample {
            at_ns: 700,
            queue_len: 28,
            live_worms: 3,
            live_segments: 5,
            ocrq_total: 4,
            ocrq_max: 2,
            epoch: 1,
            delivered: 10,
            torn_down: 2,
            unreachable: 1,
        });
        round_trips(&ChannelAccum {
            busy_ns: 1,
            acquisitions: 2,
            ocrq_wait_ns: 3,
            header_stalls: 4,
        });
        for kind in [
            FlitKind::Header,
            FlitKind::Data(5),
            FlitKind::Tail(127),
            FlitKind::Bubble,
        ] {
            round_trips(&Flit { msg: m, kind });
        }
        rejects_tag::<FlitKind>(4, "unknown flit kind");
        round_trips(
            &MessageSpec::multicast(n, vec![NodeId(1), NodeId(2)], 128)
                .at(t)
                .tag(11),
        );
        let routes = [
            RouteError::NoLegalMove { node: n, target: n },
            RouteError::NoDestinationSubtree { node: n },
            RouteError::NoPlan { tag: 3, node: n },
            RouteError::NoSuchLink { from: n, to: n },
            RouteError::UnreachableDestination { dest: n },
            RouteError::SourceDisconnected { src: n },
        ];
        routes.iter().for_each(round_trips);
        rejects_tag::<RouteError>(6, "unknown route error tag");
        let errors = [
            SimError::Route {
                msg: m,
                node: n,
                error: routes[0],
            },
            SimError::Misroute { msg: m, at: n },
            SimError::EmptyDecision { msg: m, node: n },
            SimError::ForeignChannel {
                msg: m,
                node: n,
                channel: c,
            },
            SimError::DuplicateRequest {
                msg: m,
                node: n,
                channel: c,
            },
            SimError::TornDown { msg: m, channel: c },
            SimError::HookSpec { msg: m },
        ];
        errors.iter().for_each(round_trips);
        rejects_tag::<SimError>(7, "unknown sim error tag");
        for kind in [FailureKind::TornDown, FailureKind::Unreachable] {
            round_trips(&MessageFailure {
                at: t,
                kind,
                error: errors[5],
            });
        }
        rejects_tag::<FailureKind>(2, "unknown failure kind");
        round_trips(&Counters {
            events: 1,
            wire_transfers: 2,
            bubbles_created: 3,
            flits_delivered: 4,
            messages_completed: 5,
            acquisitions: 6,
            seg_lookups: 7,
            messages_torn_down: 8,
            messages_unreachable: 9,
            links_killed: 10,
            coverage: CoverageSet::default(),
        });
        round_trips(&CoverageSet {
            bits: 0b1011,
            max_branch_fanout: 3,
            max_ocrq_depth: 2,
            epochs: 4,
            max_reattached_nodes: 6,
        });
        let channels = || ChannelList::from_slice(&[c, ChannelId(2)]);
        round_trips(&Trace {
            events: vec![
                TraceEvent::SourceReady {
                    msg: m,
                    src: n,
                    at: t,
                },
                TraceEvent::Requested {
                    msg: m,
                    node: n,
                    channels: channels(),
                    at: t,
                },
                TraceEvent::Acquired {
                    msg: m,
                    node: n,
                    channels: channels(),
                    at: t,
                },
                TraceEvent::HeaderArrived {
                    msg: m,
                    channel: c,
                    at: t,
                },
                TraceEvent::Bubble {
                    msg: m,
                    node: n,
                    channel: c,
                    at: t,
                },
                TraceEvent::Released {
                    msg: m,
                    node: n,
                    channels: channels(),
                    at: t,
                },
                TraceEvent::DeliveredTail {
                    msg: m,
                    dest: n,
                    at: t,
                },
                TraceEvent::LinkDown { channel: c, at: t },
                TraceEvent::TornDown {
                    msg: m,
                    channel: c,
                    at: t,
                },
            ],
        });
        rejects_tag::<TraceEvent>(9, "unknown trace event tag");
    }

    #[test]
    fn ids_are_held_against_the_fabric_and_the_message_table() {
        let mut ids = IdSpace {
            nodes: 4,
            channels: 6,
            msgs: 8,
            no_channel_ok: false,
        };
        let get = |payload: &[u8], ids: &mut IdSpace| {
            let bytes = sealed(payload);
            let mut r = SnapReader::open(&bytes).unwrap();
            (
                NodeId::get(&mut r, ids).map(|n| n.0),
                ChannelId::get(&mut r, ids).map(|c| c.0),
                MsgId::get(&mut r, ids).map(|m| m.0),
            )
        };
        // Each id is one varint; below 128 that is the id's own byte.
        assert_eq!(get(&[3, 5, 7], &mut ids), (Ok(3), Ok(5), Ok(7)));
        assert_eq!(
            get(&[4, 6, 8], &mut ids),
            (
                Err(SnapshotError::Corrupt("node id outside the topology")),
                Err(SnapshotError::Corrupt("channel id outside the topology")),
                Err(SnapshotError::Corrupt(
                    "message id outside the message table"
                ))
            )
        );
        // The trace's "no channel" mark passes only while it is let
        // through; `u32::MAX` is five varint bytes.
        let no_channel = [0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0];
        assert!(get(&no_channel, &mut ids).1.is_err());
        ids.no_channel_ok = true;
        assert_eq!(get(&no_channel, &mut ids).1, Ok(u32::MAX));
        assert!(get(&[0, 0xFE, 0xFF, 0xFF, 0xFF, 0x0F, 0], &mut ids)
            .1
            .is_err());
    }
}
