//! Snapshot words for the small types every section is made of, and a
//! table form for enums: each variant's tag and field order is written
//! once, beside the type, and both directions of the codec follow from
//! it — an encoder and a decoder cannot drift apart.

use crate::flit::MsgId;
use desim::Time;
use netgraph::{ChannelId, NodeId};
use spam_collections::{InlineVec, SlotId};
use spam_snapshot::{SnapReader, SnapWriter, SnapshotError};

/// A value with one fixed snapshot encoding.
pub(crate) trait Snap: Sized {
    /// Appends the value's words.
    fn put(&self, w: &mut SnapWriter);
    /// Reads them back; malformed input is a typed error.
    fn get(r: &mut SnapReader) -> Result<Self, SnapshotError>;
}

impl Snap for u64 {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(*self);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapshotError> {
        r.get_u64()
    }
}

impl Snap for Time {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_ns());
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapshotError> {
        Ok(Time::from_ns(r.get_u64()?))
    }
}

/// Ids are one `u32` word each.
macro_rules! snap_ids {
    ($($id:ident),*) => {$(
        impl Snap for $id {
            fn put(&self, w: &mut SnapWriter) {
                w.put_u32(self.0);
            }
            fn get(r: &mut SnapReader) -> Result<Self, SnapshotError> {
                Ok($id(r.get_u32()?))
            }
        }
    )*};
}
snap_ids!(MsgId, NodeId, ChannelId);

/// A slab handle is its slot index, then the slot's generation.
impl Snap for SlotId {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u32(self.index() as u32);
        w.put_u32(self.generation());
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapshotError> {
        let index = r.get_u32()?;
        Ok(SlotId::from_raw(index, r.get_u32()?))
    }
}

fn put_list<T: Snap>(w: &mut SnapWriter, items: &[T]) {
    w.put_len(items.len());
    for item in items {
        item.put(w);
    }
}

/// A list is its length (bounded by the payload that is left, so a
/// corrupt one cannot size an allocation), then its entries in order.
impl<T: Snap> Snap for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        put_list(w, self);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapshotError> {
        let n = r.get_len()?;
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(T::get(r)?);
        }
        Ok(list)
    }
}

/// A short list is encoded like a long one.
impl<T: Snap + Copy + Default, const N: usize> Snap for InlineVec<T, N> {
    fn put(&self, w: &mut SnapWriter) {
        put_list(w, self);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapshotError> {
        let mut list = InlineVec::new();
        for _ in 0..r.get_len()? {
            list.push(T::get(r)?);
        }
        Ok(list)
    }
}

/// Declares the [`Snap`] codec of an enum of struct variants from one
/// table, `tag => Variant { fields in wire order }`: a `u8` tag, then
/// each field's own encoding. `$unknown` is the error for a tag the
/// table does not list.
macro_rules! snap_enum {
    ($ty:ident, $unknown:literal; $($tag:literal => $var:ident { $($f:ident),* }),* $(,)?) => {
        impl $crate::codec::Snap for $ty {
            fn put(&self, w: &mut spam_snapshot::SnapWriter) {
                match self {$(
                    $ty::$var { $($f),* } => {
                        w.put_u8($tag);
                        $($crate::codec::Snap::put($f, w);)*
                    }
                )*}
            }
            fn get(
                r: &mut spam_snapshot::SnapReader,
            ) -> Result<Self, spam_snapshot::SnapshotError> {
                Ok(match r.get_u8()? {
                    $($tag => $ty::$var { $($f: $crate::codec::Snap::get(r)?),* },)*
                    _ => return Err(spam_snapshot::SnapshotError::Corrupt($unknown)),
                })
            }
        }
    };
}
pub(crate) use snap_enum;
