//! Flits — the flow-control units of wormhole routing.

use std::fmt;

/// Index of a message within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MsgId(pub u32);

impl MsgId {
    /// As a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// What a flit is. `seq` numbers the *real* flits of a message 0 (header)
/// through `len-1` (tail); bubbles carry no sequence number because they are
/// filler injected by branch routers, not part of the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// The routing-probe flit; carries the destination set (modelled as
    /// header state held by the engine, see `routing`). Sequence 0.
    Header,
    /// A payload flit with its sequence number (1 ..= len-2).
    Data(u32),
    /// The final flit (sequence `len - 1`); replicating it releases the
    /// message's channels at each router it passes.
    Tail(u32),
    /// An empty "bubble" flit (§3.2): injected into a free output buffer of
    /// a branch whose sibling is blocked, so the fast head keeps advancing
    /// without hardware synchronization. Discarded at destinations.
    Bubble,
}

crate::codec::snap_enum! { FlitKind, "unknown flit kind";
    0 => Header,
    1 => Data(seq),
    2 => Tail(seq),
    3 => Bubble,
}

/// One flit in a buffer or on a wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning message.
    pub msg: MsgId,
    /// Payload kind.
    pub kind: FlitKind,
}

crate::codec::snap_struct! { Flit { msg, kind } }

impl Flit {
    /// Constructs the `seq`-th real flit of a message of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `seq >= len`.
    pub fn nth(msg: MsgId, seq: u32, len: u32) -> Flit {
        assert!(seq < len, "flit sequence {seq} out of range for len {len}");
        let kind = if seq == 0 {
            FlitKind::Header
        } else if seq == len - 1 {
            FlitKind::Tail(seq)
        } else {
            FlitKind::Data(seq)
        };
        Flit { msg, kind }
    }

    /// A bubble flit for `msg`.
    pub fn bubble(msg: MsgId) -> Flit {
        Flit {
            msg,
            kind: FlitKind::Bubble,
        }
    }

    /// True for anything except bubbles.
    #[inline]
    pub fn is_real(&self) -> bool {
        !matches!(self.kind, FlitKind::Bubble)
    }

    /// The sequence number of a real flit; `None` for bubbles.
    pub fn seq(&self) -> Option<u32> {
        match self.kind {
            FlitKind::Header => Some(0),
            FlitKind::Data(s) | FlitKind::Tail(s) => Some(s),
            FlitKind::Bubble => None,
        }
    }

    /// True if this is the tail flit.
    #[inline]
    pub fn is_tail(&self) -> bool {
        matches!(self.kind, FlitKind::Tail(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_classifies_header_data_tail() {
        let m = MsgId(3);
        assert_eq!(Flit::nth(m, 0, 128).kind, FlitKind::Header);
        assert_eq!(Flit::nth(m, 1, 128).kind, FlitKind::Data(1));
        assert_eq!(Flit::nth(m, 126, 128).kind, FlitKind::Data(126));
        assert_eq!(Flit::nth(m, 127, 128).kind, FlitKind::Tail(127));
    }

    #[test]
    fn two_flit_message_is_header_plus_tail() {
        let m = MsgId(0);
        assert_eq!(Flit::nth(m, 0, 2).kind, FlitKind::Header);
        assert_eq!(Flit::nth(m, 1, 2).kind, FlitKind::Tail(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn nth_rejects_overflow() {
        Flit::nth(MsgId(0), 128, 128);
    }

    #[test]
    fn seq_and_reality() {
        let m = MsgId(1);
        assert_eq!(Flit::nth(m, 0, 4).seq(), Some(0));
        assert_eq!(Flit::nth(m, 2, 4).seq(), Some(2));
        assert_eq!(Flit::nth(m, 3, 4).seq(), Some(3));
        assert!(Flit::nth(m, 3, 4).is_tail());
        let b = Flit::bubble(m);
        assert_eq!(b.seq(), None);
        assert!(!b.is_real());
        assert!(!b.is_tail());
        assert!(Flit::nth(m, 1, 4).is_real());
    }

    #[test]
    fn flit_is_small() {
        // Every buffered flit is one pool cell; keep the element compact.
        assert!(std::mem::size_of::<Flit>() <= 12);
    }
}
