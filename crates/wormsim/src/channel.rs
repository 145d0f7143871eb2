//! Per-channel simulator state: buffers, wire, ownership, and the OCRQ —
//! plain data; the queued flits and requests themselves live in the
//! engine's pools.

use crate::flit::{Flit, MsgId};
use spam_collections::{Fifo, InlineVec, SlotId};

/// Runtime state of one unidirectional channel.
///
/// A flit path through a channel: producer (the owning message's segment at
/// the source node) pushes into `out_buf`; the wire moves the `out_buf` head
/// into `in_buf` after the propagation delay, during which the flit keeps
/// occupying its `out_buf` slot (so channel bandwidth is one flit per
/// propagation delay); the consumer at the destination node pops `in_buf`.
///
/// The three queues are [`Fifo`] handles: the oldest entry rides in the
/// handle, anything queued behind it in cells of a pool the engine owns
/// (one of flits for both buffers, one of requests for the OCRQ). With
/// the paper's single-flit buffers a flit therefore moves from handle to
/// handle and the flit pool is never touched; deeper buffers and contended
/// OCRQs spill into the pools. Either way a channel owns no heap memory of
/// its own: an idle fabric is one flat `Vec<Chan>`, a buffer's configured
/// depth is only the bound [`Chan::out_has_space`] / [`Chan::in_has_space`]
/// compare a length against, and the pools hold what is actually queued.
/// Pushing, popping and walking a queue go through the owning pool; its
/// length and front are answered here.
///
/// Queue entries and the owner carry the requesting segment's slab handle
/// alongside the message id: every "who asked for this channel?" question
/// on the event path is answered by an array index instead of the reverse
/// hash map the engine used to keep.
///
/// `wire_busy`, `owner`, `seg`, `route_pending` and each request's message
/// are indices of state held elsewhere in the engine: a snapshot does not
/// write them, and `restore` rebuilds them.
#[derive(Debug, Clone, Default)]
pub struct Chan {
    /// Sender-side buffer.
    pub out_buf: Fifo<Flit>,
    /// Receiver-side buffer.
    pub in_buf: Fifo<Flit>,
    /// A flit is currently crossing the wire (its slot still in `out_buf`)
    /// and holds a receiver slot.
    pub wire_busy: bool,
    /// Message currently holding this channel and the segment that
    /// acquired it (set at acquisition, cleared when the tail is
    /// replicated into `out_buf`).
    pub owner: Option<(MsgId, SlotId)>,
    /// Output channel request queue (§3.2): FIFO of `(message, requesting
    /// segment)` waiting to acquire this channel. The head may acquire once
    /// the channel is free.
    pub ocrq: Fifo<(MsgId, SlotId)>,
    /// The live transit segment whose flits arrive on this channel (a worm
    /// traversal keyed by input channel), if any.
    pub seg: Option<SlotId>,
    /// Header states waiting at (or traveling toward) this channel's
    /// receiving end: `(message, handle into the engine's header slab)`.
    /// Replaces the engine-wide `(msg, channel) -> header` hash map.
    pub hdrs: InlineVec<(MsgId, SlotId), 2>,
    /// A routing decision for the header at the head of `in_buf` has been
    /// scheduled but not executed yet (prevents double-scheduling).
    pub route_pending: bool,
    /// Total flits (real + bubble) that have crossed this channel's wire —
    /// per-channel utilization for hot-spot analyses.
    pub crossings: u64,
}

impl Chan {
    /// Free for acquisition: unowned and fully drained on the sender side.
    /// (An unowned channel may still hold the previous worm's tail in its
    /// output buffer until the wire carries it away.)
    pub fn free_for_acquisition(&self) -> bool {
        self.owner.is_none() && self.out_buf.is_empty()
    }

    /// Sender-side space check against the configured capacity.
    pub fn out_has_space(&self, cap: usize) -> bool {
        self.out_buf.len() < cap
    }

    /// Receiver-side space check, counting the slot an in-flight transfer
    /// has reserved.
    pub fn in_has_space(&self, cap: usize) -> bool {
        self.in_buf.len() + usize::from(self.wire_busy) < cap
    }

    /// True when the channel is completely quiescent (used by end-of-run
    /// invariant checks).
    pub fn is_quiescent(&self) -> bool {
        self.out_buf.is_empty()
            && self.in_buf.is_empty()
            && !self.wire_busy
            && self.owner.is_none()
            && self.ocrq.is_empty()
            && self.seg.is_none()
            && self.hdrs.is_empty()
            && !self.route_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
    use spam_collections::FifoPool;

    #[test]
    fn fresh_channel_is_quiescent_and_free() {
        let c = Chan::default();
        assert!(c.is_quiescent());
        assert!(c.free_for_acquisition());
        assert!(c.out_has_space(1));
        assert!(c.in_has_space(1));
    }

    #[test]
    fn ownership_blocks_acquisition() {
        let c = Chan {
            owner: Some((MsgId(1), SlotId::default())),
            ..Chan::default()
        };
        assert!(!c.free_for_acquisition());
        assert!(!c.is_quiescent());
    }

    #[test]
    fn undrained_out_buf_blocks_acquisition() {
        let mut c = Chan::default();
        let mut flits = FifoPool::new();
        flits.push_back(
            &mut c.out_buf,
            Flit {
                msg: MsgId(0),
                kind: FlitKind::Tail(7),
            },
        );
        assert!(!c.free_for_acquisition(), "tail still draining");
        assert!(!c.out_has_space(1));
        assert!(c.out_has_space(2));
    }

    #[test]
    fn reservations_count_toward_input_space() {
        let mut c = Chan::default();
        assert!(c.in_has_space(1));
        c.wire_busy = true;
        assert!(!c.in_has_space(1));
        assert!(c.in_has_space(2));
        FifoPool::new().push_back(&mut c.in_buf, Flit::bubble(MsgId(0)));
        assert!(!c.in_has_space(2));
    }

    #[test]
    fn pending_headers_block_quiescence() {
        let mut c = Chan::default();
        c.hdrs.push((MsgId(3), SlotId::default()));
        assert!(!c.is_quiescent());
        c.hdrs.clear();
        c.seg = Some(SlotId::default());
        assert!(!c.is_quiescent());
    }
}
