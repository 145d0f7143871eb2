#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-collections — allocation-lean containers for the simulator hot path
//!
//! The build environment has no access to crates.io, so the workspace rolls
//! its own minimal equivalents of `smallvec` and `slab`/`slotmap`:
//!
//! * [`InlineVec`] — a small-vector for `Copy` element types that stores up
//!   to `N` elements inline and spills to the heap only beyond that. Worm
//!   segments request a handful of output channels (one for a unicast hop,
//!   one per destination subtree at a branch router), so `N` chosen near the
//!   switch port count makes the heap path effectively unreachable.
//! * [`Slab`] — a generation-indexed slot map. Removing a value bumps the
//!   slot's generation, so a stale [`SlotId`] held elsewhere (an old bubble
//!   candidate, a queue entry for a released segment) can never alias a new
//!   occupant: lookups through stale ids simply return `None`. Every
//!   operation is an array index — this is what replaces the engine's
//!   per-event `HashMap` probes. Its free list is linked through the
//!   vacant slots themselves, so the slab is one array and `remove` never
//!   allocates.
//! * [`FifoPool`] — any number of small FIFO queues ([`Fifo`] handles)
//!   that keep their oldest value in the handle and thread the rest
//!   through one shared cell pool with a free list. The engine keeps
//!   three queues per channel (output buffer, input buffer, request
//!   queue), nearly all of them empty or one deep at any instant; they
//!   cost no allocation per channel and pool memory follows what is
//!   actually queued.
//!
//! All three are deterministic: iteration orders depend only on the
//! sequence of operations, never on hashing or addresses.

pub mod fifo_pool;
pub mod inline_vec;
pub mod slab;

pub use fifo_pool::{Fifo, FifoPool};
pub use inline_vec::InlineVec;
pub use slab::{FreeList, Slab, SlotId};
