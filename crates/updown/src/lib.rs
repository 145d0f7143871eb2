#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # updown — up*/down* spanning-tree machinery for irregular networks
//!
//! SPAM (§3.1 of the paper) partitions the network "in a fashion similar to
//! that used in the up*/down* routing algorithm proposed by Schroeder et
//! al." (Autonet): pick a root switch, build a spanning tree, and orient
//! every unidirectional channel as *up* (towards the root) or *down* (away
//! from it). Unlike classic up*/down*, SPAM additionally distinguishes
//! **down tree** channels from **down cross** channels — the distinction
//! that makes deadlock-free tree-based multicast possible.
//!
//! This crate owns everything that is a pure function of (topology, root):
//!
//! * [`UpDownLabeling`] — BFS spanning tree, levels, the nodes in
//!   `(level, id)` order (every down channel leads later in it, every up
//!   channel earlier), and the per-channel [`ChannelClass`] assignment,
//!   including the paper's id-based tie-break for cross channels between
//!   same-level switches;
//! * the **ancestor** relation of Definition 1, precomputed for
//!   routing-time queries as preorder entry/exit numbers (one
//!   comparison). Its **extended ancestor** relation depends on which
//!   channels are alive, so it lives with the routing tables built over
//!   a labeling and a liveness mask (`spam_core::RoutingTables`: a
//!   target's row holds it as the row's finite DownCross cells);
//! * least-common-ancestor queries over arbitrary destination sets (the
//!   multicast split point);
//! * structural sanity checks used by the deadlock-freedom property tests
//!   (the up-channel and down-channel digraphs must be acyclic);
//! * [`LazyRows`] — the per-target row store the routers built on a
//!   labeling (SPAM, the up*/down* baseline) keep their residual
//!   distances in: a row is built on first use, then shared — and
//!   [`sweep_row`], the two passes over the `(level, id)` order that
//!   build one.
//!
//! ```
//! use netgraph::gen::fixtures::figure1;
//! use updown::{ChannelClass, RootSelection, UpDownLabeling};
//!
//! let (topo, labels) = figure1();
//! let by = |l| labels.by_label(l).unwrap();
//! let ud = UpDownLabeling::build(&topo, RootSelection::Fixed(by(1)));
//!
//! // The example multicast of §3.2: LCA of {8, 9, 10, 11} is node 4.
//! let dests = [by(8), by(9), by(10), by(11)];
//! assert_eq!(ud.lca_of(&dests), Some(by(4)));
//!
//! // (3,4) is a down cross channel; (4,6) is a down tree channel.
//! let c34 = topo.channel_between(by(3), by(4)).unwrap();
//! let c46 = topo.channel_between(by(4), by(6)).unwrap();
//! assert_eq!(ud.class(c34), ChannelClass::DownCross);
//! assert_eq!(ud.class(c46), ChannelClass::DownTree);
//! ```

pub mod labeling;
mod rows;
pub mod validate;

pub use labeling::{ChannelClass, RelabelReport, RootSelection, UpDownLabeling};
pub use rows::{hop, sweep_row, LazyRows, UNREACHABLE};
pub use validate::{check_acyclic_subnetworks, AcyclicityReport};
