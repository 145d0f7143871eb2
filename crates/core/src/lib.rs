#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-core — Single Phase Adaptive Multicast (SPAM)
//!
//! The routing algorithm of Libeskind-Hadas, Mazzoni & Rajagopalan,
//! *Tree-Based Multicasting in Wormhole-Routed Irregular Topologies*
//! (IPPS/SPDP 1998): the first deadlock-free **tree-based** wormhole
//! multicast for arbitrary direct networks, delivering a message to any
//! number of destinations with a **single startup** and a single
//! multi-head worm, using only fixed-size input buffers.
//!
//! ## The algorithm (§3)
//!
//! Given an up*/down* labeling (crate [`updown`]), a worm is routed in two
//! stages:
//!
//! 1. **Unicast stage** — the header travels from the source processor to
//!    the **least common ancestor** (LCA) of the destination set using
//!    one or more *up* channels, then zero or more *down cross* channels,
//!    then zero or more *down tree* channels, in that order (§3.1):
//!    * from an up channel, any up channel may follow;
//!    * a down cross channel `(u, v)` may be used while no down tree
//!      channel has been used, provided `v` is an **extended ancestor**
//!      of the target — answered from the target's [`RoutingTables`] row,
//!      whose finite DownCross cells are exactly that relation over the
//!      alive channels;
//!    * a down tree channel `(u, v)` may always be used provided `v` is an
//!      **ancestor** of the target, after which only down tree channels
//!      may follow.
//! 2. **Tree stage** — at the LCA the worm splits into a multi-head worm
//!    restricted to down tree channels, branching wherever destinations
//!    lie in more than one child subtree. (A unicast is the special case
//!    where the LCA is the destination itself, so stage 2 is empty.)
//!
//! The unicast stage is **partially adaptive**: several channels may be
//! legal at once. Following §4, the default [`SelectionPolicy`] prioritizes
//! the channel whose endpoint is closest to the target — here computed as
//! the exact residual SPAM-legal distance over a phase-layered graph
//! ([`RoutingTables`]), which also makes every hop strictly decrease the
//! remaining distance and hence gives livelock freedom by construction
//! (Theorem 2).
//!
//! ```
//! use netgraph::gen::fixtures::figure1;
//! use updown::{RootSelection, UpDownLabeling};
//! use spam_core::SpamRouting;
//! use wormsim::{MessageSpec, NetworkSim, SimConfig};
//!
//! let (topo, labels) = figure1();
//! let by = |l| labels.by_label(l).unwrap();
//! let ud = UpDownLabeling::build(&topo, RootSelection::Fixed(by(1)));
//! let spam = SpamRouting::new(&topo, &ud);
//!
//! // The worked example of §3.2: node 5 multicasts to 8, 9, 10 and 11.
//! let mut sim = NetworkSim::new(&topo, spam, SimConfig::paper());
//! sim.submit(MessageSpec::multicast(by(5), vec![by(8), by(9), by(10), by(11)], 128))
//!     .unwrap();
//! let out = sim.run();
//! assert!(out.all_delivered());
//! ```

pub mod analysis;
pub mod partition;
pub mod routing;
pub mod tables;

pub use analysis::{mean_adaptivity, path_stretch, root_transit_probability, RootTransit};
pub use partition::{partition_destinations, partition_specs, PartitionStrategy};
pub use routing::{RouteScratch, SelectionPolicy, SpamHeader, SpamRouting};
pub use tables::{NodeMove, Phase, RoutingTables};
