#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # netgraph — switch-based direct-network topologies
//!
//! The network model of Libeskind-Hadas–Mazzoni–Rajagopalan (IPPS 1998),
//! §3.1: an undirected graph `G = (V, E)` with `V = V1 ∪ V2` where `V1` are
//! **switches** and `V2` are **processors** (workstations). Every processor
//! is attached to exactly one switch by a bidirectional channel; switches may
//! be attached to each other. A bidirectional channel is modelled — exactly
//! as in the paper — as a *pair of unidirectional channels*, because wormhole
//! routing reserves the two directions independently.
//!
//! This crate provides:
//!
//! * the [`Topology`] data structure and its [`TopologyBuilder`],
//! * typed ids ([`NodeId`], [`ChannelId`]) so switch/processor/channel
//!   indices cannot be confused,
//! * generic graph algorithms ([`algo`]) used by the up*/down* labeling and
//!   by the experiment harnesses (BFS, components, eccentricity, diameter),
//! * topology generators ([`gen`]) for the paper's evaluation setup —
//!   switches placed on random integer-lattice points with links only
//!   between adjacent points (§4) — plus the regular topologies mentioned in
//!   §5 (meshes, tori, hypercubes) and the worked example of Figure 1.
//!
//! ```
//! use netgraph::gen::fixtures::figure1;
//!
//! let (topo, labels) = figure1();
//! assert_eq!(topo.num_switches(), 6);
//! assert_eq!(topo.num_processors(), 5);
//! topo.validate(8).unwrap();
//! assert!(labels.by_label(4).is_some());
//! ```

pub mod algo;
pub mod degraded;
pub mod gen;
pub mod ids;
pub mod topology;

pub use degraded::DegradedTopology;
pub use ids::{ChannelId, NodeId};
pub use topology::{Channel, NodeKind, Topology, TopologyBuilder, TopologyError};
