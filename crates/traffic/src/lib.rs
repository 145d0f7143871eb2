#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # traffic — workload generation for the simulation experiments
//!
//! Reproduces the traffic models of §4:
//!
//! * **Single multicast** (Figure 2): one message, `k` uniformly chosen
//!   destinations, in an otherwise idle network.
//! * **Mixed traffic** (Figure 3): every processor generates messages with
//!   interarrival gaps drawn from a **negative binomial** distribution with
//!   a configurable mean arrival rate; 90 % of messages are unicasts, 10 %
//!   multicasts of a fixed destination-set size.
//!
//! Beyond the paper, the workload library covers the classic evaluation
//! patterns of the interconnect literature — each composable with every
//! routing algorithm, fault plan, and queue implementation through the
//! `spam-scenario` crate:
//!
//! * **Hotspot** ([`HotspotConfig`]): a configurable fraction of unicasts
//!   aimed at a few hot processors.
//! * **Lattice permutations** ([`PermutationConfig`]): transpose and
//!   bit-complement partners mapped through the generator's
//!   [`netgraph::gen::lattice::LatticeLayout`].
//! * **Bursty on/off** ([`ArrivalKind::OnOff`]): the §4 process
//!   modulated by a two-state MMPP.
//! * **Incast** ([`IncastConfig`]): many clients streaming to few servers.
//! * **Broadcast storm** ([`BroadcastStormConfig`]): all nodes multicast
//!   to all others simultaneously.
//! * **Closed loop** ([`ClosedLoopInjector`]): bounded outstanding
//!   messages per source, driven by completions.
//!
//! The module also provides the destination samplers used by the §5
//! partitioning ablation (clustered destination sets) and a Poisson
//! process for sensitivity checks. Generators return typed
//! [`TrafficError`]s — never panic — when a configuration cannot be
//! realized on a topology.

pub mod arrivals;
pub mod closed_loop;
pub mod dests;
pub mod error;
pub mod patterns;
pub mod workload;

pub use arrivals::ArrivalKind;
pub use closed_loop::{ClosedLoopConfig, ClosedLoopInjector};
pub use dests::DestinationSampler;
pub use error::TrafficError;
pub use patterns::{
    BroadcastStormConfig, HotspotConfig, IncastConfig, PermutationConfig, PermutationPattern,
};
pub use workload::MixedTrafficConfig;
