#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-faults — fault injection and reconfiguration for SPAM networks
//!
//! SPAM's deadlock-freedom rests on the up*/down* channel partition of
//! Schroeder et al.'s **Autonet** — a network whose defining feature was
//! *automatic reconfiguration after component failure*. This crate closes
//! that loop for the reproduction: it injects faults into the paper's §4
//! irregular networks and rebuilds everything SPAM needs on what survives,
//! so the routing theorems can be exercised (and benchmarked) on degraded
//! topologies, not just pristine ones.
//!
//! Pipeline:
//!
//! 1. **Sample** a [`FaultPlan`] from a seeded [`FaultModel`] — i.i.d.
//!    link kills, i.i.d. switch kills (a dead switch takes every incident
//!    channel with it), or a spatially correlated [`FaultModel::Region`]
//!    on the §4 lattice (a failed rack/power zone takes out *adjacent*
//!    switches, via [`netgraph::gen::lattice::LatticeLayout`]).
//! 2. **Degrade**: apply the plan to a [`netgraph::DegradedTopology`] and
//!    materialize the surviving subgraph *without renumbering nodes*.
//! 3. **Reconfigure**: split the survivors into connected components and
//!    rebuild an up*/down* labeling per component
//!    ([`updown::UpDownLabeling::build_partial`]), re-selecting the root
//!    when the old one died. Theorem 1's preconditions hold per component,
//!    so SPAM remains deadlock- and livelock-free on every surviving
//!    island — the property the extended test suites verify.
//!
//! ```
//! use netgraph::gen::lattice::IrregularConfig;
//! use spam_faults::{DegradedNetwork, FaultModel};
//!
//! let (topo, layout) = IrregularConfig::with_switches(64).generate_with_layout(7);
//! let plan = FaultModel::IidLinks { rate: 0.15 }.sample(&topo, Some(&layout), 42);
//! let net = DegradedNetwork::build(&topo, &plan, None);
//! let main = net.largest().expect("something survived");
//! assert!(main.labeling.is_labeled(main.root));
//! assert!(net.topo.num_channels() <= topo.num_channels());
//! ```

pub mod degrade;
pub mod model;

pub use degrade::{ComponentNet, DegradedNetwork};
pub use model::{FaultModel, FaultPlan};
