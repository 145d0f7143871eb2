#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # spam-reconfig — live reconfiguration for SPAM networks
//!
//! The up*/down* labeling SPAM builds on comes from Autonet (Schroeder et
//! al.), whose defining feature was *online* reconfiguration: links and
//! switches fail **while traffic is flowing**, the fabric kills the worms
//! caught in the blast, relabels itself, and keeps serving. The
//! `spam-faults` crate models faults that exist *before* a run starts;
//! this crate closes the remaining gap and simulates the transient —
//! reconfiguration storms hitting a network under load.
//!
//! The moving parts, layered over the rest of the workspace:
//!
//! 1. [`FaultSchedule`] — *when* components die. Reuses the seeded
//!    [`spam_faults::FaultModel`]s for *what* dies and assigns each death
//!    to a burst inside a storm window. Installed into a
//!    [`wormsim::NetworkSim`] it becomes engine fault events: at event
//!    time the engine kills the link, tears down every worm holding it
//!    (releasing all reserved channels and flushing request queues — see
//!    [`wormsim::SimError::TornDown`]), and drops in-flight flits on the
//!    dead wire.
//! 2. [`ReconfigScenario`] — the *epoch chain*. Each fault instant is an
//!    epoch boundary; the scenario incrementally relabels the surviving
//!    network at every boundary via
//!    [`updown::UpDownLabeling::relabel_after`], reusing the surviving
//!    spanning-tree structure and recording a
//!    [`updown::RelabelReport`] per boundary.
//! 3. [`EpochRouting`] — the *routing swap*. Messages generated at or
//!    after a fault instant route on the new epoch's masked
//!    [`spam_core::SpamRouting`] while in-flight survivors keep draining
//!    on their original labeling; per-epoch delivered / torn-down /
//!    unreachable accounting comes out of
//!    [`wormsim::SimOutcome::epoch_stats`].
//!
//! ```
//! use desim::Time;
//! use netgraph::gen::lattice::IrregularConfig;
//! use spam_faults::FaultModel;
//! use spam_reconfig::{FaultSchedule, ReconfigScenario};
//! use updown::{RootSelection, UpDownLabeling};
//! use wormsim::{MessageSpec, NetworkSim, SimConfig};
//!
//! let base = IrregularConfig::with_switches(32).generate(5);
//! let ud = UpDownLabeling::build(&base, RootSelection::LowestId);
//! let storm = FaultSchedule::storm(
//!     &FaultModel::IidLinks { rate: 0.15 },
//!     &base,
//!     None,
//!     (Time::from_us(12), Time::from_us(40)),
//!     2,
//!     42,
//! );
//! let scenario = ReconfigScenario::build(&base, &ud, &storm);
//! let routing = scenario.routing(&base);
//! let mut sim = NetworkSim::new(&base, routing, SimConfig::paper());
//! storm.install(&mut sim);
//! let procs: Vec<_> = base.processors().collect();
//! for i in 0..10u64 {
//!     let src = procs[i as usize % procs.len()];
//!     let dest = procs[(i as usize + 7) % procs.len()];
//!     sim.submit(MessageSpec::unicast(src, dest, 64).at(Time::from_us(4 * i)))
//!         .unwrap();
//! }
//! let out = sim.run();
//! // Every message has a verdict: delivered, torn down, or unreachable.
//! assert!(out.all_accounted());
//! assert_eq!(out.num_epochs(), scenario.num_epochs());
//! ```

pub mod routing;
pub mod scenario;
pub mod schedule;

pub use routing::EpochRouting;
pub use scenario::ReconfigScenario;
pub use schedule::{FaultEvent, FaultKind, FaultSchedule};
