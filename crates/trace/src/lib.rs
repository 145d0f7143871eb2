//! Observability for wormhole runs: spans, latency anatomy, and Perfetto
//! export on top of `wormsim`'s protocol-level event trace.
//!
//! The engine records *what happened* — requests, acquisitions, header
//! arrivals, releases, deliveries — as a flat [`wormsim::Trace`]. This
//! crate turns that record into *explanations*:
//!
//! * [`SpanSet`] — per-message, channel-keyed lifecycle timestamps, with
//!   critical-chain reconstruction ([`MessageSpans::path_to`]);
//! * [`decompose_run`] / [`MessageAnatomy`] — an exact partition of each
//!   delivered message's end-to-end latency into startup, blocking,
//!   route-setup, wire, and stall phases (the five terms sum to
//!   `completion − gen_time` in integer nanoseconds);
//! * [`export`] — a Perfetto track-event protobuf file that renders the
//!   run in `ui.perfetto.dev`: one track per message, one per channel,
//!   plus network-level fault/epoch instants.
//!
//! Tracing stays a pure observer: enabling it changes no outcome, and the
//! disabled path is pinned allocation-free by `wormsim`'s counting-
//! allocator test target.
//!
//! ```
//! use desim::Time;
//! use netgraph::Topology;
//! use wormsim::routing::OracleRouting;
//! use wormsim::{MessageSpec, NetworkSim, SimConfig};
//!
//! // p2 -- s0 -- s1 -- p3 : one unicast across two switches.
//! let mut b = Topology::builder();
//! let s0 = b.add_switch();
//! let s1 = b.add_switch();
//! let p2 = b.add_processor();
//! let p3 = b.add_processor();
//! b.link(p2, s0).unwrap();
//! b.link(s0, s1).unwrap();
//! b.link(s1, p3).unwrap();
//! let topo = b.build();
//!
//! let mut oracle = OracleRouting::new(&topo);
//! oracle.add_unicast_path(0, &[p2, s0, s1, p3]).unwrap();
//!
//! let cfg = SimConfig::paper();
//! let mut sim = NetworkSim::new(&topo, oracle, cfg);
//! sim.enable_trace();
//! sim.submit(MessageSpec::unicast(p2, p3, 128).tag(0).at(Time::ZERO)).unwrap();
//! let out = sim.run();
//!
//! // The uncontended run decomposes into pure startup + setup + wire.
//! let anatomy = spam_trace::decompose_run(&topo, &out, &cfg.latency, 0);
//! assert_eq!(anatomy.len(), 1);
//! let a = &anatomy[0];
//! assert_eq!(a.phase_sum(), a.end_to_end);
//! assert_eq!(a.startup.as_ns(), 10_000);
//! assert_eq!(a.route_setup.as_ns(), 80);
//! assert_eq!(a.wire.as_ns(), 1_300);
//! assert_eq!(a.blocking.as_ns(), 0);
//! assert_eq!(a.stall.as_ns(), 0);
//!
//! let bytes = spam_trace::export(&topo, &out);
//! assert!(!spam_trace::proto::decode_packets(&bytes).unwrap().is_empty());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod anatomy;
pub mod perfetto;
pub mod proto;
pub mod spans;

pub use anatomy::{
    decompose_message, decompose_run, summarize, AnatomySummary, MessageAnatomy, PhaseStats,
};
pub use perfetto::{channel_track, export, msg_track, PerfettoWriter};
pub use spans::{HopTimes, MessageSpans, SpanSet};
