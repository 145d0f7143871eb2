#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # wormsim — flit-level event-driven wormhole network simulator
//!
//! A from-scratch reimplementation of the substrate the paper evaluated on
//! (the "Harvey Mudd MARS simulator, a flit-level event-driven wormhole
//! routing simulator", §4), faithful to the router mechanics of §3.2:
//!
//! * every unidirectional channel has a sender-side **output buffer** and a
//!   receiver-side **input buffer** (one flit deep by default — the paper's
//!   headline claim is deadlock freedom with single-flit buffers);
//! * a header entering a router waits `t_router` (40 ns), then **atomically
//!   enqueues a request** in the output channel request queue (OCRQ) of
//!   every channel it needs;
//! * a message acquires its channels only when **all** its requests sit at
//!   the heads of their OCRQs and all those channels are free; the header
//!   flit is then replicated to every acquired output buffer at once;
//! * each subsequent flit is replicated when **all** the message's output
//!   buffers have space; if some have space while a sibling is blocked,
//!   **bubble flits** are injected into the free ones so the independent
//!   heads of the multi-head worm keep advancing (asynchronous replication);
//! * replicating the tail releases the channels to the next OCRQ waiters;
//! * a flit crosses a channel in `t_channel` (10 ns) and occupies the output
//!   buffer for the duration, giving every channel a bandwidth of one flit
//!   per `t_channel`;
//! * message startup costs `t_startup` (10 µs) at the source before the
//!   worm's header enters the network.
//!
//! The simulator is **policy-free**: it executes whatever
//! [`RoutingAlgorithm`] it is given (SPAM lives in the `spam-core` crate,
//! plain up*/down* in `baselines`) and detects — rather than prevents —
//! deadlock, so property tests can both certify SPAM deadlock-free and show
//! that a deliberately broken router does deadlock (a positive control).
//!
//! Determinism: all state transitions are driven by a deterministic event
//! queue ([`desim`]); equal-time events fire in scheduling order. The same
//! topology, routing algorithm, and message set always produce identical
//! latencies.
//!
//! ```
//! use netgraph::Topology;
//! use wormsim::{MessageSpec, NetworkSim, SimConfig};
//! use wormsim::routing::OracleRouting;
//! use desim::Time;
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
//! let mut sim = NetworkSim::new(&topo, oracle, SimConfig::paper());
//! sim.submit(MessageSpec::unicast(p2, p3, 128).tag(0).at(Time::ZERO)).unwrap();
//! let out = sim.run();
//! assert!(out.deadlock.is_none());
//! let lat = out.messages[0].latency().unwrap();
//! // startup 10us + 3 channels * 10ns + 2 routers * 40ns + 127 * 10ns pipeline
//! assert_eq!(lat.as_ns(), 10_000 + 30 + 80 + 1_270);
//! ```

pub mod channel;
mod codec;
pub mod config;
pub mod coverage;
// Engine-internal slab handles and queue peeks are checked invariants —
// a failed lookup there is a simulator bug, never a runtime condition —
// so the engine (and its snapshot child module) is exempt from the
// crate-wide expect/unwrap lint gate below.
#[allow(clippy::expect_used, clippy::unwrap_used)]
pub mod engine;
pub mod flit;
pub mod message;
pub mod outcome;
pub mod routing;
pub mod trace;

pub use config::{LatencyParams, SimConfig};
pub use coverage::{CoverageBit, CoverageSet, Watermark, COVERAGE_BITS, WHEEL_SPAN_NS};
pub use desim::QueueKind;
pub use engine::{CheckpointSink, NetworkSim};
pub use flit::{Flit, FlitKind, MsgId};
pub use message::{MessageSpec, SpecError};
pub use outcome::{
    Counters, DeadlockInfo, EpochStats, FailureKind, MessageFailure, MessageResult, SimError,
    SimOutcome,
};
pub use routing::{CompletionHook, NoHook, RouteDecision, RouteError, RoutingAlgorithm};
pub use spam_metrics::{MetricsConfig, RunMetrics};
pub use spam_snapshot::{fnv1a, Fnv1a, SnapReader, SnapWriter, SnapshotError};
pub use trace::{Trace, TraceEvent};
