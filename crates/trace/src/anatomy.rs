//! Latency anatomy: an exact decomposition of each delivered message's
//! end-to-end latency into protocol phases.
//!
//! For the last-completing destination, the critical chain
//! source → router₁ → … → routerₕ → dest visits `h + 1` channels. Using
//! the recorded instants — `s` (startup done), `aⱼ` (acquisition of the
//! j-th chain channel), `vⱼ` (its header wire arrival), `rⱼ₊₁` (the next
//! request) and `T` (tail delivery) — the interval `[gen, T]` splits into
//! consecutive segments, each of which carries a modeled minimum
//! (router setup, wire propagation) plus a nonnegative residual
//! (queueing or stall). Summing the pieces telescopes back to `T − gen`
//! **exactly**, in integer nanoseconds; this is asserted by tests and by
//! the `latency_anatomy` bench before it reports anything.
//!
//! Phases:
//! * **startup** — the §4 software send overhead at the source.
//! * **blocking** — OCRQ waits (request → acquire) plus time a header sat
//!   unprocessed in an input buffer before its routing decision.
//! * **route_setup** — the modeled 40 ns per-router decision cost.
//! * **wire** — ideal propagation: one header crossing per chain channel
//!   plus the pipelined drain of the remaining `worm_len − 1` flits.
//! * **stall** — replication back-pressure: time the header spent parked
//!   in output buffers behind blocked siblings, and tail-drain delay
//!   beyond the ideal pipeline (bubbles on other branches).

use crate::spans::{MessageSpans, SpanSet};
use desim::Duration;
use netgraph::{NodeId, Topology};
use wormsim::{LatencyParams, MsgId, SimOutcome};

/// One message's exact latency decomposition, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageAnatomy {
    /// The message.
    pub msg: MsgId,
    /// The last-completing destination (the one defining end-to-end
    /// latency per the paper's §4).
    pub dest: NodeId,
    /// Routers on the critical chain.
    pub hops: usize,
    /// `completion − gen_time`.
    pub end_to_end: Duration,
    /// Source software startup.
    pub startup: Duration,
    /// OCRQ waits plus input-buffer queueing.
    pub blocking: Duration,
    /// Modeled per-router decision cost (`hops × router_setup`).
    pub route_setup: Duration,
    /// Ideal wire time (`(hops + worm_len) × channel_prop`).
    pub wire: Duration,
    /// Replication/drain stall beyond the ideal pipeline.
    pub stall: Duration,
}

impl MessageAnatomy {
    /// Sum of the five phases; equals [`MessageAnatomy::end_to_end`] by
    /// construction.
    pub fn phase_sum(&self) -> Duration {
        self.startup + self.blocking + self.route_setup + self.wire + self.stall
    }

    /// The phases as `(name, duration)` pairs, in pipeline order.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("startup", self.startup),
            ("blocking", self.blocking),
            ("route_setup", self.route_setup),
            ("wire", self.wire),
            ("stall", self.stall),
        ]
    }
}

/// Checked `a − b` in nanoseconds: `None` signals a trace that violates
/// the engine's timing model (never observed; a defence, not a path).
fn sub(a: desim::Time, b: desim::Time) -> Option<u64> {
    a.as_ns().checked_sub(b.as_ns())
}

/// Decomposes one delivered message. Returns `None` for undelivered
/// messages, or when the trace lacks the needed events (tracing off).
pub fn decompose_message(
    topo: &Topology,
    out: &SimOutcome,
    spans: &MessageSpans,
    latency: &LatencyParams,
    extra_header_flits: u32,
    msg: MsgId,
) -> Option<MessageAnatomy> {
    let mr = &out.messages[msg.index()];
    let done = mr.completed_at?;
    // The destination whose tail arrived last defines end-to-end latency.
    let dest = mr
        .spec
        .dests
        .iter()
        .zip(&mr.dest_done_at)
        .find(|(_, t)| *t == &Some(done))
        .map(|(d, _)| *d)?;
    let gen = mr.spec.gen_time;
    let s = spans.source_ready?;
    let chain = spans.path_to(topo, dest)?;
    let hops = chain.len().checked_sub(1)?; // routers = channels − 1
    let worm_len = mr.spec.len as u64 + extra_header_flits as u64;
    let setup_ns = latency.router_setup.as_ns();
    let prop_ns = latency.channel_prop.as_ns();

    let startup = sub(s, gen)?;
    let mut blocking = sub(chain[0].acquired?, s)?; // source OCRQ wait
    let mut stall = 0u64;
    for j in 0..hops {
        let a_j = chain[j].acquired?;
        let v_j = chain[j].header_arrived?;
        let r_next = chain[j + 1].requested?;
        let a_next = chain[j + 1].acquired?;
        // Wire crossing of chain[j]: ideal `prop`, excess is output-buffer
        // back-pressure (stall).
        stall += sub(v_j, a_j)?.checked_sub(prop_ns)?;
        // Router processing: ideal `setup`, excess is input-buffer
        // queueing (blocking).
        blocking += sub(r_next, v_j)?.checked_sub(setup_ns)?;
        // OCRQ wait at this router.
        blocking += sub(a_next, r_next)?;
    }
    // Drain on the consumption channel: header crossing plus the
    // pipelined body, ideal `worm_len × prop`; excess is stall.
    let drain = sub(done, chain[hops].acquired?)?;
    stall += drain.checked_sub(worm_len * prop_ns)?;

    let route_setup = hops as u64 * setup_ns;
    let wire = (hops as u64 + worm_len) * prop_ns;
    let anatomy = MessageAnatomy {
        msg,
        dest,
        hops,
        end_to_end: done.since(gen),
        startup: Duration::from_ns(startup),
        blocking: Duration::from_ns(blocking),
        route_setup: Duration::from_ns(route_setup),
        wire: Duration::from_ns(wire),
        stall: Duration::from_ns(stall),
    };
    debug_assert_eq!(anatomy.phase_sum(), anatomy.end_to_end);
    Some(anatomy)
}

/// Decomposes every delivered message of a traced run.
pub fn decompose_run(
    topo: &Topology,
    out: &SimOutcome,
    latency: &LatencyParams,
    extra_header_flits: u32,
) -> Vec<MessageAnatomy> {
    let spans = SpanSet::derive(out);
    (0..out.messages.len())
        .filter_map(|i| {
            let msg = MsgId(i as u32);
            decompose_message(
                topo,
                out,
                spans.of_msg(msg),
                latency,
                extra_header_flits,
                msg,
            )
        })
        .collect()
}

/// Distribution summary of one phase over a set of messages, in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Phase name.
    pub phase: &'static str,
    /// Mean, µs.
    pub mean_us: f64,
    /// Median (nearest-rank), µs.
    pub p50_us: f64,
    /// 99th percentile (nearest-rank), µs.
    pub p99_us: f64,
    /// This phase's share of summed end-to-end latency, in `[0, 1]`.
    pub share: f64,
}

/// Aggregate anatomy over a message population.
#[derive(Debug, Clone, PartialEq)]
pub struct AnatomySummary {
    /// Messages aggregated.
    pub messages: usize,
    /// Mean critical-chain router count.
    pub mean_hops: f64,
    /// End-to-end latency stats, µs: `(mean, p50, p99)`.
    pub end_to_end_us: (f64, f64, f64),
    /// Per-phase stats, in pipeline order.
    pub phases: Vec<PhaseStats>,
}

fn pct(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn dist(mut xs: Vec<f64>) -> (f64, f64, f64) {
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.sort_by(f64::total_cmp);
    (mean, pct(&xs, 0.50), pct(&xs, 0.99))
}

/// Summarizes a population of message anatomies. Returns `None` for an
/// empty population.
pub fn summarize(anatomies: &[MessageAnatomy]) -> Option<AnatomySummary> {
    if anatomies.is_empty() {
        return None;
    }
    let total_ns: u64 = anatomies.iter().map(|a| a.end_to_end.as_ns()).sum();
    let (mean, p50, p99) = dist(anatomies.iter().map(|a| a.end_to_end.as_us_f64()).collect());
    let phases = ["startup", "blocking", "route_setup", "wire", "stall"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ns: Vec<u64> = anatomies.iter().map(|a| a.phases()[i].1.as_ns()).collect();
            let (mean_us, p50_us, p99_us) = dist(ns.iter().map(|&n| n as f64 / 1_000.0).collect());
            PhaseStats {
                phase: name,
                mean_us,
                p50_us,
                p99_us,
                share: if total_ns == 0 {
                    0.0
                } else {
                    ns.iter().sum::<u64>() as f64 / total_ns as f64
                },
            }
        })
        .collect();
    Some(AnatomySummary {
        messages: anatomies.len(),
        mean_hops: anatomies.iter().map(|a| a.hops as f64).sum::<f64>() / anatomies.len() as f64,
        end_to_end_us: (mean, p50, p99),
        phases,
    })
}
