//! The experiment table behind the one `experiment <name> [--quick]`
//! binary: every figure, ablation, sweep, and report of the reproduction
//! is one row here — a name, a one-line summary, and the function that
//! runs it and returns its [`Report`].

use crate::cli::EXPERIMENT;
use crate::report::Report;
use crate::{
    ablations, broadcast, congestion, fault_sweep, fig2, fig3, hotspot, latency_anatomy,
    reconfig_sweep,
};
use std::fmt::Write as _;

/// One runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Command-line name.
    pub name: &'static str,
    /// What it reproduces.
    pub summary: &'static str,
    /// Runs it; `quick` selects the CI-sized variant (seconds, loose CIs).
    pub run: fn(quick: bool) -> Report,
}

const fn row(name: &'static str, summary: &'static str, run: fn(bool) -> Report) -> Experiment {
    Experiment { name, summary, run }
}

/// Every experiment, in the order the usage text lists them.
#[rustfmt::skip] // one row per experiment
pub const EXPERIMENTS: [Experiment; 12] = [
    row("fig2", "Figure 2: latency vs destination count", fig2::report),
    row("fig3", "Figure 3: latency vs arrival rate", fig3::report),
    row("broadcast", "§4: broadcast vs the software bound", broadcast::report),
    row("hotspot", "§5: the root hot-spot (static)", hotspot::report),
    row("ablation-root", "A: root-selection policy", ablations::root_report),
    row("ablation-buffers", "B: buffer depth", ablations::buffers_report),
    row("ablation-partition", "C: destination partitioning", ablations::partition_report),
    row("ablation-baseline", "D: SPAM vs software multicast", ablations::baseline_report),
    row("fault-sweep", "static link faults, both arms", fault_sweep::report),
    row("reconfig-sweep", "live fault storms vs static damage", reconfig_sweep::report),
    row("latency-anatomy", "per-phase latency, per regime", latency_anatomy::report),
    row("congestion-profile", "fabric heat, per workload and regime", congestion::report),
];

/// The usage text: the synopsis plus every experiment.
pub fn usage() -> String {
    format!("{}\n\n{}", EXPERIMENT.usage, list())
}

fn list() -> String {
    let mut out = String::from("experiments:\n");
    for e in &EXPERIMENTS {
        writeln!(out, "  {:<20} {}", e.name, e.summary).expect("string write");
    }
    out
}

/// Parses the arguments after the program name: exactly one experiment
/// name and at most one `--quick`, in either order. Anything else — no
/// name, an unknown name, a stray flag, a second name — is the usage
/// text as `Err`.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, bool), String> {
    let parsed = EXPERIMENT.parse(args);
    let parsed = parsed.map_err(|synopsis| format!("{synopsis}\n\n{}", list()))?;
    let name = parsed.positional.as_deref().expect("required");
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(e) => Ok((e, parsed.flag("--quick"))),
        None => Err(format!("unknown experiment `{name}`\n\n{}", usage())),
    }
}
