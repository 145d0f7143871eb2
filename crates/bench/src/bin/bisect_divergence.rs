//! Golden-divergence bisector CLI: given a scenario file, compare a
//! reference run against a candidate variant (by default the other
//! event-queue implementation) and, when they diverge, binary-search
//! the reference's checkpoints to localize the first divergent behavior
//! to a sim-time window and a first differing trace event.
//!
//! ```text
//! cargo run -p spam-bench --bin bisect_divergence --release -- \
//!     scenarios/fig2_single_multicast.scenario.json \
//!     [--rep N] [--every-ns N] [--candidate-queue bucket|heap] \
//!     [--candidate-seed N] [--out report.json]
//! ```
//!
//! Exit codes: 0 = no divergence, 3 = divergence found (report
//! written), 1 = usage or scenario error.

use spam_scenario::json::{Json, Num};
use spam_scenario::{bisect_divergence, DivergenceReport, ScenarioSpec};
use std::path::PathBuf;

struct Args {
    scenario: PathBuf,
    rep: u32,
    every_ns: u64,
    candidate_queue: Option<String>,
    candidate_seed: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut parsed = Args {
        scenario: PathBuf::new(),
        rep: 0,
        every_ns: 50_000,
        candidate_queue: None,
        candidate_seed: None,
        out: None,
    };
    let mut have_scenario = false;
    while let Some(a) = args.next() {
        let mut value = |what: &str| -> Result<String, String> {
            args.next().ok_or(format!("{what} takes a value"))
        };
        match a.as_str() {
            "--rep" => {
                parsed.rep = value("--rep")?.parse().map_err(|e| format!("--rep: {e}"))?;
            }
            "--every-ns" => {
                parsed.every_ns = value("--every-ns")?
                    .parse()
                    .map_err(|e| format!("--every-ns: {e}"))?;
            }
            "--candidate-queue" => parsed.candidate_queue = Some(value("--candidate-queue")?),
            "--candidate-seed" => {
                parsed.candidate_seed = Some(
                    value("--candidate-seed")?
                        .parse()
                        .map_err(|e| format!("--candidate-seed: {e}"))?,
                );
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            _ if !have_scenario => {
                parsed.scenario = PathBuf::from(a);
                have_scenario = true;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !have_scenario {
        return Err(
            "usage: bisect_divergence <scenario.json> [--rep N] [--every-ns N] \
                    [--candidate-queue bucket|heap] [--candidate-seed N] [--out report.json]"
                .to_string(),
        );
    }
    Ok(parsed)
}

/// The candidate spec: the reference with the requested engine-neutral
/// axes overridden. With no overrides, the candidate flips the event
/// queue — the golden corpus invariant.
fn candidate_of(reference: &ScenarioSpec, args: &Args) -> Result<ScenarioSpec, String> {
    let mut c = reference.clone();
    match args.candidate_queue.as_deref() {
        Some("bucket") => c.engine.queue = Some(spam_scenario::QueueSpec::Bucket),
        Some("heap") => c.engine.queue = Some(spam_scenario::QueueSpec::Heap),
        Some(other) => return Err(format!("--candidate-queue: unknown queue {other}")),
        None if args.candidate_seed.is_none() => {
            c.engine.queue = Some(match c.engine.queue {
                Some(spam_scenario::QueueSpec::Heap) => spam_scenario::QueueSpec::Bucket,
                _ => spam_scenario::QueueSpec::Heap,
            });
        }
        None => {}
    }
    if let Some(seed) = args.candidate_seed {
        c.seed = seed;
    }
    Ok(c)
}

fn report_json(r: &DivergenceReport) -> String {
    let num = |v: u64| Json::Num(Num::U(v));
    let digest = |d: u64| Json::Str(format!("{d:#018x}"));
    let text = |v: &Option<String>| v.clone().map_or(Json::Null, Json::Str);
    Json::obj(vec![
        ("reference_digest", digest(r.reference_digest)),
        ("candidate_digest", digest(r.candidate_digest)),
        ("checkpoints", num(r.checkpoints as u64)),
        ("probes", num(r.probes as u64)),
        ("window_start_ns", num(r.window_start_ns)),
        ("window_end_ns", r.window_end_ns.map_or(Json::Null, num)),
        (
            "first_event",
            r.first_event.as_ref().map_or(Json::Null, |ev| {
                Json::obj(vec![
                    ("index", num(ev.index as u64)),
                    ("at_ns", num(ev.at_ns)),
                    ("reference", text(&ev.reference)),
                    ("candidate", text(&ev.candidate)),
                ])
            }),
        ),
    ])
    .to_string_pretty()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bisect_divergence: {e}");
            std::process::exit(1);
        }
    };
    let doc = match std::fs::read_to_string(&args.scenario) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bisect_divergence: {}: {e}", args.scenario.display());
            std::process::exit(1);
        }
    };
    let reference = match ScenarioSpec::from_json(&doc) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bisect_divergence: {}: {e}", args.scenario.display());
            std::process::exit(1);
        }
    };
    let candidate = match candidate_of(&reference, &args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bisect_divergence: {e}");
            std::process::exit(1);
        }
    };

    eprintln!(
        "bisect_divergence: {} rep {} cadence {}ns",
        reference.name, args.rep, args.every_ns
    );
    match bisect_divergence(&reference, &candidate, args.rep, args.every_ns) {
        Ok(None) => {
            println!("no divergence: candidate reproduces the reference digest");
        }
        Ok(Some(report)) => {
            println!(
                "DIVERGENCE over {} checkpoints in {} probes:",
                report.checkpoints, report.probes
            );
            println!(
                "  window: ({} ns, {}]",
                report.window_start_ns,
                report
                    .window_end_ns
                    .map_or("end of run".to_string(), |v| format!("{v} ns")),
            );
            match &report.first_event {
                Some(ev) => {
                    println!(
                        "  first differing trace event (#{} @ {} ns):",
                        ev.index, ev.at_ns
                    );
                    println!(
                        "    reference: {}",
                        ev.reference.as_deref().unwrap_or("<trace ended>")
                    );
                    println!(
                        "    candidate: {}",
                        ev.candidate.as_deref().unwrap_or("<trace ended>")
                    );
                }
                None => println!("  traces agree; divergence is in counters/latencies only"),
            }
            if let Some(out) = &args.out {
                if let Err(e) = std::fs::write(out, report_json(&report)) {
                    eprintln!("bisect_divergence: write {}: {e}", out.display());
                    std::process::exit(1);
                }
                println!("-> {}", out.display());
            }
            std::process::exit(3);
        }
        Err(e) => {
            eprintln!("bisect_divergence: {e}");
            std::process::exit(1);
        }
    }
}
