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

use spam_bench::cli::BISECT_DIVERGENCE;
use spam_scenario::json::{Json, Num};
use spam_scenario::{bisect_divergence, DivergenceReport, ScenarioSpec};

/// The candidate spec: the reference with the requested engine-neutral
/// axes overridden. With no overrides, the candidate flips the event
/// queue — the golden corpus invariant.
fn candidate_of(
    reference: &ScenarioSpec,
    queue: Option<&str>,
    seed: Option<u64>,
) -> Result<ScenarioSpec, String> {
    let mut c = reference.clone();
    match queue {
        Some("bucket") => c.engine.queue = Some(spam_scenario::QueueSpec::Bucket),
        Some("heap") => c.engine.queue = Some(spam_scenario::QueueSpec::Heap),
        Some(other) => return Err(format!("--candidate-queue: unknown queue {other}")),
        None if seed.is_none() => {
            c.engine.queue = Some(match c.engine.queue {
                Some(spam_scenario::QueueSpec::Heap) => spam_scenario::QueueSpec::Bucket,
                _ => spam_scenario::QueueSpec::Heap,
            });
        }
        None => {}
    }
    if let Some(seed) = seed {
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

/// Runs the bisection; `Ok` is the exit code (0 = no divergence,
/// 3 = divergence found), `Err` what to say before exiting 1.
fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = BISECT_DIVERGENCE.parse(&argv)?;
    let scenario = args.positional.as_deref().expect("required");
    let rep: u32 = args.parsed("--rep")?.unwrap_or(0);
    let every_ns: u64 = args.parsed("--every-ns")?.unwrap_or(50_000);
    let doc = std::fs::read_to_string(scenario).map_err(|e| format!("{scenario}: {e}"))?;
    let reference = ScenarioSpec::from_json(&doc).map_err(|e| format!("{scenario}: {e}"))?;
    let queue = args.value("--candidate-queue");
    let candidate = candidate_of(&reference, queue, args.parsed("--candidate-seed")?)?;

    eprintln!(
        "bisect_divergence: {} rep {rep} cadence {every_ns}ns",
        reference.name
    );
    let found = bisect_divergence(&reference, &candidate, rep, every_ns);
    let Some(report) = found.map_err(|e| e.to_string())? else {
        println!("no divergence: candidate reproduces the reference digest");
        return Ok(0);
    };
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
    if let Some(out) = args.value("--out") {
        std::fs::write(out, report_json(&report)).map_err(|e| format!("write {out}: {e}"))?;
        println!("-> {out}");
    }
    Ok(3)
}

fn main() {
    std::process::exit(run().unwrap_or_else(|e| {
        eprintln!("bisect_divergence: {e}");
        1
    }));
}
