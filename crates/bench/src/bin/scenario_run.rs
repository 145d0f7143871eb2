//! Executes a directory of declarative `*.scenario.json` scenarios —
//! the committed corpus by default — entirely from JSON: no code changes
//! per scenario.
//!
//! ```text
//! cargo run -p spam-bench --bin scenario_run --release
//! cargo run -p spam-bench --bin scenario_run --release -- --quick
//! cargo run -p spam-bench --bin scenario_run --release -- --dir my_scenarios
//! cargo run -p spam-bench --bin scenario_run --release -- --resume
//! ```
//!
//! The sweep is crash-safe: one scenario's typed failure is recorded as
//! an `error` status row and the rest still run, and `--resume` keeps a
//! journal (`results/scenarios/.journal`) so an interrupted sweep picks
//! up where it died instead of rerunning finished scenarios.
//!
//! Writes one `results/scenarios/<name>.csv` per scenario, a combined
//! `results/scenario_corpus.csv` (with per-scenario status rows), a
//! `results/BENCH_scenario_corpus.json`, and a root-level
//! `BENCH_scenario_corpus.json` copy, and prints a per-scenario summary
//! table.

use spam_bench::report::{file, Report};
use spam_bench::scenario_corpus::{
    corpus_bench_json, corpus_csv, run_corpus_journaled, scenario_csv, CorpusStatus,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let resume = args.iter().any(|a| a == "--resume");
    let dir: PathBuf = match args.iter().position(|a| a == "--dir") {
        Some(i) => match args.get(i + 1) {
            Some(d) => PathBuf::from(d),
            None => {
                eprintln!("scenario_run: --dir takes a directory path");
                std::process::exit(1);
            }
        },
        None => PathBuf::from("scenarios"),
    };

    let journal = Path::new("results/scenarios/.journal");
    if !resume {
        // A fresh (non-resume) sweep invalidates any previous journal.
        std::fs::remove_file(journal).ok();
    }

    eprintln!(
        "scenario_run: corpus {} (quick: {quick}, resume: {resume})",
        dir.display()
    );
    let t0 = std::time::Instant::now();
    let results = match run_corpus_journaled(&dir, quick, Some(journal)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scenario_run: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "scenario_run: {} scenarios in {:.1?}",
        results.len(),
        t0.elapsed()
    );

    let mut files = vec![file("scenario_corpus.csv", corpus_csv(&results))];
    let mut text = format!(
        "  {:<28} {:>7} {:>4} {:>9} {:>9} {:>6} {:>8} {:>11} {:>6}\n",
        "scenario",
        "status",
        "reps",
        "messages",
        "delivered",
        "torn",
        "unreach",
        "mean (µs)",
        "clean"
    );
    for r in &results {
        if let CorpusStatus::Ok(report) = &r.status {
            let name = format!("scenarios/{}.csv", report.name);
            files.push(file(&name, scenario_csv(report)));
            let (d, t, u) = report.totals();
            let submitted: u64 = report.reps.iter().map(|x| x.submitted).sum();
            writeln!(
                text,
                "  {:<28} {:>7} {:>4} {:>9} {:>9} {:>6} {:>8} {:>11} {:>6}",
                report.name,
                "ok",
                report.reps.len(),
                submitted,
                d,
                t,
                u,
                report
                    .mean_latency_us()
                    .map_or("-".to_string(), |x| format!("{x:.3}")),
                report.all_clean()
            )
        } else {
            if let CorpusStatus::Failed(e) = &r.status {
                eprintln!("scenario_run: {}: {e}", r.path.display());
            }
            writeln!(
                text,
                "  {:<28} {:>7} {:>4} {:>9} {:>9} {:>6} {:>8} {:>11} {:>6}",
                r.spec.name,
                r.status.word(),
                "-",
                "-",
                "-",
                "-",
                "-",
                "-",
                "-"
            )
        }
        .expect("string write");
    }
    let report = Report {
        bench: corpus_bench_json(&results, quick),
        files,
        text,
    };
    // Also refreshes the committed root-level BENCH_scenario_corpus.json.
    report.write(Path::new("results")).expect("write results");

    let failed = results
        .iter()
        .any(|r| matches!(r.status, CorpusStatus::Failed(_)));
    let unclean = results
        .iter()
        .filter_map(|r| r.status.report())
        .any(|rep| !rep.all_clean());
    if failed || unclean {
        eprintln!("scenario_run: some scenarios failed or did not end cleanly");
        std::process::exit(2);
    }
    // A completed sweep retires its journal: the next plain run starts
    // fresh, and the next --resume run has nothing to skip.
    std::fs::remove_file(journal).ok();
}
