//! Executes a directory of declarative `*.scenario.json` scenarios —
//! the committed corpus by default — entirely from JSON: no code changes
//! per scenario.
//!
//! ```text
//! cargo run -p spam-bench --bin scenario_run --release
//! cargo run -p spam-bench --bin scenario_run --release -- --quick
//! cargo run -p spam-bench --bin scenario_run --release -- --dir my_scenarios
//! ```
//!
//! One scenario's typed failure is recorded as an `error` status row
//! and the rest still run. The full-size committed corpus takes about
//! 0.2 s, so an interrupted sweep is simply run again.
//!
//! Writes one `results/scenarios/<name>.csv` per scenario, a combined
//! `results/scenario_corpus.csv` (with per-scenario status rows), a
//! `results/BENCH_scenario_corpus.json`, and — from a full-size run, the
//! size the committed record has — the root-level
//! `BENCH_scenario_corpus.json`, and prints a per-scenario summary table.
//! An argument it does not know is the usage error (exit 1).

use spam_bench::cli::SCENARIO_RUN;
use spam_bench::scenario_corpus::{report, run_corpus};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = SCENARIO_RUN.parse(&argv).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(1);
    });
    let quick = args.flag("--quick");
    let dir = Path::new(args.value("--dir").unwrap_or("scenarios"));

    eprintln!("scenario_run: corpus {} (quick: {quick})", dir.display());
    let t0 = std::time::Instant::now();
    let results = run_corpus(dir, quick).unwrap_or_else(|e| {
        eprintln!("scenario_run: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "scenario_run: {} scenarios in {:.1?}",
        results.len(),
        t0.elapsed()
    );
    for r in &results {
        if let Err(e) = &r.status {
            eprintln!("scenario_run: {}: {e}", r.path.display());
        }
    }
    // Also refreshes the committed root-level BENCH_scenario_corpus.json
    // when this run is the size that record was committed at.
    report(&results, quick)
        .write(Path::new("results"))
        .expect("write results");

    let sound = results
        .iter()
        .all(|r| r.status.as_ref().is_ok_and(|ran| ran.all_clean()));
    if !sound {
        eprintln!("scenario_run: some scenarios failed or did not end cleanly");
        std::process::exit(2);
    }
}
