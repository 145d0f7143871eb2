//! Runs one experiment of the reproduction — a paper figure, an
//! ablation, a fault sweep, or a report — and archives its data:
//!
//! ```text
//! cargo run --release -p spam-bench --bin experiment -- fig2
//! cargo run --release -p spam-bench --bin experiment -- fault-sweep --quick
//! ```
//!
//! Prints the plot/table, writes the experiment's CSVs and
//! `BENCH_<name>.json` under `results/`, and refreshes the committed
//! root-level `BENCH_<name>.json` where one exists and was written by a
//! run of this size (a `--quick` run leaves a full-size record alone).
//! Run without arguments for the list of experiments; `--quick` is the
//! CI-sized variant (seconds instead of minutes, loose CIs). Anything
//! else on the command line is the usage error (exit 2).

use spam_bench::experiment::parse;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, quick) = match parse(&args) {
        Ok(chosen) => chosen,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "experiment {}{}: {}",
        experiment.name,
        if quick { " --quick" } else { "" },
        experiment.summary
    );
    let t0 = std::time::Instant::now();
    let report = (experiment.run)(quick);
    eprintln!(
        "experiment {}: finished in {:.1?}",
        experiment.name,
        t0.elapsed()
    );
    match report.write(Path::new("results")) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiment {}: writing results: {e}", experiment.name);
            ExitCode::from(1)
        }
    }
}
