//! The repo's benchmark: five seeded workloads through the scenario
//! service, end-to-end metrics with tracing off, per-layer metrics from
//! a separate traced run. See `README.md` beside this package.
//!
//! ```text
//! spam-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace [0|1]]
//! spam-benchmark --aa [<n>] [--workload <name>] [--seconds <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod aa;
mod alloc;
mod calib;
mod layers;
mod replica;
mod run;
mod stats;
mod trace;
mod workloads;

use run::RunResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given (the paper's year).
const DEFAULT_SEED: u64 = 1998;
/// Timed seconds when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 16;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        // `--trace` and `--aa` may stand alone; a following number is
        // their value.
        let mut optional = || it.next_if(|v| v.parse::<u64>().is_ok());
        match flag.as_str() {
            "--trace" => args.trace = optional().is_none_or(|v| v != "0"),
            "--aa" => {
                args.aa = Some(
                    optional()
                        .map_or(Ok(5), |v| v.parse())
                        .map_err(bad(&flag))?,
                )
            }
            "--workload" | "--seed" | "--seconds" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                match flag.as_str() {
                    "--workload" => args.workload = Some(value),
                    "--seed" => args.seed = value.parse().map_err(bad(&flag))?,
                    _ => args.seconds = value.parse().map_err(bad(&flag))?,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn bad<E: std::fmt::Display>(flag: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{flag}: {e}")
}

/// The checkout the benchmark runs in: the working directory when it is
/// one (the driver's case), else the directory above this package.
fn repo_root() -> PathBuf {
    if Path::new("BENCHMARK.json").is_file() {
        PathBuf::from(".")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Prints every metric by name with its unit, then the result line.
fn report(workload: &str, seed: u64, result: &RunResult) {
    println!("workload {workload}  seed {seed}");
    for m in &result.metrics {
        println!(
            "  {:<40} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    );
}

/// A JSON number with every measured digit (never `NaN` or `inf`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.aa {
        return aa::self_check(n, args.workload.as_deref(), args.seconds);
    }
    let Some(workload) = args.workload else {
        eprintln!(
            "error: --workload <name> is required (one of: {})",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = if args.trace {
        layers::per_layer(&workload, args.seed, args.seconds)
    } else {
        run::end_to_end(&workload, args.seed, args.seconds)
    };
    match result {
        Ok(result) => {
            report(&workload, args.seed, &result);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "error: output checks failed ({} of {} requests)",
                    result.failed, result.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
