//! `--aa <n>`: the benchmark judging itself. Two interleaved sets of `n`
//! untraced runs of this very binary per workload (run `i` of either
//! set uses seed `i + 1`, as the driver varies the seed from run to
//! run), then for every workload × end-to-end metric both medians,
//! their gap, the run-to-run spread (interquartile distance over the
//! median, as `statistics.quantiles(n=4)` gives it) and the bound from
//! `BENCHMARK.json`. Exits non-zero when a gap or a spread exceeds its
//! bound.

use crate::stats::{median, quartiles};
use crate::workloads::NAMES;
use spam_scenario::json::{self, Json};
use std::process::{Command, ExitCode};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let path = crate::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            Some(Bound {
                name: e.get("name")?.as_str()?.to_string(),
                lower_is_better: e.get("better")?.as_str()? == "lower",
                bound: e.get("bound")?.as_num()?.as_f64(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// One untraced run of this binary; the metrics of its result line.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| format!("{workload} seed {seed}: no metrics in the result line"))
}

fn value(metrics: &Json, name: &str) -> f64 {
    metrics
        .get(name)
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .map_or(f64::NAN, |n| n.as_f64())
}

pub fn self_check(n: usize, only: Option<&str>, seconds: u64) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut over = 0;
    for workload in NAMES.iter().filter(|w| only.is_none_or(|o| o == **w)) {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n {
            for set in &mut sets {
                match one_run(workload, i as u64 + 1, seconds) {
                    Ok(m) => set.push(m),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("{workload}: pair {}/{n} done", i + 1);
        }
        println!("{workload}  ({n} + {n} runs, seeds 1..={n}, {seconds} s each)");
        println!(
            "  {:<22} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}",
            "metric", "median A", "median B", "gap", "spread A", "spread B", "bound"
        );
        for b in &bounds {
            let series = |set: &[Json]| set.iter().map(|m| value(m, &b.name)).collect::<Vec<_>>();
            let (a, bb) = (series(&sets[0]), series(&sets[1]));
            let (ma, mb) = (median(&a), median(&bb));
            // How much worse B's median is than A's, as a share of A's.
            let gap = if b.lower_is_better {
                mb / ma - 1.0
            } else {
                1.0 - mb / ma
            };
            let spread = |xs: &[f64], m: f64| {
                if xs.len() < 2 {
                    return 0.0;
                }
                let (q1, q3) = quartiles(xs);
                (q3 - q1) / m
            };
            let (sa, sb) = (spread(&a, ma), spread(&bb, mb));
            // setup_s is judged on its medians only.
            let spread_counts = b.name != "setup_s";
            // A NaN gap (a metric missing from a result line) is over too.
            let bad = gap.is_nan()
                || gap.abs() > b.bound
                || (spread_counts && (sa > b.bound || sb > b.bound));
            over += usize::from(bad);
            println!(
                "  {:<22} {:>14.6} {:>14.6} {:>7.2}% {:>8.2}% {:>8.2}% {:>6.1}%{}",
                b.name,
                ma,
                mb,
                gap * 100.0,
                sa * 100.0,
                sb * 100.0,
                b.bound * 100.0,
                if bad { "  OVER" } else { "" }
            );
            // Every run made, in seed order, so a reader can separate
            // seed-to-seed from run-to-run differences.
            let list = |xs: &[f64]| {
                xs.iter()
                    .map(|x| format!("{x:.5}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("      A: {}\n      B: {}", list(&a), list(&bb));
        }
    }
    if over > 0 {
        eprintln!("error: {over} workload × metric pairs exceed their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
