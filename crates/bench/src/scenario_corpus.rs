//! Executing a scenario corpus directory: every committed
//! `*.scenario.json` runs from JSON alone, and each produces a
//! per-scenario CSV plus one combined `BENCH_scenario_corpus.json`
//! record through the shared [`crate::report`] module.

use crate::report::{self, BenchJson, Report};
use crate::PointSummary;
use spam_scenario::{run_spec, CorpusError, ScenarioReport, ScenarioSpec, SpecError};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One executed corpus entry.
#[derive(Debug, Clone)]
pub struct CorpusResult {
    /// The scenario file.
    pub path: PathBuf,
    /// The (possibly quickened) spec that ran.
    pub spec: ScenarioSpec,
    /// How the run ended: its report, or the typed error it failed with
    /// (recorded, not fatal to the sweep).
    pub status: Result<ScenarioReport, SpecError>,
}

/// Loads and executes every scenario under `dir`, in filename order;
/// only the directory load can fail the run outright. `quick` caps
/// message counts and replications ([`ScenarioSpec::quicken`]). A
/// scenario that fails is recorded with its error and the sweep
/// continues.
pub fn run_corpus(dir: &Path, quick: bool) -> Result<Vec<CorpusResult>, CorpusError> {
    let corpus = spam_scenario::load_dir(dir)?;
    let mut out = Vec::with_capacity(corpus.len());
    for (path, mut spec) in corpus {
        if quick {
            spec.quicken();
        }
        let status = run_spec(&spec);
        out.push(CorpusResult { path, spec, status });
    }
    Ok(out)
}

/// One scenario's per-replication CSV (`scenarios/<name>.csv`).
pub fn scenario_csv(report: &ScenarioReport) -> String {
    let mut f = String::from(
        "rep,submitted,delivered,torn_down,unreachable,\
         mean_latency_us,p50_us,p99_us,events,end_time_us,clean\n",
    );
    let opt = |v: Option<f64>| v.map_or(String::new(), |x| format!("{x:.4}"));
    for r in &report.reps {
        writeln!(
            f,
            "{},{},{},{},{},{},{},{},{},{:.3},{}",
            r.rep,
            r.submitted,
            r.delivered,
            r.torn_down,
            r.unreachable,
            opt(r.mean_latency_us),
            opt(r.p50_us),
            opt(r.p99_us),
            r.events,
            r.end_time_us,
            r.clean
        )
        .expect("string write");
    }
    f
}

/// One scenario's seven summary cells, computed once for both the
/// combined CSV and the terminal table: replications, then messages
/// submitted, delivered, torn down and unreachable over all of them, the
/// mean latency in µs to `digits` places (`absent` when nothing was
/// delivered), and whether every replication ended clean.
fn summary_cells(report: &ScenarioReport, digits: usize, absent: &str) -> [String; 7] {
    let (delivered, torn_down, unreachable) = report.totals();
    let submitted: u64 = report.reps.iter().map(|x| x.submitted).sum();
    let mean = report.mean_latency_us();
    [
        report.reps.len().to_string(),
        submitted.to_string(),
        delivered.to_string(),
        torn_down.to_string(),
        unreachable.to_string(),
        mean.map_or(absent.to_string(), |x| format!("{x:.digits$}")),
        report.all_clean().to_string(),
    ]
}

/// The combined corpus summary CSV, one row per scenario — including a
/// status row for scenarios that failed, so a sweep with a failure still
/// leaves a complete, honest record.
pub fn corpus_csv(results: &[CorpusResult]) -> String {
    let mut f = String::from(
        "scenario,status,reps,submitted,delivered,torn_down,unreachable,\
         mean_latency_us,all_clean,detail\n",
    );
    for r in results {
        let name = &r.spec.name;
        match &r.status {
            Ok(report) => {
                writeln!(f, "{name},ok,{},", summary_cells(report, 4, "").join(","))
            }
            Err(e) => {
                // Typed failure detail, commas stripped to keep the row
                // one CSV record.
                let detail = e.to_string().replace(',', ";");
                writeln!(f, "{name},error,,,,,,,,{detail}")
            }
        }
        .expect("string write");
    }
    f
}

/// The per-scenario summary table for the terminal.
pub fn corpus_table(results: &[CorpusResult]) -> String {
    let mut text = String::new();
    let mut line = |name: &str, status: &str, c: [String; 7]| {
        writeln!(
            text,
            "  {name:<28} {status:>7} {:>4} {:>9} {:>9} {:>6} {:>8} {:>11} {:>6}",
            c[0], c[1], c[2], c[3], c[4], c[5], c[6]
        )
        .expect("string write");
    };
    #[rustfmt::skip] // the header row, in column order
    let header = ["reps", "messages", "delivered", "torn", "unreach", "mean (µs)", "clean"];
    line("scenario", "status", header.map(str::to_string));
    for r in results {
        match &r.status {
            Ok(ran) => line(&r.spec.name, "ok", summary_cells(ran, 3, "-")),
            Err(_) => line(&r.spec.name, "error", std::array::from_fn(|_| "-".into())),
        }
    }
    text
}

/// The corpus as one [`BenchJson`] record: one series per scenario, one
/// point per replication (`x` = replication index, `mean` = that
/// replication's mean latency in µs).
pub fn corpus_bench_json(results: &[CorpusResult], quick: bool) -> BenchJson {
    let series = results
        .iter()
        .filter_map(|r| {
            let report = r.status.as_ref().ok()?;
            let points = report
                .reps
                .iter()
                .map(|rep| PointSummary {
                    target_met: rep.clean,
                    ..PointSummary::exact(
                        rep.rep as f64,
                        rep.mean_latency_us.unwrap_or(f64::NAN),
                        1,
                    )
                })
                .collect();
            Some((report.name.clone(), points))
        })
        .collect();
    let ok = results.iter().filter(|r| r.status.is_ok()).count();
    BenchJson::new(
        "scenario_corpus",
        &[
            ("scenarios", results.len().to_string()),
            ("ok", ok.to_string()),
            ("failed", (results.len() - ok).to_string()),
            // Always 0; the committed record keeps the key.
            ("skipped", "0".to_string()),
            ("quick", quick.to_string()),
        ],
        series,
    )
}

/// Everything a corpus run hands the `scenario_run` binary: the table,
/// the combined CSV, one `scenarios/<name>.csv` per scenario that ran,
/// and the record.
pub fn report(results: &[CorpusResult], quick: bool) -> Report {
    let mut files = vec![report::file("scenario_corpus.csv", corpus_csv(results))];
    for ran in results.iter().filter_map(|r| r.status.as_ref().ok()) {
        let name = format!("scenarios/{}.csv", ran.name);
        files.push(report::file(&name, scenario_csv(ran)));
    }
    Report {
        bench: corpus_bench_json(results, quick),
        files,
        text: corpus_table(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        let mut spec = ScenarioSpec::example("tiny-fig2");
        spec.topology.switches = 12;
        spec.topology.seed = 5;
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 32 };
        std::fs::write(dir.join("tiny.scenario.json"), spec.to_json_string()).unwrap();
    }

    #[test]
    fn corpus_runs_and_reports() {
        let dir = std::env::temp_dir().join("spam_bench_corpus_test");
        tiny_corpus(&dir);
        let results = run_corpus(&dir, true).unwrap();
        assert_eq!(results.len(), 1);
        let report = results[0].status.as_ref().expect("scenario ran");
        assert!(report.all_clean());
        assert!(report.mean_latency_us().unwrap() > 10.0, "startup floor");

        let body = scenario_csv(report);
        assert!(body.starts_with("rep,submitted,"));
        assert_eq!(body.lines().count(), 1 + report.reps.len());
        assert!(corpus_csv(&results).contains("tiny-fig2,ok,"));

        let bench = corpus_bench_json(&results, true);
        assert_eq!(bench.series.len(), 1);
        assert_eq!(bench.series[0].0, "tiny-fig2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_corpus_is_a_typed_error() {
        let dir = std::env::temp_dir().join("spam_bench_corpus_bad_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.scenario.json"), "{\"name\": \"x\"}").unwrap();
        assert!(matches!(
            run_corpus(&dir, false),
            Err(CorpusError::Bad { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_failing_scenario_does_not_abort_the_sweep() {
        let dir = std::env::temp_dir().join("spam_bench_corpus_partial_test");
        tiny_corpus(&dir);
        // A spec that validates but fails at run time: static damage so
        // severe no component survives.
        let mut doomed = ScenarioSpec::example("aaa-doomed");
        doomed.topology.switches = 8;
        doomed.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 2, len: 32 };
        doomed.faults = spam_scenario::FaultsSpec::Static {
            model: spam_scenario::FaultModelSpec::IidSwitches { rate: 1.0 },
            seed: 1,
        };
        std::fs::write(dir.join("doomed.scenario.json"), doomed.to_json_string()).unwrap();

        let results = run_corpus(&dir, true).unwrap();
        assert_eq!(results.len(), 2);
        let by_name = |n: &str| {
            results
                .iter()
                .find(|r| r.spec.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        assert!(by_name("aaa-doomed").status.is_err());
        assert!(by_name("tiny-fig2").status.is_ok());

        // The combined CSV records both, with a status per row.
        let body = corpus_csv(&results);
        assert!(body.contains("aaa-doomed,error,"), "{body}");
        assert!(body.contains("tiny-fig2,ok,"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
