//! Result output: CSV files, terminal-friendly ASCII plots, and the
//! machine-readable `BENCH_<name>.json` records, so every experiment
//! archives its data (human- and machine-readable) and shows the curve
//! shape inline.

use crate::PointSummary;
use spam_scenario::json::{self, Json, Num};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One entry of [`Report::files`].
pub fn file(name: &str, body: impl Into<Vec<u8>>) -> (String, Vec<u8>) {
    (name.to_string(), body.into())
}

/// The results file `name` holding `rows` as CSV under `header`.
pub fn csv_file(name: &str, header: &str, rows: &[PointSummary]) -> (String, Vec<u8>) {
    file(name, csv(header, rows))
}

/// The `mean,ci,reps,met` columns every CSV prints for a point.
pub fn stat_columns(p: &PointSummary) -> String {
    format!(
        "{:.4},{:.4},{},{}",
        p.mean, p.ci_half_width, p.reps, p.target_met
    )
}

/// `(x, mean, ci, reps, met)` rows as CSV under `header`.
pub fn csv(header: &str, rows: &[PointSummary]) -> String {
    let mut out = format!("{header}\n");
    for r in rows {
        let _ = writeln!(out, "{},{}", r.x, stat_columns(r));
    }
    out
}

/// A machine-readable benchmark record, written as `BENCH_<name>.json`
/// by [`write_bench_json`]: same schema across experiments, so tooling
/// can diff runs over time without parsing per-experiment CSVs.
#[derive(Debug, Clone)]
pub struct BenchJson {
    /// Benchmark name; the file is `BENCH_<name>.json`.
    pub name: String,
    /// Free-form configuration key/value pairs (sizes, seeds, CI targets).
    pub params: Vec<(String, String)>,
    /// Named data series, each a list of summarized points.
    pub series: Vec<(String, Vec<PointSummary>)>,
}

impl BenchJson {
    /// The record `BENCH_<name>.json` with `params` in the given order.
    pub fn new(
        name: &str,
        params: &[(&str, String)],
        series: Vec<(String, Vec<PointSummary>)>,
    ) -> Self {
        BenchJson {
            name: name.to_string(),
            params: params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            series,
        }
    }

    /// The record as a JSON document (non-finite numbers become `null`).
    pub fn to_json(&self) -> Json {
        let float = |x: f64| Json::Num(Num::F(x));
        let point = |p: &PointSummary| {
            Json::obj(vec![
                ("x", float(p.x)),
                ("mean", float(p.mean)),
                ("ci_half_width", float(p.ci_half_width)),
                ("reps", Json::Num(Num::U(p.reps))),
                ("target_met", Json::Bool(p.target_met)),
            ])
        };
        Json::obj(vec![
            ("schema", Json::Num(Num::U(1))),
            ("name", Json::Str(self.name.as_str().into())),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.as_str().into(), Json::Str(v.as_str().into())))
                        .collect(),
                ),
            ),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|(name, points)| {
                            Json::obj(vec![
                                ("name", Json::Str(name.as_str().into())),
                                ("points", Json::Arr(points.iter().map(point).collect())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Writes `dir/BENCH_<name>.json`, returning the path.
///
/// When the current directory (the repo root, under `cargo run`) already
/// holds a `BENCH_<name>.json` whose own `params.quick` equals this
/// run's, that copy is refreshed too: the records under `results/` are
/// gitignored working artifacts, the root copies the committed
/// perf-trajectory record. A `--quick` run therefore never replaces a
/// record committed at full size (nor the reverse) — it says so on stderr
/// and writes under `dir` only — and an experiment with no committed
/// record leaves nothing outside `dir`.
pub fn write_bench_json(dir: &Path, bench: &BenchJson) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let file = format!("BENCH_{}.json", bench.name);
    let path = dir.join(&file);
    let body = bench.to_json().to_string_pretty();
    std::fs::write(&path, &body)?;
    if let Ok(committed) = std::fs::read_to_string(&file) {
        let record = json::parse(&committed).ok();
        let theirs = record
            .as_ref()
            .and_then(|doc| doc.get("params")?.get("quick"));
        let ours = bench.params.iter().find(|(k, _)| k == "quick");
        if theirs.and_then(Json::as_str) == ours.map(|(_, v)| v.as_str()) {
            std::fs::write(&file, &body)?;
        } else {
            eprintln!(
                "{file}: the committed record was not written with this run's `quick` \
                 setting, so it is left as it is; this run's record is {} only",
                path.display()
            );
        }
    }
    Ok(path)
}

/// Everything one experiment hands the `experiment` binary.
#[derive(Debug, Clone)]
pub struct Report {
    /// The machine-readable record.
    pub bench: BenchJson,
    /// Data files for the results directory: `(relative path, contents)`.
    pub files: Vec<(String, Vec<u8>)>,
    /// The terminal rendering: plots and tables.
    pub text: String,
}

impl Report {
    /// The common experiment shape: `series` plotted under
    /// `[title, x label, y label]` above the point table, recorded as
    /// `BENCH_<name>.json` with `params`.
    pub fn figure(
        name: &str,
        [title, x_label, y_label]: [&str; 3],
        params: &[(&str, String)],
        series: Vec<(String, Vec<PointSummary>)>,
        files: Vec<(String, Vec<u8>)>,
    ) -> Report {
        Report {
            text: ascii_plot(title, x_label, y_label, &series, 16) + &series_table(&series),
            files,
            bench: BenchJson::new(name, params, series),
        }
    }

    /// Prints the rendering and writes every file plus the
    /// `BENCH_<name>.json` record under `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        println!("{}", self.text);
        for (name, body) in &self.files {
            let path = dir.join(name);
            std::fs::create_dir_all(path.parent().unwrap_or(dir))?;
            std::fs::write(&path, body)?;
            println!("-> {}", path.display());
        }
        let json = write_bench_json(dir, &self.bench)?;
        println!("-> {}", json.display());
        Ok(())
    }
}

/// Renders one or more named series as an ASCII scatter plot, mimicking
/// the paper's figures well enough to eyeball the shape.
pub fn ascii_plot(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[(String, Vec<PointSummary>)],
    height: usize,
) -> String {
    const MARKS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let mut out = String::new();
    let all: Vec<&PointSummary> = series.iter().flat_map(|(_, v)| v.iter()).collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (x_min, x_max) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.x), hi.max(p.x))
        });
    let (y_min, y_max) = all
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.mean), hi.max(p.mean))
        });
    let y_pad = ((y_max - y_min) * 0.08).max(0.5);
    let (y_lo, y_hi) = (y_min - y_pad, y_max + y_pad);
    let width = 64usize;
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        for p in pts {
            let xf = if x_max > x_min {
                (p.x - x_min) / (x_max - x_min)
            } else {
                0.5
            };
            let yf = (p.mean - y_lo) / (y_hi - y_lo);
            let col = ((xf * (width - 1) as f64).round() as usize).min(width - 1);
            let row = height - 1 - ((yf * (height - 1) as f64).round() as usize).min(height - 1);
            grid[row][col] = MARKS[si % MARKS.len()];
        }
    }
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{y_label}");
    for (i, row) in grid.iter().enumerate() {
        let y_val = y_hi - (y_hi - y_lo) * i as f64 / (height - 1) as f64;
        let _ = writeln!(out, "{y_val:>8.1} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{:>9}+{}", "", "-".repeat(width));
    let _ = writeln!(
        out,
        "{:>10}{:<32}{:>32}",
        "",
        format!("{x_min:.3}"),
        format!("{x_max:.3}")
    );
    let _ = writeln!(out, "{:>10}{x_label}", "");
    for (si, (name, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", MARKS[si % MARKS.len()], name);
    }
    out
}

/// Formats every point of every series as one table row.
pub fn series_table(series: &[(String, Vec<PointSummary>)]) -> String {
    let mut out = format!(
        "  {:<32} {:>8} {:>12} {:>10} {:>6} {:>7}\n",
        "series", "x", "mean", "±95% CI", "reps", "met CI"
    );
    for (name, points) in series {
        for p in points {
            let _ = writeln!(
                out,
                "  {:<32} {:>8} {:>12.3} {:>10.3} {:>6} {:>7}",
                name, p.x, p.mean, p.ci_half_width, p.reps, p.target_met
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64)]) -> Vec<PointSummary> {
        v.iter()
            .map(|&(x, mean)| PointSummary {
                x,
                mean,
                ci_half_width: 0.1,
                reps: 5,
                target_met: true,
            })
            .collect()
    }

    #[test]
    fn csv_round_trips() {
        let body = csv("x,mean,ci,reps,met", &pts(&[(1.0, 11.0), (2.0, 12.0)]));
        assert!(body.starts_with("x,mean,ci,reps,met\n"));
        assert_eq!(body.lines().count(), 3);
        assert!(body.contains("1,11.0000,0.1000,5,true"));
    }

    #[test]
    fn bench_json_is_valid_and_complete() {
        let dir = std::env::temp_dir().join("spam_bench_json_test");
        let bench = BenchJson {
            name: "unit_test".to_string(),
            params: vec![
                ("switches".to_string(), "64".to_string()),
                ("note".to_string(), "has \"quotes\"".to_string()),
            ],
            series: vec![
                ("a".to_string(), pts(&[(1.0, 11.0), (2.0, 12.5)])),
                ("b".to_string(), pts(&[(1.0, 20.0)])),
            ],
        };
        // No committed record in the current directory: nothing lands there.
        let root_copy = Path::new("BENCH_unit_test.json");
        let path = write_bench_json(&dir, &bench).unwrap();
        assert!(path.ends_with("BENCH_unit_test.json"));
        assert!(!root_copy.exists(), "stray root copy");
        // An existing record is refreshed in place...
        std::fs::write(root_copy, "stale").unwrap();
        write_bench_json(&dir, &bench).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, std::fs::read_to_string(root_copy).unwrap());
        // ...by a run of its own size only: a quick run leaves a record
        // committed at full size alone and lands under `dir`,
        let sized = |quick: &str| {
            let mut sized = bench.clone();
            sized.params.push(("quick".to_string(), quick.to_string()));
            sized
        };
        let full = sized("false").to_json().to_string_pretty();
        std::fs::write(root_copy, &full).unwrap();
        write_bench_json(&dir, &sized("true")).unwrap();
        assert_eq!(std::fs::read_to_string(root_copy).unwrap(), full);
        assert_ne!(std::fs::read_to_string(&path).unwrap(), full);
        // while a full-size run refreshes it (as a quick run does a
        // record committed from a quick run).
        std::fs::write(root_copy, full.replace("12.5", "99.5")).unwrap();
        write_bench_json(&dir, &sized("false")).unwrap();
        assert_eq!(std::fs::read_to_string(root_copy).unwrap(), full);
        std::fs::remove_file(root_copy).ok();
        std::fs::remove_dir_all(&dir).ok();

        let doc = spam_scenario::json::parse(&body).expect("valid JSON");
        assert_eq!(doc, bench.to_json(), "the file round-trips");
        assert_eq!(doc.get("schema").and_then(Json::as_num), Some(Num::U(1)));
        let note = doc.get("params").and_then(|p| p.get("note"));
        assert_eq!(note.and_then(Json::as_str), Some("has \"quotes\""));
        assert_eq!(doc.get("series").and_then(Json::as_arr).unwrap().len(), 2);
    }

    #[test]
    fn json_num_handles_non_finite() {
        // JSON has no NaN/inf: a starved cell's mean is written as null.
        let mut starved = pts(&[(0.3, f64::NAN)]);
        starved[0].ci_half_width = f64::INFINITY;
        let bench = BenchJson {
            name: "t".to_string(),
            params: Vec::new(),
            series: vec![("s".to_string(), starved)],
        };
        let doc = spam_scenario::json::parse(&bench.to_json().to_string_pretty()).unwrap();
        let p = &doc.get("series").and_then(Json::as_arr).unwrap()[0]
            .get("points")
            .and_then(Json::as_arr)
            .unwrap()[0];
        assert_eq!(p.get("x").and_then(Json::as_num), Some(Num::F(0.3)));
        assert_eq!(p.get("mean"), Some(&Json::Null));
        assert_eq!(p.get("ci_half_width"), Some(&Json::Null));
    }

    #[test]
    fn ascii_plot_contains_markers_and_labels() {
        let s = vec![
            ("8 dests".to_string(), pts(&[(0.005, 11.0), (0.04, 60.0)])),
            ("64 dests".to_string(), pts(&[(0.005, 12.0), (0.04, 70.0)])),
        ];
        let plot = ascii_plot("Fig 3", "rate", "latency µs", &s, 12);
        assert!(plot.contains("Fig 3"));
        assert!(plot.contains('*'));
        assert!(plot.contains('o'));
        assert!(plot.contains("8 dests"));
        assert!(plot.contains("0.040"));
    }

    #[test]
    fn empty_plot_is_graceful() {
        let plot = ascii_plot("t", "x", "y", &[], 5);
        assert!(plot.contains("no data"));
    }

    #[test]
    fn table_renders_rows() {
        let t = series_table(&[("lowest-id".to_string(), pts(&[(0.0, 11.5)]))]);
        assert!(t.contains("lowest-id"));
        assert!(t.contains("11.5"));
    }
}
