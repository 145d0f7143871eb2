//! Coverage-guided scenario fuzzing driver.
//!
//! ```text
//! cargo run -p spam-bench --bin fuzz_specs --release -- --quick
//! cargo run -p spam-bench --bin fuzz_specs --release -- --mutants 20000
//! cargo run -p spam-bench --bin fuzz_specs --release -- --seed 7 --promote
//! ```
//!
//! Seeds from the committed corpus (`scenarios/`), mutates, runs every
//! valid mutant under the five oracles, and tracks engine-coverage
//! novelty. Every mutant runs: there is no wall-clock budget, so the
//! same seed and mutant count over the same corpus write the same
//! files. `--quick` (1 000 mutants) takes about 80 s on a 2-core
//! machine. Outputs:
//!
//! * `results/fuzz_coverage.csv` — per-signal table: every coverage bit
//!   and watermark, corpus baseline vs. post-fuzz value.
//! * `results/BENCH_fuzz_coverage.json` (+ the root-level copy, from a
//!   run of the size it was committed at: `--quick`) — the
//!   machine-readable record. Deliberately contains *no wall-clock
//!   numbers*: the same seed over the same corpus reproduces the file
//!   byte for byte (throughput goes to stderr instead).
//! * `results/fuzz_promoted/*.scenario.json` — novel clean mutants,
//!   exactly as the oracles ran them. With `--promote` they are also
//!   copied into `scenarios/` for golden-pinning via `make_corpus`.
//! * `scenarios/regressions/*.scenario.json` — minimized
//!   oracle-violating specs, failing oracle named in the description.
//!   Any regression exits nonzero.
//!
//! An argument it does not know, or a value that is not a number, is the
//! usage error (exit 1).

use spam_bench::cli::FUZZ_SPECS;
use spam_bench::report::{self, BenchJson, Report};
use spam_bench::PointSummary;
use spam_fuzz::{fuzz, FuzzConfig, FuzzReport};
use spam_scenario::ScenarioSpec;
use std::fmt::Write as _;
use std::path::Path;
use wormsim::{CoverageSet, COVERAGE_BITS};

/// The per-signal table: every coverage bit and watermark, corpus
/// baseline vs. post-fuzz value.
fn coverage_csv(report: &FuzzReport) -> String {
    let mut f = String::from("kind,signal,baseline,final,novel\n");
    let mut row = |kind: &str, signal: &str, before: u64, after: u64| {
        let novel = (after > before) as u8;
        writeln!(f, "{kind},{signal},{before},{after},{novel}").expect("string write");
    };
    let (baseline, fuzzed) = (&report.baseline, &report.accumulated);
    for bit in COVERAGE_BITS {
        let lit = |c: &CoverageSet| c.has(bit.mask) as u64;
        row("bit", bit.name, lit(baseline), lit(fuzzed));
    }
    for (b, a) in baseline.watermarks().iter().zip(fuzzed.watermarks()) {
        debug_assert_eq!(b.name, a.name);
        row("watermark", b.name, b.value, a.value);
    }
    f
}

/// The terminal summary: coverage gained, what became of the mutants.
fn summary(report: &FuzzReport) -> String {
    let s = &report.stats;
    let mut lines = vec![
        "coverage:".to_string(),
        format!(
            "  bits lit      {:>4} baseline -> {:>4} final",
            report.baseline.bits_lit(),
            report.accumulated.bits_lit()
        ),
        format!("  novel signals {:>4}", report.novel_vs_baseline.len()),
    ];
    let novel = report.novel_vs_baseline.iter();
    lines.extend(novel.map(|sig| format!("    + {sig}")));
    lines.extend([
        "mutants:".to_string(),
        format!("  run           {:>6}", s.valid + s.rejected),
        format!("  valid         {:>6}", s.valid),
        format!(
            "  rejected      {:>6}  (predictions: {} confirmed, {} cross-axis)",
            s.rejected, s.expect_confirmed, s.expect_missed
        ),
        format!("  run-rejected  {:>6}", s.run_rejected),
        format!("  oracle fails  {:>6}", s.oracle_failures),
    ]);
    if !report.spec_errors.is_empty() {
        lines.push("rejections by SpecError variant:".to_string());
        let rejections = report.spec_errors.iter();
        lines.extend(rejections.map(|(variant, n)| format!("  {variant:<32} {n:>6}")));
    }
    lines.join("\n")
}

fn write_specs<'a>(
    dir: &Path,
    specs: impl Iterator<Item = (String, &'a ScenarioSpec)>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for (name, spec) in specs {
        let path = dir.join(format!("{name}.scenario.json"));
        std::fs::write(&path, spec.to_json_string())?;
        eprintln!("fuzz_specs:   wrote {}", path.display());
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = FUZZ_SPECS.parse(&argv).and_then(|args| {
        let quick = args.flag("--quick");
        let cfg = FuzzConfig {
            seed: args.parsed("--seed")?.unwrap_or(0x5bad_f00d),
            mutants: args
                .parsed("--mutants")?
                .unwrap_or(if quick { 1000 } else { 10_000 }),
        };
        Ok((cfg, quick, args.flag("--promote")))
    });
    let (cfg, quick, promote) = parsed.unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(1);
    });

    let corpus_dir = Path::new("scenarios");
    let corpus = spam_scenario::load_dir(corpus_dir).unwrap_or_else(|e| {
        eprintln!("fuzz_specs: loading {}: {e}", corpus_dir.display());
        std::process::exit(1);
    });
    let corpus: Vec<ScenarioSpec> = corpus.into_iter().map(|(_, s)| s).collect();
    eprintln!(
        "fuzz_specs: {} corpus seeds, {} mutants, seed 0x{:x} (quick: {quick})",
        corpus.len(),
        cfg.mutants,
        cfg.seed
    );

    let t0 = std::time::Instant::now();
    let report = fuzz(&corpus, &cfg);
    let elapsed = t0.elapsed();
    let s = &report.stats;
    // Wall-clock throughput is stderr-only: the JSON record must be
    // byte-identical across re-runs of the same seed.
    eprintln!(
        "fuzz_specs: {} mutants in {elapsed:.1?} ({:.0} mutants/s)",
        cfg.mutants,
        cfg.mutants as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    let point = |x: f64, mean: f64| PointSummary::exact(x, mean, 1);
    let mut bench = BenchJson::new(
        "fuzz_coverage",
        &[
            ("seed", format!("0x{:x}", cfg.seed)),
            ("mutants", cfg.mutants.to_string()),
            ("corpus_seeds", corpus.len().to_string()),
            ("quick", quick.to_string()),
            ("novel_signals", report.novel_vs_baseline.join(" ")),
        ],
        vec![
            (
                "bits_lit".into(),
                vec![
                    point(0.0, report.baseline.bits_lit() as f64),
                    point(1.0, report.accumulated.bits_lit() as f64),
                ],
            ),
            (
                "mutants".into(),
                vec![
                    point(0.0, s.valid as f64),
                    point(1.0, s.rejected as f64),
                    point(2.0, s.oracle_failures as f64),
                    point(3.0, report.promoted.len() as f64),
                ],
            ),
        ],
    );
    for (variant, n) in &report.spec_errors {
        let rejected = (format!("rejected.{variant}"), n.to_string());
        bench.params.push(rejected);
    }
    let promoted = || {
        report
            .promoted
            .iter()
            .map(|p| (p.spec.name.clone(), &p.spec))
    };
    let mut files = vec![report::file("fuzz_coverage.csv", coverage_csv(&report))];
    files.extend(promoted().map(|(name, spec)| {
        let name = format!("fuzz_promoted/{name}.scenario.json");
        report::file(&name, spec.to_json_string())
    }));
    let written = Report {
        bench,
        files,
        text: summary(&report),
    };
    written.write(Path::new("results")).expect("write results");
    if promote {
        // Opt-in: drop novel specs straight into the corpus. The
        // golden pins (corpus length, per-spec counters) then need
        // regenerating via examples/make_corpus.
        write_specs(corpus_dir, promoted()).expect("promote specs into corpus");
    }

    if !report.regressions.is_empty() {
        let found = report.regressions.iter().enumerate();
        let named = found.map(|(i, r)| (format!("regress_{i:03}_{}", r.violation), &r.spec));
        write_specs(Path::new("scenarios/regressions"), named).expect("write regression specs");
        eprintln!(
            "fuzz_specs: {} oracle violation(s) — minimized specs in scenarios/regressions/",
            report.regressions.len()
        );
        std::process::exit(2);
    }
}
