//! The coverage-guided fuzz loop.
//!
//! Seeds come from the hand-authored scenario corpus. Each iteration
//! picks a pool spec, applies one typed mutation
//! ([`spam_scenario::mutate_spec`]), and sorts the result into one of
//! three bins:
//!
//! * **rejected** — the mutant fails [`ScenarioSpec::validate`]. That is
//!   coverage too: the loop tallies which [`SpecError`] variants the
//!   mutator exercised, and checks predicted boundary violations
//!   ([`Mutation::expect`]) actually fired.
//! * **violation** — the mutant runs but trips an oracle
//!   ([`crate::oracle`]). It is greedily minimized and reported as a
//!   regression candidate.
//! * **clean** — the mutant runs clean; if its coverage is novel against
//!   everything seen so far it joins the seed pool (so the fuzzer digs
//!   deeper along the direction that paid off) and the promotion list.
//!
//! Everything is driven by one `StdRng` from [`FuzzConfig::seed`]: the
//! same config over the same corpus reproduces the same mutants, the
//! same promotions, and the same report, byte for byte.

use std::collections::BTreeMap;

use rand::{rngs::StdRng, Rng, SeedableRng};
use spam_scenario::{mutate_spec, ScenarioSpec};
use wormsim::{CoverageSet, Fnv1a};

use crate::minimize::minimize_violation;
use crate::novelty::NoveltyTracker;
use crate::oracle::check_spec;

/// Cap on promoted specs kept in the report.
const MAX_PROMOTIONS: usize = 16;

/// Fuzzing run parameters. A run is a function of these and the corpus:
/// every mutant runs, with no wall-clock cut.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Number of mutants to generate.
    pub mutants: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x5bad_f00d,
            mutants: 1000,
        }
    }
}

/// Tallies from one fuzzing run of [`FuzzConfig::mutants`] mutants.
#[derive(Debug, Clone, Default)]
pub struct FuzzStats {
    /// Mutants that validated and went through the oracle battery.
    pub valid: usize,
    /// Mutants rejected by `validate()`.
    pub rejected: usize,
    /// Rejected mutants whose predicted `SpecError` variant matched.
    pub expect_confirmed: usize,
    /// Rejected mutants that carried a prediction which did not match
    /// (a typed cross-axis rejection — acceptable, but tallied).
    pub expect_missed: usize,
    /// Mutants that validated but were rejected at run time with a
    /// typed error (e.g. a storm that destroys the whole fabric —
    /// `NoSurvivingComponent` is only decidable after sampling faults).
    pub run_rejected: usize,
    /// Mutants that tripped an oracle.
    pub oracle_failures: usize,
}

/// A clean mutant whose coverage was novel when it ran.
#[derive(Debug, Clone)]
pub struct Promoted {
    /// The novelty signals it contributed (bit names, watermark pushes).
    pub signals: Vec<String>,
    /// The spec exactly as the oracles ran it (already quickened).
    pub spec: ScenarioSpec,
}

/// A minimized oracle-violating mutant.
#[derive(Debug, Clone)]
pub struct Regression {
    /// The oracle it violates.
    pub violation: &'static str,
    /// Shrink steps the minimizer adopted.
    pub shrink_steps: usize,
    /// The minimized spec, violation preserved.
    pub spec: ScenarioSpec,
}

/// Everything a fuzzing run produced.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Run tallies.
    pub stats: FuzzStats,
    /// Coverage union over the seed corpus (before any mutants ran).
    pub baseline: CoverageSet,
    /// Coverage union over the corpus plus every mutant run.
    pub accumulated: CoverageSet,
    /// Signals the mutants contributed beyond the corpus baseline.
    pub novel_vs_baseline: Vec<String>,
    /// Clean novel mutants, in discovery order (capped).
    pub promoted: Vec<Promoted>,
    /// Minimized oracle violations, in discovery order.
    pub regressions: Vec<Regression>,
    /// `SpecError` variants exercised by rejected mutants, with counts.
    pub spec_errors: Vec<(String, u32)>,
}

/// Deterministic display name for the `i`-th mutant of a run.
fn mutant_name(seed: u64, i: usize) -> String {
    let mut h = Fnv1a::default();
    h.word(seed);
    h.word(i as u64);
    format!("fuzz_{:08x}", (h.finish() >> 32) as u32)
}

/// Runs the fuzzer over `corpus` seeds. The corpus specs are first run
/// once each (quickened) to establish the novelty baseline; mutants are
/// then judged against that union, so "novel" always means "the
/// hand-authored corpus never showed the engine this".
pub fn fuzz(corpus: &[ScenarioSpec], cfg: &FuzzConfig) -> FuzzReport {
    assert!(!corpus.is_empty(), "fuzzer needs at least one seed spec");

    // Baseline: what does the hand corpus already cover?
    let mut baseline = CoverageSet::default();
    for spec in corpus {
        let mut quick = spec.clone();
        quick.quicken();
        if let Ok(report) = check_spec(&quick) {
            baseline.absorb(&report.coverage);
        }
    }

    let mut tracker = NoveltyTracker::with_baseline(baseline);
    let mut pool: Vec<ScenarioSpec> = corpus.to_vec();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut stats = FuzzStats::default();
    let mut promoted = Vec::new();
    let mut regressions = Vec::new();
    let mut spec_errors: BTreeMap<String, u32> = BTreeMap::new();

    for i in 0..cfg.mutants {
        let parent = &pool[rng.gen_range(0..pool.len())];
        let mutation = mutate_spec(parent, &mut rng);
        let name = mutant_name(cfg.seed, i);

        match mutation.spec.validate() {
            Err(err) => {
                stats.rejected += 1;
                *spec_errors
                    .entry(err.variant_name().to_string())
                    .or_insert(0) += 1;
                match mutation.expect {
                    Some(want) if want == err.variant_name() => stats.expect_confirmed += 1,
                    Some(_) => stats.expect_missed += 1,
                    None => {}
                }
            }
            Ok(()) => {
                stats.valid += 1;
                let mut quick = mutation.spec.clone();
                quick.name = name;
                quick.quicken();
                let report = match check_spec(&quick) {
                    Ok(r) => r,
                    // validate() passed but the run rejected the spec
                    // with a typed error — only decidable after
                    // sampling (fault storms can destroy the fabric).
                    Err(err) => {
                        stats.run_rejected += 1;
                        *spec_errors
                            .entry(err.variant_name().to_string())
                            .or_insert(0) += 1;
                        continue;
                    }
                };
                match report.violation {
                    Some(violation) => {
                        stats.oracle_failures += 1;
                        let (mut min, shrink_steps) = minimize_violation(&quick, violation);
                        min.description = format!(
                            "fuzzer regression (axis `{}`): violates the `{}` oracle",
                            mutation.axis, violation
                        );
                        regressions.push(Regression {
                            violation,
                            shrink_steps,
                            spec: min,
                        });
                    }
                    None => {
                        let signals = tracker.observe(&report.coverage);
                        if !signals.is_empty() {
                            // Coverage-guided: novel specs become seeds.
                            pool.push(mutation.spec.clone());
                            if promoted.len() < MAX_PROMOTIONS {
                                let mut spec = quick;
                                spec.description = format!(
                                    "fuzzer-promoted (axis `{}`): novel signals [{}]",
                                    mutation.axis,
                                    signals.join(", ")
                                );
                                promoted.push(Promoted { signals, spec });
                            }
                        }
                    }
                }
            }
        }
    }

    let accumulated = *tracker.seen();
    FuzzReport {
        stats,
        baseline,
        novel_vs_baseline: accumulated.novel_signals(&baseline),
        accumulated,
        promoted,
        regressions,
        spec_errors: spec_errors.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Vec<ScenarioSpec> {
        vec![ScenarioSpec::example("fuzz-seed")]
    }

    fn tiny_cfg() -> FuzzConfig {
        FuzzConfig {
            seed: 0xFEED,
            mutants: 40,
        }
    }

    #[test]
    fn fuzzing_is_deterministic() {
        let corpus = tiny_corpus();
        let a = fuzz(&corpus, &tiny_cfg());
        let b = fuzz(&corpus, &tiny_cfg());
        assert_eq!(a.stats.valid, b.stats.valid);
        assert_eq!(a.stats.rejected, b.stats.rejected);
        assert_eq!(a.accumulated, b.accumulated);
        assert_eq!(a.spec_errors, b.spec_errors);
        assert_eq!(a.promoted.len(), b.promoted.len());
        for (pa, pb) in a.promoted.iter().zip(&b.promoted) {
            assert_eq!(pa.spec, pb.spec);
            assert_eq!(pa.signals, pb.signals);
        }
    }

    #[test]
    fn mutants_widen_coverage_beyond_one_seed() {
        // A single plain multicast seed covers little; even a short run
        // must find something the seed never showed the engine.
        let report = fuzz(&tiny_corpus(), &tiny_cfg());
        assert!(report.stats.valid > 0);
        assert!(report.stats.rejected > 0, "boundary mutators never fired");
        assert!(
            !report.novel_vs_baseline.is_empty(),
            "no novelty in {} valid mutants",
            report.stats.valid
        );
        assert!(report.accumulated.bits_lit() >= report.baseline.bits_lit());
    }

    #[test]
    fn mutant_names_are_stable_and_distinct() {
        assert_eq!(mutant_name(1, 0), mutant_name(1, 0));
        assert_ne!(mutant_name(1, 0), mutant_name(1, 1));
        assert_ne!(mutant_name(1, 0), mutant_name(2, 0));
    }
}
