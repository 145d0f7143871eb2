//! Tracing is a pure observer: enabling `engine.trace` on any golden
//! scenario must not change a single simulated outcome. The check runs
//! every corpus scenario twice — traced and untraced — and compares the
//! behavioural digests (`spam_fuzz::digest::outcome_digest` hashes every
//! latency, failure, counter, and epoch statistic; of the trace it
//! counts only the events, so the traced run's are dropped first).

use spam_net::fuzz::digest::outcome_digest;
use spam_net::scenario::{run_once, SpecError};
use std::path::Path;

#[test]
fn tracing_never_changes_outcomes_across_the_golden_corpus() {
    let corpus = spam_net::scenario::load_dir(Path::new("scenarios")).expect("corpus loads");
    assert!(corpus.len() >= 14, "the golden corpus holds 14 scenarios");
    for (path, spec) in corpus {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();

        let mut untraced = spec.clone();
        untraced.engine.trace = false;
        let mut traced = spec;
        traced.engine.trace = true;

        let run = |s| match run_once(s, 0, None) {
            Ok(out) => Some(out),
            // Some fuzz-promoted storms legitimately destroy the fabric.
            Err(SpecError::NoSurvivingComponent) => None,
            Err(e) => panic!("{name}: {e:?}"),
        };
        let (base, observed) = (run(&untraced), run(&traced));
        match (base, observed) {
            (None, None) => continue,
            (Some(base), Some(mut observed)) => {
                assert!(
                    base.trace.events.is_empty(),
                    "{name}: untraced run recorded events"
                );
                assert!(
                    !observed.trace.events.is_empty(),
                    "{name}: traced run recorded nothing"
                );
                observed.trace.events.clear();
                assert_eq!(
                    outcome_digest(&base),
                    outcome_digest(&observed),
                    "{name}: enabling tracing changed simulated behaviour"
                );
            }
            _ => panic!("{name}: tracing changed spec-level viability"),
        }
    }
}
