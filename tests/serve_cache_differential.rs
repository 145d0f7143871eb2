//! Differential cache-correctness suite — the contract that makes the
//! artifact cache safe to ship.
//!
//! Every committed golden scenario runs three ways:
//!
//! 1. **Reference**: the classic batch path (`run_once`), which builds
//!    its environment from scratch.
//! 2. **Cold**: through a fresh `ServeCore` — every artifact is a miss.
//! 3. **Warm**: through the *same* core again — every artifact is a hit.
//!
//! All three must produce byte-identical outcomes, pinned via
//! [`spam_scenario::outcome_digest`]. A cache that changed *anything* —
//! an RNG stream consumed in a different order, a routing table rebuilt
//! against the wrong labeling, a stale survivor mask — shows up here as
//! a digest mismatch on a committed scenario.

use spam_net::serve::{ServeConfig, ServeCore, Session};
use spam_scenario::json::{parse, Json};
use spam_scenario::{load_dir, outcome_digest, run_once, ScenarioSpec};
use std::path::Path;

fn corpus() -> Vec<(String, ScenarioSpec)> {
    let specs = load_dir(Path::new("scenarios")).expect("corpus loads");
    assert!(
        specs.len() >= 14,
        "committed corpus shrank: {}",
        specs.len()
    );
    specs
        .into_iter()
        .map(|(p, s)| (p.display().to_string(), s))
        .collect()
}

/// A result line's `(scenario, rep, digest, artifact, quiescent)`.
fn parse_result(line: &str) -> (String, u64, String, String) {
    let doc = parse(line).expect("result lines are valid JSON");
    assert_eq!(
        doc.get("type").and_then(Json::as_str),
        Some("result"),
        "{line}"
    );
    let get_str = |k: &str| {
        doc.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{k} missing in {line}"))
            .to_string()
    };
    let rep = doc
        .get("rep")
        .and_then(|v| v.as_num()?.as_u64())
        .expect("rep field");
    (
        get_str("scenario"),
        rep,
        get_str("digest"),
        get_str("artifact"),
    )
}

/// Streams the whole corpus through `core` once, returning every
/// result line in order.
fn run_corpus_pass(core: &mut ServeCore, session: &mut Session) -> Vec<String> {
    let mut lines = Vec::new();
    for (path, spec) in corpus() {
        let req = format!(
            r#"{{"op":"run","spec":{}}}"#,
            spec.to_json().to_string_compact()
        );
        let resp = core.handle_line(session, &req);
        assert!(
            resp[0].contains("\"queued\""),
            "{path}: run not accepted: {}",
            resp[0]
        );
        let out = core.step().expect("a queued job executes");
        lines.extend(out.lines);
    }
    lines
}

#[test]
fn warm_cache_results_are_byte_identical_to_cold_and_reference() {
    let mut core = ServeCore::new(ServeConfig {
        // Hold the full corpus so the warm pass is all hits.
        cache: spam_net::serve::CacheConfig {
            max_entries: 256,
            max_bytes: usize::MAX,
        },
        ..ServeConfig::default()
    });
    let mut session = Session::new();
    core.handle_line(&mut session, r#"{"op":"hello","client":"diff"}"#);

    let cold = run_corpus_pass(&mut core, &mut session);
    let stats_cold = core.cache_stats();
    assert!(stats_cold.misses > 0);
    assert_eq!(stats_cold.evictions, 0, "budget must hold the corpus");

    let warm = run_corpus_pass(&mut core, &mut session);
    let stats_warm = core.cache_stats();
    assert_eq!(
        stats_warm.misses, stats_cold.misses,
        "second pass must not build anything"
    );
    // Every lookup of the warm pass (one per cold-pass result line)
    // hits; corpus scenarios sharing a prefix may have hit cold too.
    assert_eq!(
        stats_warm.hits,
        stats_cold.hits + cold.len() as u64,
        "warm pass must be all hits"
    );
    // A client sees the same counters: the `stats` op reports them live.
    let stats = core.handle_line(&mut session, r#"{"op":"stats"}"#);
    let stats = parse(&stats[0]).expect("stats line is valid JSON");
    let client_sees = |k: &str| {
        let cache = stats.get("cache").expect("cache object");
        cache.get(k).and_then(|v| v.as_num()?.as_u64())
    };
    assert_eq!(client_sees("hits"), Some(stats_warm.hits));
    assert_eq!(client_sees("misses"), Some(stats_warm.misses));

    assert_eq!(cold.len(), warm.len());
    let mut reps_seen = 0u32;
    for (c, w) in cold.iter().zip(&warm) {
        let (c_name, c_rep, c_digest, _c_art) = parse_result(c);
        let (w_name, w_rep, w_digest, w_art) = parse_result(w);
        assert_eq!((&c_name, c_rep), (&w_name, w_rep));
        assert_eq!(w_art, "hit", "{w_name} rep {w_rep}");
        assert_eq!(
            c_digest, w_digest,
            "{c_name} rep {c_rep}: warm outcome diverged from cold"
        );
        reps_seen += 1;
    }
    assert!(
        reps_seen >= 14,
        "every scenario produced at least one result"
    );

    // Both passes match the classic batch path, digest for digest.
    for (path, spec) in corpus() {
        for rep in 0..spec.replications.max(1) {
            let reference = match run_once(&spec, rep, None) {
                Ok(out) => format!("{:#018x}", outcome_digest(&out)),
                Err(e) => panic!("{path} rep {rep}: reference run failed: {e}"),
            };
            let served = cold
                .iter()
                .map(|l| parse_result(l))
                .find(|(name, r, _, _)| *name == spec.name && *r == u64::from(rep))
                .unwrap_or_else(|| panic!("{path} rep {rep}: no served result"))
                .2;
            assert_eq!(
                served, reference,
                "{path} rep {rep}: served digest diverged from run_once"
            );
        }
    }
}
