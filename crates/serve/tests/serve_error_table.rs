//! The error table: one concrete trigger per [`ServeError`] variant,
//! exercised through the public request path. The match below is
//! exhaustive on purpose — adding a variant without extending this
//! table is a compile error, and every trigger must come back as a
//! typed JSONL error line (never a panic, never a dropped connection).

use spam_scenario::json::{parse, Json};
use spam_scenario::ScenarioSpec;
use spam_serve::{ArtifactCache, CacheConfig, ServeConfig, ServeCore, ServeError, Session};

fn spec(name: &str) -> ScenarioSpec {
    let mut s = ScenarioSpec::example(name);
    s.topology.switches = 16;
    s.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
    s
}

fn run_line(s: &ScenarioSpec) -> String {
    format!(
        r#"{{"op":"run","spec":{}}}"#,
        s.to_json().to_string_compact()
    )
}

/// Sends `line` to a greeted core and returns the typed error variant
/// from the response.
fn error_variant_of(core: &mut ServeCore, session: &mut Session, line: &str) -> String {
    let resp = core.handle_line(session, line);
    assert_eq!(resp.len(), 1, "errors are single lines: {resp:?}");
    let doc = parse(&resp[0]).expect("error lines are valid JSON");
    assert_eq!(doc.get("type").and_then(Json::as_str), Some("error"));
    assert!(
        doc.get("detail").and_then(Json::as_str).is_some(),
        "error lines carry a human-readable detail"
    );
    doc.get("error")
        .and_then(Json::as_str)
        .expect("error lines carry the variant tag")
        .to_string()
}

#[test]
fn every_variant_has_a_concrete_trigger() {
    // Exhaustiveness guard: extending ServeError forces a new row here.
    let probe = ServeError::Protocol {
        detail: String::new(),
    };
    match probe {
        ServeError::Protocol { .. }
        | ServeError::UnknownOp { .. }
        | ServeError::MissingField { .. }
        | ServeError::Spec(_)
        | ServeError::QueueFull { .. }
        | ServeError::UnknownCursor { .. }
        | ServeError::CachePoisoned { .. }
        | ServeError::Io { .. } => {}
    }

    let mut core = ServeCore::new(ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut session = Session::new();

    // Protocol: not JSON at all (plus: run before hello, below).
    assert_eq!(
        error_variant_of(&mut core, &mut session, "}{ definitely not json"),
        "Protocol"
    );
    // Protocol: JSON but not an object.
    assert_eq!(
        error_variant_of(&mut core, &mut session, "[1,2,3]"),
        "Protocol"
    );
    // Protocol: op exists but a field has the wrong type.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"hello","client":42}"#),
        "Protocol"
    );
    // Protocol: run without a hello (no client identity, no cursors).
    assert_eq!(
        error_variant_of(&mut core, &mut session, &run_line(&spec("early"))),
        "Protocol"
    );

    // MissingField: no op at all.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"client":"c1"}"#),
        "MissingField"
    );
    // UnknownOp.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"frobnicate"}"#),
        "UnknownOp"
    );

    // UnknownCursor: a fresh client cannot resume from the future.
    assert_eq!(
        error_variant_of(
            &mut core,
            &mut session,
            r#"{"op":"hello","client":"c1","resume_from":9}"#
        ),
        "UnknownCursor"
    );

    // Greet properly; the remaining rows need an identity.
    let hello = core.handle_line(&mut session, r#"{"op":"hello","client":"c1"}"#);
    assert!(hello[0].contains("\"type\":\"hello\""));

    // Spec: a structurally broken scenario document.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"run","spec":{"name":1}}"#),
        "Spec"
    );
    // Spec: decodes but fails semantic validation.
    let mut bad = spec("invalid");
    bad.topology.switches = 1;
    assert_eq!(
        error_variant_of(&mut core, &mut session, &run_line(&bad)),
        "Spec"
    );

    // QueueFull: capacity 1, second enqueue bounces — and carries the
    // typed backpressure fields.
    let ok = core.handle_line(&mut session, &run_line(&spec("fills")));
    assert!(ok[0].contains("\"queued\""));
    let resp = core.handle_line(&mut session, &run_line(&spec("bounces")));
    let doc = parse(&resp[0]).expect("valid JSON");
    assert_eq!(doc.get("error").and_then(Json::as_str), Some("QueueFull"));
    assert_eq!(doc.get("retry").and_then(Json::as_bool), Some(true));

    // UnknownCursor again, via ack: nothing produced yet, so cursor 1
    // does not exist.
    assert_eq!(
        error_variant_of(&mut core, &mut session, r#"{"op":"ack","cursor":1}"#),
        "UnknownCursor"
    );

    // CachePoisoned: a manifest whose trailing checksum was flipped.
    let mut donor = ArtifactCache::new(CacheConfig::default());
    donor.lookup(&spec("donor"), 0).expect("donor builds");
    let mut bytes = donor.manifest_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    let poisoned = ArtifactCache::from_manifest_bytes(&bytes, CacheConfig::default())
        .map(|_| ())
        .expect_err("corrupt manifest must not load");
    assert_eq!(poisoned.variant_name(), "CachePoisoned");

    // CachePoisoned: a bit flip in the body (the container checksum or
    // header validation catches it before any prefix is trusted).
    let mut bytes = donor.manifest_bytes();
    bytes[13] ^= 0x01;
    assert_eq!(
        ArtifactCache::from_manifest_bytes(&bytes, CacheConfig::default())
            .map(|_| ())
            .expect_err("tampered manifest must not load")
            .variant_name(),
        "CachePoisoned"
    );

    // CachePoisoned: a *valid* container whose stored fingerprint lies
    // about its prefix — the semantic check, past the checksum. Built
    // with the snapshot writer against the pinned manifest layout
    // (index section 0x56430001, entry sections 0x56430002).
    let prefix_json = spam_scenario::ArtifactPrefix::of(&spec("liar"), 0).canonical_json();
    let mut w = spam_snapshot::SnapWriter::new();
    w.begin();
    let patch = w.begin_section(0x5643_0001);
    w.put_len(1);
    w.end_section(patch);
    let patch = w.begin_section(0x5643_0002);
    w.put_u64(0xbad0_bad0_bad0_bad0); // not the prefix's fingerprint
    w.put_str(&prefix_json);
    w.end_section(patch);
    let lying = w.seal().to_vec();
    let err = ArtifactCache::from_manifest_bytes(&lying, CacheConfig::default())
        .map(|_| ())
        .expect_err("fingerprint/prefix mismatch must not load");
    assert_eq!(err.variant_name(), "CachePoisoned");
    assert!(err.to_string().contains("does not match"), "{err}");

    // Io: a manifest path that does not exist.
    let missing = std::path::Path::new("/nonexistent/spam-serve-manifest.snap");
    assert_eq!(
        ArtifactCache::load_manifest(missing, CacheConfig::default())
            .map(|_| ())
            .expect_err("missing manifest is an I/O error")
            .variant_name(),
        "Io"
    );
}

/// A `run` line whose spec is 20 000 or 1 000 000 opening brackets is
/// one `Protocol` error line, answered on a thread with the default
/// stack, as the daemon's reader threads are; the same core then queues a
/// valid `run`. The recursive parser this replaced overflowed that stack
/// and aborted the process.
#[test]
fn deep_nesting_is_one_protocol_error_line() {
    let mut core = ServeCore::new(ServeConfig::default());
    let mut session = Session::new();
    core.handle_line(&mut session, r#"{"op":"hello","client":"deep"}"#);
    for depth in [20_000, 1_000_000] {
        let line = format!(r#"{{"op":"run","spec":{}}}"#, "[".repeat(depth));
        let reader = std::thread::spawn(move || {
            let resp = core.handle_line(&mut session, &line);
            (core, session, resp)
        });
        let resp;
        (core, session, resp) = reader.join().expect("the reader thread returns");
        assert_eq!(resp.len(), 1, "errors are single lines: {resp:?}");
        let doc = parse(&resp[0]).expect("error lines are valid JSON");
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("Protocol"));
        let detail = doc.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(
            detail.contains("nesting deeper than 128 levels"),
            "{detail}"
        );
    }
    let ok = core.handle_line(&mut session, &run_line(&spec("after-deep")));
    assert!(ok[0].contains("\"type\":\"queued\""), "{ok:?}");
}

/// A small malformed-input corpus: nothing here may panic, and every
/// response must be a parseable error line.
#[test]
fn malformed_lines_never_panic() {
    let mut core = ServeCore::new(ServeConfig::default());
    let mut session = Session::new();
    let corpus = [
        "",
        "   ",
        "\u{0}",
        "{",
        "}",
        "null",
        "true",
        "123",
        "\"op\"",
        r#"{"op":null}"#,
        r#"{"op":7}"#,
        r#"{"op":"run","spec":null}"#,
        r#"{"op":"run","spec":[]}"#,
        r#"{"op":"hello","client":""}"#,
        r#"{"op":"hello","resume_from":-1}"#,
        r#"{"op":"ack","cursor":1.5}"#,
        r#"{"op":"ack","cursor":18446744073709551616}"#,
    ];
    for line in corpus {
        let resp = core.handle_line(&mut session, line);
        for l in &resp {
            let doc = parse(l).unwrap_or_else(|e| panic!("unparseable response to {line:?}: {e}"));
            assert!(doc.get("type").is_some(), "untyped response to {line:?}");
        }
    }
}
