//! Property test: mutated request lines never break the service.
//!
//! The sources are the request lines of the wire-format golden (a hello
//! whose client needs escapes, two `run`s of a spec whose name carries
//! every escape the writer knows, `stats`, two `ack`s). Each case takes
//! one and mutates it: flips a byte, truncates it, splices it onto
//! another, wraps it (or one of its values) in up to 300 brackets — past
//! the parser's nesting cap — or repeats one of its keys. The oracle, on a
//! fresh core that has greeted its client:
//!
//! * `handle_line` returns (no panic, no stack overflow) and every line
//!   it returns is a JSON object with a known `type`, and for an error a
//!   known `error` variant;
//! * a valid `run` line sent next is `queued`.
//!
//! The golden's `shutdown` line is left out: a mutant that is still a
//! shutdown (a splice can rebuild one) rightly refuses the next `run`.

use proptest::prelude::*;
use spam_scenario::json::{parse, Json};
use spam_scenario::{FaultModelSpec, FaultsSpec, ScenarioSpec, TrafficSpec};
use spam_serve::{ServeConfig, ServeCore, Session};

const NAME: &str = "we\"ird\\na\nme\t\u{1}-é✓";

const TYPES: [&str; 7] = [
    "hello", "queued", "error", "stats", "acked", "result", "shutdown",
];

const ERRORS: [&str; 8] = [
    "Protocol",
    "UnknownOp",
    "MissingField",
    "Spec",
    "QueueFull",
    "UnknownCursor",
    "CachePoisoned",
    "Io",
];

fn spec() -> ScenarioSpec {
    let mut s = ScenarioSpec::example(NAME);
    s.topology.switches = 16;
    s.topology.seed = 5;
    s.traffic = TrafficSpec::SingleMulticast { dests: 2, len: 8 };
    s.replications = 2;
    s
}

fn run_line(s: &ScenarioSpec) -> String {
    format!(
        r#"{{"op":"run","spec":{}}}"#,
        s.to_json().to_string_compact()
    )
}

/// The golden's request lines, `shutdown` aside.
fn sources() -> Vec<String> {
    let mut doomed = spec();
    doomed.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidSwitches { rate: 1.0 },
        seed: 1,
    };
    vec![
        r#"{"op":"hello","client":"c\"1\\é"}"#.to_string(),
        run_line(&spec()),
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"ack","cursor":1}"#.to_string(),
        run_line(&doomed),
        r#"{"op":"ack","cursor":9}"#.to_string(),
    ]
}

/// Members in `v`, nested ones included.
fn members(v: &Json) -> usize {
    match v {
        Json::Obj(fields) => fields.iter().map(|(_, c)| 1 + members(c)).sum(),
        Json::Arr(items) => items.iter().map(members).sum(),
        _ => 0,
    }
}

/// Repeats the `k`-th member of `v` (an object's own members counted
/// before those nested in them) at the end of its object.
fn repeat_member(v: &mut Json, k: &mut usize) -> bool {
    match v {
        Json::Obj(fields) if *k < fields.len() => {
            let member = fields[*k].clone();
            fields.push(member);
            true
        }
        Json::Obj(fields) => {
            *k -= fields.len();
            fields.iter_mut().any(|(_, c)| repeat_member(c, k))
        }
        Json::Arr(items) => items.iter_mut().any(|c| repeat_member(c, k)),
        _ => false,
    }
}

/// `line` with one of its members repeated.
fn repeat_a_key(line: &str, k: u64) -> String {
    let mut doc = parse(line).expect("the golden's request lines parse");
    let mut k = (k % members(&doc) as u64) as usize;
    repeat_member(&mut doc, &mut k);
    doc.to_string_compact()
}

/// One mutant of `line`; `other` is a splice partner, `a` and `b` pick
/// the offsets and counts.
fn mutate(kind: u8, line: &str, other: &str, a: u64, b: u64) -> String {
    let bytes = line.as_bytes();
    let at = |n: usize, r: u64| (r % (n as u64 + 1)) as usize;
    let lossy = |v: &[u8]| String::from_utf8_lossy(v).into_owned();
    match kind {
        // Flip some bits of one byte.
        0 => {
            let mut v = bytes.to_vec();
            let i = at(v.len() - 1, a);
            v[i] ^= (b % 255 + 1) as u8;
            lossy(&v)
        }
        // Truncate.
        1 => lossy(&bytes[..at(bytes.len(), a)]),
        // A prefix of this line, then a suffix of another.
        2 => {
            let mut v = bytes[..at(bytes.len(), a)].to_vec();
            v.extend_from_slice(&other.as_bytes()[at(other.len(), b)..]);
            lossy(&v)
        }
        // The whole line in brackets, balanced.
        3 => {
            let n = (b % 300 + 1) as usize;
            format!("{}{line}{}", "[".repeat(n), "]".repeat(n))
        }
        // Opening brackets after one of the line's colons.
        4 => {
            let colons: Vec<usize> = line.match_indices(':').map(|(i, _)| i + 1).collect();
            let i = colons[(a % colons.len() as u64) as usize];
            let n = (b % 300 + 1) as usize;
            format!("{}{}{}", &line[..i], "[".repeat(n), &line[i..])
        }
        // One of its members repeated.
        _ => repeat_a_key(line, a),
    }
}

/// Asserts every response line is a typed JSON object.
fn assert_typed(line: &str, resp: &[String]) {
    for l in resp {
        let doc = parse(l).unwrap_or_else(|e| panic!("untyped response {l:?} to {line:?}: {e}"));
        let ty = doc.get("type").and_then(Json::as_str);
        assert!(
            ty.is_some_and(|t| TYPES.contains(&t)),
            "response {l:?} to {line:?} has no known type"
        );
        if ty == Some("error") {
            let err = doc.get("error").and_then(Json::as_str);
            assert!(
                err.is_some_and(|e| ERRORS.contains(&e)),
                "error {l:?} to {line:?} names no known variant"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_request_lines_get_typed_answers_and_leave_the_core_serving(
        kind in 0u8..6,
        src in 0usize..6,
        partner in 0usize..6,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let lines = sources();
        let mutant = mutate(kind, &lines[src], &lines[partner], a, b);
        let mut core = ServeCore::new(ServeConfig::default());
        let mut session = Session::new();
        core.handle_line(&mut session, r#"{"op":"hello","client":"mutant"}"#);
        let resp = core.handle_line(&mut session, &mutant);
        assert_typed(&mutant, &resp);
        let next = core.handle_line(&mut session, &lines[1]);
        prop_assert!(
            next.len() == 1 && next[0].starts_with(r#"{"type":"queued""#),
            "after {mutant:?} a valid run got {next:?}"
        );
    }
}

#[test]
fn every_mutation_kind_changes_the_line() {
    let lines = sources();
    for kind in 0..6 {
        let mutant = mutate(kind, &lines[1], &lines[3], 7, 11);
        assert_ne!(mutant, lines[1], "mutation {kind} left the run line alone");
    }
    // A repeated key is a positioned parse error.
    let repeated = repeat_a_key(&lines[3], 1);
    assert_eq!(repeated, r#"{"op":"ack","cursor":1,"cursor":1}"#);
}
