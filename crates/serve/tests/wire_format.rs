//! Golden wire format: the exact bytes of one line of every response
//! type, through the public request path.
//!
//! The cursor-replay and cold/warm differential suites compare the
//! service against *itself*, so an encoder change that shifts every line
//! the same way passes them. These literals were captured from the
//! tree-building encoder (`Json::Obj` → `to_string_compact`) that
//! preceded the field-by-field writer; names carrying `"`, `\`, a
//! newline, a tab, a raw control character and non-ASCII text pin the
//! escaper on keys-free string positions. The two cache `bytes` counters
//! are whatever `ScenarioArtifacts::approx_bytes` charges a 16-switch
//! entry, and are recaptured when that charge changes (the labeling no
//! longer keeping extended-ancestor rows of preorder runs: 16 344 →
//! 15 992 and 32 856 → 32 104, rule 2 reading the routing tables' rows
//! instead; last, the routing tables no longer keeping a copy of the
//! alive mask: 15 992 → 15 920 and 32 104 → 31 956).

use spam_scenario::{FaultModelSpec, FaultsSpec, ScenarioSpec, TrafficSpec};
use spam_serve::{ServeConfig, ServeCore, Session};

const NAME: &str = "we\"ird\\na\nme\t\u{1}-é✓";

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

fn one(mut lines: Vec<String>) -> String {
    assert_eq!(lines.len(), 1, "{lines:?}");
    lines.remove(0)
}

#[test]
fn every_response_line_is_byte_identical_to_the_pinned_encoding() {
    let mut core = ServeCore::new(ServeConfig {
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut sess = Session::new();
    let mut got = vec![one(
        core.handle_line(&mut sess, r#"{"op":"hello","client":"c\"1\\é"}"#)
    )];
    got.push(one(core.handle_line(&mut sess, &run_line(&spec()))));
    // Queue capacity 1: the second enqueue is typed backpressure.
    got.push(one(core.handle_line(&mut sess, &run_line(&spec()))));
    got.push(one(core.handle_line(&mut sess, r#"{"op":"stats"}"#)));
    got.extend(core.step().expect("one job queued").lines);
    got.push(one(
        core.handle_line(&mut sess, r#"{"op":"ack","cursor":1}"#)
    ));
    // Every switch dies up front: a deterministic per-replication
    // failure, streamed as a cursored error line.
    let mut doomed = spec();
    doomed.faults = FaultsSpec::Static {
        model: FaultModelSpec::IidSwitches { rate: 1.0 },
        seed: 1,
    };
    core.handle_line(&mut sess, &run_line(&doomed));
    got.extend(core.step().expect("one job queued").lines);
    got.push(one(
        core.handle_line(&mut sess, r#"{"op":"ack","cursor":9}"#)
    ));
    got.push(one(core.handle_line(&mut sess, r#"{"op":"shutdown"}"#)));

    let want = [
        r#"{"type":"hello","client":"c\"1\\é","next_cursor":1,"replayed":0}"#,
        r#"{"type":"queued","scenario":"we\"ird\\na\nme\t\u0001-é✓","reps":2}"#,
        r#"{"type":"error","error":"QueueFull","detail":"work queue full (1 pending); retry after results drain","capacity":1,"retry":true}"#,
        r#"{"type":"stats","queue_depth":1,"queue_capacity":1,"clients":1,"draining":false,"cache":{"hits":0,"misses":0,"evictions":0,"entries":0,"bytes":0}}"#,
        r#"{"type":"result","cursor":1,"scenario":"we\"ird\\na\nme\t\u0001-é✓","rep":0,"reps":2,"artifact":"miss","digest":"0x9f5b331e8459be3c","end_time_ns":10780,"quiescent":true,"messages":1,"delivered":1,"torn_down":0,"unreachable":0,"events":155,"cache":{"hits":0,"misses":1,"evictions":0,"entries":1,"bytes":15920}}"#,
        r#"{"type":"result","cursor":2,"scenario":"we\"ird\\na\nme\t\u0001-é✓","rep":1,"reps":2,"artifact":"miss","digest":"0xfa957900e3efba3a","end_time_ns":10480,"quiescent":true,"messages":1,"delivered":1,"torn_down":0,"unreachable":0,"events":97,"cache":{"hits":0,"misses":2,"evictions":0,"entries":2,"bytes":31956}}"#,
        r#"{"type":"acked","cursor":1,"retained":1}"#,
        r#"{"type":"error","cursor":3,"scenario":"we\"ird\\na\nme\t\u0001-é✓","rep":0,"error":"NoSurvivingComponent","detail":"no surviving component can host the workload"}"#,
        r#"{"type":"error","error":"UnknownCursor","detail":"cursor 9 outside retained window [2, 4)","requested":9,"oldest":2,"next":4}"#,
        r#"{"type":"shutdown","pending":0}"#,
    ];
    assert_eq!(got, want);
}
