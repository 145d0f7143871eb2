//! The parser is linear in its input and allocates per container, pinned
//! with a counting global allocator (`harness = false`, so the process is
//! single-threaded and the count exact):
//!
//! * **One string.** A string is built by appending the runs between its
//!   escapes into a buffer sized once from the string's raw span, so it
//!   parses in as many allocations at 1 MiB as at 1 KiB, and nothing per
//!   character or per run (it took ten more, 19 against 9, while the
//!   buffer grew by doubling). A parser that re-validated the
//!   remaining input at every character (`from_utf8` over the tail, as
//!   this one once did) reads ~5 × 10¹¹ bytes for the 1 MiB case; in a
//!   debug test run that is hours, so a quadratic scan cannot come back
//!   unnoticed.
//! * **A request line.** A compact `run` line holding 8 objects parses
//!   in at most 9 allocations: one per object and one for the parser's
//!   member stack. Its keys and strings are all 23 bytes or shorter and
//!   live inline. It took 47 while every key and string was a `String`
//!   and every object's field list grew by doubling.
//! * **Many keys.** An object of 100 000 distinct keys parses in a debug
//!   test run, and the same object with its first key repeated last is
//!   rejected just past that member. Comparing each key with every
//!   earlier one took 2.9 s in release at 40 000 keys, and 5.5× more for
//!   each doubling.

use spam_scenario::json::{parse, Json};
use spam_scenario::{PolicySpec, RoutingSpec, ScenarioSpec, TrafficSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pass-through to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `{"k":"<n bytes>"}` and the string it decodes to: 64-byte pieces of
/// mixed-width text, each ending — with `escapes` — in a `\n` escape, so
/// the string is built from n / 64 runs.
fn document(n: usize, escapes: bool) -> (String, String) {
    let mut piece = String::from("naïve café ✓ ");
    while piece.len() < 62 {
        piece.push(char::from(b'a' + (piece.len() % 26) as u8));
    }
    let (tail, decoded_tail) = if escapes { ("\\n", "\n") } else { ("..", "..") };
    let body = format!("{piece}{tail}").repeat(n / 64);
    assert_eq!(body.len(), n);
    let want = format!("{piece}{decoded_tail}").repeat(n / 64);
    (format!("{{\"k\":\"{body}\"}}"), want)
}

fn parse_counted(n: usize, escapes: bool) -> u64 {
    let (text, want) = document(n, escapes);
    let before = ALLOCS.load(Ordering::Relaxed);
    let doc = parse(&text);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let doc = doc.expect("well-formed");
    assert_eq!(doc.get("k").and_then(Json::as_str), Some(want.as_str()));
    allocs
}

/// Objects in `doc`, and whether every key and string is 23 bytes or
/// shorter.
fn objects_and_short_text(doc: &Json) -> (usize, bool) {
    match doc {
        Json::Str(s) => (0, s.len() <= 23),
        Json::Arr(items) => items
            .iter()
            .map(objects_and_short_text)
            .fold((0, true), |a, b| (a.0 + b.0, a.1 && b.1)),
        Json::Obj(fields) => fields.iter().fold((1, true), |a, (k, v)| {
            let b = objects_and_short_text(v);
            (a.0 + b.0, a.1 && b.1 && k.len() <= 23)
        }),
        _ => (0, true),
    }
}

fn a_request_line_allocates_per_object() {
    let mut spec = ScenarioSpec::example("pin");
    spec.description = String::new();
    spec.routing = RoutingSpec::Spam {
        policy: PolicySpec::MinResidualDistance,
    };
    spec.traffic = TrafficSpec::SingleMulticast { dests: 2, len: 8 };
    let line = format!(
        r#"{{"op":"run","spec":{}}}"#,
        spec.to_json().to_string_compact()
    );
    let before = ALLOCS.load(Ordering::Relaxed);
    let doc = parse(&line);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let doc = doc.expect("well-formed");
    let (objects, short) = objects_and_short_text(&doc);
    assert_eq!(objects, 8, "{line}");
    assert!(short, "a key or string of {line} is longer than 23 bytes");
    assert!(
        allocs <= objects as u64 + 1,
        "a run line of {objects} objects took {allocs} allocations to parse"
    );
    println!("json_linear::request_line ... ok ({allocs} allocations, {objects} objects)");
}

fn many_keys_parse_and_a_repeat_is_found() {
    const KEYS: usize = 100_000;
    let members: Vec<String> = (0..KEYS).map(|i| format!("\"k{i}\":{i}")).collect();
    let text = format!("{{{}}}", members.join(","));
    let doc = parse(&text).expect("distinct keys");
    assert_eq!(
        doc.get("k99999")
            .and_then(Json::as_num)
            .and_then(|n| n.as_u64()),
        Some(99_999)
    );
    let repeated = format!("{},\"k0\":0}}", &text[..text.len() - 1]);
    let e = parse(&repeated).expect_err("k0 is repeated");
    assert_eq!(e.msg, "duplicate key \"k0\"");
    // Just past the repeated member's value: the closing brace.
    assert_eq!((e.line, e.col), (1, repeated.len()));
    println!("json_linear::many_keys ... ok ({KEYS} keys)");
}

fn main() {
    let _ = parse_counted(1 << 10, true); // one-time runtime set-up
    a_request_line_allocates_per_object();
    many_keys_parse_and_a_repeat_is_found();
    for escapes in [false, true] {
        let small = parse_counted(1 << 10, escapes);
        let large = parse_counted(1 << 20, escapes);
        // The string's buffer is sized once from its raw span, and the
        // key, the field list and the tree around it cost the same at
        // both sizes.
        assert_eq!(
            large, small,
            "parse allocations grew with the string (escapes: {escapes}): \
             {small} at 1 KiB, {large} at 1 MiB"
        );
        println!(
            "json_linear::one_string escapes={escapes} ... ok ({small} -> {large} allocations)"
        );
    }
}
