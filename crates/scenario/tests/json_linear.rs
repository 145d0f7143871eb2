//! The parser is linear in its input, pinned two ways on a document
//! holding one n-byte string:
//!
//! * **Allocation count** (counting global allocator, `harness = false`
//!   so the process is single-threaded and the count exact): a string
//!   is built by appending the runs between its escapes, so its
//!   allocations are the `String` growth sequence — a handful more
//!   doublings at 1 MiB than at 1 KiB — and nothing per character or
//!   per run.
//! * **It finishes.** A parser that re-validated the remaining input at
//!   every character (`from_utf8` over the tail, as this one used to)
//!   reads ~5 × 10¹¹ bytes for the 1 MiB case; in a debug test run that
//!   is hours, so a quadratic scan cannot come back unnoticed.

use spam_scenario::json::{parse, Json};
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

fn main() {
    let _ = parse_counted(1 << 10, true); // one-time runtime set-up
    for escapes in [false, true] {
        let small = parse_counted(1 << 10, escapes);
        let large = parse_counted(1 << 20, escapes);
        // 1 KiB → 1 MiB is ten doublings of the string's buffer; the
        // key, the field list and the tree around it cost the same at
        // both sizes.
        assert!(
            large <= small + 10,
            "parse allocations grew faster than the string's doublings \
             (escapes: {escapes}): {small} at 1 KiB, {large} at 1 MiB"
        );
        println!(
            "json_linear::one_string escapes={escapes} ... ok ({small} -> {large} allocations)"
        );
    }
}
