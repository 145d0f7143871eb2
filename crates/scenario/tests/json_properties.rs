//! Property test: every document the writer can print parses back to
//! itself, through both printers — over strings that exercise each path
//! of the run-copying parser and the run-copying escaper (multi-byte
//! UTF-8 next to escapes, raw control characters, empty strings), and
//! `\uXXXX` escapes, which only the parser knows.

use proptest::prelude::*;
use spam_scenario::json::{parse, Json, Num};

/// Fragments a generated string is assembled from: the five characters
/// the writer escapes by name, control characters it escapes as
/// `\u00XX`, DEL (verbatim), 2-, 3- and 4-byte scalars, a solidus (which
/// only the parser may see escaped), and plain runs of both kinds.
const FRAGMENTS: [&str; 16] = [
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{0}",
    "\u{1f}",
    "\u{7f}",
    "é",
    "✓",
    "𝄞",
    "/",
    "u0041",
    "plain",
    " a longer run of ordinary text ",
    "naïve café ☕",
];

fn string(draws: &mut impl Iterator<Item = u32>) -> String {
    let pieces = draws.next().unwrap_or(0) % 6; // 0 = the empty string
    (0..pieces)
        .map(|_| FRAGMENTS[draws.next().unwrap_or(0) as usize % FRAGMENTS.len()])
        .collect()
}

fn document(draws: &mut impl Iterator<Item = u32>, depth: u32) -> Json {
    let d = draws.next().unwrap_or(0);
    match d % if depth == 0 { 6 } else { 8 } {
        0 => Json::Null,
        1 => Json::Bool(d & 8 != 0),
        2 => Json::Num(Num::U(u64::from(d) << (d % 33))),
        3 => Json::Num(Num::I(-1 - i64::from(d))),
        4 => Json::Num(Num::F(f64::from(d) / 7.0 - 1e5)),
        5 => Json::Str(string(draws).into()),
        6 => Json::Arr((0..d / 8 % 4).map(|_| document(draws, depth - 1)).collect()),
        _ => Json::Obj(
            (0..d / 8 % 4)
                // The parser rejects duplicate keys; the index keeps
                // generated ones distinct.
                .map(|i| {
                    (
                        format!("{i}{}", string(draws)).into(),
                        document(draws, depth - 1),
                    )
                })
                .collect(),
        ),
    }
}

/// `s` as a JSON string literal with *every* character `\uXXXX`-escaped
/// (surrogate pairs are not part of this parser's grammar, so only
/// scalars inside the basic plane qualify).
fn fully_escaped(s: &str) -> Option<String> {
    s.chars()
        .map(|c| ((c as u32) < 0x1_0000).then(|| format!("\\u{:04x}", c as u32)))
        .collect::<Option<String>>()
        .map(|body| format!("\"{body}\""))
}

proptest! {
    #[test]
    fn printed_documents_parse_back_to_themselves(
        draws in prop::collection::vec(any::<u32>(), 1..200),
    ) {
        let doc = document(&mut draws.iter().copied(), 3);
        prop_assert_eq!(&parse(&doc.to_string_compact()).unwrap(), &doc);
        prop_assert_eq!(&parse(&doc.to_string_pretty()).unwrap(), &doc);
        prop_assert!(!doc.to_string_compact().contains('\n'), "JSONL framing");
    }

    #[test]
    fn unicode_escapes_decode_to_the_scalars_they_name(
        draws in prop::collection::vec(any::<u32>(), 1..40),
    ) {
        let s = string(&mut draws.iter().copied());
        if let Some(text) = fully_escaped(&s) {
            prop_assert_eq!(parse(&text).unwrap(), Json::Str(s.clone().into()));
            // Mixed: an escaped copy between two verbatim runs.
            let mixed = format!("\"é{}✓\"", &text[1..text.len() - 1]);
            prop_assert_eq!(parse(&mixed).unwrap(), Json::Str(format!("é{s}✓").into()));
        }
    }
}
