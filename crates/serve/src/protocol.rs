//! The JSONL wire protocol.
//!
//! One JSON object per line in each direction. Requests carry an `op`
//! tag (`hello`, `run`, `ack`, `stats`, `shutdown`); responses carry a
//! `type` tag. Result and run-error lines are the *cursor stream*: they
//! carry a per-client monotonic cursor and are retained server-side for
//! replay until acked, so they contain only deterministic fields (no
//! wall-clock timing — latency is the client's to measure) and an
//! interrupted-then-resumed stream concatenates byte-identically to an
//! uninterrupted one. Everything else (`queued`, `acked`, `stats`,
//! immediate errors) is transient connection chatter and is never
//! replayed.

use crate::cache::CacheStats;
use crate::error::ServeError;
use spam_scenario::json::{parse, write_object, Json, ObjWriter, Text};
use spam_scenario::ScenarioSpec;
use wormsim::SimOutcome;

/// A decoded client request.
#[derive(Debug)]
pub enum Request {
    /// Attach (or re-attach) as `client`, replaying retained results
    /// after cursor `resume_from` (0 = from the beginning).
    Hello {
        /// Logical client identity — cursor state is keyed on this, not
        /// on the connection.
        client: String,
        /// Last cursor the client acknowledges having durably received.
        resume_from: u64,
    },
    /// Enqueue a scenario; each replication streams one result line.
    Run {
        /// The decoded scenario document.
        spec: Box<ScenarioSpec>,
    },
    /// Trim the retained backlog through `cursor`.
    Ack {
        /// Highest cursor the client has durably received.
        cursor: u64,
    },
    /// Report queue/cache/client occupancy.
    Stats,
    /// Drain the queue, persist the cache manifest, and exit.
    Shutdown,
}

fn obj_fields<'a>(v: &'a Json, what: &str) -> Result<&'a [(Text, Json)], ServeError> {
    match v {
        Json::Obj(fields) => Ok(fields),
        _ => Err(ServeError::Protocol {
            detail: format!("{what} must be a JSON object"),
        }),
    }
}

fn str_field(v: &Json, what: &str) -> Result<String, ServeError> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| ServeError::Protocol {
            detail: format!("{what} must be a string"),
        })
}

fn u64_field(v: &Json, what: &str) -> Result<u64, ServeError> {
    v.as_num()
        .and_then(|n| n.as_u64())
        .ok_or_else(|| ServeError::Protocol {
            detail: format!("{what} must be a non-negative integer"),
        })
}

/// Parses one request line. Every malformed shape is a typed error —
/// this function cannot panic on any input (fuzzed by the error-table
/// suite).
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let doc = parse(line).map_err(|e| ServeError::Protocol {
        detail: format!("bad JSONL: {e}"),
    })?;
    let fields = obj_fields(&doc, "request")?;
    let op = fields
        .iter()
        .find(|(k, _)| k == "op")
        .map(|(_, v)| v)
        .ok_or(ServeError::MissingField { field: "op" })?;
    let op = op.as_str().ok_or_else(|| ServeError::Protocol {
        detail: "op must be a string".into(),
    })?;
    match op {
        "hello" => {
            let client = doc
                .get("client")
                .ok_or(ServeError::MissingField {
                    field: "hello.client",
                })
                .and_then(|v| str_field(v, "hello.client"))?;
            let resume_from = match doc.get("resume_from") {
                Some(v) => u64_field(v, "hello.resume_from")?,
                None => 0,
            };
            Ok(Request::Hello {
                client,
                resume_from,
            })
        }
        "run" => {
            let spec = doc
                .get("spec")
                .ok_or(ServeError::MissingField { field: "run.spec" })?;
            let spec = ScenarioSpec::from_value(spec)?;
            Ok(Request::Run {
                spec: Box::new(spec),
            })
        }
        "ack" => {
            let cursor = doc
                .get("cursor")
                .ok_or(ServeError::MissingField {
                    field: "ack.cursor",
                })
                .and_then(|v| u64_field(v, "ack.cursor"))?;
            Ok(Request::Ack { cursor })
        }
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ServeError::UnknownOp {
            got: other.to_string(),
        }),
    }
}

/// One response line: a compact object written field by field into a
/// `String` reserved at `capacity` bytes (a guess at the finished
/// length, so a typical line is one allocation).
fn line(capacity: usize, fill: impl FnOnce(&mut ObjWriter<'_>)) -> String {
    let mut out = String::with_capacity(capacity);
    write_object(&mut out, fill);
    out
}

fn cache_fields(w: &mut ObjWriter<'_>, st: &CacheStats) {
    w.u64("hits", st.hits)
        .u64("misses", st.misses)
        .u64("evictions", st.evictions)
        .u64("entries", st.entries as u64)
        .u64("bytes", st.bytes as u64);
}

/// The `hello` acknowledgement. `replayed` lines follow immediately on
/// the same connection.
pub fn hello_line(client: &str, next_cursor: u64, replayed: usize) -> String {
    line(64 + client.len(), |w| {
        w.str("type", "hello")
            .str("client", client)
            .u64("next_cursor", next_cursor)
            .u64("replayed", replayed as u64);
    })
}

/// Transient acceptance of a `run` request (not part of the cursor
/// stream — a reconnect re-learns progress from result lines).
pub fn queued_line(scenario: &str, reps: u32) -> String {
    line(48 + scenario.len(), |w| {
        w.str("type", "queued")
            .str("scenario", scenario)
            .u64("reps", reps as u64);
    })
}

/// Transient acknowledgement of an `ack` (backlog trimmed through
/// `cursor`).
pub fn acked_line(cursor: u64, retained: usize) -> String {
    line(64, |w| {
        w.str("type", "acked")
            .u64("cursor", cursor)
            .u64("retained", retained as u64);
    })
}

/// Identity of one completed replication: which scenario, which rep,
/// whether its environment came from the artifact cache, and its
/// [`spam_scenario::outcome_digest`].
#[derive(Debug, Clone)]
pub struct ResultMeta<'a> {
    /// Scenario name from the spec.
    pub scenario: &'a str,
    /// Zero-based replication index.
    pub rep: u32,
    /// Total replications in the request.
    pub reps: u32,
    /// Whether the environment was served from the artifact cache.
    pub artifact_hit: bool,
    /// The outcome digest for this replication.
    pub digest: u64,
}

/// One completed replication on the cursor stream. Only deterministic
/// fields: the digest is [`spam_scenario::outcome_digest`], `artifact`
/// says whether the environment came from the cache, and the embedded
/// counters snapshot the cache as of this result.
pub fn result_line(cursor: u64, meta: &ResultMeta, out: &SimOutcome, cache: &CacheStats) -> String {
    line(448 + meta.scenario.len(), |w| {
        w.str("type", "result")
            .u64("cursor", cursor)
            .str("scenario", meta.scenario)
            .u64("rep", meta.rep as u64)
            .u64("reps", meta.reps as u64)
            .str("artifact", if meta.artifact_hit { "hit" } else { "miss" })
            .display("digest", format_args!("{:#018x}", meta.digest))
            .u64("end_time_ns", out.end_time.as_ns())
            .bool("quiescent", out.quiescent)
            .u64("messages", out.messages.len() as u64)
            .u64("delivered", out.counters.messages_completed)
            .u64("torn_down", out.counters.messages_torn_down)
            .u64("unreachable", out.counters.messages_unreachable)
            .u64("events", out.counters.events)
            .obj("cache", |w| cache_fields(w, cache));
    })
}

/// A per-replication failure on the cursor stream (e.g. the sampled
/// fault pattern left no surviving component — a deterministic property
/// of the spec). Cursored — a resumed client sees it again, exactly
/// like a result. `variant` is `SpecError::variant_name` for spec
/// faults or [`ServeError::variant_name`] for server-side ones.
pub fn cursored_error_line(
    cursor: u64,
    scenario: &str,
    rep: u32,
    variant: &str,
    detail: &str,
) -> String {
    line(128 + scenario.len() + detail.len(), |w| {
        w.str("type", "error")
            .u64("cursor", cursor)
            .str("scenario", scenario)
            .u64("rep", rep as u64)
            .str("error", variant)
            .str("detail", detail);
    })
}

/// An immediate (uncursored) error response to the offending request.
/// Variant-specific fields ride along so clients can react in a typed
/// way: `QueueFull` carries the capacity, `UnknownCursor` the retained
/// window.
pub fn error_line(err: &ServeError) -> String {
    line(192, |w| {
        w.str("type", "error")
            .str("error", err.variant_name())
            .display("detail", err);
        match err {
            ServeError::QueueFull { capacity } => {
                w.u64("capacity", *capacity as u64).bool("retry", true);
            }
            ServeError::UnknownCursor {
                requested,
                oldest,
                next,
            } => {
                w.u64("requested", *requested)
                    .u64("oldest", *oldest)
                    .u64("next", *next);
            }
            _ => {}
        }
    })
}

/// Occupancy report.
pub fn stats_line(
    cache: &CacheStats,
    queue_depth: usize,
    queue_capacity: usize,
    clients: usize,
    draining: bool,
) -> String {
    line(192, |w| {
        w.str("type", "stats")
            .u64("queue_depth", queue_depth as u64)
            .u64("queue_capacity", queue_capacity as u64)
            .u64("clients", clients as u64)
            .bool("draining", draining)
            .obj("cache", |w| cache_fields(w, cache));
    })
}

/// Acknowledges `shutdown`: `pending` jobs will still drain onto the
/// cursor stream before the daemon exits.
pub fn shutdown_line(pending: usize) -> String {
    line(48, |w| {
        w.str("type", "shutdown").u64("pending", pending as u64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_misparse_typed() {
        assert!(matches!(
            parse_request(r#"{"op":"hello","client":"c1","resume_from":4}"#),
            Ok(Request::Hello { ref client, resume_from: 4 }) if client == "c1"
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        let cases = [
            ("not json at all", "Protocol"),
            ("[1,2,3]", "Protocol"),
            (r#"{"client":"x"}"#, "MissingField"),
            (r#"{"op":"hello"}"#, "MissingField"),
            (r#"{"op":"hello","client":7}"#, "Protocol"),
            (r#"{"op":"frobnicate"}"#, "UnknownOp"),
            (r#"{"op":"run"}"#, "MissingField"),
            (r#"{"op":"run","spec":{"name":"x"}}"#, "Spec"),
            (r#"{"op":"ack"}"#, "MissingField"),
            (r#"{"op":"ack","cursor":-3}"#, "Protocol"),
        ];
        for (line, variant) in cases {
            let err = parse_request(line).map(|_| ()).unwrap_err();
            assert_eq!(err.variant_name(), variant, "line: {line}");
        }
    }

    #[test]
    fn lines_are_single_line_json() {
        let lines = [
            hello_line("c", 5, 2),
            queued_line("sc", 3),
            acked_line(4, 1),
            error_line(&ServeError::QueueFull { capacity: 8 }),
            stats_line(&CacheStats::default(), 0, 8, 1, false),
            shutdown_line(0),
        ];
        for l in lines {
            assert!(!l.contains('\n'), "JSONL framing: {l}");
            let doc = parse(&l).unwrap();
            assert!(doc.get("type").is_some());
        }
    }

    #[test]
    fn queue_full_line_carries_typed_backpressure() {
        let l = error_line(&ServeError::QueueFull { capacity: 2 });
        let doc = parse(&l).unwrap();
        assert_eq!(doc.get("error").and_then(Json::as_str), Some("QueueFull"));
        assert_eq!(doc.get("retry").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("capacity").and_then(|v| v.as_num()?.as_u64()),
            Some(2)
        );
    }
}
