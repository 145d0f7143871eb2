//! The single-threaded service state machine.
//!
//! [`ServeCore`] owns the cache, the bounded work queue, and every
//! client's cursor log. It is deliberately free of I/O and threads:
//! [`ServeCore::handle_line`] turns one request line into response
//! lines, [`ServeCore::step`] executes one queued job into cursor-stream
//! lines. The daemon wraps it in a lock; tests drive it directly, which
//! makes request-order determinism trivial to pin.
//!
//! ## Cursor semantics
//!
//! Results for a client form a single monotonic stream starting at
//! cursor 1, regardless of connections. The server retains each line
//! until the client acks past it (low watermark); `hello` with
//! `resume_from: c` replays everything after `c`. Two watermarks bound
//! the replay window: the ack trims from the front, and a per-client
//! byte budget drops the oldest unacked lines under pressure — resuming
//! below the window is a typed [`ServeError::UnknownCursor`], never a
//! silent gap.

use crate::cache::{ArtifactCache, CacheConfig};
use crate::error::ServeError;
use crate::protocol::{self, Request};
use spam_scenario::{outcome_digest, run_with_artifacts, ScenarioSpec};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use wormsim::SimOutcome;

/// Daemon-level knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bounded work-queue depth; a `run` beyond this is a typed
    /// `QueueFull` response, not a panic or an unbounded buffer.
    pub queue_capacity: usize,
    /// Artifact-cache budgets.
    pub cache: CacheConfig,
    /// Retained-backlog byte budget per client (unacked result lines
    /// kept for replay).
    pub backlog_budget: usize,
    /// Where to persist the cache manifest on shutdown (and load it
    /// from on start). `None` disables persistence.
    pub persist_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 32,
            cache: CacheConfig::default(),
            backlog_budget: 4 << 20,
            persist_path: None,
        }
    }
}

/// Per-connection state: which logical client (if any) this connection
/// has identified as via `hello`. Owned by the transport, passed into
/// [`ServeCore::handle_line`].
#[derive(Debug, Default)]
pub struct Session {
    client: Option<String>,
}

impl Session {
    /// A connection that has not said `hello` yet.
    pub fn new() -> Self {
        Session::default()
    }

    /// The logical client this connection speaks for, once greeted.
    pub fn client(&self) -> Option<&str> {
        self.client.as_deref()
    }
}

#[derive(Default)]
struct ClientLog {
    /// Cursor the next result line will take (first result is 1).
    next_cursor: u64,
    /// Retained `(cursor, line)` pairs awaiting ack.
    backlog: VecDeque<(u64, String)>,
    backlog_bytes: usize,
}

impl ClientLog {
    fn fresh() -> Self {
        ClientLog {
            next_cursor: 1,
            ..ClientLog::default()
        }
    }

    /// Oldest cursor a resume can start after (the replay window's low
    /// edge). With an empty backlog only `next_cursor - 1` is valid.
    fn oldest_retained(&self) -> u64 {
        self.backlog.front().map_or(self.next_cursor, |(c, _)| *c)
    }

    /// Takes the next cursor, has `encode` write the line that carries
    /// it, and retains a copy for replay — cursor assignment in exactly
    /// one place, before the line exists, so no line is ever patched.
    fn push(&mut self, budget: usize, encode: impl FnOnce(u64) -> String) -> String {
        let cursor = self.next_cursor;
        self.next_cursor += 1;
        let line = encode(cursor);
        // The caller's copy is cut to length; the encoder's buffer, with
        // whatever slack its size guess left, stays here until acked.
        let copy = line.clone();
        self.backlog_bytes += line.len();
        self.backlog.push_back((cursor, line));
        // Retention watermark: shed the oldest unacked lines beyond the
        // byte budget (a resume below this window gets UnknownCursor).
        while self.backlog_bytes > budget && self.backlog.len() > 1 {
            if let Some((_, l)) = self.backlog.pop_front() {
                self.backlog_bytes -= l.len();
            }
        }
        copy
    }

    fn ack(&mut self, through: u64) {
        while self.backlog.front().is_some_and(|(c, _)| *c <= through) {
            if let Some((_, l)) = self.backlog.pop_front() {
                self.backlog_bytes -= l.len();
            }
        }
    }
}

struct Job {
    client: String,
    spec: Box<ScenarioSpec>,
}

/// Lines produced by executing one job, addressed to a logical client
/// (the transport decides whether that client currently has a live
/// connection; the lines are retained for replay either way).
pub struct StepOutput {
    /// The logical client whose cursor stream grew.
    pub client: String,
    /// The new cursor-stream lines, in order.
    pub lines: Vec<String>,
}

/// The scenario-service state machine. See the module docs.
pub struct ServeCore {
    cfg: ServeConfig,
    cache: ArtifactCache,
    clients: HashMap<String, ClientLog>,
    queue: VecDeque<Job>,
    draining: bool,
}

impl ServeCore {
    /// A cold-cache core.
    pub fn new(cfg: ServeConfig) -> Self {
        let cache = ArtifactCache::new(cfg.cache);
        Self::with_cache(cfg, cache)
    }

    /// A core around an existing (e.g. manifest-loaded) cache.
    pub fn with_cache(cfg: ServeConfig, cache: ArtifactCache) -> Self {
        ServeCore {
            cfg,
            cache,
            clients: HashMap::new(),
            queue: VecDeque::new(),
            draining: false,
        }
    }

    /// The configuration this core runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Cache counters (also embedded in every result line).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// True once a `shutdown` request was accepted.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// True while queued jobs remain.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Handles one request line from a connection, returning the
    /// response lines to write on that same connection (for `hello`,
    /// the acknowledgement followed by the replayed backlog). Never
    /// panics on client input — malformed requests come back as typed
    /// error lines.
    pub fn handle_line(&mut self, session: &mut Session, line: &str) -> Vec<String> {
        match self.handle_inner(session, line) {
            Ok(lines) => lines,
            Err(e) => vec![protocol::error_line(&e)],
        }
    }

    fn handle_inner(
        &mut self,
        session: &mut Session,
        line: &str,
    ) -> Result<Vec<String>, ServeError> {
        match protocol::parse_request(line)? {
            Request::Hello {
                client,
                resume_from,
            } => {
                let log = self
                    .clients
                    .entry(client.clone())
                    .or_insert_with(ClientLog::fresh);
                let oldest = log.oldest_retained();
                let next = log.next_cursor;
                // Valid resumes: at or after the oldest retained line
                // minus one (its predecessor was acked/shed), strictly
                // before anything not yet produced.
                if resume_from + 1 < oldest || resume_from >= next {
                    return Err(ServeError::UnknownCursor {
                        requested: resume_from,
                        oldest,
                        next,
                    });
                }
                let replay: Vec<String> = log
                    .backlog
                    .iter()
                    .filter(|(c, _)| *c > resume_from)
                    .map(|(_, l)| l.clone())
                    .collect();
                let mut out = Vec::with_capacity(replay.len() + 1);
                out.push(protocol::hello_line(&client, next, replay.len()));
                out.extend(replay);
                session.client = Some(client);
                Ok(out)
            }
            Request::Run { spec } => {
                let client = session.client.clone().ok_or_else(|| ServeError::Protocol {
                    detail: "hello required before run".into(),
                })?;
                if self.draining {
                    return Err(ServeError::Protocol {
                        detail: "daemon is draining; no new work accepted".into(),
                    });
                }
                spec.validate()?;
                if self.queue.len() >= self.cfg.queue_capacity {
                    return Err(ServeError::QueueFull {
                        capacity: self.cfg.queue_capacity,
                    });
                }
                let ack = protocol::queued_line(&spec.name, spec.replications);
                self.queue.push_back(Job { client, spec });
                Ok(vec![ack])
            }
            Request::Ack { cursor } => {
                let client = session
                    .client
                    .as_deref()
                    .ok_or_else(|| ServeError::Protocol {
                        detail: "hello required before ack".into(),
                    })?;
                // The hello above created the log; a missing entry here
                // would be a state-machine bug, not client input.
                let log = self
                    .clients
                    .get_mut(client)
                    .ok_or_else(|| ServeError::Protocol {
                        detail: "client has no cursor log".into(),
                    })?;
                if cursor >= log.next_cursor {
                    return Err(ServeError::UnknownCursor {
                        requested: cursor,
                        oldest: log.oldest_retained(),
                        next: log.next_cursor,
                    });
                }
                log.ack(cursor);
                Ok(vec![protocol::acked_line(cursor, log.backlog.len())])
            }
            Request::Stats => Ok(vec![protocol::stats_line(
                &self.cache.stats(),
                self.queue.len(),
                self.cfg.queue_capacity,
                self.clients.len(),
                self.draining,
            )]),
            Request::Shutdown => {
                self.draining = true;
                Ok(vec![protocol::shutdown_line(self.queue.len())])
            }
        }
    }

    /// Executes the oldest queued job: one cache lookup + simulation per
    /// replication, each appended to the owning client's cursor stream.
    /// A deterministic per-replication failure (e.g. the sampled faults
    /// leave no surviving component) becomes a cursored error line and
    /// ends the job. Returns `None` when the queue is empty.
    pub fn step(&mut self) -> Option<StepOutput> {
        let job = self.queue.pop_front()?;
        let mut lines = Vec::new();
        let reps = job.spec.replications.max(1);
        for rep in 0..reps {
            match self.run_rep(&job.spec, rep) {
                Ok((out, artifact_hit)) => {
                    let meta = protocol::ResultMeta {
                        scenario: &job.spec.name,
                        rep,
                        reps: job.spec.replications,
                        artifact_hit,
                        digest: outcome_digest(&out),
                    };
                    let cache = self.cache.stats();
                    lines.push(self.push_to(&job.client, |cursor| {
                        protocol::result_line(cursor, &meta, &out, &cache)
                    }));
                }
                Err(e) => {
                    // Spec faults surface their precise variant (e.g.
                    // NoSurvivingComponent); server-side faults (cache
                    // poisoning) keep the ServeError variant.
                    let (variant, detail) = match &e {
                        ServeError::Spec(se) => (se.variant_name(), se.to_string()),
                        other => (other.variant_name(), other.to_string()),
                    };
                    lines.push(self.push_to(&job.client, |cursor| {
                        protocol::cursored_error_line(cursor, &job.spec.name, rep, variant, &detail)
                    }));
                    break;
                }
            }
        }
        Some(StepOutput {
            client: job.client,
            lines,
        })
    }

    /// One replication: the cached (or freshly built) environment, then
    /// the simulation. Also says whether the environment was a cache hit.
    fn run_rep(&mut self, spec: &ScenarioSpec, rep: u32) -> Result<(SimOutcome, bool), ServeError> {
        let (arts, hit) = self.cache.lookup(spec, rep)?;
        Ok((run_with_artifacts(spec, rep, None, &arts)?, hit))
    }

    /// Appends the line `encode` writes for `client`'s next cursor to
    /// that client's stream and returns it.
    fn push_to(&mut self, client: &str, encode: impl FnOnce(u64) -> String) -> String {
        let budget = self.cfg.backlog_budget;
        // A job's client said `hello`, which created its log, so the
        // lookup borrows the name; only a miss pays for an owned key.
        let log = match self.clients.get_mut(client) {
            Some(log) => log,
            None => self
                .clients
                .entry(client.to_string())
                .or_insert_with(ClientLog::fresh),
        };
        log.push(budget, encode)
    }

    /// Persists the cache manifest if a persist path is configured.
    pub fn persist(&self) -> Result<(), ServeError> {
        if let Some(path) = &self.cfg.persist_path {
            self.cache.save_manifest(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spam_scenario::json::{parse, Json};

    fn run_line(spec: &ScenarioSpec) -> String {
        format!(
            r#"{{"op":"run","spec":{}}}"#,
            spec.to_json().to_string_compact()
        )
    }

    fn small_spec(name: &str, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::example(name);
        spec.topology.switches = 16;
        spec.topology.seed = seed;
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast { dests: 4, len: 64 };
        spec.replications = 2;
        spec
    }

    #[test]
    fn full_request_cycle_streams_cursored_results() {
        let mut core = ServeCore::new(ServeConfig::default());
        let mut sess = Session::new();
        let hello = core.handle_line(&mut sess, r#"{"op":"hello","client":"c1"}"#);
        assert_eq!(hello.len(), 1);
        assert_eq!(sess.client(), Some("c1"));

        let spec = small_spec("cycle", 5);
        let queued = core.handle_line(&mut sess, &run_line(&spec));
        assert!(queued[0].contains("\"queued\""));
        assert!(core.has_work());

        let out = core.step().unwrap();
        assert_eq!(out.client, "c1");
        assert_eq!(out.lines.len(), 2);
        for (i, l) in out.lines.iter().enumerate() {
            let doc = parse(l).unwrap();
            assert_eq!(doc.get("type").and_then(Json::as_str), Some("result"));
            let cursor = doc.get("cursor").and_then(|v| v.as_num()?.as_u64());
            assert_eq!(cursor, Some(i as u64 + 1));
        }
        // Rep 0 misses, rep 1 misses too (its own prefix fingerprint
        // differs by rep) — resubmit hits both.
        core.handle_line(&mut sess, &run_line(&spec));
        let warm = core.step().unwrap();
        for l in &warm.lines {
            assert!(l.contains("\"artifact\":\"hit\""), "{l}");
        }
        let st = core.cache_stats();
        assert_eq!((st.hits, st.misses), (2, 2));
    }

    #[test]
    fn resume_replays_exactly_the_unacked_suffix() {
        let mut core = ServeCore::new(ServeConfig::default());
        let mut sess = Session::new();
        core.handle_line(&mut sess, r#"{"op":"hello","client":"c1"}"#);
        core.handle_line(&mut sess, &run_line(&small_spec("resume", 5)));
        let first = core.step().unwrap();
        assert_eq!(first.lines.len(), 2);

        // Reconnect having durably seen cursor 1.
        let mut sess2 = Session::new();
        let replay = core.handle_line(
            &mut sess2,
            r#"{"op":"hello","client":"c1","resume_from":1}"#,
        );
        assert_eq!(replay.len(), 2, "hello + one replayed line");
        assert_eq!(replay[1], first.lines[1]);

        // Ack everything; a fresh resume from 2 replays nothing.
        let acked = core.handle_line(&mut sess2, r#"{"op":"ack","cursor":2}"#);
        assert!(acked[0].contains("\"retained\":0"));
        let replay = core.handle_line(
            &mut sess2,
            r#"{"op":"hello","client":"c1","resume_from":2}"#,
        );
        assert_eq!(replay.len(), 1);
        // ...but resuming below the acked watermark is typed.
        let err = core.handle_line(
            &mut sess2,
            r#"{"op":"hello","client":"c1","resume_from":0}"#,
        );
        assert!(err[0].contains("UnknownCursor"), "{}", err[0]);
    }

    #[test]
    fn queue_full_is_backpressure_without_a_cursor() {
        let mut core = ServeCore::new(ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        let mut sess = Session::new();
        core.handle_line(&mut sess, r#"{"op":"hello","client":"c1"}"#);
        let spec = small_spec("qf", 5);
        assert!(core.handle_line(&mut sess, &run_line(&spec))[0].contains("queued"));
        let rejected = core.handle_line(&mut sess, &run_line(&spec));
        assert!(rejected[0].contains("QueueFull"), "{}", rejected[0]);
        // Drain one job; the retry is accepted.
        core.step().unwrap();
        assert!(core.handle_line(&mut sess, &run_line(&spec))[0].contains("queued"));
    }

    /// `engine.*_buffer_flits` has no upper bound in `validate`, and needs
    /// none: a depth is the limit a queue length is compared against,
    /// never a capacity the engine reserves. Pinned through the request
    /// path because the value is client input — a layout that sized
    /// anything by it would turn this line into a capacity-overflow panic
    /// or a giant allocation.
    #[test]
    fn unbounded_buffer_depths_are_a_limit_not_a_reservation() {
        let mut spec = small_spec("deep", 5);
        spec.traffic = spam_scenario::TrafficSpec::SingleMulticast {
            dests: 4,
            len: 4096,
        };
        spec.replications = 1;
        spec.engine.input_buffer_flits = usize::MAX;
        spec.engine.output_buffer_flits = usize::MAX;
        spec.validate().expect("no upper bound on buffer depth");
        let out = spam_scenario::run_once(&spec, 0, None).expect("constructs and runs");
        assert!(
            out.all_accounted() && out.all_delivered(),
            "{:?}",
            out.error
        );

        let mut core = ServeCore::new(ServeConfig::default());
        let mut sess = Session::new();
        core.handle_line(&mut sess, r#"{"op":"hello","client":"c1"}"#);
        let queued = core.handle_line(&mut sess, &run_line(&spec));
        assert!(queued[0].contains("\"queued\""), "{}", queued[0]);
        let lines = core.step().unwrap().lines;
        let doc = parse(&lines[0]).unwrap();
        assert_eq!(doc.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(doc.get("quiescent").and_then(Json::as_bool), Some(true));
        let n = |k: &str| doc.get(k).and_then(|v| v.as_num()?.as_u64());
        assert_eq!((n("messages"), n("delivered")), (Some(1), Some(1)));
    }

    #[test]
    fn run_before_hello_and_drain_refusal_are_typed() {
        let mut core = ServeCore::new(ServeConfig::default());
        let mut sess = Session::new();
        let spec = small_spec("nohello", 5);
        let err = core.handle_line(&mut sess, &run_line(&spec));
        assert!(err[0].contains("\"Protocol\""), "{}", err[0]);
        core.handle_line(&mut sess, r#"{"op":"hello","client":"c1"}"#);
        core.handle_line(&mut sess, r#"{"op":"shutdown"}"#);
        assert!(core.draining());
        let err = core.handle_line(&mut sess, &run_line(&spec));
        assert!(err[0].contains("draining"), "{}", err[0]);
    }
}
