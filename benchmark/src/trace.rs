//! Spans recorded from the benchmark's own code, around the calls into
//! each layer: name, start, end, the span that caused it, the request it
//! belongs to, and the allocations made inside it. Kept in memory and
//! written to `benchmark/out/trace_<workload>.json` when the run ends.
//! No crate is edited — spans inside the program are a later change.

use crate::alloc;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer boundaries the harness can see from outside, named after
/// the crate and module that does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Stage {
    /// One request on the real system (`ServeCore`, or the checkpoint +
    /// resume pair).
    #[default]
    Request,
    ServeHandleLine,
    ServeStep,
    ServeAck,
    SnapshotCheckpointedRun,
    SnapshotResume,
    /// The same request re-enacted stage by stage through public
    /// functions, since the real `step()` cannot be opened from outside.
    Replica,
    ReplicaHandleLine,
    ReplicaStep,
    ProtocolParse,
    JsonParse,
    CodecDecode,
    SpecValidate,
    Fingerprint,
    CacheHit,
    CacheMiss,
    TablesBuild,
    UpdownPrecomp,
    EpochTables,
    TrafficGenerate,
    WormsimNew,
    WormsimSubmit,
    WormsimRun,
    RunWithArtifacts,
    OutcomeDigest,
    ProtocolEncode,
    /// Work done *beside* a request to look inside one of its stages
    /// (the artifact build's parts, an uninterrupted run to compare a
    /// checkpointed one with). Never counted as request time.
    Anatomy,
    ArtifactBuild,
    LatticeGen,
    LabelingBuild,
    FaultsDegrade,
    ReconfigScenarioBuild,
    Summarize,
    RunOnce,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::ServeHandleLine => "serve.handle_line",
            Stage::ServeStep => "serve.step",
            Stage::ServeAck => "serve.ack",
            Stage::SnapshotCheckpointedRun => "snapshot.checkpointed_run",
            Stage::SnapshotResume => "snapshot.resume",
            Stage::Replica => "replica.request",
            Stage::ReplicaHandleLine => "replica.handle_line",
            Stage::ReplicaStep => "replica.step",
            Stage::ProtocolParse => "serve.protocol.parse",
            Stage::JsonParse => "scenario.json.parse",
            Stage::CodecDecode => "scenario.codec.decode",
            Stage::SpecValidate => "scenario.spec.validate",
            Stage::Fingerprint => "scenario.artifact.fingerprint",
            Stage::CacheHit => "serve.cache.hit",
            Stage::CacheMiss => "serve.cache.miss",
            Stage::TablesBuild => "core.tables_build",
            Stage::UpdownPrecomp => "baselines.updown_precomp",
            Stage::EpochTables => "reconfig.epoch_tables",
            Stage::TrafficGenerate => "traffic.generate",
            Stage::WormsimNew => "wormsim.new",
            Stage::WormsimSubmit => "wormsim.submit",
            Stage::WormsimRun => "wormsim.run",
            Stage::RunWithArtifacts => "scenario.run_with_artifacts",
            Stage::OutcomeDigest => "scenario.outcome_digest",
            Stage::ProtocolEncode => "serve.protocol.encode",
            Stage::Anatomy => "anatomy",
            Stage::ArtifactBuild => "scenario.artifact.build",
            Stage::LatticeGen => "netgraph.lattice_gen",
            Stage::LabelingBuild => "updown.labeling_build",
            Stage::FaultsDegrade => "faults.degrade",
            Stage::ReconfigScenarioBuild => "reconfig.scenario_build",
            Stage::Summarize => "scenario.summarize",
            Stage::RunOnce => "scenario.run_once",
        }
    }
}

/// What the request path reports its stages to: nothing when end-to-end
/// metrics are measured, the [`Tracer`] in the traced run.
pub trait Probe {
    /// A new request starts; spans until the next call belong to it.
    fn begin_request(&mut self, _heavy: bool) {}
    /// Runs `f` as one stage.
    fn stage<R>(&mut self, stage: Stage, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Whether the spans of `requests` more requests still fit.
    fn room_for(&self, _requests: usize) -> bool {
        true
    }
}

/// Tracing off.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline]
    fn stage<R>(&mut self, _stage: Stage, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub stage: Stage,
    /// Index of the parent span, plus one; 0 for a root.
    pub parent: u32,
    pub request: u32,
    /// Recorded with the system warm (every span of the cold workload;
    /// for the others, everything after the replica's first pass).
    pub steady: bool,
    pub heavy: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocator calls and bytes requested inside the span.
    pub allocs: u64,
    pub bytes: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Room for the spans of the traced phases; a phase stops at a pass
/// boundary rather than outgrow its share.
pub const MAX_SPANS: usize = 64 << 10;

pub struct Tracer {
    origin: Instant,
    spans: &'static mut Vec<Span>,
    len: usize,
    open: Vec<u32>,
    request: u32,
    /// Where the current request's spans start, and the most any request
    /// has recorded so far.
    request_start: usize,
    max_per_request: usize,
    heavy: bool,
    pub steady: bool,
    /// Spans the current phase may fill up to.
    pub limit: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: alloc::uncounted(|| vec![Span::default(); MAX_SPANS]),
            len: 0,
            open: Vec::with_capacity(16),
            request: 0,
            request_start: 0,
            max_per_request: 8,
            heavy: false,
            steady: true,
            limit: MAX_SPANS,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.len]
    }

    /// Index the next span will get.
    pub fn next_index(&self) -> usize {
        self.len
    }

    /// Renames a closed span — a cache lookup only turns out to have
    /// been a miss once it returns.
    pub fn restage(&mut self, index: usize, stage: Stage) {
        if index < self.len {
            self.spans[index].stage = stage;
        }
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64, calibration_scale: f64) -> String {
        let mut out = String::with_capacity(self.len * 120);
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"raw host ns since the tracer started\",\"calibration_scale\":{calibration_scale},\"spans\":["
        );
        for (i, s) in self.spans().iter().enumerate() {
            let parent = match s.parent {
                0 => "null".to_string(),
                p => (p - 1).to_string(),
            };
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"steady\":{},\"heavy\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.stage.name(),
                s.request,
                s.start_ns,
                s.end_ns,
                s.steady,
                s.heavy,
                s.allocs,
                s.bytes
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for Tracer {
    fn begin_request(&mut self, heavy: bool) {
        self.max_per_request = self.max_per_request.max(self.len - self.request_start);
        self.request_start = self.len;
        self.request += 1;
        self.heavy = heavy;
    }

    fn stage<R>(&mut self, stage: Stage, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.len == self.spans.len() {
            // `room_for` keeps phases inside the buffer; a request that
            // outgrows the estimate loses spans rather than the run.
            return f(self);
        }
        let idx = self.len;
        self.len += 1;
        self.spans[idx] = Span {
            stage,
            parent: self.open.last().map_or(0, |p| p + 1),
            request: self.request,
            steady: self.steady,
            heavy: self.heavy,
            ..Span::default()
        };
        self.open.push(idx as u32);
        let before = alloc::snapshot();
        self.spans[idx].start_ns = self.origin.elapsed().as_nanos() as u64;
        let result = f(self);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let after = alloc::snapshot();
        self.open.pop();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.allocs = after.calls - before.calls;
        span.bytes = after.bytes - before.bytes;
        result
    }

    fn room_for(&self, requests: usize) -> bool {
        let per_request = self.max_per_request.max(self.len - self.request_start);
        self.len + requests * per_request <= self.limit
    }
}
