//! The traced run: per-layer metrics from spans.
//!
//! End-to-end metrics are measured with tracing off (`run::end_to_end`).
//! This run spends a third of `--seconds` untraced (the yardstick for
//! `trace.overhead_share`), a third on the real path with a span around
//! `handle_line` / `step` / `ack`, and a third on the staged replica
//! (`replica.rs`), whose spans open up what `step()` hides.

use crate::calib::{Calibrator, Mark};
use crate::replica::{Counts, Replica};
use crate::run::{
    resume_request, set_up, timed_phase, verify_kept, warn_if_drifted, Metric, Prepared, RunResult,
    Timed,
};
use crate::stats::median;
use crate::trace::{NoProbe, Probe, Span, Stage, Tracer, MAX_SPANS};
use crate::workloads::Kind;
use spam_scenario::run_once;
use std::time::Instant;

const MIB: f64 = (1 << 20) as f64;

/// Reads per-layer numbers out of the recorded spans.
struct Layers<'a> {
    spans: &'a [Span],
    /// Σ of each span's children, ns.
    children_ns: Vec<u64>,
    /// Stage of each span's root.
    root: Vec<Stage>,
}

impl<'a> Layers<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children_ns = vec![0; spans.len()];
        let mut root = Vec::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                0 => root.push(s.stage),
                p => {
                    // A parent is recorded before its children.
                    children_ns[p as usize - 1] += s.ns();
                    root.push(root[p as usize - 1]);
                    debug_assert!((p as usize) <= i);
                }
            }
        }
        Layers {
            spans,
            children_ns,
            root,
        }
    }

    /// Spans of `stage`: the steady ones when there are any, else all —
    /// a warm workload builds artifacts only in the replica's cold pass.
    fn of(&self, stage: Stage) -> Vec<&Span> {
        let all: Vec<&Span> = self.spans.iter().filter(|s| s.stage == stage).collect();
        if all.iter().any(|s| s.steady) {
            all.into_iter().filter(|s| s.steady).collect()
        } else {
            all
        }
    }

    /// Median duration of a stage's spans, µs (0 when it never ran).
    fn median_us(&self, stage: Stage) -> f64 {
        let us: Vec<f64> = self.of(stage).iter().map(|s| s.ns() as f64 / 1e3).collect();
        median(&us)
    }

    /// Σ over steady spans of the given stages of `f`.
    fn steady_sum(&self, stages: &[Stage], standard_only: bool, f: impl Fn(&Span) -> u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.steady && stages.contains(&s.stage) && !(standard_only && s.heavy))
            .map(|s| f(s) as f64)
            // An empty f64 sum is -0.0, which prints oddly.
            .sum::<f64>()
            + 0.0
    }

    /// Share of request time spent in no stage: the self time of the
    /// request root and of every wrapper beneath it.
    fn unattributed_share(&self, root: Stage) -> f64 {
        let mut total = 0.0;
        let mut own = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if !s.steady || self.root[i] != root {
                continue;
            }
            if s.parent == 0 {
                total += s.ns() as f64;
            }
            if self.children_ns[i] > 0 {
                own += s.ns().saturating_sub(self.children_ns[i]) as f64;
            }
        }
        own / total.max(1.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The replica phase of a serve workload: one cold pass over a repeating
/// workload's requests (its only artifact builds), then steady passes
/// until the time or the span buffer runs out. Returns the number of
/// steady passes with the kernel's mean scale while they ran, their
/// cache hit share, and whether every digest and count held.
fn replica_phase(
    prep: &Prepared,
    tr: &mut Tracer,
    replica: &mut Replica,
    cal: &mut Calibrator,
    first_pass: usize,
    seconds: f64,
) -> Result<((usize, f64), f64, bool), String> {
    let w = &prep.workload;
    let mut ok = true;
    replica.fill(&w.fill)?;
    if w.repeats {
        tr.steady = false;
        for (k, req) in w.pass(0).iter().enumerate() {
            ok &= replica.request(tr, req, Some(&prep.refs[k]))?;
        }
        tr.steady = true;
        replica.counts = Counts::default();
    }
    let mut first_counts = None;
    let cold = replica.cache_stats();
    let start = Instant::now();
    let mark = cal.mark();
    let mut p = first_pass;
    while p < w.max_passes() && tr.room_for(w.pass_len) {
        let before = replica.counts;
        for (k, req) in w.pass(p).iter().enumerate() {
            let refs = w.repeats.then(|| prep.refs[k].as_slice());
            ok &= replica.request(tr, req, refs)?;
            cal.tick();
        }
        if w.repeats {
            let c = replica.counts;
            let delta = (
                c.events - before.events,
                c.messages - before.messages,
                c.seg_lookups - before.seg_lookups,
                c.acquisitions - before.acquisitions,
            );
            ok &= *first_counts.get_or_insert(delta) == delta;
        }
        p += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let warm = replica.cache_stats();
    let hits = (warm.hits - cold.hits) as f64;
    let hit_share = ratio(hits, hits + (warm.misses - cold.misses) as f64);
    Ok(((p - first_pass, cal.mean_scale_since(&mark)), hit_share, ok))
}

/// Snapshot sizes seen by the resume phase.
#[derive(Default)]
struct SnapshotTotals {
    checkpoints: u64,
    bytes: u64,
}

/// The second traced phase of `storm_resume_256`: the same requests
/// again, now keeping each checkpointed run for its counters and
/// snapshot sizes, with an uninterrupted `run_once` beside each for
/// `snapshot.checkpoint_overhead_share`.
fn resume_phase(
    prep: &Prepared,
    tr: &mut Tracer,
    counts: &mut Counts,
    cal: &mut Calibrator,
    seconds: f64,
) -> Result<(SnapshotTotals, bool), String> {
    let mut totals = SnapshotTotals::default();
    let mut ok = true;
    let start = Instant::now();
    while tr.room_for(prep.workload.pass_len) {
        for (k, req) in prep.workload.pass(0).iter().enumerate() {
            tr.begin_request(req.heavy);
            let (tally, run) = resume_request(tr, req, &prep.refs[k][0]);
            ok &= tally.ok;
            let run = run.ok_or("checkpointed run failed")?;
            counts.requests += 1;
            counts.add_outcome(&run.outcome, false);
            totals.checkpoints += run.checkpoints.len() as u64;
            totals.bytes += run
                .checkpoints
                .iter()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>();
            tr.stage(Stage::Anatomy, |tr| {
                tr.stage(Stage::RunOnce, |_| run_once(&req.spec, 0, None).map(drop))
            })
            .map_err(|e| e.to_string())?;
            cal.tick();
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok((totals, ok))
}

fn write_trace(tr: &Tracer, workload: &str, seed: u64, scale: f64) -> Result<(), String> {
    let dir = crate::repo_root().join("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, tr.to_json(workload, seed, scale))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", tr.spans().len(), path.display());
    Ok(())
}

pub fn per_layer(name: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let mut cal = Calibrator::new();
    let mut prep = set_up(name, seed, seconds, &mut cal)?;
    let third = seconds as f64 / 3.0;

    // The three phases run one after the other and the box rarely keeps
    // one speed for all of them, so each phase's mean pass time is scaled
    // by the mean kernel time while that phase ran before they are
    // compared.
    let phase_pass_s = |timed: &Timed, cal: &Calibrator, mark: &Mark| {
        let host_s = timed.samples.iter().sum::<u64>() as f64 / 1e9;
        host_s / timed.passes.max(1) as f64 * cal.mean_scale_since(mark)
    };
    let mark = cal.mark();
    let untraced = timed_phase(&mut prep, &mut NoProbe, &mut cal, 0, third);
    let untraced_pass_s = phase_pass_s(&untraced, &cal, &mark);
    let mut tr = Tracer::new();
    tr.limit = MAX_SPANS / 4;
    let mark = cal.mark();
    let traced = timed_phase(&mut prep, &mut tr, &mut cal, untraced.passes, third);
    let traced_pass_s = phase_pass_s(&traced, &cal, &mark);
    tr.limit = MAX_SPANS;

    let mut failed = prep.failed;
    if !prep.workload.repeats {
        failed += verify_kept(&prep, 0, &untraced.kept).1;
    }
    // The real cache's verdict before it is dropped to make room for the
    // replica's.
    let cache = prep.service.take().map(|s| s.core.cache_stats());

    let mut replica = Replica::new();
    let mut counts = Counts::default();
    let mut snapshots = SnapshotTotals::default();
    let mut replica_passes = (0, 1.0);
    let mut hit_share = 0.0;
    let checks_ok = match prep.workload.kind {
        Kind::Serve => {
            let first = untraced.passes + traced.passes;
            let (passes, hits, ok) =
                replica_phase(&prep, &mut tr, &mut replica, &mut cal, first, third)?;
            replica_passes = passes;
            hit_share = hits;
            counts = replica.counts;
            ok
        }
        Kind::Resume => {
            let (totals, ok) = resume_phase(&prep, &mut tr, &mut counts, &mut cal, third)?;
            snapshots = totals;
            ok
        }
    };
    warn_if_drifted(&cal);
    let scale = cal.scale();
    let (calib_before, calib_after) = cal.mops_before_after();
    write_trace(&tr, name, seed, scale)?;

    // Every time below is calibrated like the end-to-end metrics; the
    // trace file keeps raw nanoseconds and records the scale.
    let l = Layers::new(tr.spans());
    let us = |stage| l.median_us(stage) * scale;
    let requests = counts.requests.max(1) as f64;

    // Shares of the replica's steady request time (serve workloads).
    let request_ns = |standard_only| l.steady_sum(&[Stage::Replica], standard_only, Span::ns);
    let engine = [Stage::WormsimRun, Stage::RunWithArtifacts];
    let build = [
        Stage::CacheMiss,
        Stage::TablesBuild,
        Stage::UpdownPrecomp,
        Stage::EpochTables,
    ];
    let engine_share = ratio(l.steady_sum(&engine, false, Span::ns), request_ns(false));
    let build_share = ratio(l.steady_sum(&build, false, Span::ns), request_ns(false));
    let non_engine_share = match request_ns(true) {
        total if total > 0.0 => 1.0 - l.steady_sum(&engine, true, Span::ns) / total,
        _ => 0.0,
    };
    let allocs = |stages: &[Stage]| l.steady_sum(stages, false, |s| s.allocs) / requests;
    let run_ns = l.steady_sum(&[Stage::WormsimRun], false, Span::ns) * scale;
    let plain_run_us = us(Stage::RunOnce);
    let root = match prep.workload.kind {
        Kind::Serve => Stage::Replica,
        Kind::Resume => Stage::Request,
    };

    let m = |name, value, unit| Metric {
        name,
        value,
        unit,
        note: String::new(),
    };
    let metrics = vec![
        m("serve.handle_line_us", us(Stage::ServeHandleLine), "us"),
        m("serve.step_us", us(Stage::ServeStep), "us"),
        m("serve.ack_us", us(Stage::ServeAck), "us"),
        m("serve.protocol.parse_us", us(Stage::ProtocolParse), "us"),
        m("scenario.json.parse_us", us(Stage::JsonParse), "us"),
        m("scenario.codec.decode_us", us(Stage::CodecDecode), "us"),
        m("scenario.spec.validate_us", us(Stage::SpecValidate), "us"),
        m(
            "scenario.artifact.fingerprint_us",
            us(Stage::Fingerprint),
            "us",
        ),
        m("serve.cache.hit_us", us(Stage::CacheHit), "us"),
        m("serve.cache.hit_share", hit_share, "ratio"),
        m("serve.cache.miss_us", us(Stage::CacheMiss), "us"),
        m(
            "serve.cache.evictions",
            cache.map_or(0.0, |c| c.evictions as f64),
            "count",
        ),
        m(
            "serve.cache.resident_mib",
            cache.map_or(0.0, |c| c.bytes as f64 / MIB),
            "MiB",
        ),
        m("scenario.artifact.build_us", us(Stage::ArtifactBuild), "us"),
        m("netgraph.lattice_gen_us", us(Stage::LatticeGen), "us"),
        m("updown.labeling_build_us", us(Stage::LabelingBuild), "us"),
        m("core.tables_build_us", us(Stage::TablesBuild), "us"),
        m(
            "baselines.updown_precomp_us",
            us(Stage::UpdownPrecomp),
            "us",
        ),
        m("faults.degrade_us", us(Stage::FaultsDegrade), "us"),
        m(
            "reconfig.scenario_build_us",
            us(Stage::ReconfigScenarioBuild),
            "us",
        ),
        m("reconfig.epoch_tables_us", us(Stage::EpochTables), "us"),
        m(
            "scenario.artifact.alloc_mib",
            median(
                &l.of(Stage::ArtifactBuild)
                    .iter()
                    .map(|s| s.bytes as f64 / MIB)
                    .collect::<Vec<_>>(),
            ),
            "MiB",
        ),
        m("traffic.generate_us", us(Stage::TrafficGenerate), "us"),
        m("wormsim.new_us", us(Stage::WormsimNew), "us"),
        m("wormsim.submit_us", us(Stage::WormsimSubmit), "us"),
        m("wormsim.run_us", us(Stage::WormsimRun), "us"),
        m(
            "wormsim.ns_per_event",
            ratio(run_ns, counts.split_events as f64),
            "ns",
        ),
        m(
            "wormsim.events_per_s",
            ratio(counts.split_events as f64 * 1e9, run_ns),
            "1/s",
        ),
        m(
            "wormsim.msgs_per_s",
            ratio(counts.split_messages as f64 * 1e9, run_ns),
            "1/s",
        ),
        m(
            "wormsim.events_per_request",
            counts.events as f64 / requests,
            "count",
        ),
        m(
            "wormsim.msgs_per_request",
            counts.messages as f64 / requests,
            "count",
        ),
        m(
            "wormsim.events_per_msg",
            ratio(counts.events as f64, counts.messages as f64),
            "count",
        ),
        m(
            "wormsim.seg_lookups_per_event",
            ratio(counts.seg_lookups as f64, counts.events as f64),
            "count",
        ),
        m(
            "wormsim.acquisitions_per_msg",
            ratio(counts.acquisitions as f64, counts.messages as f64),
            "count",
        ),
        m(
            "scenario.run_with_artifacts_us",
            us(Stage::RunWithArtifacts),
            "us",
        ),
        m("scenario.summarize_us", us(Stage::Summarize), "us"),
        m("scenario.outcome_digest_us", us(Stage::OutcomeDigest), "us"),
        m("serve.protocol.encode_us", us(Stage::ProtocolEncode), "us"),
        m(
            "snapshot.checkpointed_run_us",
            us(Stage::SnapshotCheckpointedRun),
            "us",
        ),
        m(
            "snapshot.checkpoint_overhead_share",
            match plain_run_us {
                plain if plain > 0.0 => us(Stage::SnapshotCheckpointedRun) / plain - 1.0,
                _ => 0.0,
            },
            "ratio",
        ),
        m("snapshot.resume_us", us(Stage::SnapshotResume), "us"),
        m(
            "snapshot.bytes_kib",
            ratio(
                snapshots.bytes as f64 / 1024.0,
                snapshots.checkpoints as f64,
            ),
            "KiB",
        ),
        m(
            "snapshot.checkpoints_per_request",
            snapshots.checkpoints as f64 / requests,
            "count",
        ),
        m(
            "allocs.decode",
            allocs(&[Stage::ProtocolParse, Stage::SpecValidate]),
            "count",
        ),
        m("allocs.artifact_build", allocs(&build), "count"),
        m("allocs.traffic", allocs(&[Stage::TrafficGenerate]), "count"),
        m(
            "allocs.engine",
            allocs(&[
                Stage::WormsimNew,
                Stage::WormsimSubmit,
                Stage::WormsimRun,
                Stage::RunWithArtifacts,
                Stage::SnapshotCheckpointedRun,
                Stage::SnapshotResume,
            ]),
            "count",
        ),
        m(
            "allocs.encode",
            allocs(&[Stage::OutcomeDigest, Stage::ProtocolEncode]),
            "count",
        ),
        m("share.engine_run", engine_share, "ratio"),
        m("share.artifact_build", build_share, "ratio"),
        m("share.non_engine_standard", non_engine_share, "ratio"),
        m(
            "trace.unattributed_share",
            l.unattributed_share(root),
            "ratio",
        ),
        m(
            "trace.overhead_share",
            ratio(traced_pass_s, untraced_pass_s) - 1.0,
            "ratio",
        ),
        m(
            "trace.replica_gap_share",
            match replica_passes {
                (0, _) => 0.0,
                (passes, scale) => {
                    request_ns(false) / 1e9 / passes as f64 * scale / traced_pass_s - 1.0
                }
            },
            "ratio",
        ),
        m("harness.calib_mops_before", calib_before, "Mops"),
        m("harness.calib_mops_after", calib_after, "Mops"),
        m("harness.calib_scale", scale, "ratio"),
        m("harness.timed_s", untraced.wall_s, "s"),
        m("harness.requests", untraced.requests() as f64, "count"),
    ];
    let drifted = untraced.drifted_passes + traced.drifted_passes;
    if drifted > 0 {
        eprintln!(
            "error: {drifted} passes differ from the first in allocations, events or messages"
        );
    }
    if !checks_ok {
        eprintln!("error: a staged digest or a pass-to-pass engine count did not match");
    }
    Ok(RunResult {
        correct: failed == 0 && drifted == 0 && checks_ok,
        attempted: prep.attempted + counts.requests,
        failed,
        metrics,
    })
}
