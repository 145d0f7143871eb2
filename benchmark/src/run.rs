//! Set-up, the closed-loop timed phase, output checks and the
//! end-to-end metrics.
//!
//! One client, one outstanding request: the users are sweep scripts and
//! daemon clients that each wait for a reply. A serve request is
//! `ServeCore::handle_line(run)` → `ServeCore::step()` →
//! `handle_line(ack)`; the threaded `Daemon` and its socket are left out
//! on purpose — on two cores they measure the scheduler.

use crate::alloc;
use crate::calib::Calibrator;
use crate::stats::{median, percentile_sorted};
use crate::trace::{NoProbe, Probe, Stage};
use crate::workloads::{self, Kind, Request, Workload};
use spam_scenario::{
    outcome_digest, resume_once, run_once, run_once_checkpointed, CheckpointedRun,
};
use spam_serve::{ServeConfig, ServeCore, Session};
use std::fmt::Write as _;
use std::time::Instant;
use wormsim::SimOutcome;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Capacity of the latency-sample buffer (uncounted, lazily paged).
const MAX_SAMPLES: usize = 4 << 20;
/// Requests of a non-repeating workload re-run through `run_once` after
/// the timed phase to check their digests.
const VERIFY: usize = 20;
/// The across-pass quantile the wall-clock metrics are read at: the
/// fastest decile of passes, the same quantile the calibration kernel's
/// times are read at (`calib.rs`). Interference from other tenants only
/// ever adds time, so the lower envelope is the program's own speed, and
/// the ratio of the two envelopes is what repeats from run to run.
const FAST_PASSES: f64 = 0.1;

const HELLO: &str = r#"{"op":"hello","client":"bench"}"#;

/// What the harness knows about one replication's correct outcome, from
/// an untimed `run_once` during set-up.
pub struct Reference {
    /// `"digest":"0x…"` exactly as a result line spells it.
    digest_field: String,
    pub digest: u64,
    /// Mean simulated latency over delivered messages, if any were.
    mean_latency_us: Option<f64>,
    end_time_ns: u64,
}

impl Reference {
    fn of(out: &SimOutcome) -> Result<Self, String> {
        if !out.all_accounted() {
            return Err("reference run left messages unaccounted".into());
        }
        let digest = outcome_digest(out);
        Ok(Reference {
            digest_field: format!("\"digest\":\"{digest:#018x}\""),
            digest,
            mean_latency_us: out.mean_latency_us(|_| true),
            end_time_ns: out.end_time.as_ns(),
        })
    }
}

fn references(req: &Request) -> Result<Vec<Reference>, String> {
    (0..req.spec.replications.max(1))
        .map(|rep| {
            let out = run_once(&req.spec, rep, None).map_err(|e| e.to_string())?;
            Reference::of(&out)
        })
        .collect()
}

/// Mean over replications of each one's mean simulated message latency.
/// Every replication weighs the same: weighed by messages, the two heavy
/// requests of a pass would carry the figure, and it would follow their
/// two topologies from one `--seed` to the next.
fn sim_latency_us(refs: &[Vec<Reference>]) -> f64 {
    let means: Vec<f64> = refs
        .iter()
        .flatten()
        .filter_map(|r| r.mean_latency_us)
        .collect();
    means.iter().sum::<f64>() / means.len().max(1) as f64
}

/// The unsigned integer after `"key":` in a result line, without
/// allocating (the timed loop's checks must not disturb the counts).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// What one executed request reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub ok: bool,
    pub events: u64,
    pub messages: u64,
}

/// Checks one cursor-stream line: a `result`, every message accounted
/// for, the artifact verdict the workload predicts, and the digest the
/// untimed `run_once` produced.
fn check_result_line(line: &str, expect_hit: Option<bool>, reference: Option<&Reference>) -> Tally {
    let n = |key| field_u64(line, key);
    let (Some(messages), Some(delivered), Some(torn), Some(unreachable), Some(events)) = (
        n("\"messages\":"),
        n("\"delivered\":"),
        n("\"torn_down\":"),
        n("\"unreachable\":"),
        n("\"events\":"),
    ) else {
        return Tally::default();
    };
    let artifact_ok = match expect_hit {
        Some(true) => line.contains("\"artifact\":\"hit\""),
        Some(false) => line.contains("\"artifact\":\"miss\""),
        None => true,
    };
    let ok = line.starts_with("{\"type\":\"result\"")
        && delivered + torn + unreachable == messages
        && artifact_ok
        && reference.is_none_or(|r| line.contains(&r.digest_field));
    Tally {
        ok,
        events,
        messages,
    }
}

/// The real service under test plus the client-side cursor.
pub struct Service {
    pub core: ServeCore,
    session: Session,
    cursor: u64,
    ack: String,
}

impl Service {
    fn start() -> Result<Self, String> {
        let mut core = ServeCore::new(ServeConfig::default());
        let mut session = Session::new();
        let hello = core.handle_line(&mut session, HELLO);
        if !hello.first().is_some_and(|l| l.contains("\"hello\"")) {
            return Err(format!("hello refused: {hello:?}"));
        }
        Ok(Service {
            core,
            session,
            cursor: 0,
            ack: String::with_capacity(64),
        })
    }

    /// `handle_line(run)`; true when the job was queued.
    fn submit(&mut self, line: &str) -> bool {
        let queued = self.core.handle_line(&mut self.session, line);
        queued.len() == 1 && queued[0].starts_with("{\"type\":\"queued\"")
    }

    /// `step()`: the job's cursor-stream lines.
    fn step(&mut self) -> Vec<String> {
        let lines = self.core.step().map(|o| o.lines).unwrap_or_default();
        self.cursor += lines.len() as u64;
        lines
    }

    /// `handle_line(ack)` through the last cursor received.
    fn ack(&mut self) -> bool {
        self.ack.clear();
        let _ = write!(self.ack, r#"{{"op":"ack","cursor":{}}}"#, self.cursor);
        let acked = self.core.handle_line(&mut self.session, &self.ack);
        acked.len() == 1 && acked[0].starts_with("{\"type\":\"acked\"")
    }

    /// One whole request. Returns the tally and the result lines.
    fn request<P: Probe>(
        &mut self,
        probe: &mut P,
        req: &Request,
        expect_hit: Option<bool>,
        refs: Option<&[Reference]>,
    ) -> (Tally, Vec<String>) {
        let (queued, lines, acked) = probe.stage(Stage::Request, |probe| {
            let queued = probe.stage(Stage::ServeHandleLine, |_| self.submit(&req.line));
            let lines = probe.stage(Stage::ServeStep, |_| self.step());
            let acked = probe.stage(Stage::ServeAck, |_| self.ack());
            (queued, lines, acked)
        });
        (
            tally_lines(&lines, req, expect_hit, refs, queued && acked),
            lines,
        )
    }
}

/// Folds a request's result lines into one tally.
fn tally_lines(
    lines: &[String],
    req: &Request,
    expect_hit: Option<bool>,
    refs: Option<&[Reference]>,
    transport_ok: bool,
) -> Tally {
    let mut tally = Tally {
        ok: transport_ok && lines.len() == req.spec.replications.max(1) as usize,
        ..Tally::default()
    };
    for (rep, line) in lines.iter().enumerate() {
        let t = check_result_line(line, expect_hit, refs.and_then(|r| r.get(rep)));
        tally.ok &= t.ok;
        tally.events += t.events;
        tally.messages += t.messages;
    }
    tally
}

/// One `storm_resume_256` request: a checkpointed run, a resume from
/// one of its checkpoints (the first for heavy requests — most work
/// left — else the middle one), and both digests against the
/// uninterrupted reference. Also returns the checkpointed run, whose
/// counters and snapshot sizes the trace reports.
pub fn resume_request<P: Probe>(
    probe: &mut P,
    req: &Request,
    reference: &Reference,
) -> (Tally, Option<CheckpointedRun>) {
    // Cadence giving about eight checkpoints over the run.
    let every_ns = reference.end_time_ns / 9 + 1;
    let (run, digests) = probe.stage(Stage::Request, |probe| {
        let run = probe.stage(Stage::SnapshotCheckpointedRun, |_| {
            run_once_checkpointed(&req.spec, 0, None, every_ns).ok()
        });
        let Some(run) = run.filter(|r| !r.checkpoints.is_empty()) else {
            return (None, None);
        };
        let pick = if req.heavy {
            0
        } else {
            run.checkpoints.len() / 2
        };
        let resumed = probe.stage(Stage::SnapshotResume, |_| {
            resume_once(&req.spec, 0, None, &run.checkpoints[pick].1).ok()
        });
        let digests = probe.stage(Stage::OutcomeDigest, |_| {
            let resumed = resumed.filter(SimOutcome::all_accounted)?;
            Some((outcome_digest(&run.outcome), outcome_digest(&resumed)))
        });
        (Some(run), digests)
    });
    let tally = match &run {
        Some(run) => Tally {
            ok: digests == Some((reference.digest, reference.digest)),
            events: run.outcome.counters.events,
            messages: run.outcome.messages.len() as u64,
        },
        None => Tally::default(),
    };
    (tally, run)
}

/// A workload set up and ready to be timed.
pub struct Prepared {
    pub workload: Workload,
    /// `None` for `Kind::Resume`.
    pub service: Option<Service>,
    /// Per request of a repeating workload; empty otherwise.
    pub refs: Vec<Vec<Reference>>,
    /// Requests executed / failed during set-up.
    pub attempted: u64,
    pub failed: u64,
}

impl Prepared {
    /// Executes request `k` of pass `p`, reporting its stages to
    /// `probe`. Returns the tally and, for serve requests, the result
    /// lines.
    pub fn execute<P: Probe>(
        &mut self,
        probe: &mut P,
        p: usize,
        k: usize,
        expect_hit: Option<bool>,
    ) -> (Tally, Vec<String>) {
        let req = &self.workload.pass(p)[k];
        probe.begin_request(req.heavy);
        match self.workload.kind {
            Kind::Serve => {
                let refs = self.refs.get(k).map(Vec::as_slice);
                let service = self
                    .service
                    .as_mut()
                    .expect("serve workloads own a service");
                service.request(probe, req, expect_hit, refs)
            }
            Kind::Resume => (resume_request(probe, req, &self.refs[k][0]).0, Vec::new()),
        }
    }

    fn note(&mut self, tally: Tally) {
        self.attempted += 1;
        self.failed += u64::from(!tally.ok);
    }
}

/// Set-up, from the seed to a warm system: specs and rendered lines,
/// `ServeCore::new` and `hello`, untimed `run_once` reference digests,
/// the cold pass over every distinct request (or the cache fill), then
/// the workload's frozen number of warm-up passes.
///
/// The calibration kernel ticks throughout, so the caller can scale the
/// time this took by what the box was doing meanwhile.
pub fn set_up(
    name: &str,
    seed: u64,
    seconds: u64,
    cal: &mut Calibrator,
) -> Result<Prepared, String> {
    let workload = workloads::build(name, seed, seconds, &mut || cal.tick())?;
    let mut prep = Prepared {
        service: match workload.kind {
            Kind::Serve => Some(Service::start()?),
            Kind::Resume => None,
        },
        refs: Vec::new(),
        attempted: 0,
        failed: 0,
        workload,
    };
    if prep.workload.repeats {
        for req in &prep.workload.requests {
            prep.refs.push(references(req)?);
            cal.tick();
        }
    }
    if prep.workload.kind == Kind::Serve {
        for i in 0..prep.workload.fill.len() {
            let service = prep.service.as_mut().expect("just started");
            let req = &prep.workload.fill[i];
            let (tally, _) = service.request(&mut NoProbe, req, Some(false), None);
            prep.note(tally);
            cal.tick();
        }
        if prep.workload.repeats {
            // The cold pass: first sight of each prefix misses, so the
            // artifact verdict is not predicted here.
            for k in 0..prep.workload.pass_len {
                let (tally, _) = prep.execute(&mut NoProbe, 0, k, None);
                prep.note(tally);
                cal.tick();
            }
        }
    }
    for _ in 0..prep.workload.warmup_passes {
        for k in 0..prep.workload.pass_len {
            let (tally, _) = prep.execute(&mut NoProbe, 0, k, Some(true));
            prep.note(tally);
            cal.tick();
        }
    }
    Ok(prep)
}

/// The timed phase's raw record.
pub struct Timed {
    /// Per-request host time, ns, pass-major.
    pub samples: &'static [u64],
    pub passes: usize,
    pub wall_s: f64,
    pub allocs: u64,
    /// Passes whose allocation, event or message count differed from
    /// the first pass (repeating workloads only).
    pub drifted_passes: usize,
    /// Result lines of the first `VERIFY` requests (non-repeating
    /// workloads), kept for the post-run digest check.
    pub kept: Vec<Vec<String>>,
}

impl Timed {
    pub fn requests(&self) -> usize {
        self.samples.len()
    }
}

/// Runs whole passes, closed loop, until `seconds` have elapsed (or the
/// request pool, the sample buffer or the probe's span buffer is
/// exhausted), starting at pass `first_pass` of the pool.
pub fn timed_phase<P: Probe>(
    prep: &mut Prepared,
    probe: &mut P,
    cal: &mut Calibrator,
    first_pass: usize,
    seconds: f64,
) -> Timed {
    let pass_len = prep.workload.pass_len;
    let repeats = prep.workload.repeats;
    let expect_hit = Some(repeats);
    let samples = alloc::uncounted(|| vec![0u64; MAX_SAMPLES]);
    let mut kept = Vec::with_capacity(if repeats { 0 } else { VERIFY });
    let mut n = 0;
    let mut passes = 0;
    let mut failed = 0;
    let mut drifted_passes = 0;
    let mut first_pass_counts = None;
    let before = alloc::snapshot();
    let start = Instant::now();
    while first_pass + passes < prep.workload.max_passes()
        && n + pass_len <= samples.len()
        && probe.room_for(pass_len)
    {
        let pass_allocs = alloc::snapshot().calls;
        let mut pass_events = 0;
        let mut pass_messages = 0;
        for k in 0..pass_len {
            let t0 = Instant::now();
            let (tally, lines) = prep.execute(probe, first_pass + passes, k, expect_hit);
            samples[n] = t0.elapsed().as_nanos() as u64;
            n += 1;
            failed += u64::from(!tally.ok);
            pass_events += tally.events;
            pass_messages += tally.messages;
            if kept.len() < kept.capacity() {
                kept.push(lines);
            }
            cal.tick();
        }
        passes += 1;
        if repeats {
            let counts = (
                alloc::snapshot().calls - pass_allocs,
                pass_events,
                pass_messages,
            );
            if *first_pass_counts.get_or_insert(counts) != counts {
                drifted_passes += 1;
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = alloc::snapshot().calls - before.calls;
    prep.attempted += n as u64;
    prep.failed += failed;
    Timed {
        samples: &samples[..n],
        passes,
        wall_s,
        allocs,
        drifted_passes,
        kept,
    }
}

/// Pass-level statistics of a timed phase.
pub struct PassStats {
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub pass_s: f64,
}

/// Each pass's p50, p90 and duration, then quantile `q` of each across
/// passes. A pass is four standard requests to one heavy one, so the
/// pass p50 is a standard request and the pass p90 a heavy one — class
/// medians, not tail readings.
pub fn pass_stats(samples: &[u64], pass_len: usize, q: f64) -> PassStats {
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut total = Vec::new();
    let mut sorted = vec![0u64; pass_len];
    for pass in samples.chunks_exact(pass_len) {
        sorted.copy_from_slice(pass);
        sorted.sort_unstable();
        p50.push(percentile_sorted(&sorted, 0.5));
        p90.push(percentile_sorted(&sorted, 0.9));
        total.push(pass.iter().sum::<u64>());
    }
    let across = |v: &mut Vec<u64>| {
        v.sort_unstable();
        percentile_sorted(v, q) as f64
    };
    PassStats {
        p50_ms: across(&mut p50) / 1e6,
        p90_ms: across(&mut p90) / 1e6,
        pass_s: across(&mut total) / 1e9,
    }
}

/// Re-runs the kept requests of a non-repeating workload through
/// `run_once`; returns their references and how many digests differed.
pub fn verify_kept(
    prep: &Prepared,
    first_pass: usize,
    kept: &[Vec<String>],
) -> (Vec<Vec<Reference>>, u64) {
    let mut refs = Vec::with_capacity(kept.len());
    let mut bad = 0;
    for (i, lines) in kept.iter().enumerate() {
        let req = &prep.workload.requests[first_pass * prep.workload.pass_len + i];
        match references(req) {
            Ok(r) => {
                let t = tally_lines(lines, req, Some(false), Some(&r), true);
                bad += u64::from(!t.ok);
                refs.push(r);
            }
            Err(_) => bad += 1,
        }
    }
    (refs, bad)
}

/// The noise sentinel: warns when the calibration kernel ran more than
/// 10 % apart at the start and at the end of the run. Such a run is
/// reported, not discarded.
pub fn warn_if_drifted(cal: &Calibrator) {
    let (before, after) = cal.mops_before_after();
    if (before / after).max(after / before) > 1.10 {
        eprintln!(
            "warning: the calibration kernel ran at {before:.1} Mops early and {after:.1} Mops \
             late in this run (>10 % apart): the box changed speed under it"
        );
    }
}

/// One named, united value of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// The untraced run: `SETUPS` set-ups (the last one is kept), the timed
/// phase, the output checks, and the seven end-to-end metrics.
pub fn end_to_end(name: &str, seed: u64, seconds: u64) -> Result<RunResult, String> {
    let mut cal = Calibrator::new();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prep = None;
    for _ in 0..SETUPS {
        // Drop the previous system first: two resident at once would
        // double the heap high-water mark.
        drop(prep.take());
        let mark = cal.mark();
        prep = Some(set_up(name, seed, seconds, &mut cal)?);
        setups.push(cal.calibrated_since(&mark));
    }
    let mut prep = prep.expect("SETUPS >= 1");
    let (setup_raw_s, setup_s): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    let timed = timed_phase(&mut prep, &mut NoProbe, &mut cal, 0, seconds as f64);
    let peak = alloc::snapshot().peak;
    warn_if_drifted(&cal);
    let scale = cal.scale();
    let mut failed = prep.failed;
    let sim_latency = if prep.workload.repeats {
        sim_latency_us(&prep.refs)
    } else {
        let (refs, bad) = verify_kept(&prep, 0, &timed.kept);
        failed += bad;
        sim_latency_us(&refs)
    };
    if timed.drifted_passes > 0 {
        eprintln!(
            "error: {} of {} passes differ from the first in allocations, events or messages",
            timed.drifted_passes, timed.passes
        );
    }
    let stats = pass_stats(timed.samples, prep.workload.pass_len, FAST_PASSES);
    let mid = pass_stats(timed.samples, prep.workload.pass_len, 0.5);
    let requests = timed.requests();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
            note: format!(
                "median of {SETUPS} set-ups, each scaled by the mean kernel time during it; raw {:.6}",
                median(&setup_raw_s),
            ),
        },
        Metric {
            name: "requests_per_s",
            value: prep.workload.pass_len as f64 / (stats.pass_s * scale),
            unit: "1/s",
            note: format!(
                "{} ÷ pass time; raw {:.6}, raw median pass {:.6}; {requests} requests, {} passes, {:.2} s wall; calibration ×{scale:.4} from {} kernel runs",
                prep.workload.pass_len,
                prep.workload.pass_len as f64 / stats.pass_s,
                prep.workload.pass_len as f64 / mid.pass_s,
                timed.passes,
                timed.wall_s,
                cal.samples()
            ),
        },
        Metric {
            name: "request_ms_p50",
            value: stats.p50_ms * scale,
            unit: "ms",
            note: format!(
                "pass p50; raw {:.6}, raw median pass {:.6}",
                stats.p50_ms, mid.p50_ms
            ),
        },
        Metric {
            name: "request_ms_p90",
            value: stats.p90_ms * scale,
            unit: "ms",
            note: format!(
                "pass p90; raw {:.6}, raw median pass {:.6}",
                stats.p90_ms, mid.p90_ms
            ),
        },
        Metric {
            name: "allocs_per_request",
            value: timed.allocs as f64 / requests.max(1) as f64,
            unit: "count",
            note: format!("{} allocations ÷ {requests} requests", timed.allocs),
        },
        Metric {
            name: "peak_heap_mib",
            value: peak as f64 / (1 << 20) as f64,
            unit: "MiB",
            note: "live-heap high-water mark, set-up + timed phase".into(),
        },
        Metric {
            name: "sim_latency_us_mean",
            value: sim_latency,
            unit: "us",
            note: "simulated time, not host time".into(),
        },
    ];
    Ok(RunResult {
        correct: failed == 0 && timed.drifted_passes == 0 && requests > 0,
        attempted: prep.attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"{"type":"result","cursor":3,"scenario":"s","rep":0,"reps":1,"artifact":"hit","digest":"0x00000000000000ab","end_time_ns":9,"quiescent":true,"messages":5,"delivered":3,"torn_down":1,"unreachable":1,"events":77,"cache":{"hits":1,"misses":1,"evictions":0,"entries":1,"bytes":10}}"#;

    #[test]
    fn result_line_checks_catch_each_fault() {
        let reference = Reference {
            digest_field: "\"digest\":\"0x00000000000000ab\"".into(),
            digest: 0xab,
            mean_latency_us: None,
            end_time_ns: 9,
        };
        let good = check_result_line(LINE, Some(true), Some(&reference));
        assert_eq!(
            good,
            Tally {
                ok: true,
                events: 77,
                messages: 5
            }
        );
        assert!(!check_result_line(LINE, Some(false), Some(&reference)).ok);
        assert!(!check_result_line(&LINE.replace("ab\"", "ac\""), Some(true), Some(&reference)).ok);
        assert!(
            !check_result_line(
                &LINE.replace("\"delivered\":3", "\"delivered\":2"),
                None,
                None
            )
            .ok
        );
        assert!(!check_result_line(&LINE.replace("result", "error"), None, None).ok);
    }

    #[test]
    fn pass_statistics_are_quantiles_across_passes() {
        // Three passes of five; the middle pass is a slow spell.
        let ms = |v: [u64; 5]| v.map(|x| x * 1_000_000);
        let samples: Vec<u64> = [
            ms([1, 1, 1, 1, 5]),
            ms([9, 9, 9, 9, 20]),
            ms([1, 1, 2, 1, 6]),
        ]
        .concat();
        let s = pass_stats(&samples, 5, 0.5);
        assert_eq!((s.p50_ms, s.p90_ms), (1.0, 6.0));
        let fast = pass_stats(&samples, 5, 0.1);
        assert_eq!((fast.p50_ms, fast.p90_ms, fast.pass_s), (1.0, 5.0, 0.009));
    }
}
