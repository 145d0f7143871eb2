//! The latency-anatomy report: *where* each routing arm spends its
//! end-to-end latency, per fault regime.
//!
//! The paper's headline (SPAM beats software multicast by 3.4–5.0× under
//! faults) is a ratio of aggregate means; this experiment explains the
//! ratio. Each arm runs the same mixed unicast/multicast workload with
//! tracing enabled; every delivered message's latency is decomposed —
//! exactly, in integer nanoseconds — into startup, blocking, route-setup,
//! wire, and stall phases by [`spam_trace::decompose_run`], and the
//! per-phase distributions are reported per `(arm, regime)`. The runner
//! re-asserts the exact-partition invariant on every message before
//! reporting anything: a decomposition that does not sum to the measured
//! latency is a bug, not a figure.
//!
//! Regimes:
//! * `fault_free` — the pristine fabric;
//! * `links20` — 20 % of links statically dead (both arms route the
//!   degraded fabric after reconfiguration);
//! * `storm20` — a live mid-run storm killing 20 % of links (SPAM only:
//!   live reconfiguration is the hardware arm's regime by construction).

use crate::report::{self, BenchJson, Report};
use crate::{run_on_fabric, PointSummary};
use spam_scenario::{
    split_seed, ArrivalSpec, EngineSpec, FaultModelSpec, FaultsSpec, RoutingSpec, ScenarioSpec,
    TrafficSpec,
};
use spam_trace::{decompose_run, summarize, AnatomySummary, MessageAnatomy};
use std::fmt::Write as _;
use wormsim::LatencyParams;

/// Phase names, in pipeline order; also the CSV row order.
pub const PHASES: [&str; 5] = ["startup", "blocking", "route_setup", "wire", "stall"];

/// One `(arm, regime)` cell of the report.
#[derive(Debug, Clone)]
pub struct AnatomyCell {
    /// Routing arm: `spam` or `software`.
    pub arm: &'static str,
    /// Fault regime: `fault_free`, `links20`, or `storm20`.
    pub regime: &'static str,
    /// Aggregated decomposition over every delivered message of every
    /// replication.
    pub summary: AnatomySummary,
}

/// One cell of an observer report's `(arm, regime)` grid as a scenario:
/// one fixed lattice (topology seed 9) under `arm`'s routing and
/// `regime`'s faults, carrying `traffic` with `engine`'s observers on.
/// Shared with the congestion profile, whose grid mirrors this one.
pub(crate) fn cell_spec(
    name: String,
    (arm, regime): (&str, &str),
    switches: usize,
    traffic: TrafficSpec,
    engine: EngineSpec,
) -> ScenarioSpec {
    let storm_model = FaultModelSpec::IidLinks { rate: 0.20 };
    let mut spec = ScenarioSpec::example(&name);
    spec.topology.switches = switches;
    spec.topology.seed = 9;
    match arm {
        "spam" => {}
        "software" => spec.routing = RoutingSpec::SoftwareMulticast,
        other => unreachable!("unknown arm {other}"),
    }
    spec.traffic = traffic;
    spec.faults = match regime {
        "fault_free" => FaultsSpec::None,
        "links20" => FaultsSpec::Static {
            model: storm_model,
            seed: 0x5071,
        },
        "storm20" => FaultsSpec::Storm {
            model: storm_model,
            seed: 0x5071,
            window_start_us: 20,
            window_end_us: 120,
            bursts: 3,
        },
        other => unreachable!("unknown regime {other}"),
    };
    spec.engine = engine;
    spec.seed = 23;
    spec
}

fn spec_for(cell: (&str, &str), switches: usize, messages: usize) -> ScenarioSpec {
    let traffic = TrafficSpec::Mixed {
        unicast_fraction: 0.5,
        multicast_dests: 8,
        rate_per_node_per_us: 0.02,
        len: 128,
        messages,
        arrival: ArrivalSpec::Poisson,
    };
    let engine = EngineSpec {
        trace: true,
        ..EngineSpec::default()
    };
    let name = format!("anatomy-{}-{}", cell.0, cell.1);
    cell_spec(name, cell, switches, traffic, engine)
}

/// The `(arm, regime)` grid: both arms on `fault_free` and `links20`,
/// SPAM alone on the live `storm20`.
pub const GRID: [(&str, &str); 5] = [
    ("spam", "fault_free"),
    ("software", "fault_free"),
    ("spam", "links20"),
    ("software", "links20"),
    ("spam", "storm20"),
];

/// Runs the full grid. `quick` shrinks the network, message count, and
/// replication count for CI. Panics if any delivered message's phases
/// fail to sum exactly to its end-to-end latency — the report's defining
/// invariant.
pub fn run_latency_anatomy(quick: bool) -> Vec<AnatomyCell> {
    let (switches, messages, reps) = if quick { (32, 100, 1) } else { (64, 250, 3) };
    let latency = LatencyParams::paper();
    GRID.iter()
        .map(|&(arm, regime)| {
            let mut anatomies: Vec<MessageAnatomy> = Vec::new();
            for rep in 0..reps {
                let mut spec = spec_for((arm, regime), switches, messages);
                spec.seed = split_seed(spec.seed, rep as u64);
                let (arts, out) = run_on_fabric(&spec, rep);
                let delivered = out.messages.iter().filter(|m| m.is_complete()).count();
                let decomposed =
                    decompose_run(&arts.topo, &out, &latency, spec.engine.extra_header_flits);
                assert_eq!(
                    decomposed.len(),
                    delivered,
                    "{}: every delivered message must decompose",
                    spec.name
                );
                for a in &decomposed {
                    assert_eq!(
                        a.phase_sum(),
                        a.end_to_end,
                        "{}: phases must sum exactly for {:?}",
                        spec.name,
                        a.msg
                    );
                }
                anatomies.extend(decomposed);
            }
            AnatomyCell {
                arm,
                regime,
                summary: summarize(&anatomies)
                    .unwrap_or_else(|| panic!("{arm}/{regime}: no delivered messages")),
            }
        })
        .collect()
}

/// The decomposition table as CSV:
/// `arm,regime,phase,mean_us,p50_us,p99_us,share,messages`.
pub fn anatomy_csv(cells: &[AnatomyCell]) -> String {
    let mut body = String::from("arm,regime,phase,mean_us,p50_us,p99_us,share,messages\n");
    for c in cells {
        for p in &c.summary.phases {
            writeln!(
                body,
                "{},{},{},{:.4},{:.4},{:.4},{:.4},{}",
                c.arm,
                c.regime,
                p.phase,
                p.mean_us,
                p.p50_us,
                p.p99_us,
                p.share,
                c.summary.messages
            )
            .expect("string write");
        }
    }
    body
}

/// The machine-readable record: one series per `(arm, regime)`, one
/// point per phase (`x` = phase index in [`PHASES`] order, `mean` =
/// mean µs, `reps` = messages aggregated).
pub fn anatomy_bench_json(cells: &[AnatomyCell], quick: bool) -> BenchJson {
    let series = cells
        .iter()
        .map(|c| {
            (
                format!("{}@{}", c.arm, c.regime),
                c.summary
                    .phases
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        PointSummary::exact(i as f64, p.mean_us, c.summary.messages as u64)
                    })
                    .collect(),
            )
        })
        .collect();
    BenchJson::new(
        "latency_anatomy",
        &[
            ("quick", quick.to_string()),
            ("phases", PHASES.join(",")),
            ("workload", "mixed u0.5 m8 len128".to_string()),
            ("regimes", "fault_free,links20,storm20".to_string()),
        ],
        series,
    )
}

/// Renders the table for the terminal.
pub fn anatomy_table(cells: &[AnatomyCell]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "  {:<10} {:<11} {:>6} {:>10} | {:>9} {:>9} {:>11} {:>9} {:>9}",
        "arm", "regime", "msgs", "e2e µs", "startup", "blocking", "route_setup", "wire", "stall"
    )
    .unwrap();
    for c in cells {
        let shares: Vec<String> = c
            .summary
            .phases
            .iter()
            .map(|p| format!("{:.1}%", p.share * 100.0))
            .collect();
        writeln!(
            out,
            "  {:<10} {:<11} {:>6} {:>10.1} | {:>9} {:>9} {:>11} {:>9} {:>9}",
            c.arm,
            c.regime,
            c.summary.messages,
            c.summary.end_to_end_us.0,
            shares[0],
            shares[1],
            shares[2],
            shares[3],
            shares[4],
        )
        .unwrap();
    }
    out
}

/// The golden fig2 scenario re-run with tracing on, exported for
/// `ui.perfetto.dev` (the committed
/// `results/fig2_single_multicast.perfetto-trace`).
fn golden_perfetto_trace() -> Vec<u8> {
    let mut spec = ScenarioSpec::from_json(include_str!(
        "../../../scenarios/fig2_single_multicast.scenario.json"
    ))
    .expect("committed scenario decodes");
    spec.engine.trace = true;
    let (arts, out) = run_on_fabric(&spec, 0);
    spam_trace::export(&arts.topo, &out)
}

/// The `latency-anatomy` experiment: the table, its CSV, the record, and
/// the Perfetto example trace.
pub fn report(quick: bool) -> Report {
    let cells = run_latency_anatomy(quick);
    Report {
        bench: anatomy_bench_json(&cells, quick),
        files: vec![
            report::file("latency_anatomy.csv", anatomy_csv(&cells)),
            report::file(
                "fig2_single_multicast.perfetto-trace",
                golden_perfetto_trace(),
            ),
        ],
        text: format!(
            "Latency anatomy (share of end-to-end, per arm and fault regime):\n{}",
            anatomy_table(&cells)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_produces_exact_decompositions() {
        // `run_latency_anatomy` asserts exactness internally; surviving
        // the call is the property. Check shape on top.
        let cells = run_latency_anatomy(true);
        assert_eq!(cells.len(), GRID.len());
        for c in &cells {
            assert_eq!(c.summary.phases.len(), PHASES.len());
            assert!(c.summary.messages > 0);
            let share_sum: f64 = c.summary.phases.iter().map(|p| p.share).sum();
            assert!(
                (share_sum - 1.0).abs() < 1e-9,
                "{}/{}: shares sum to {share_sum}",
                c.arm,
                c.regime
            );
        }
        // The mechanism the report exists to show: software multicast
        // expands each multicast into a tree of engine-level
        // unicasts, every one re-paying the full 10 µs startup; SPAM
        // delivers the same application workload as single worms. The
        // aggregate startup bill is therefore proportional to the
        // engine-message count.
        let messages = |arm: &str| {
            cells
                .iter()
                .find(|c| c.arm == arm && c.regime == "fault_free")
                .unwrap()
                .summary
                .messages
        };
        assert!(
            messages("software") > 2 * messages("spam"),
            "software multicast re-pays startup per forwarding stage: \
             {} engine messages vs SPAM's {}",
            messages("software"),
            messages("spam")
        );
    }

    #[test]
    fn csv_and_json_render() {
        let cells = run_latency_anatomy(true);
        let body = anatomy_csv(&cells);
        assert!(body.starts_with("arm,regime,phase,"));
        // 5 phases per cell plus the header.
        assert_eq!(body.lines().count(), 1 + cells.len() * PHASES.len());
        let bench = anatomy_bench_json(&cells, true);
        assert_eq!(bench.series.len(), cells.len());
        let table = anatomy_table(&cells);
        assert!(table.contains("spam"));
        assert!(table.contains("software"));
    }
}
