//! The congestion-profile report: *where* each routing arm heats the
//! fabric, per workload and fault regime.
//!
//! Each cell of the `(workload, arm, regime)` grid runs with telemetry
//! enabled, folds the per-channel accumulators (wire-busy ns, all-or-
//! nothing acquisitions, exact OCRQ-depth time integrals, header stalls)
//! onto the generator's lattice layout, and reports the resulting
//! [`CongestionHeatmap`] — both as totals (SPAM vs software multicast
//! aggregate heat) and as spatial concentration (the share of heat the
//! hottest cells carry, the localization headline).
//!
//! Workloads:
//! * `hotspot` — unicasts converging on 2 hot processors;
//! * `incast` — every client streaming at 2 servers;
//! * `storm` — a broadcast storm (every processor multicasts to all).
//!
//! Regimes mirror the latency-anatomy grid:
//! * `fault_free` — the pristine fabric;
//! * `links20` — 20 % of links statically dead;
//! * `storm20` — a live mid-run storm killing 20 % of links (SPAM only:
//!   live reconfiguration is the hardware arm's regime by construction).

use crate::latency_anatomy::{cell_spec, GRID};
use crate::report::{self, BenchJson, Report};
use crate::{run_on_fabric, PointSummary};
use spam_metrics::{ChannelAccum, CongestionHeatmap, HeatKey};
use spam_scenario::json::{self, Json, Num};
use spam_scenario::{ArrivalSpec, EngineSpec, TrafficSpec};
use std::fmt::Write as _;

/// Workload names, in report order.
pub const WORKLOADS: [&str; 3] = ["hotspot", "incast", "storm"];

/// Regime names; also the `x` axis of the machine-readable record.
pub const REGIMES: [&str; 3] = ["fault_free", "links20", "storm20"];

/// Telemetry cadence used by every cell, ns.
pub const SAMPLE_EVERY_NS: u64 = 1_000;

/// How many hottest lattice cells the concentration headline counts.
pub const TOP_K: usize = 4;

/// One `(workload, arm, regime)` cell of the report.
#[derive(Debug, Clone)]
pub struct CongestionCell {
    /// Workload: `hotspot`, `incast`, or `storm`.
    pub workload: &'static str,
    /// Routing arm: `spam` or `software`.
    pub arm: &'static str,
    /// Fault regime: `fault_free`, `links20`, or `storm20`.
    pub regime: &'static str,
    /// Delivered engine messages over every replication.
    pub messages: u64,
    /// Gauge samples recorded (ring-capped) over every replication.
    pub samples: u64,
    /// Accumulators folded onto the lattice.
    pub heatmap: CongestionHeatmap,
}

impl CongestionCell {
    /// The fraction of `key`'s grand total carried by the [`TOP_K`]
    /// hottest lattice cells.
    pub fn concentration(&self, key: HeatKey) -> f64 {
        self.heatmap.top_share(TOP_K, key)
    }
}

fn workload_traffic(workload: &str, messages: usize) -> TrafficSpec {
    match workload {
        "hotspot" => TrafficSpec::Hotspot {
            hot_nodes: 2,
            hot_fraction: 0.7,
            rate_per_node_per_us: 0.02,
            len: 64,
            messages,
            arrival: ArrivalSpec::Poisson,
        },
        "incast" => TrafficSpec::Incast {
            servers: 2,
            rate_per_client_per_us: 0.02,
            len: 64,
            messages,
            arrival: ArrivalSpec::Poisson,
        },
        "storm" => TrafficSpec::BroadcastStorm {
            len: 32,
            stagger_ns: 200,
        },
        other => unreachable!("unknown workload {other}"),
    }
}

/// Runs the full grid ([`WORKLOADS`] × the latency-anatomy [`GRID`]: both
/// arms on `fault_free` and `links20`, SPAM alone on the live `storm20`).
/// `quick` shrinks the network and message count for CI. Each cell is a
/// single deterministic replication — a heatmap is a *spatial* profile of
/// one fabric, and
/// replications regenerate the topology (`rep_seed`), so cross-rep
/// folding would smear unrelated lattices together. Panics on any
/// scenario error — every cell is a composition the spec validator
/// accepts, so a failure is a bug, not a figure.
pub fn run_congestion_profile(quick: bool) -> Vec<CongestionCell> {
    let (switches, messages) = if quick { (32, 120) } else { (64, 400) };
    let mut cells = Vec::new();
    for workload in WORKLOADS {
        for (arm, regime) in GRID {
            let spec = cell_spec(
                format!("congestion-{workload}-{arm}-{regime}"),
                (arm, regime),
                switches,
                workload_traffic(workload, messages),
                EngineSpec {
                    metrics_every_ns: Some(SAMPLE_EVERY_NS),
                    ..EngineSpec::default()
                },
            );
            let (arts, out) = run_on_fabric(&spec, 0);
            // The cell's engine spec sets `metrics_every_ns`.
            #[allow(clippy::expect_used)]
            let m = out.metrics.as_ref().expect("telemetry enabled");
            cells.push(CongestionCell {
                workload,
                arm,
                regime,
                messages: out.messages.iter().filter(|msg| msg.is_complete()).count() as u64,
                samples: m.series.len() as u64,
                heatmap: CongestionHeatmap::build(&arts.topo, &arts.layout, &m.channels),
            });
        }
    }
    cells
}

/// The per-cell summary as CSV:
/// `workload,arm,regime,messages,samples,busy_ns,acquisitions,ocrq_wait_ns,header_stalls,top4_busy_share,top4_ocrq_share`.
pub fn congestion_csv(cells: &[CongestionCell]) -> String {
    let mut body = String::from(
        "workload,arm,regime,messages,samples,busy_ns,acquisitions,\
         ocrq_wait_ns,header_stalls,top4_busy_share,top4_ocrq_share\n",
    );
    for c in cells {
        let t = c.heatmap.totals();
        let _ = writeln!(
            body,
            "{},{},{},{},{},{},{},{},{},{:.4},{:.4}",
            c.workload,
            c.arm,
            c.regime,
            c.messages,
            c.samples,
            t.busy_ns,
            t.acquisitions,
            t.ocrq_wait_ns,
            t.header_stalls,
            c.concentration(HeatKey::BusyNs),
            c.concentration(HeatKey::OcrqWaitNs),
        );
    }
    body
}

/// Appends `"key": `, escaped by the JSON layer.
fn json_key(out: &mut String, key: &str) {
    json::write_escaped(out, key);
    out.push_str(": ");
}

/// Appends `{"key": value, ...}` on one line — the row shape of the
/// heat-map document — with every key and value printed by the JSON
/// layer.
fn json_row(out: &mut String, fields: &[(&str, Json)]) {
    let mut sep = "{";
    for (key, value) in fields {
        out.push_str(sep);
        json_key(out, key);
        out.push_str(&value.to_string_compact());
        sep = ", ";
    }
    out.push('}');
}

/// One heat map as a JSON object: the grid side, grand totals, and one
/// row per occupied cell.
fn heatmap_json(out: &mut String, map: &CongestionHeatmap) {
    let n = |v: u64| Json::Num(Num::U(v));
    let accum = |a: &ChannelAccum| {
        [
            ("busy_ns", n(a.busy_ns)),
            ("acquisitions", n(a.acquisitions)),
            ("ocrq_wait_ns", n(a.ocrq_wait_ns)),
            ("header_stalls", n(a.header_stalls)),
        ]
    };
    out.push_str("{\n  \"schema\": 1,\n  ");
    json_key(out, "side");
    out.push_str(&n(map.side as u64).to_string_compact());
    out.push_str(",\n  ");
    json_key(out, "totals");
    json_row(out, &accum(&map.totals()));
    out.push_str(",\n  \"cells\": [");
    let mut sep = "\n    ";
    for (row, col, switch, c) in map.occupied() {
        out.push_str(sep);
        let mut fields = vec![
            ("row", n(row as u64)),
            ("col", n(col as u64)),
            ("switch", n(u64::from(switch))),
            ("channels", n(u64::from(c.channels))),
        ];
        fields.extend(accum(&c.heat));
        json_row(out, &fields);
        sep = ",\n    ";
    }
    out.push_str("\n  ]\n}");
}

/// Every cell's full heatmap as one JSON document:
/// `{"schema": 1, "cells": [{workload, arm, regime, heatmap: {...}}]}`.
/// Keys, strings and numbers are printed by [`spam_scenario::json`]; the
/// line layout (one row per line, a heat map's body at column 0) is this
/// file's own and has readers, so it stays as it has always been.
pub fn heatmaps_json(cells: &[CongestionCell]) -> String {
    let mut body = String::from("{\n  \"schema\": 1,\n  \"cells\": [");
    let mut sep = "\n    {";
    for c in cells {
        for (key, label) in [
            ("workload", c.workload),
            ("arm", c.arm),
            ("regime", c.regime),
        ] {
            body.push_str(sep);
            json_key(&mut body, key);
            json::write_escaped(&mut body, label);
            sep = ", ";
        }
        body.push_str(",\n     ");
        json_key(&mut body, "heatmap");
        heatmap_json(&mut body, &c.heatmap);
        body.push('}');
        sep = ",\n    {";
    }
    body.push_str("\n  ]\n}\n");
    body
}

/// The machine-readable record: per `(workload, arm)`, one series of
/// OCRQ-wait concentration and one of total wire-busy µs, `x` = regime
/// index in [`REGIMES`] order, `reps` = delivered messages.
pub fn congestion_bench_json(cells: &[CongestionCell], quick: bool) -> BenchJson {
    // Every cell's regime is one of `REGIMES` (the grid is built from it).
    #[allow(clippy::unwrap_used)]
    let regime_x = |regime: &str| REGIMES.iter().position(|r| *r == regime).unwrap() as f64;
    let mut series: Vec<(String, Vec<PointSummary>)> = Vec::new();
    for workload in WORKLOADS {
        for arm in ["spam", "software"] {
            let mine: Vec<&CongestionCell> = cells
                .iter()
                .filter(|c| c.workload == workload && c.arm == arm)
                .collect();
            let point = |c: &CongestionCell, mean: f64| {
                PointSummary::exact(regime_x(c.regime), mean, c.messages)
            };
            series.push((
                format!("{workload}@{arm}:top4_ocrq_share"),
                mine.iter()
                    .map(|c| point(c, c.concentration(HeatKey::OcrqWaitNs)))
                    .collect(),
            ));
            series.push((
                format!("{workload}@{arm}:busy_us_total"),
                mine.iter()
                    .map(|c| point(c, c.heatmap.totals().busy_ns as f64 / 1_000.0))
                    .collect(),
            ));
        }
    }
    BenchJson::new(
        "congestion_profile",
        &[
            ("quick", quick.to_string()),
            ("workloads", WORKLOADS.join(",")),
            ("regimes", REGIMES.join(",")),
            ("sample_every_ns", SAMPLE_EVERY_NS.to_string()),
            ("top_k", TOP_K.to_string()),
        ],
        series,
    )
}

/// Renders the summary table for the terminal.
pub fn congestion_table(cells: &[CongestionCell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<8} {:<10} {:<11} {:>6} | {:>12} {:>12} {:>8} | {:>9} {:>9}",
        "workload",
        "arm",
        "regime",
        "msgs",
        "busy µs",
        "ocrq-wait µs",
        "stalls",
        "top4 busy",
        "top4 ocrq"
    );
    for c in cells {
        let t = c.heatmap.totals();
        let _ = writeln!(
            out,
            "  {:<8} {:<10} {:<11} {:>6} | {:>12.1} {:>12.1} {:>8} | {:>8.1}% {:>8.1}%",
            c.workload,
            c.arm,
            c.regime,
            c.messages,
            t.busy_ns as f64 / 1_000.0,
            t.ocrq_wait_ns as f64 / 1_000.0,
            t.header_stalls,
            c.concentration(HeatKey::BusyNs) * 100.0,
            c.concentration(HeatKey::OcrqWaitNs) * 100.0,
        );
    }
    out
}

/// The `congestion-profile` experiment: the summary table, the two
/// headline heatmaps (where a hotspot and an incast workload park their
/// OCRQ waiting under SPAM), the CSV, and every cell's full heatmap.
pub fn report(quick: bool) -> Report {
    let cells = run_congestion_profile(quick);
    let mut text = format!(
        "Congestion profile (fabric heat per workload, arm, and fault regime):\n{}",
        congestion_table(&cells)
    );
    for workload in ["hotspot", "incast"] {
        if let Some(c) = cells
            .iter()
            .find(|c| c.workload == workload && c.arm == "spam" && c.regime == "fault_free")
        {
            let _ = writeln!(text, "\n{workload} @ spam @ fault_free:");
            text.push_str(&c.heatmap.ascii(HeatKey::OcrqWaitNs));
        }
    }
    Report {
        bench: congestion_bench_json(&cells, quick),
        files: vec![
            report::file("congestion_profile.csv", congestion_csv(&cells)),
            report::file("congestion_heatmaps.json", heatmaps_json(&cells)),
        ],
        text,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_localizes_and_renders() {
        let cells = run_congestion_profile(true);
        assert_eq!(cells.len(), WORKLOADS.len() * GRID.len());
        for c in &cells {
            let t = c.heatmap.totals();
            assert!(
                t.busy_ns > 0,
                "{}/{}/{}: no wire traffic",
                c.workload,
                c.arm,
                c.regime
            );
            assert!(t.acquisitions > 0);
            assert!(
                c.messages > 0,
                "{}/{}/{}: nothing delivered",
                c.workload,
                c.arm,
                c.regime
            );
            assert!(
                c.samples > 0,
                "{}/{}/{}: sampler never fired",
                c.workload,
                c.arm,
                c.regime
            );
            let share = c.concentration(HeatKey::BusyNs);
            assert!(share > 0.0 && share <= 1.0);
        }
        let cell = |w: &str, a: &str, r: &str| {
            cells
                .iter()
                .find(|c| c.workload == w && c.arm == a && c.regime == r)
                .unwrap()
        };

        // The comparison the bench exists to make: on the all-multicast
        // broadcast storm, software multicast expands every multicast
        // into a tree of unicasts that re-crosses the fabric once per
        // forwarding stage — strictly more wire-busy time than SPAM's
        // single replicated worms.
        let spam = cell("storm", "spam", "fault_free").heatmap.totals();
        let soft = cell("storm", "software", "fault_free").heatmap.totals();
        assert!(
            soft.busy_ns > spam.busy_ns,
            "software storm heat ({}) should exceed SPAM's ({})",
            soft.busy_ns,
            spam.busy_ns
        );

        // Localization: hotspot/incast traffic converges on 2 hot
        // processors, so the hottest TOP_K lattice cells must carry a
        // visibly outsized share of the contention integral (a uniform
        // spread over ~32 occupied cells would give TOP_K/32 ≈ 12 %).
        for w in ["hotspot", "incast"] {
            let c = cell(w, "spam", "fault_free");
            let share = c.concentration(HeatKey::OcrqWaitNs);
            assert!(
                share > 0.25,
                "{w}: top-{TOP_K} cells carry only {:.1}% of OCRQ wait",
                share * 100.0
            );
        }

        // Renders.
        let body = congestion_csv(&cells);
        assert!(body.starts_with("workload,arm,regime,"));
        assert_eq!(body.lines().count(), 1 + cells.len());
        let hbody = heatmaps_json(&cells);
        let doc = json::parse(&hbody).expect("the heat-map document is valid JSON");
        let maps = doc.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(maps.len(), cells.len());
        for (map, cell) in maps.iter().zip(&cells) {
            assert_eq!(
                map.get("workload").and_then(Json::as_str),
                Some(cell.workload)
            );
            let heat = map.get("heatmap").expect("heatmap");
            let side = heat
                .get("side")
                .and_then(Json::as_num)
                .and_then(|n| n.as_u64());
            assert_eq!(side, Some(cell.heatmap.side as u64));
            let rows = heat.get("cells").and_then(Json::as_arr).expect("rows");
            assert_eq!(rows.len(), cell.heatmap.occupied().count());
            let busy = heat
                .get("totals")
                .and_then(|t| t.get("busy_ns"))
                .and_then(Json::as_num)
                .and_then(|n| n.as_u64());
            assert_eq!(busy, Some(cell.heatmap.totals().busy_ns));
        }
        // The line layout has readers: one row per line, bodies at column 0.
        assert!(hbody.starts_with(
            "{\n  \"schema\": 1,\n  \"cells\": [\n    {\"workload\": \"hotspot\", \"arm\": \"spam\", \
             \"regime\": \"fault_free\",\n     \"heatmap\": {\n  \"schema\": 1,\n  \"side\": "
        ));
        assert!(hbody.ends_with("}\n  ]\n}}\n  ]\n}\n"));
        let bench = congestion_bench_json(&cells, true);
        assert_eq!(bench.series.len(), WORKLOADS.len() * 2 * 2);
        let table = congestion_table(&cells);
        assert!(table.contains("hotspot"));
        assert!(table.contains("storm20"));
    }
}
