//! Pins that fail if the experiments' move onto the `ScenarioSpec` path
//! drifts: the literals are the values the hand-built replications
//! returned at the commit before the move, and the committed
//! `BENCH_fault_sweep.json` predates it too.

use spam_bench::experiment::{parse, usage, EXPERIMENTS};
use spam_bench::{fault_sweep, fig2, fig3};
use spam_scenario::json::{self, Json};

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn replications_return_the_hand_built_bits() {
    let bits = |x: f64| format!("{x:?} = {:#018x}", x.to_bits());
    assert_eq!(
        bits(fig2::single_multicast_latency_us(32, 8, 128, 42)),
        "11.83 = 0x4027a8f5c28f5c29"
    );
    assert_eq!(
        bits(fig3::mixed_traffic_mean_latency_us(
            24, 0.01, 4, 150, 0.1, 5
        )),
        "11.61466666666667 = 0x40273ab596de8ca3"
    );
    let (spam, software) = fault_sweep::paired_replication(24, 0.15, 4, 32, 7);
    assert_eq!(bits(spam), "10.82 = 0x4025a3d70a3d70a4");
    assert_eq!(bits(software), "30.62 = 0x403e9eb851eb851f");
}

#[test]
fn full_fault_sweep_grid_reproduces_the_committed_record() {
    let committed = std::fs::read_to_string("../../BENCH_fault_sweep.json").expect("committed");
    let committed = json::parse(&committed).expect("valid JSON");
    let fresh = fault_sweep::report(false).bench.to_json();
    for key in ["params", "series"] {
        assert_eq!(fresh.get(key), committed.get(key), "{key} drifted");
    }
    let series = fresh.get("series").and_then(Json::as_arr).unwrap();
    assert_eq!(series.len(), 4, "two arms x two multicast sizes");
}

#[test]
fn experiment_table_resolves_every_name_once() {
    for (i, e) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|other| other.name != e.name),
            "duplicate experiment {}",
            e.name
        );
        let (found, quick) = parse(&args(&[e.name])).expect("name resolves");
        assert_eq!((found.name, quick), (e.name, false));
        let (found, quick) = parse(&args(&["--quick", e.name])).expect("flag order is free");
        assert_eq!((found.name, quick), (e.name, true));
        assert!(usage().contains(e.name), "usage omits {}", e.name);
    }
}

#[test]
fn anything_else_is_the_usage_error() {
    for bad in [
        &[][..],
        &["--quick"],
        &["fig9"],
        &["fig2", "--nodes", "128"],
        &["fig2", "--quick", "--quick"],
        &["fig2", "fig3"],
        &["fault_sweep"],
    ] {
        let err = parse(&args(bad)).expect_err("rejected");
        assert!(err.contains("usage: experiment <name> [--quick]"), "{err}");
        assert!(err.contains("congestion-profile"), "lists every experiment");
    }
}
