//! Pins that fail if the experiments' move onto the `ScenarioSpec` path
//! drifts: the literals are the values the hand-built replications
//! returned at the commit before the move, and the committed
//! `BENCH_fault_sweep.json` predates it too. The golden at the end pins
//! every byte all twelve `--quick` experiments hand the binary.

use spam_bench::cli::{BISECT_DIVERGENCE, FUZZ_SPECS, SCENARIO_RUN};
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
    // The other three binaries walk their arguments the same way: a
    // typo is the usage text, never a run of the default.
    for (grammar, good, bad) in [
        (
            SCENARIO_RUN,
            &[&[][..], &["--quick"], &["--dir", "d", "--quick"]][..],
            &[
                &["--quik"][..],
                &["--dir"],
                &["--quick", "--quick"],
                &["extra"],
                &["--resume"],
            ][..],
        ),
        (
            FUZZ_SPECS,
            &[
                &[][..],
                &["--quick", "--mutants", "40"],
                &["--seed", "7", "--promote"],
            ][..],
            &[
                &["--mutant", "10"][..],
                &["--mutants"],
                &["--seed", "1", "--seed", "2"],
                &["--budget-ms", "5"],
            ][..],
        ),
        (
            BISECT_DIVERGENCE,
            &[
                &["s.json"][..],
                &["--rep", "2", "s.json", "--out", "r.json"],
            ][..],
            &[
                &[][..],
                &["--rep", "2"],
                &["a.json", "b.json"],
                &["s.json", "--fast"],
            ][..],
        ),
    ] {
        for ok in good {
            grammar.parse(&args(ok)).expect("accepted");
        }
        for typo in bad {
            let err = grammar.parse(&args(typo)).expect_err("rejected");
            assert!(err.ends_with(grammar.usage), "{err}");
        }
    }
    // A value that is not a number is the same error, where it is read.
    let mutants = FUZZ_SPECS.parse(&args(&["--mutants", "many"])).unwrap();
    let err = mutants.parsed::<usize>("--mutants").expect_err("rejected");
    assert!(err.ends_with(FUZZ_SPECS.usage), "{err}");
    let parsed = FUZZ_SPECS.parse(&args(&["--mutants", "40"])).unwrap();
    assert_eq!(parsed.parsed::<usize>("--mutants"), Ok(Some(40)));
    assert_eq!(parsed.parsed::<u64>("--seed"), Ok(None));
    assert!(!parsed.flag("--quick"));
}

/// What each `experiment <name> --quick` printed and wrote at the commit
/// before `spam-bench` was cut down to one cell driver, one fabric and
/// one record writer: `part:fnv1a` for the terminal text, every results
/// file, and the `BENCH_<name>.json` body, in that order.
#[rustfmt::skip] // one line per experiment, in table order
const GOLDEN: [&str; 12] = [
    "text:db8a0714879b9219 fig2_128.csv:0c229ea3af1c649c fig2_256.csv:171d7ab32ae95ab5 bench:1f119151c422acac",
    "text:ed8b9987ed8e685f fig3_k4.csv:eebb829259dc6a6d fig3_k8.csv:cef3d2c0b0402596 bench:705abec96d086475",
    "text:b2f3baf3e91ed263 broadcast_table.csv:983e9781a1709d00 bench:4debb5797963e3e6",
    "text:f69aba5b65efe24d bench:8cd251ce472c859b",
    "text:214b50e763414efb ablation_root.csv:bdad0f10a6237a28 bench:515eb3f8b0214263",
    "text:679ad92cd990520f ablation_buffers.csv:a4a574c0b0969735 bench:3d436c5634fb18bf",
    "text:e6e855e9861f7d31 ablation_partition.csv:0394640ce903d33f bench:6d8492bacf9272b7",
    "text:ae9ee0f9f7d04573 ablation_baseline_spam.csv:cbfdc4c537d1d472 ablation_baseline_software.csv:3030457586be9e74 bench:8daf97775bc7abdc",
    "text:cdad413d67dfc87e fault_sweep.csv:be6da030fae7525a bench:87ac96123f690a97",
    "text:69c6066d652eefdd reconfig_sweep.csv:d4f095c866e83785 bench:ebf831ab1ad8cb62",
    "text:4dd6ed50287b3f17 latency_anatomy.csv:10fcc04b22f0924f fig2_single_multicast.perfetto-trace:4ea47ff2bc65cf28 bench:39c99df041777435",
    "text:4d914123eea481cb congestion_profile.csv:59fa2bf0d7f644e8 congestion_heatmaps.json:b973c6219ea970a2 bench:1a4219f7917e664c",
];

#[test]
fn every_quick_experiment_reproduces_its_golden_bytes() {
    let mut drifted = String::new();
    for (e, golden) in EXPERIMENTS.iter().zip(GOLDEN) {
        let report = (e.run)(true);
        let bench = report.bench.to_json().to_string_pretty();
        let mut parts = vec![("text", report.text.as_bytes())];
        parts.extend(report.files.iter().map(|(n, b)| (n.as_str(), &b[..])));
        parts.push(("bench", bench.as_bytes()));
        let fresh: Vec<String> = parts
            .iter()
            .map(|(name, bytes)| format!("{name}:{:016x}", wormsim::fnv1a(bytes)))
            .collect();
        if fresh.join(" ") != golden {
            let mut pinned = golden.split(' ');
            let part = fresh.iter().find(|f| pinned.next() != Some(f.as_str()));
            let part = part.map_or("a part that vanished", |f| &f[..f.len() - 17]);
            drifted += &format!("\n{}: first differs at `{part}`", e.name);
        }
    }
    assert!(drifted.is_empty(), "{drifted}");
}
