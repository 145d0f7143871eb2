//! Topology and labeling statistics: what the §4 network distribution
//! actually looks like, and how the spanning-tree root shapes it.
//!
//! ```text
//! cargo run --example topology_explorer --release
//! ```

use netgraph::algo;
use spam_net::prelude::*;
use std::time::Instant;

fn tree_depth(topo: &netgraph::Topology, ud: &UpDownLabeling) -> u32 {
    topo.nodes().map(|n| ud.level(n)).max().unwrap_or(0)
}

/// Fastest of five runs, in µs, with the last run's result.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..5 {
        let start = Instant::now();
        out = Some(std::hint::black_box(f()));
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    (out.expect("five runs"), best)
}

/// Wall-clock of building a fabric. Everything is linear in nodes and
/// channels except the extended-ancestor matrix (n²/8 bytes, filled a
/// word at a time): the lattice column should grow about 4× per row, the
/// labeling column somewhat more as the matrix takes over, and a column
/// growing 16× per row means a quadratic loop is back. The timings vary
/// from run to run; every other line of this example is deterministic.
fn construction_cost() {
    println!("\nconstruction cost (seed 0, fastest of 5; timings vary by host):");
    println!(
        "{:>8} {:>7} {:>11} {:>12} {:>15}",
        "switches", "links", "lattice µs", "labeling µs", "labeling bytes"
    );
    for switches in [256usize, 1024, 4096] {
        let cfg = IrregularConfig::with_switches(switches);
        let (topo, lattice_us) = timed(|| cfg.generate(0));
        let (ud, labeling_us) = timed(|| UpDownLabeling::build(&topo, RootSelection::LowestId));
        println!(
            "{switches:>8} {:>7} {lattice_us:>11.0} {labeling_us:>12.0} {:>15}",
            topo.num_channels() / 2,
            ud.approx_bytes(),
        );
    }
}

fn main() {
    println!("§4 irregular lattice networks (one processor per switch):\n");
    println!(
        "{:>6} {:>6} {:>7} {:>9} {:>10} {:>11} {:>11}",
        "seed", "sw", "links", "diameter", "tree-depth", "down-cross", "root"
    );
    for switches in [128usize, 256] {
        for seed in 0..3u64 {
            let topo = IrregularConfig::with_switches(switches).generate(seed);
            let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
            let (_, _, _, down_cross) = ud.class_counts();
            println!(
                "{seed:>6} {switches:>6} {:>7} {:>9} {:>10} {:>11} {:>11}",
                topo.num_channels() / 2,
                algo::switch_diameter(&topo),
                tree_depth(&topo, &ud),
                down_cross,
                ud.root().to_string(),
            );
        }
    }

    println!("\nroot-selection policies on one 128-switch network (seed 0):");
    let topo = IrregularConfig::with_switches(128).generate(0);
    println!(
        "{:>18} {:>6} {:>11} {:>13}",
        "policy", "root", "tree-depth", "root-degree"
    );
    for (name, sel) in [
        ("lowest-id", RootSelection::LowestId),
        ("max-degree", RootSelection::MaxDegree),
        ("min-eccentricity", RootSelection::MinEccentricity),
        ("random(7)", RootSelection::RandomSeeded(7)),
    ] {
        let ud = UpDownLabeling::build(&topo, sel);
        println!(
            "{name:>18} {:>6} {:>11} {:>13}",
            ud.root().to_string(),
            tree_depth(&topo, &ud),
            topo.degree(ud.root()),
        );
    }

    println!("\nregular topologies (§5) under the same machinery:");
    for (name, t) in [
        ("8x8 mesh", netgraph::gen::regular::mesh2d(8, 8)),
        ("8x8 torus", netgraph::gen::regular::torus2d(8, 8)),
        ("6-cube", netgraph::gen::regular::hypercube(6)),
    ] {
        let ud = UpDownLabeling::build(&t, RootSelection::MinEccentricity);
        let (_, _, _, dc) = ud.class_counts();
        println!(
            "  {name:<10} switches {:>3}, diameter {:>2}, tree depth {:>2}, down-cross channels {dc}",
            t.num_switches(),
            algo::switch_diameter(&t),
            tree_depth(&t, &ud),
        );
    }

    construction_cost();
}
