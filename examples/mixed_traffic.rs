//! A miniature Figure 3: mixed 90 % unicast / 10 % multicast traffic at
//! increasing arrival rates, showing latency independence from multicast
//! size until saturation.
//!
//! It holds a `NetworkSim` itself, not a `ScenarioSpec`, to keep one
//! labeled network fixed across every rate and multicast size — a spec's
//! replications each generate their own lattice — and to show the traffic
//! generator's stream being submitted message by message.
//!
//! ```text
//! cargo run --example mixed_traffic --release
//! ```
//! (The full-scale figure is `cargo run -p spam-bench --bin experiment --release -- fig3`.)

use spam_net::prelude::*;

fn main() {
    let switches = 64;
    let messages = 1500;
    let topo = IrregularConfig::with_switches(switches).generate(3);
    let ud = UpDownLabeling::build(&topo, RootSelection::LowestId);
    let spam = SpamRouting::new(&topo, &ud);

    println!(
        "{switches}-node network, {messages} messages per point, 90% unicast / 10% multicast\n"
    );
    println!(
        "{:>10} | {:>12} {:>12} {:>12}",
        "rate /µs", "k=8 (µs)", "k=16 (µs)", "k=32 (µs)"
    );
    for rate in [0.005f64, 0.01, 0.02, 0.03, 0.04] {
        let mut row = format!("{rate:>10.3} |");
        for k in [8usize, 16, 32] {
            let stream = MixedTrafficConfig::figure3(rate, k, messages)
                .generate(&topo, 42)
                .expect("valid mixed-traffic config");
            let mut sim = NetworkSim::new(&topo, spam.clone(), SimConfig::paper());
            for spec in stream {
                sim.submit(spec).unwrap();
            }
            let out = sim.run();
            assert!(out.all_delivered(), "deadlock at rate {rate}, k {k}");
            let warmup = (messages / 10) as u64;
            let mean = out.mean_latency_us(|m| m.spec.tag >= warmup).unwrap();
            row.push_str(&format!(" {mean:>12.2}"));
        }
        println!("{row}");
    }
    println!("\n(columns nearly coincide: latency is largely independent of the");
    println!(" number of destinations per multicast — the Figure 3 observation)");
}
