//! What one message costs the heap from spec to delivery times: nothing,
//! for a unicast and for a multicast of eight, and exactly one block, its
//! destination list, for a multicast of nine. A message a completion hook
//! injects costs nothing either: the hook pushes it into a buffer the
//! engine reuses.
//!
//! Each pin counts the allocations of a whole run — building the specs,
//! `submit`, `run` and reading every delivery time back — at two message
//! counts with a counting global allocator. The arenas are sized for the
//! stream with `NetworkSim::reserve`, and each message is generated after
//! the one before it has drained, so the two runs differ only in how many
//! messages they carry. `harness = false` keeps the process single-threaded
//! and the counts exact.

use desim::Time;
use netgraph::{NodeId, Topology};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use wormsim::routing::OracleRouting;
use wormsim::{CompletionHook, MessageSpec, MsgId, NetworkSim, QueueKind, SimConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pass-through to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// A two-level tree: the source's switch links three switches, the first
/// two with four processors each, the third with one. No switch forks a
/// worm more than four ways, so a segment's outputs stay in place.
struct Fabric {
    topo: Topology,
    src: NodeId,
    dests: Vec<NodeId>,
    oracle: OracleRouting,
}

/// Tags of the scripted plans: to the first destination, the first eight
/// and all nine.
const PLANS: [(u64, usize); 3] = [(1, 1), (8, 8), (9, 9)];

fn fabric() -> Fabric {
    let mut b = Topology::builder();
    let root = b.add_switch();
    let src = b.add_processor();
    b.link(src, root).unwrap();
    let mut leaves = Vec::new();
    let mut dests = Vec::new();
    for procs in [4, 4, 1] {
        let s = b.add_switch();
        b.link(root, s).unwrap();
        for _ in 0..procs {
            let p = b.add_processor();
            b.link(s, p).unwrap();
            leaves.push(s);
            dests.push(p);
        }
    }
    let topo = b.build();
    let mut oracle = OracleRouting::new(&topo);
    for (tag, n) in PLANS {
        let mut edges: Vec<(NodeId, NodeId)> = leaves[..n].iter().map(|&s| (root, s)).collect();
        edges.dedup();
        edges.extend(leaves[..n].iter().zip(&dests[..n]).map(|(&s, &p)| (s, p)));
        oracle.add_tree_edges(tag, edges).unwrap();
    }
    Fabric {
        topo,
        src,
        dests,
        oracle,
    }
}

/// Allocations of one run of `count` messages to the first `n`
/// destinations: specs, submit, run, and every delivery time read back.
fn run(f: &Fabric, n: usize, count: u64) -> u64 {
    let cfg = SimConfig::paper().with_queue(QueueKind::Bucket);
    let mut sim = NetworkSim::new(&f.topo, f.oracle.clone(), cfg);
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.reserve(count as usize, count as usize * n);
    for i in 0..count {
        let spec = MessageSpec::multicast(f.src, f.dests[..n].iter().copied(), 32)
            .at(Time::from_us(40 * i))
            .tag(n as u64);
        sim.submit(spec).unwrap();
    }
    let out = sim.run();
    let mut delivered = 0;
    for m in &out.messages {
        delivered += out.dest_times(m).iter().filter(|t| t.is_some()).count();
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    assert_eq!(delivered, n * count as usize);
    allocs
}

/// Allocations each of 8 more messages to `n` destinations adds.
fn per_message(f: &Fabric, n: usize) -> f64 {
    let (few, many) = (run(f, n, 8), run(f, n, 16));
    (many as f64 - few as f64) / 8.0
}

/// A closed loop of window one: each completed unicast injects the next,
/// 10 µs after it lands, until `left` runs out.
struct Relay {
    left: u64,
}

impl CompletionHook for Relay {
    fn on_complete(&mut self, _m: MsgId, spec: &MessageSpec, at: Time, out: &mut Vec<MessageSpec>) {
        if self.left > 0 {
            self.left -= 1;
            out.push(spec.clone().at(at + desim::Duration::from_us(10)));
        }
    }
}

/// Allocations of a closed-loop run of `count` unicasts, one submitted
/// and the rest injected by the hook as each completes.
fn closed_loop(f: &Fabric, count: u64) -> u64 {
    let cfg = SimConfig::paper().with_queue(QueueKind::Bucket);
    let mut sim = NetworkSim::new(&f.topo, f.oracle.clone(), cfg);
    let before = ALLOCS.load(Ordering::Relaxed);
    sim.reserve(count as usize, count as usize);
    sim.submit(MessageSpec::unicast(f.src, f.dests[0], 32).tag(1))
        .unwrap();
    let out = sim.run_with_hook(&mut Relay { left: count - 1 });
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(out.all_delivered(), "{:?} {:?}", out.error, out.deadlock);
    assert_eq!(out.messages.len() as u64, count);
    allocs
}

fn main() {
    let f = fabric();
    let _ = run(&f, 9, 2); // one-time runtime set-up
    for (n, want) in [(1, 0.0), (8, 0.0), (9, 1.0)] {
        let got = per_message(&f, n);
        assert_eq!(
            got, want,
            "a message to {n} destinations allocates {got} times (want {want})"
        );
        println!("message_alloc::{n}_destinations ... ok ({got} allocations per message)");
    }
    let (few, many) = (closed_loop(&f, 8), closed_loop(&f, 16));
    assert_eq!(
        few,
        many,
        "8 more hook-injected messages took {} more allocations",
        many as i64 - few as i64
    );
    println!("message_alloc::closed_loop ... ok (0 allocations per injected message)");
}
