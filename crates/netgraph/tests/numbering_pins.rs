//! Nothing is renumbered: node ids, channel ids and the `(peer, id)` order
//! of every adjacency list are what the golden digests, the snapshots and
//! every seeded experiment downstream rest on. These digests were recorded
//! before the builder's duplicate check and the adjacency storage were
//! changed, and passed unchanged after.

use netgraph::gen::fixtures::figure1;
use netgraph::gen::lattice::{IrregularConfig, LatticeStrategy};
use netgraph::gen::regular::{mesh2d, torus2d};
use netgraph::{ChannelId, DegradedTopology, NodeId, Topology, TopologyError};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// `(channels, out_channels, in_channels, processor_of, switch_of)`,
    /// each list length-prefixed so a boundary cannot move unnoticed.
    fn topology(&mut self, t: &Topology) {
        self.word(t.num_nodes() as u64);
        self.word(t.num_channels() as u64);
        for c in t.channel_ids() {
            let ch = t.channel(c);
            self.word(ch.src.0 as u64);
            self.word(ch.dst.0 as u64);
        }
        for v in t.nodes() {
            self.word(t.is_switch(v) as u64);
            for list in [t.out_channels(v), t.in_channels(v)] {
                self.word(list.len() as u64);
                for c in list {
                    self.word(c.0 as u64);
                }
            }
            // A masked topology keeps dead nodes as isolated ones, and an
            // isolated processor has no switch to ask for.
            let partner = if t.is_switch(v) {
                t.processor_of(v)
            } else if t.degree(v) == 0 {
                None
            } else {
                Some(t.switch_of(v))
            };
            self.word(partner.map_or(u64::MAX, |p| p.0 as u64));
        }
    }
}

/// One line per pinned object, so a failure prints every digest at once.
fn pin(name: &str, d: &Digest) -> String {
    format!("{name}: {:#018x}", d.0)
}

#[test]
fn lattices_keep_their_numbering() {
    // Per size: 3 seeds × both strategies, folded in that order.
    let got: Vec<String> = [16usize, 64, 256, 1024]
        .into_iter()
        .map(|switches| {
            let mut d = Digest::new();
            for seed in [0u64, 7, 1998] {
                for strategy in [
                    LatticeStrategy::ConnectedGrowth,
                    LatticeStrategy::UniformRetry,
                ] {
                    let t = IrregularConfig::with_switches(switches)
                        .strategy(strategy)
                        .generate(seed);
                    d.topology(&t);
                }
            }
            pin(&format!("{switches} switches"), &d)
        })
        .collect();
    assert_eq!(
        got,
        [
            "16 switches: 0xbdd8d41901953bcf",
            "64 switches: 0xe593b0f784adc6d1",
            "256 switches: 0x4bb4ce68e9b8f571",
            "1024 switches: 0xfab1c2e30915975d",
        ]
    );
}

#[test]
fn regular_topologies_figure1_and_a_masked_view_keep_their_numbering() {
    let mut got = Vec::new();
    for (name, t) in [
        ("mesh2d(5, 7)", mesh2d(5, 7)),
        ("torus2d(4, 6)", torus2d(4, 6)),
        ("figure1", figure1().0),
    ] {
        let mut d = Digest::new();
        d.topology(&t);
        got.push(pin(name, &d));
    }

    // A damaged view: every sixth link and two switches dead. The masked
    // topology recompacts channel ids; the map says where each one went.
    let base = IrregularConfig::with_switches(64).generate(5);
    let mut view = DegradedTopology::new(&base);
    for (i, c) in base.channel_ids().step_by(2).enumerate() {
        if i % 6 == 0 {
            view.kill_link(c);
        }
    }
    view.kill_switch(NodeId(9));
    view.kill_switch(NodeId(40));
    let (masked, map) = view.masked_topology();
    assert!(masked.num_channels() < base.num_channels());
    let mut d = Digest::new();
    d.topology(&masked);
    for m in &map {
        d.word(m.map_or(u64::MAX, |c: ChannelId| c.0 as u64));
    }
    got.push(pin("masked lattice + channel map", &d));

    assert_eq!(
        got,
        [
            "mesh2d(5, 7): 0x79fbe71cb25b5699",
            "torus2d(4, 6): 0xea5c20d638654605",
            "figure1: 0xfe8e834bcb61067b",
            "masked lattice + channel map: 0xe53911f0a9858d71",
        ]
    );
}

#[test]
fn builder_contract() {
    let mut b = Topology::builder();
    let s = b.add_switches(4);
    let p = b.add_processor();
    let ghost = NodeId(99);

    // A missing endpoint is reported before anything else, first argument
    // first; then a self-loop; then a duplicate, named as it was asked.
    assert_eq!(b.link(ghost, s[0]), Err(TopologyError::NoSuchNode(ghost)));
    assert_eq!(b.link(s[0], ghost), Err(TopologyError::NoSuchNode(ghost)));
    assert_eq!(b.link(ghost, ghost), Err(TopologyError::NoSuchNode(ghost)));
    assert_eq!(b.link(s[1], s[1]), Err(TopologyError::SelfLoop(s[1])));
    b.link(s[0], s[1]).unwrap();
    b.link(s[2], s[0]).unwrap();
    b.link(p, s[0]).unwrap();
    assert_eq!(
        b.link(s[0], s[1]),
        Err(TopologyError::DuplicateLink(s[0], s[1]))
    );
    assert_eq!(
        b.link(s[1], s[0]),
        Err(TopologyError::DuplicateLink(s[1], s[0]))
    );
    assert_eq!(
        b.link(s[0], s[2]),
        Err(TopologyError::DuplicateLink(s[0], s[2]))
    );

    // `linked` is symmetric and false for strangers and missing nodes.
    assert!(b.linked(s[0], s[1]) && b.linked(s[1], s[0]));
    assert!(b.linked(s[0], s[2]) && b.linked(s[2], s[0]));
    assert!(b.linked(p, s[0]) && b.linked(s[0], p));
    assert!(!b.linked(s[1], s[2]) && !b.linked(s[3], s[0]));
    assert!(!b.linked(s[0], ghost) && !b.linked(ghost, s[0]));

    // `degree` counts accepted links only.
    let degrees: Vec<usize> = (0..5).map(|i| b.degree(NodeId(i))).collect();
    assert_eq!(degrees, [3, 1, 1, 0, 1]);
    assert_eq!(b.degree(ghost), 0);

    // The rejected calls left no trace: three links, in insertion order.
    let t = b.build();
    assert_eq!(t.num_channels(), 6);
    let ends: Vec<(NodeId, NodeId)> = t
        .channel_ids()
        .step_by(2)
        .map(|c| (t.channel(c).src, t.channel(c).dst))
        .collect();
    assert_eq!(ends, [(s[0], s[1]), (s[2], s[0]), (p, s[0])]);
    assert_eq!(t.degree(s[3]), 0);
    assert!(t.out_channels(s[3]).is_empty() && t.in_channels(s[3]).is_empty());
}
