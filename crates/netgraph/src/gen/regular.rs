//! Regular switch topologies (§5: "for regular topologies such as meshes
//! and n-cubes, judicious selection of spanning trees ... may have
//! significant effects on performance").
//!
//! Every generator attaches one processor per switch, mirroring the paper's
//! experimental setup, so the same traffic machinery runs unchanged on
//! regular and irregular networks.

use crate::ids::NodeId;
use crate::topology::{Topology, TopologyBuilder};

/// Links two nodes a generator has added and not linked yet: both exist,
/// they differ, and each generator names a pair once, so `link` has
/// nothing to reject.
#[allow(clippy::expect_used)]
fn join(b: &mut TopologyBuilder, x: NodeId, y: NodeId) {
    b.link(x, y)
        .expect("a generator links each pair of its nodes once");
}

/// Attaches one processor to every switch already present in `b`.
fn attach_processors(b: &mut TopologyBuilder, switches: &[NodeId]) {
    for &s in switches {
        let p = b.add_processor();
        join(b, p, s);
    }
}

/// A `rows × cols` 2-D mesh of switches.
pub fn mesh2d(rows: usize, cols: usize) -> Topology {
    assert!(rows > 0 && cols > 0, "mesh dimensions must be positive");
    let mut b = Topology::builder();
    let sw = b.add_switches(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                join(&mut b, sw[i], sw[i + 1]);
            }
            if r + 1 < rows {
                join(&mut b, sw[i], sw[i + cols]);
            }
        }
    }
    attach_processors(&mut b, &sw);
    b.build()
}

/// A `rows × cols` 2-D torus (mesh with wraparound links).
pub fn torus2d(rows: usize, cols: usize) -> Topology {
    assert!(
        rows >= 3 && cols >= 3,
        "torus needs both dimensions >= 3 to avoid duplicate links"
    );
    let mut b = Topology::builder();
    let sw = b.add_switches(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            if !b.linked(sw[i], sw[right]) {
                join(&mut b, sw[i], sw[right]);
            }
            if !b.linked(sw[i], sw[down]) {
                join(&mut b, sw[i], sw[down]);
            }
        }
    }
    attach_processors(&mut b, &sw);
    b.build()
}

/// An `n`-dimensional hypercube of `2^n` switches.
pub fn hypercube(n: u32) -> Topology {
    assert!(n <= 16, "hypercube dimension unreasonably large");
    let count = 1usize << n;
    let mut b = Topology::builder();
    let sw = b.add_switches(count);
    for i in 0..count {
        for d in 0..n {
            let j = i ^ (1 << d);
            if j > i {
                join(&mut b, sw[i], sw[j]);
            }
        }
    }
    attach_processors(&mut b, &sw);
    b.build()
}

/// A ring of `n ≥ 3` switches.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "ring needs at least 3 switches");
    let mut b = Topology::builder();
    let sw = b.add_switches(n);
    for i in 0..n {
        join(&mut b, sw[i], sw[(i + 1) % n]);
    }
    attach_processors(&mut b, &sw);
    b.build()
}

/// A star: one hub switch connected to `leaves` leaf switches.
pub fn star(leaves: usize) -> Topology {
    assert!(leaves >= 1, "star needs at least one leaf");
    let mut b = Topology::builder();
    let hub = b.add_switch();
    let mut all = vec![hub];
    for _ in 0..leaves {
        let s = b.add_switch();
        join(&mut b, hub, s);
        all.push(s);
    }
    attach_processors(&mut b, &all);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{is_connected, switch_diameter};

    #[test]
    fn mesh_structure() {
        let t = mesh2d(3, 4);
        assert_eq!(t.num_switches(), 12);
        assert_eq!(t.num_processors(), 12);
        // Links: horizontal 3*3 + vertical 2*4 = 17, plus 12 processor links.
        assert_eq!(t.num_channels(), 2 * (17 + 12));
        assert!(is_connected(&t));
        assert_eq!(switch_diameter(&t), 2 + 3);
        t.validate(5).unwrap(); // inner switch: 4 mesh + 1 processor
    }

    #[test]
    fn torus_is_degree_regular() {
        let t = torus2d(4, 4);
        assert_eq!(t.num_switches(), 16);
        for s in t.switches() {
            assert_eq!(t.degree(s), 5, "4 torus links + processor");
        }
        assert_eq!(switch_diameter(&t), 4);
        t.validate(5).unwrap();
    }

    #[test]
    fn torus_minimum_size_has_no_duplicates() {
        let t = torus2d(3, 3);
        t.validate(5).unwrap();
    }

    #[test]
    fn hypercube_structure() {
        let t = hypercube(4);
        assert_eq!(t.num_switches(), 16);
        for s in t.switches() {
            assert_eq!(t.degree(s), 5, "4 cube links + processor");
        }
        assert_eq!(switch_diameter(&t), 4);
        t.validate(5).unwrap();
    }

    #[test]
    fn hypercube_dim_zero_is_single_switch() {
        let t = hypercube(0);
        assert_eq!(t.num_switches(), 1);
        t.validate(8).unwrap();
    }

    #[test]
    fn ring_and_star() {
        let r = ring(6);
        assert_eq!(switch_diameter(&r), 3);
        r.validate(3).unwrap();

        let s = star(7);
        assert_eq!(s.num_switches(), 8);
        assert_eq!(switch_diameter(&s), 2);
        s.validate(8).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        ring(2);
    }
}
