//! Topology generators for experiments, and [`Topo`], the one type every
//! run takes its initial topology as.
//!
//! All generators target the default radio range of 1.5 distance units: they
//! place nodes so that exactly the intended pairs fall within range.

use std::borrow::Cow;

use manet_sim::{Position, SimRng, World};

/// The initial topology of a run.
#[derive(Clone, Debug)]
pub enum Topo {
    /// Unit-disk geometry: node positions (links follow the radio range).
    Geo(Vec<(f64, f64)>),
    /// Explicit graph: `n` nodes wired exactly by `edges` (movement
    /// commands are rejected by such worlds).
    Graph {
        /// Node count.
        n: usize,
        /// Undirected edges.
        edges: Vec<(u32, u32)>,
    },
}

impl Topo {
    /// Node count of the topology.
    pub fn len(&self) -> usize {
        match self {
            Topo::Geo(p) => p.len(),
            Topo::Graph { n, .. } => *n,
        }
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Undirected edge list: the unit-disk links at `radio_range` for a
    /// geometry, the given edges for an explicit graph.
    pub fn edges(&self, radio_range: f64) -> Cow<'_, [(u32, u32)]> {
        match self {
            Topo::Geo(positions) => Cow::Owned(unit_disk_edges(radio_range, positions)),
            Topo::Graph { edges, .. } => Cow::Borrowed(edges),
        }
    }
}

/// The links of `positions` under the unit-disk rule at `radio_range`, each
/// once as `(a, b)` with `a < b`, in ascending order.
pub fn unit_disk_edges(radio_range: f64, positions: &[(f64, f64)]) -> Vec<(u32, u32)> {
    let world = World::new(
        radio_range,
        positions.iter().map(|&p| Position::from(p)).collect(),
    );
    world.csr_snapshot().edges().collect()
}

/// Largest vertex degree (δ) of the simple graph on `n` nodes with `edges`.
pub fn max_degree(n: usize, edges: &[(u32, u32)]) -> usize {
    let mut deg = vec![0usize; n];
    for &(a, b) in edges {
        deg[a as usize] += 1;
        deg[b as usize] += 1;
    }
    deg.into_iter().max().unwrap_or(0)
}

/// A line (path graph): `p_i — p_{i+1}`, unit spacing.
pub fn line(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| (i as f64, 0.0)).collect()
}

/// A ring (cycle graph): adjacent members at distance 1.0.
///
/// # Panics
///
/// Panics if `n < 3` (smaller rings are not cycles).
pub fn ring(n: usize) -> Vec<(f64, f64)> {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let radius = 1.0 / (2.0 * (std::f64::consts::PI / n as f64).sin());
    (0..n)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            (radius * a.cos(), radius * a.sin())
        })
        .collect()
}

/// A `w × h` grid with 4-neighbor connectivity (spacing 1.2: the diagonal
/// `1.2·√2 ≈ 1.70` exceeds the 1.5 radio range).
pub fn grid(w: usize, h: usize) -> Vec<(f64, f64)> {
    let mut out = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            out.push((x as f64 * 1.2, y as f64 * 1.2));
        }
    }
    out
}

/// A clique: `n` nodes packed into a disc of diameter < 1.5 so everyone
/// hears everyone (maximum-contention topology, δ = n − 1).
pub fn clique(n: usize) -> Vec<(f64, f64)> {
    if n == 1 {
        return vec![(0.0, 0.0)];
    }
    let radius = 0.6;
    (0..n)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / n as f64;
            (radius * a.cos(), radius * a.sin())
        })
        .collect()
}

/// `n` points uniform in a square of side `side` (a random unit-disk graph
/// once the 1.5 radio range is applied). Deterministic in `seed`.
pub fn random_points(n: usize, side: f64, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen_f64() * side, rng.gen_f64() * side))
        .collect()
}

/// A random unit-disk graph with average density tuned to be connected with
/// high probability: side = √(n / 1.6), i.e. ≈ 1.6 nodes per unit square
/// against the 1.5 radio range (≈ 11 expected neighbors).
pub fn random_connected(n: usize, seed: u64) -> Vec<(f64, f64)> {
    random_points(n, (n as f64 / 1.6).sqrt().max(1.0), seed)
}

/// Edge list of a true star: node 0 is the hub, nodes `1..=leaves` are
/// leaves adjacent only to the hub. Unit-disk geometry cannot embed stars
/// with more than five leaves, so star experiments use the explicit-graph
/// engine ([`manet_sim::World::from_adjacency`]). Returns `(n, edges)`.
pub fn star_edges(leaves: usize) -> (usize, Vec<(u32, u32)>) {
    (leaves + 1, (1..=leaves as u32).map(|i| (0, i)).collect())
}

/// Edge list of a complete binary tree on `n` nodes (node 0 the root,
/// children of `i` at `2i+1`, `2i+2`). Returns `(n, edges)`.
pub fn binary_tree_edges(n: usize) -> (usize, Vec<(u32, u32)>) {
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for c in [2 * i + 1, 2 * i + 2] {
            if (c as usize) < n {
                edges.push((i, c));
            }
        }
    }
    (n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::NodeId;

    fn world(pos: Vec<(f64, f64)>) -> World {
        World::new(1.5, pos.into_iter().map(Into::into).collect())
    }

    #[test]
    fn line_is_a_path() {
        let w = world(line(5));
        assert_eq!(w.max_degree(), 2);
        assert_eq!(w.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(w.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
    }

    #[test]
    fn ring_is_a_cycle() {
        for n in [3usize, 5, 8, 16] {
            let w = world(ring(n));
            for i in 0..n as u32 {
                assert_eq!(w.neighbors(NodeId(i)).len(), 2, "ring({n}) node {i}");
            }
        }
    }

    #[test]
    fn grid_is_four_connected() {
        let w = world(grid(4, 4));
        assert_eq!(w.max_degree(), 4);
        // Corner has 2 neighbors.
        assert_eq!(w.neighbors(NodeId(0)).len(), 2);
        // Center has 4.
        assert_eq!(w.neighbors(NodeId(5)).len(), 4);
    }

    #[test]
    fn clique_is_complete() {
        for n in [1usize, 2, 5, 10] {
            let w = world(clique(n));
            for i in 0..n as u32 {
                assert_eq!(w.neighbors(NodeId(i)).len(), n - 1, "clique({n})");
            }
        }
    }

    #[test]
    fn star_and_tree_edges() {
        let (n, edges) = star_edges(6);
        assert_eq!(n, 7);
        assert_eq!(edges.len(), 6);
        let w = World::from_adjacency(n, &edges);
        assert_eq!(w.neighbors(NodeId(0)).len(), 6);
        assert_eq!(w.neighbors(NodeId(3)), &[NodeId(0)]);

        let (n, edges) = binary_tree_edges(7);
        let w = World::from_adjacency(n, &edges);
        assert_eq!(w.neighbors(NodeId(0)).len(), 2);
        assert_eq!(w.neighbors(NodeId(1)).len(), 3); // parent + 2 children
        assert_eq!(w.neighbors(NodeId(6)), &[NodeId(2)]);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        assert_eq!(random_points(10, 5.0, 42), random_points(10, 5.0, 42));
        assert_ne!(random_points(10, 5.0, 42), random_points(10, 5.0, 43));
    }

    #[test]
    fn random_connected_is_usually_connected() {
        let w = world(random_connected(40, 7));
        let reachable = (1..40u32)
            .filter(|&i| w.hop_distance(NodeId(0), NodeId(i)).is_some())
            .count();
        assert!(reachable >= 35, "only {reachable}/39 reachable");
    }
}
