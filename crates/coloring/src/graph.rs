//! A small undirected-graph helper used by the coloring procedures.

use std::collections::{BTreeMap, BTreeSet};

/// An undirected graph over `u32` vertex labels, stored as sorted adjacency
/// sets for deterministic traversal.
///
/// ```
/// use coloring::AdjGraph;
/// let g = AdjGraph::from_edges([(0, 1), (1, 2)]);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.adjacent(0, 1));
/// assert!(!g.adjacent(0, 2));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct AdjGraph {
    adj: BTreeMap<u32, BTreeSet<u32>>,
}

impl AdjGraph {
    /// An empty graph.
    pub fn new() -> AdjGraph {
        AdjGraph::default()
    }

    /// Build from an edge list; self-loops are rejected.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop.
    pub fn from_edges<I: IntoIterator<Item = (u32, u32)>>(edges: I) -> AdjGraph {
        let mut g = AdjGraph::new();
        for (a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Ensure vertex `v` exists (possibly isolated).
    pub fn add_vertex(&mut self, v: u32) {
        self.adj.entry(v).or_default();
    }

    /// Add the undirected edge `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        assert_ne!(a, b, "self-loop");
        self.adj.entry(a).or_default().insert(b);
        self.adj.entry(b).or_default().insert(a);
    }

    /// Whether the edge `{a, b}` exists.
    pub fn adjacent(&self, a: u32, b: u32) -> bool {
        self.adj.get(&a).is_some_and(|s| s.contains(&b))
    }

    /// Degree of `v` (0 if absent).
    pub fn degree(&self, v: u32) -> usize {
        self.adj.get(&v).map_or(0, BTreeSet::len)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Vertices in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = u32> + '_ {
        self.adj.keys().copied()
    }

    /// Neighbors of `v` in ascending order.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.adj.get(&v).into_iter().flatten().copied()
    }

    /// All edges `(a, b)` with `a < b`, in lexicographic order.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (&a, nbrs) in &self.adj {
            for &b in nbrs {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Check that `color` assigns every vertex a color differing from all
    /// its neighbors'. Missing vertices fail the check.
    pub fn is_legal_coloring<F: Fn(u32) -> Option<i64>>(&self, color: F) -> bool {
        for (&v, nbrs) in &self.adj {
            let Some(cv) = color(v) else { return false };
            for &u in nbrs {
                if color(u) == Some(cv) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_undirected_and_sorted() {
        let g = AdjGraph::from_edges([(2, 1), (0, 2)]);
        assert_eq!(g.edges(), vec![(0, 2), (1, 2)]);
        assert!(g.adjacent(1, 2) && g.adjacent(2, 1));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn isolated_vertices_count() {
        let mut g = AdjGraph::new();
        g.add_vertex(7);
        assert_eq!(g.len(), 1);
        assert_eq!(g.degree(7), 0);
        assert!(g.edges().is_empty());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        let mut g = AdjGraph::new();
        g.add_edge(1, 1);
    }

    #[test]
    fn legality_check() {
        let g = AdjGraph::from_edges([(0, 1), (1, 2)]);
        assert!(g.is_legal_coloring(|v| Some(i64::from(v % 2))));
        assert!(!g.is_legal_coloring(|_| Some(1)));
        assert!(!g.is_legal_coloring(|v| if v == 0 { None } else { Some(0) }));
    }
}
