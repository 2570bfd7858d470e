//! A Choy–Singh-style static-color baseline.
//!
//! Choy and Singh's doorway algorithm (the paper's main static comparator:
//! failure locality 4, response time `O(δ²)`) is exactly the fork-collection
//! module of Algorithm 1 run with a *fixed*, precomputed legal coloring and
//! no recoloring. We therefore instantiate [`Algorithm1`] with
//! [`RecolorConfig::Never`] and install a greedy coloring of the initial
//! topology.
//!
//! In a static network this matches CS92's structure and bounds. Under
//! mobility the missing recoloring is precisely what the paper's Algorithm 1
//! fixes: colors can become illegal when same-colored nodes become
//! neighbors, which can starve nodes (never violating safety — safety rests
//! on the forks alone). The Table 1 experiment exercises both regimes.

use coloring::{greedy_color_graph, AdjGraph};
use local_mutex::{Algorithm1, RecolorConfig};
use manet_sim::NodeSeed;

/// A precomputed legal coloring for the initial topology, shared by every
/// node's constructor.
#[derive(Clone, Debug)]
pub struct StaticColoring {
    colors: Vec<i64>,
}

impl StaticColoring {
    /// Greedily color the initial topology given every node's neighbor
    /// list (e.g. collected from [`NodeSeed`]s or the world's adjacency).
    pub fn compute(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> StaticColoring {
        let mut g = AdjGraph::from_edges(edges);
        for v in 0..n as u32 {
            g.add_vertex(v);
        }
        let map = greedy_color_graph(&g);
        StaticColoring {
            colors: (0..n as u32).map(|v| map[&v]).collect(),
        }
    }

    /// The color assigned to node `v`.
    pub fn color(&self, v: u32) -> i64 {
        self.colors[v as usize]
    }

    /// All colors, indexed by node ID.
    pub fn as_slice(&self) -> &[i64] {
        &self.colors
    }
}

/// Construct one Choy–Singh baseline node: Algorithm 1's fork collection
/// with the fixed `coloring` and the recoloring module disabled.
pub fn choy_singh(seed: &NodeSeed, coloring: &StaticColoring) -> Algorithm1 {
    let mut node = Algorithm1::new(seed, RecolorConfig::Never);
    node.set_initial_coloring(coloring.as_slice());
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{
        Engine, Metrics, MetricsData, NodeId, Protocol, SafetyMonitor, SimConfig, SimTime, Workload,
    };
    use std::cell::RefCell;
    use std::rc::Rc;

    fn ring_positions(n: usize) -> Vec<(f64, f64)> {
        let r = n as f64 / std::f64::consts::TAU * 1.0 / 1.0;
        // Place nodes so that only adjacent ring members are in range 1.5.
        let radius = 1.0 / (2.0 * (std::f64::consts::PI / n as f64).sin());
        let _ = r;
        (0..n)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / n as f64;
                (radius * a.cos(), radius * a.sin())
            })
            .collect()
    }

    fn engine(n: usize) -> Engine<Algorithm1> {
        let pos = ring_positions(n);
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            edges.push((i, (i + 1) % n as u32));
        }
        let coloring = StaticColoring::compute(n, edges);
        Engine::new(SimConfig::default(), pos, move |seed| {
            choy_singh(&seed, &coloring)
        })
    }

    /// Install the LME checker (it panics on the first violation) and a
    /// meal counter; returns the counter's data.
    fn watch<P: Protocol>(e: &mut Engine<P>) -> Rc<RefCell<MetricsData>> {
        e.add_hook(Box::new(SafetyMonitor::new(true).0));
        let (metrics, data) = Metrics::new(e.world().len());
        e.add_hook(Box::new(metrics));
        data
    }

    #[test]
    fn coloring_is_legal_on_ring() {
        let coloring = StaticColoring::compute(5, (0..5u32).map(|i| (i, (i + 1) % 5)));
        for i in 0..5u32 {
            assert_ne!(coloring.color(i), coloring.color((i + 1) % 5));
        }
        assert!(coloring.as_slice().iter().all(|&c| (0..=2).contains(&c)));
    }

    #[test]
    fn ring_contention_all_eat() {
        let n = 8;
        let mut e = engine(n);
        e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
        let data = watch(&mut e);
        for i in 0..n as u32 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(50_000));
        for i in 0..n as u32 {
            assert!(data.borrow().meals[i as usize] >= 1, "p{i} starved");
        }
    }

    #[test]
    fn never_recolors_even_after_moving() {
        let mut e: Engine<Algorithm1> = {
            let coloring = StaticColoring::compute(3, [(0u32, 1u32)]);
            Engine::new(
                SimConfig::default(),
                vec![(0.0, 0.0), (1.0, 0.0), (50.0, 0.0)],
                move |seed| choy_singh(&seed, &coloring),
            )
        };
        e.add_hook(Box::new(Workload::one_shot(10..=10, 0)));
        let data = watch(&mut e);
        e.teleport_at(SimTime(5), NodeId(2), (2.0, 0.0));
        e.set_hungry_at(SimTime(50), NodeId(2));
        e.run_until(SimTime(5_000));
        assert_eq!(e.observed(NodeId(2)).recolorings, 0);
        // It still makes progress here because greedy colors happen to stay
        // legal in this layout.
        assert!(data.borrow().meals[2] >= 1);
    }
}
