//! Seeded property battery for `crates/coloring` and the message-driven
//! recoloring procedures in `local_mutex::recolor` — the first tier-1
//! coverage of these modules outside their inline unit tests.
//!
//! Properties pinned:
//! * greedy graph coloring is proper and uses at most δ + 1 colors on
//!   random graphs,
//! * the Linial schedule keeps the coloring proper after *every* round
//!   and lands in a final palette respecting the cover-free-family bound
//!   (≈ 40·δ²·log²δ),
//! * all three distributed recoloring procedures (greedy, Linial,
//!   randomized) converge under a synchronous message pump with decided
//!   nodes answering Nack, and adjacent participants end with distinct
//!   colors (the paper's Assumption 1).

use std::collections::BTreeMap;
use std::sync::Arc;

use coloring::{greedy_color_graph, AdjGraph, LinialSchedule};
use local_mutex::recolor::{
    GreedyRecolor, LinialRecolor, RandomizedRecolor, RecolorOutcome, RecolorProcedure,
};
use local_mutex::RecolorMsg;
use manet_sim::{NodeId, SimRng};

/// A seeded G(n, p) random graph over vertices `0..n` (isolated vertices
/// included).
fn random_graph(n: u32, p: f64, seed: u64) -> AdjGraph {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut g = AdjGraph::new();
    for v in 0..n {
        g.add_vertex(v);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(a, b);
            }
        }
    }
    g
}

fn max_degree(g: &AdjGraph) -> usize {
    g.vertices().map(|v| g.degree(v)).max().unwrap_or(0)
}

// ---------------------------------------------------------------------
// Centralized colorings.
// ---------------------------------------------------------------------

#[test]
fn greedy_coloring_is_proper_with_at_most_delta_plus_one_colors() {
    for seed in 0..12u64 {
        let n = 10 + (seed % 4) as u32 * 10;
        let p = 0.08 + 0.06 * (seed % 3) as f64;
        let g = random_graph(n, p, seed);
        let colors = greedy_color_graph(&g);
        assert!(
            g.is_legal_coloring(|v| colors.get(&v).copied()),
            "seed {seed}: greedy coloring not proper"
        );
        let delta = max_degree(&g) as i64;
        assert!(
            colors.values().all(|&c| (0..=delta).contains(&c)),
            "seed {seed}: greedy used a color outside 0..=δ ({delta}): {colors:?}"
        );
    }
}

#[test]
fn linial_schedule_stays_proper_every_round_on_random_graphs() {
    for seed in 0..8u64 {
        let n = 40u32;
        let g = random_graph(n, 0.08, 0x11A1 ^ seed);
        let delta = max_degree(&g).max(2) as u64;
        let sched = LinialSchedule::compute(u64::from(n), delta);
        // ID colors are a proper coloring in [0, input_range(0)).
        let mut colors: Vec<u64> = (0..u64::from(n)).collect();
        for t in 0..sched.rounds() {
            colors = (0..n)
                .map(|v| {
                    let nbr: Vec<u64> = g.neighbors(v).map(|u| colors[u as usize]).collect();
                    sched.step(t, colors[v as usize], &nbr)
                })
                .collect();
            assert!(
                g.is_legal_coloring(|v| Some(colors[v as usize] as i64)),
                "seed {seed}: coloring broken after round {t}"
            );
            assert!(
                colors.iter().all(|&c| c < sched.input_range(t + 1)),
                "seed {seed}: round {t} color out of declared range"
            );
        }
        // Cover-free-family palette bound: final range ≈ 40·δ²·log²δ.
        let log_delta = u64::from(64 - delta.leading_zeros());
        let bound = (40 * delta * delta * log_delta * log_delta).max(100);
        assert!(
            sched.final_range() <= bound,
            "seed {seed}: final range {} exceeds the cover-free bound {bound} (δ = {delta})",
            sched.final_range()
        );
        assert!(colors.iter().all(|&c| c < sched.final_range()));
    }
}

// ---------------------------------------------------------------------
// Distributed recoloring procedures.
// ---------------------------------------------------------------------

/// Drive a set of recoloring participants (one per vertex of `g`) with a
/// synchronous message pump until every one decides. Nodes that have
/// already decided answer further messages with `Nack`, emulating
/// Algorithm 2's lines 40–43 for non-participants.
fn pump(g: &AdjGraph, mut procs: BTreeMap<u32, Box<dyn RecolorProcedure>>) -> BTreeMap<u32, i64> {
    let mut outbox: BTreeMap<u32, Vec<(NodeId, RecolorMsg)>> = BTreeMap::new();
    let mut done: BTreeMap<u32, i64> = BTreeMap::new();
    for (&v, p) in procs.iter_mut() {
        let r: Vec<NodeId> = g.neighbors(v).map(NodeId).collect();
        let mut out = Vec::new();
        if let RecolorOutcome::Done(c) = p.start(&r, &mut out) {
            done.insert(v, c);
        }
        outbox.insert(v, out);
    }
    let mut guard = 0;
    loop {
        guard += 1;
        assert!(guard < 2_000, "recoloring did not converge");
        let mut deliveries: Vec<(u32, NodeId, RecolorMsg)> = Vec::new();
        for (&from, box_) in outbox.iter_mut() {
            for (dest, msg) in box_.drain(..) {
                deliveries.push((from, dest, msg));
            }
        }
        if deliveries.is_empty() {
            break;
        }
        for (from, dest, msg) in deliveries {
            if done.contains_key(&dest.0) {
                if !matches!(msg, RecolorMsg::Nack) {
                    outbox
                        .get_mut(&dest.0)
                        .expect("participant outbox")
                        .push((NodeId(from), RecolorMsg::Nack));
                }
                continue;
            }
            let p = procs.get_mut(&dest.0).expect("participant");
            let mut out = Vec::new();
            if let RecolorOutcome::Done(c) = p.on_message(NodeId(from), msg, &mut out) {
                done.insert(dest.0, c);
            }
            outbox
                .get_mut(&dest.0)
                .expect("participant outbox")
                .extend(out);
        }
    }
    assert_eq!(
        done.len(),
        procs.len(),
        "only {:?} of {} participants decided",
        done.keys().collect::<Vec<_>>(),
        procs.len()
    );
    done
}

/// The outcome every procedure must deliver: all participants decide a
/// negative color (the "recolored" namespace), and adjacent participants
/// decide *distinct* colors.
fn assert_proper_recoloring(g: &AdjGraph, colors: &BTreeMap<u32, i64>, what: &str) {
    assert!(
        colors.values().all(|&c| c < 0),
        "{what}: recolored colors must be negative: {colors:?}"
    );
    for (a, b) in g.edges() {
        assert_ne!(
            colors[&a], colors[&b],
            "{what}: neighbors {a} and {b} share color (Assumption 1 violated)"
        );
    }
}

#[test]
fn greedy_recolor_converges_on_random_graphs() {
    for seed in 0..8u64 {
        let g = random_graph(8, 0.3, 0x6EE0 ^ seed);
        let procs: BTreeMap<u32, Box<dyn RecolorProcedure>> = g
            .vertices()
            .map(|v| {
                (
                    v,
                    Box::new(GreedyRecolor::new(NodeId(v))) as Box<dyn RecolorProcedure>,
                )
            })
            .collect();
        let colors = pump(&g, procs);
        assert_proper_recoloring(&g, &colors, &format!("greedy seed {seed}"));
    }
}

#[test]
fn linial_recolor_converges_on_random_graphs() {
    for seed in 0..8u64 {
        let g = random_graph(8, 0.3, 0x11A1 ^ seed);
        let delta = max_degree(&g).max(2) as u64;
        let sched = Arc::new(LinialSchedule::compute(1_000, delta));
        let procs: BTreeMap<u32, Box<dyn RecolorProcedure>> = g
            .vertices()
            .map(|v| {
                (
                    v,
                    Box::new(LinialRecolor::new(NodeId(v), sched.clone()))
                        as Box<dyn RecolorProcedure>,
                )
            })
            .collect();
        let colors = pump(&g, procs);
        assert_proper_recoloring(&g, &colors, &format!("linial seed {seed}"));
    }
}

#[test]
fn randomized_recolor_converges_on_random_graphs() {
    for seed in 0..8u64 {
        let g = random_graph(8, 0.3, 0x5EED ^ seed);
        let delta = max_degree(&g).max(2) as u64;
        let procs: BTreeMap<u32, Box<dyn RecolorProcedure>> = g
            .vertices()
            .map(|v| {
                (
                    v,
                    Box::new(RandomizedRecolor::new(NodeId(v), delta, seed))
                        as Box<dyn RecolorProcedure>,
                )
            })
            .collect();
        let colors = pump(&g, procs);
        assert_proper_recoloring(&g, &colors, &format!("randomized seed {seed}"));
    }
}
