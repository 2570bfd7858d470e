//! Experiment C4 — the coloring procedures (Lemmas 15 and 21).
//!
//! * **Schedule growth**: Linial-style schedules need `O(log* n)` rounds —
//!   the round count barely moves as `n` grows by orders of magnitude —
//!   and end in a color range polynomial in δ.
//! * **Distributed round counts**: driving the two message-driven
//!   procedures over a *path* of k concurrent participants (the greedy
//!   procedure's worst case), greedy needs Θ(k) iterations (its flood must
//!   traverse the component; Lemma 15's `O(n)`), while Linial needs its
//!   fixed `log* n` rounds regardless of k (Lemma 21).
//! * **Color quality**: synchronous Linial reduction on rings/grids ends
//!   legal and within the schedule's final range; the greedy graph coloring
//!   used on critical-section exit stays within `[0, δ]`.
//!
//! Run: `cargo run --release -p lme-bench --bin coloring_exp [--quick]`

use std::collections::BTreeSet;
use std::sync::Arc;

use coloring::{greedy_color_graph, AdjGraph, LinialSchedule};
use harness::Table;
use lme_bench::{section, sized};
use local_mutex::recolor::{GreedyRecolor, LinialRecolor, RecolorOutcome, RecolorProcedure};
use local_mutex::RecolorMsg;
use manet_sim::NodeId;

fn schedule_growth() {
    section("C4-a: Linial schedule — rounds ~ log* n, final range ~ poly(δ)");
    let mut table = Table::new(&["n", "δ", "rounds", "final color range"]);
    for &delta in &[2u64, 4, 8] {
        for &log_n in &sized(vec![8u32, 12, 16, 24, 32, 48], vec![8, 16, 32]) {
            let sched = LinialSchedule::compute(1u64 << log_n, delta);
            table.row([
                format!("2^{log_n}"),
                delta.to_string(),
                sched.rounds().to_string(),
                sched.final_range().to_string(),
            ]);
            assert!(sched.rounds() <= 8, "rounds must grow like log* n");
        }
    }
    print!("{table}");
    println!("expected shape: rounds stay ≤ ~5 while n spans 2^8..2^48; range depends on δ only");
}

/// Drive a set of recoloring procedures over a path topology in lockstep
/// message rounds; returns the number of delivery rounds until all done.
fn drive_path(k: usize, make: impl Fn(NodeId) -> Box<dyn RecolorProcedure>) -> (usize, Vec<i64>) {
    let mut procs: Vec<Box<dyn RecolorProcedure>> =
        (0..k).map(|i| make(NodeId(i as u32))).collect();
    let neighbors = |i: usize| -> Vec<NodeId> {
        let mut s = Vec::new();
        if i > 0 {
            s.push(NodeId(i as u32 - 1));
        }
        if i + 1 < k {
            s.push(NodeId(i as u32 + 1));
        }
        s
    };
    let mut colors: Vec<Option<i64>> = vec![None; k];
    // outboxes[i] = messages from i not yet delivered.
    let mut outboxes: Vec<Vec<(NodeId, RecolorMsg)>> = vec![Vec::new(); k];
    for i in 0..k {
        let mut out = Vec::new();
        if let RecolorOutcome::Done(c) = procs[i].start(&neighbors(i), &mut out) {
            colors[i] = Some(c);
        }
        outboxes[i] = out;
    }
    let mut rounds = 0;
    while colors.iter().any(Option::is_none) {
        rounds += 1;
        assert!(rounds < 10 * k + 50, "no convergence after {rounds} rounds");
        let batches: Vec<Vec<(NodeId, RecolorMsg)>> =
            outboxes.iter_mut().map(std::mem::take).collect();
        for (from, batch) in batches.into_iter().enumerate() {
            for (to, msg) in batch {
                let t = to.index();
                let mut out = Vec::new();
                if colors[t].is_some() {
                    // Finished nodes are "not participating": NACK data msgs.
                    if !matches!(msg, RecolorMsg::Nack) {
                        outboxes[t].push((NodeId(from as u32), RecolorMsg::Nack));
                    }
                    continue;
                }
                if let RecolorOutcome::Done(c) =
                    procs[t].on_message(NodeId(from as u32), msg, &mut out)
                {
                    colors[t] = Some(c);
                }
                outboxes[t].extend(out);
            }
        }
    }
    (
        rounds,
        colors.into_iter().map(|c| c.expect("all done")).collect(),
    )
}

fn distributed_rounds() {
    section("C4-b: concurrent recoloring on a k-path — message rounds to completion");
    let mut table = Table::new(&["k (participants)", "greedy rounds", "linial rounds"]);
    let sched = Arc::new(LinialSchedule::compute(1 << 16, 4));
    for k in sized(vec![2usize, 4, 8, 16, 32], vec![2, 4, 8]) {
        let (greedy_rounds, greedy_colors) = drive_path(k, |me| Box::new(GreedyRecolor::new(me)));
        let (linial_rounds, linial_colors) = {
            let sched = sched.clone();
            drive_path(k, move |me| Box::new(LinialRecolor::new(me, sched.clone())))
        };
        for colors in [&greedy_colors, &linial_colors] {
            for w in colors.windows(2) {
                assert_ne!(w[0], w[1], "neighbors picked equal colors");
            }
            assert!(colors.iter().all(|&c| c < 0), "recolor colors are negative");
        }
        table.row([
            k.to_string(),
            greedy_rounds.to_string(),
            linial_rounds.to_string(),
        ]);
    }
    print!("{table}");
    println!("expected shape: greedy rounds grow ~linearly in k (Lemma 15's O(n)); Linial stays at its log* n rounds (Lemma 21)");
}

fn color_quality() {
    section("C4-c: color quality");
    // Greedy coloring used on CS exit: range [0, δ].
    let mut table = Table::new(&["graph", "δ", "colors used", "legal"]);
    let ring = AdjGraph::from_edges((0..64u32).map(|i| (i, (i + 1) % 64)));
    let mut grid = AdjGraph::new();
    let (w, h) = (8u32, 8u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                grid.add_edge(y * w + x, y * w + x + 1);
            }
            if y + 1 < h {
                grid.add_edge(y * w + x, (y + 1) * w + x);
            }
        }
    }
    for (name, g) in [("ring-64", &ring), ("grid-8x8", &grid)] {
        let colors = greedy_color_graph(g);
        let delta = g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
        let used = colors.values().collect::<BTreeSet<_>>().len();
        let legal = g.is_legal_coloring(|v| colors.get(&v).copied());
        let max = colors.values().max().copied().unwrap_or(0);
        assert!(legal && max <= delta as i64);
        table.row([
            name.to_string(),
            delta.to_string(),
            used.to_string(),
            legal.to_string(),
        ]);
    }
    print!("{table}");
    println!("expected shape: greedy stays within [0, δ] and is always legal");
}

fn main() {
    schedule_growth();
    distributed_rounds();
    color_quality();
}
