//! Randomized tests of the recoloring procedures under adversarial-ish
//! delivery schedules.
//!
//! The correctness arguments (Lemmas 14 and 19 of the paper, and the
//! commit rule of the randomized extension) rely on per-channel FIFO but
//! nothing else about timing. Here a seeded scheduler delivers messages in
//! random order *across* channels while preserving FIFO *within* each
//! channel, over path/star/clique participant graphs; every concurrent
//! participant must terminate, and adjacent participants must end with
//! distinct colors (Assumption 1).
//!
//! Formerly proptest properties; now seeded batteries over the workspace's
//! own deterministic RNG so the suite builds offline. Every case prints its
//! parameters on failure and reproduces from them.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use coloring::LinialSchedule;
use local_mutex::recolor::{
    GreedyRecolor, LinialRecolor, RandomizedRecolor, RecolorOutcome, RecolorProcedure,
};
use local_mutex::RecolorMsg;
use manet_sim::{NodeId, SimRng};

#[derive(Clone, Copy, Debug)]
enum Shape {
    Path,
    Star,
    Clique,
}

const SHAPES: [Shape; 3] = [Shape::Path, Shape::Star, Shape::Clique];

fn adjacency(shape: Shape, k: usize) -> Vec<BTreeSet<NodeId>> {
    let mut adj = vec![BTreeSet::new(); k];
    match shape {
        Shape::Path => {
            for i in 0..k.saturating_sub(1) {
                adj[i].insert(NodeId(i as u32 + 1));
                adj[i + 1].insert(NodeId(i as u32));
            }
        }
        Shape::Star => {
            for i in 1..k {
                adj[0].insert(NodeId(i as u32));
                adj[i].insert(NodeId(0));
            }
        }
        Shape::Clique => {
            for (i, nbrs) in adj.iter_mut().enumerate() {
                for j in 0..k {
                    if i != j {
                        nbrs.insert(NodeId(j as u32));
                    }
                }
            }
        }
    }
    adj
}

/// Drive `k` concurrent participants to completion with a seeded random
/// FIFO scheduler; returns their final colors.
fn drive(
    shape: Shape,
    k: usize,
    seed: u64,
    make: impl Fn(NodeId) -> Box<dyn RecolorProcedure>,
) -> Vec<i64> {
    let adj = adjacency(shape, k);
    let mut procs: Vec<Box<dyn RecolorProcedure>> =
        (0..k).map(|i| make(NodeId(i as u32))).collect();
    let mut colors: Vec<Option<i64>> = vec![None; k];
    // FIFO per directed channel.
    let mut channels: BTreeMap<(u32, u32), VecDeque<RecolorMsg>> = BTreeMap::new();
    let push = |channels: &mut BTreeMap<(u32, u32), VecDeque<RecolorMsg>>,
                from: u32,
                out: Vec<(NodeId, RecolorMsg)>| {
        for (to, msg) in out {
            channels.entry((from, to.0)).or_default().push_back(msg);
        }
    };
    for i in 0..k {
        let mut out = Vec::new();
        if let RecolorOutcome::Done(c) =
            procs[i].start(&Vec::from_iter(adj[i].iter().copied()), &mut out)
        {
            colors[i] = Some(c);
        }
        push(&mut channels, i as u32, out);
    }
    let mut rng = SimRng::seed_from_u64(seed);
    let mut steps = 0;
    while colors.iter().any(Option::is_none) {
        steps += 1;
        assert!(steps < 100_000, "scheduler did not converge");
        let live: Vec<(u32, u32)> = channels
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&c, _)| c)
            .collect();
        assert!(
            !live.is_empty(),
            "deadlock: undecided nodes but no messages"
        );
        let (from, to) = live[rng.gen_range(0..live.len())];
        let msg = channels
            .get_mut(&(from, to))
            .and_then(VecDeque::pop_front)
            .expect("picked nonempty");
        let t = to as usize;
        let mut out = Vec::new();
        if colors[t].is_some() {
            // Finished nodes are no longer participating: data messages get
            // a NACK (the wrapper's Lines 40-43), NACKs are dropped.
            if !matches!(msg, RecolorMsg::Nack) {
                channels
                    .entry((to, from))
                    .or_default()
                    .push_back(RecolorMsg::Nack);
            }
            continue;
        }
        if let RecolorOutcome::Done(c) = procs[t].on_message(NodeId(from), msg, &mut out) {
            colors[t] = Some(c);
        }
        push(&mut channels, to, out);
    }
    colors
        .into_iter()
        .map(|c| c.expect("all decided"))
        .collect()
}

fn check_legal(shape: Shape, colors: &[i64]) {
    let adj = adjacency(shape, colors.len());
    for (i, nbrs) in adj.iter().enumerate() {
        assert!(colors[i] < 0, "recolored colors are negative: {colors:?}");
        for &j in nbrs {
            assert_ne!(
                colors[i],
                colors[j.index()],
                "adjacent participants {} and {} share color (shape {:?}): {:?}",
                i,
                j.0,
                shape,
                colors
            );
        }
    }
}

/// Iterate 48 cases of (shape, k, schedule seed), mirroring the old
/// proptest case count, and hand each to `f`.
fn battery(tag: u64, mut f: impl FnMut(Shape, usize, u64)) {
    let mut rng = SimRng::seed_from_u64(0x5EED_CA5E ^ tag);
    for _ in 0..48 {
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let k = rng.gen_range(2..8usize);
        let seed = rng.next_u64();
        f(shape, k, seed);
    }
}

#[test]
fn greedy_concurrent_recoloring_is_legal() {
    battery(1, |shape, k, seed| {
        let colors = drive(shape, k, seed, |me| Box::new(GreedyRecolor::new(me)));
        check_legal(shape, &colors);
    });
}

#[test]
fn linial_concurrent_recoloring_is_legal() {
    battery(2, |shape, k, seed| {
        let sched = Arc::new(LinialSchedule::compute(64, 7));
        let colors = drive(shape, k, seed, move |me| {
            Box::new(LinialRecolor::new(me, sched.clone()))
        });
        check_legal(shape, &colors);
    });
}

#[test]
fn randomized_concurrent_recoloring_is_legal() {
    battery(3, |shape, k, seed| {
        let colors = drive(shape, k, seed, move |me| {
            Box::new(RandomizedRecolor::new(me, 7, seed))
        });
        check_legal(shape, &colors);
    });
}
