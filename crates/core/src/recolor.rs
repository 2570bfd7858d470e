//! The two recoloring procedures (Algorithms 4 and 5) as message-driven
//! state machines.
//!
//! Both procedures run behind the first double doorway and proceed in
//! *rounds*: each round, the node sends its current information to every
//! member of `R` (the set of neighbors still believed to participate) and
//! waits for one response from each. A neighbor that is **not** recoloring
//! responds `NACK` and is dropped from `R` (Lines 40–43); a neighbor whose
//! link fails is dropped by the wrapper via [`RecolorProcedure::on_removed`].
//!
//! `R` and the responses not yet consumed are one record per participant
//! (a [`Neighbors`] of FIFO queues), walked in ascending ID order. Every
//! procedure derives `Hash`; [`RecolorProcedure::hash_state`] hands it to
//! Algorithm 1's state digest through the trait object.
//!
//! The procedures return a *raw* non-negative value; the wrapper (Algorithm
//! 2, Line 38) maps it to the final color `-(raw) - 1`, keeping all
//! recoloring-produced colors negative so they never collide with the
//! `[0, δ]` colors chosen on critical-section exit.

use std::collections::{BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use coloring::{greedy_color_graph, AdjGraph, LinialSchedule};
use manet_sim::{Neighbors, NodeId};

use crate::message::RecolorMsg;

/// Result of feeding an event to a recoloring procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecolorOutcome {
    /// Still running.
    Continue,
    /// Finished; the value is the new (negative) color.
    Done(i64),
}

/// A message-driven recoloring procedure, driven by the Algorithm 1 wrapper.
///
/// `Send` is a supertrait so a node hosting Algorithm 1 can live on its
/// own OS thread (the live runtime); every procedure is plain owned data.
pub trait RecolorProcedure: std::fmt::Debug + Send {
    /// Begin the procedure with participant set `r` (the paper's `R := N`).
    /// Messages to send are appended to `out`.
    fn start(&mut self, r: &[NodeId], out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome;

    /// Handle a recoloring message from `from`.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: RecolorMsg,
        out: &mut Vec<(NodeId, RecolorMsg)>,
    ) -> RecolorOutcome;

    /// The link to `j` failed (Algorithm 3, Line 61: `R := R \ {j}`).
    fn on_removed(&mut self, j: NodeId, out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome;

    /// Feed the procedure's whole state to `h`: the object-safe form of
    /// its `Hash`, so Algorithm 1's state digest covers a running
    /// procedure behind the `Box`.
    fn hash_state(&self, h: &mut dyn Hasher);
}

impl Hash for dyn RecolorProcedure {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.hash_state(h);
    }
}

fn to_color(raw: u64) -> i64 {
    -(raw as i64) - 1
}

/// `on_message` and `on_removed`, the same for every procedure: update
/// `R` (stale traffic from a member already dropped is ignored), then
/// consume every round that is complete. And `hash_state`, the derived
/// `Hash`.
macro_rules! feed_rounds {
    () => {
        fn on_message(
            &mut self,
            from: NodeId,
            msg: RecolorMsg,
            out: &mut Vec<(NodeId, RecolorMsg)>,
        ) -> RecolorOutcome {
            if !self.r.push(from, msg) {
                return RecolorOutcome::Continue;
            }
            self.try_rounds(out)
        }

        fn on_removed(&mut self, j: NodeId, out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
            if !self.r.remove(j) {
                return RecolorOutcome::Continue;
            }
            self.try_rounds(out)
        }

        fn hash_state(&self, mut h: &mut dyn Hasher) {
            self.hash(&mut h);
        }
    };
}

/// The participant set `R`, one record per member holding the responses
/// it sent that no round has consumed yet.
#[derive(Debug, Default, Hash)]
struct Participants(Neighbors<VecDeque<RecolorMsg>>);

impl Participants {
    fn new(r: &[NodeId]) -> Participants {
        Participants(r.iter().map(|&j| (j, VecDeque::new())).collect())
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Queue `msg` from `from`; false for stale traffic from a non-member.
    fn push(&mut self, from: NodeId, msg: RecolorMsg) -> bool {
        self.0.get_mut(from).map(|q| q.push_back(msg)).is_some()
    }

    /// Drop `j` from `R`; false if it was not a member.
    fn remove(&mut self, j: NodeId) -> bool {
        self.0.remove(j).is_some()
    }

    /// Whether every member's response to the current round is in.
    fn round_complete(&self) -> bool {
        self.0.iter().all(|(_, q)| !q.is_empty())
    }

    /// Consume one response per member, ascending by ID; members for which
    /// `keep` returns false leave `R`.
    fn consume_round(&mut self, mut keep: impl FnMut(NodeId, RecolorMsg) -> bool) {
        self.0
            .retain(|j, q| keep(j, q.pop_front().expect("round readiness checked")));
    }

    /// Send `msg` to every member, ascending by ID.
    fn send_all(&self, msg: RecolorMsg, out: &mut Vec<(NodeId, RecolorMsg)>) {
        out.extend(self.0.iter().map(|(j, _)| (j, msg.clone())));
    }
}

// ---------------------------------------------------------------------------
// Greedy procedure (Algorithm 4)
// ---------------------------------------------------------------------------

/// The greedy recoloring procedure: flood the conflict graph of concurrent
/// participants until it stabilizes, then greedily color it with the shared
/// deterministic traversal of [`greedy_color_graph`].
#[derive(Debug, Hash)]
pub struct GreedyRecolor {
    me: u32,
    r: Participants,
    g: AdjGraph,
}

impl GreedyRecolor {
    /// Create the procedure for node `me`.
    pub fn new(me: NodeId) -> GreedyRecolor {
        GreedyRecolor {
            me: me.0,
            r: Participants::default(),
            g: AdjGraph::new(),
        }
    }

    fn broadcast(&self, finished: bool, out: &mut Vec<(NodeId, RecolorMsg)>) {
        let edges = self.g.edges();
        self.r.send_all(RecolorMsg::Graph { edges, finished }, out);
    }

    fn my_color(&self) -> i64 {
        let raw = greedy_color_graph(&self.g)
            .get(&self.me)
            .copied()
            .unwrap_or(0);
        to_color(raw as u64)
    }

    /// Consume complete rounds while possible.
    fn try_rounds(&mut self, out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
        loop {
            if self.r.is_empty() {
                // Condition (3): nobody recoloring concurrently.
                return RecolorOutcome::Done(to_color(0));
            }
            if !self.r.round_complete() {
                return RecolorOutcome::Continue;
            }
            let mut changed = false;
            let mut finished_seen = false;
            let (me, g) = (self.me, &mut self.g);
            self.r.consume_round(|j, msg| match msg {
                RecolorMsg::Nack => false,
                RecolorMsg::Graph { edges, finished } => {
                    for (a, b) in edges {
                        if !g.adjacent(a, b) {
                            g.add_edge(a, b);
                            changed = true;
                        }
                    }
                    if !g.adjacent(me, j.0) {
                        g.add_edge(me, j.0);
                        changed = true;
                    }
                    finished_seen |= finished;
                    true
                }
                other => {
                    debug_assert!(false, "non-greedy message {other:?} in greedy procedure");
                    true
                }
            });
            if self.r.is_empty() {
                return RecolorOutcome::Done(to_color(0));
            }
            if finished_seen || !changed {
                // Conditions (2) / (1): announce the final graph and color it.
                self.broadcast(true, out);
                return RecolorOutcome::Done(self.my_color());
            }
            self.broadcast(false, out);
        }
    }
}

impl RecolorProcedure for GreedyRecolor {
    fn start(&mut self, r: &[NodeId], out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
        self.r = Participants::new(r);
        self.g = AdjGraph::new();
        self.g.add_vertex(self.me);
        if self.r.is_empty() {
            return RecolorOutcome::Done(to_color(0));
        }
        self.broadcast(false, out);
        RecolorOutcome::Continue
    }

    feed_rounds!();
}

// ---------------------------------------------------------------------------
// Linial procedure (Algorithm 5)
// ---------------------------------------------------------------------------

/// The fast recoloring procedure: `log* n`-style iterated color reduction
/// through a precomputed [`LinialSchedule`] (shared by all nodes, derived
/// from `(n, δ)`).
///
/// If the runtime participant count ever exceeds the schedule's δ (possible
/// only when the configured degree bound is violated by mobility), the node
/// falls back to the always-legal color `-(final_range + ID) - 1`; the
/// fallback range is disjoint from both the normal recoloring range and the
/// exit-time colors, so legality is preserved at the cost of a larger Δ.
#[derive(Debug, Hash)]
pub struct LinialRecolor {
    me: u32,
    schedule: Arc<LinialSchedule>,
    r: Participants,
    temp: u64,
    ph: usize,
}

impl LinialRecolor {
    /// Create the procedure for node `me` with the globally shared schedule.
    pub fn new(me: NodeId, schedule: Arc<LinialSchedule>) -> LinialRecolor {
        LinialRecolor {
            me: me.0,
            schedule,
            r: Participants::default(),
            temp: u64::from(me.0),
            ph: 0,
        }
    }

    fn fallback_color(&self) -> i64 {
        to_color(self.schedule.final_range() + u64::from(self.me))
    }

    fn broadcast(&self, out: &mut Vec<(NodeId, RecolorMsg)>) {
        self.r.send_all(RecolorMsg::TempColor(self.temp), out);
    }

    fn try_rounds(&mut self, out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
        loop {
            if self.r.is_empty() {
                // Algorithm 5, Line 71: no concurrent participants.
                return RecolorOutcome::Done(to_color(0));
            }
            if self.ph >= self.schedule.rounds() {
                return RecolorOutcome::Done(to_color(self.temp));
            }
            if !self.r.round_complete() {
                return RecolorOutcome::Continue;
            }
            let mut colors = Vec::new();
            self.r.consume_round(|_, msg| match msg {
                RecolorMsg::Nack => false,
                RecolorMsg::TempColor(c) => {
                    colors.push(c);
                    true
                }
                other => {
                    debug_assert!(false, "non-Linial message {other:?} in Linial procedure");
                    true
                }
            });
            if self.r.is_empty() {
                return RecolorOutcome::Done(to_color(0));
            }
            let range = self.schedule.input_range(self.ph);
            let distinct: BTreeSet<u64> = colors.iter().copied().collect();
            let degraded = distinct.len() as u64 > self.schedule.delta()
                || self.temp >= range
                || colors.iter().any(|&c| c >= range);
            if degraded {
                return RecolorOutcome::Done(self.fallback_color());
            }
            self.temp = self.schedule.step(self.ph, self.temp, &colors);
            self.ph += 1;
            if self.ph >= self.schedule.rounds() {
                return RecolorOutcome::Done(to_color(self.temp));
            }
            self.broadcast(out);
        }
    }
}

impl RecolorProcedure for LinialRecolor {
    fn start(&mut self, r: &[NodeId], out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
        self.r = Participants::new(r);
        self.temp = u64::from(self.me);
        self.ph = 0;
        if self.r.is_empty() {
            return RecolorOutcome::Done(to_color(0));
        }
        if self.schedule.rounds() == 0 {
            // Tiny system: IDs already come from the final range.
            return RecolorOutcome::Done(to_color(self.temp));
        }
        self.broadcast(out);
        RecolorOutcome::Continue
    }

    feed_rounds!();
}

// ---------------------------------------------------------------------------
// Randomized procedure (Discussion-chapter extension)
// ---------------------------------------------------------------------------

/// The randomized recoloring procedure sketched in the paper's Discussion
/// chapter (after Kuhn & Wattenhofer): in each round every undecided
/// participant draws a uniform candidate from a `Θ(δ)`-sized palette and
/// commits iff its candidate collides neither with this round's neighbor
/// candidates nor with any already-committed neighbor color.
///
/// Expected `O(log n)` rounds with high probability; a deterministic
/// fallback (`palette + ID`, always legal, disjoint range) bounds the worst
/// case after `max_rounds`. Compared with the deterministic procedures this
/// variant needs only a bound on δ — no knowledge of `n`, no precomputed
/// schedule — at the price of probabilistic guarantees, exactly the
/// trade-off the paper describes.
#[derive(Debug, Hash)]
pub struct RandomizedRecolor {
    me: u32,
    palette: u64,
    max_rounds: usize,
    rng: manet_sim::SimRng,
    r: Participants,
    /// Colors already committed by neighbors (forbidden).
    committed: BTreeSet<u64>,
    candidate: u64,
    round: usize,
}

impl RandomizedRecolor {
    /// Create the procedure for `me` with a palette of `4(δ+1)` colors.
    /// `seed` feeds this node's private RNG (mix the node ID in for
    /// distinct streams).
    pub fn new(me: NodeId, delta_bound: u64, seed: u64) -> RandomizedRecolor {
        RandomizedRecolor {
            me: me.0,
            palette: 4 * (delta_bound + 1),
            max_rounds: 64,
            rng: manet_sim::SimRng::seed_from_u64(seed ^ (0x5EED_0000 + u64::from(me.0))),
            r: Participants::default(),
            committed: BTreeSet::new(),
            candidate: 0,
            round: 0,
        }
    }

    fn fallback_color(&self) -> i64 {
        to_color(self.palette + u64::from(self.me))
    }

    fn draw(&mut self) {
        // Re-draw until outside the committed set (which has ≤ δ < palette/4
        // elements, so this terminates quickly and deterministically given
        // the RNG stream).
        loop {
            let c = self.rng.gen_range(0..self.palette);
            if !self.committed.contains(&c) {
                self.candidate = c;
                return;
            }
        }
    }

    fn broadcast(&self, decided: bool, out: &mut Vec<(NodeId, RecolorMsg)>) {
        let value = self.candidate;
        self.r
            .send_all(RecolorMsg::Candidate { value, decided }, out);
    }

    /// Smallest palette color not committed by any (former) participant —
    /// used when `R` drains: unlike the deterministic procedures, members
    /// may leave `R` by *committing* a color, so the lonely-case color must
    /// still avoid the committed set.
    fn lonely_color(&self) -> i64 {
        let free = (0..=self.palette)
            .find(|c| !self.committed.contains(c))
            .expect("palette exceeds possible commitments");
        to_color(free)
    }

    fn try_rounds(&mut self, out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
        loop {
            if self.r.is_empty() {
                return RecolorOutcome::Done(self.lonely_color());
            }
            if !self.r.round_complete() {
                return RecolorOutcome::Continue;
            }
            let mut clash = false;
            let (candidate, committed) = (self.candidate, &mut self.committed);
            self.r.consume_round(|_, msg| match msg {
                RecolorMsg::Nack => false,
                RecolorMsg::Candidate { value, decided } => {
                    clash |= value == candidate;
                    if decided {
                        committed.insert(value);
                    }
                    !decided
                }
                _ => {
                    debug_assert!(false, "wrong message kind in randomized procedure");
                    true
                }
            });
            if self.r.is_empty() {
                // Everyone left (NACK or commit): decide deterministically.
                return RecolorOutcome::Done(self.lonely_color());
            }
            if !clash && !self.committed.contains(&self.candidate) {
                // Commit: tell the survivors and finish.
                self.broadcast(true, out);
                return RecolorOutcome::Done(to_color(self.candidate));
            }
            self.round += 1;
            if self.round >= self.max_rounds {
                return RecolorOutcome::Done(self.fallback_color());
            }
            self.draw();
            self.broadcast(false, out);
        }
    }
}

impl RecolorProcedure for RandomizedRecolor {
    fn start(&mut self, r: &[NodeId], out: &mut Vec<(NodeId, RecolorMsg)>) -> RecolorOutcome {
        self.r = Participants::new(r);
        self.committed.clear();
        self.round = 0;
        if self.r.is_empty() {
            return RecolorOutcome::Done(self.lonely_color());
        }
        self.draw();
        self.broadcast(false, out);
        RecolorOutcome::Continue
    }

    feed_rounds!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn greedy_alone_finishes_immediately_with_minus_one() {
        let mut p = GreedyRecolor::new(NodeId(4));
        let mut out = vec![];
        assert_eq!(p.start(&[], &mut out), RecolorOutcome::Done(-1));
        assert!(out.is_empty());
    }

    #[test]
    fn greedy_all_nacks_yield_minus_one() {
        let mut p = GreedyRecolor::new(NodeId(4));
        let mut out = vec![];
        assert_eq!(p.start(&set(&[1, 2]), &mut out), RecolorOutcome::Continue);
        assert_eq!(out.len(), 2);
        assert_eq!(
            p.on_message(NodeId(1), RecolorMsg::Nack, &mut out),
            RecolorOutcome::Continue
        );
        assert_eq!(
            p.on_message(NodeId(2), RecolorMsg::Nack, &mut out),
            RecolorOutcome::Done(-1)
        );
    }

    #[test]
    fn greedy_two_concurrent_participants_pick_distinct_colors() {
        // Simulate two adjacent participants exchanging messages directly.
        let mut a = GreedyRecolor::new(NodeId(0));
        let mut b = GreedyRecolor::new(NodeId(1));
        let mut out_a = vec![];
        let mut out_b = vec![];
        assert_eq!(a.start(&set(&[1]), &mut out_a), RecolorOutcome::Continue);
        assert_eq!(b.start(&set(&[0]), &mut out_b), RecolorOutcome::Continue);
        let mut done_a = None;
        let mut done_b = None;
        let mut guard = 0;
        while done_a.is_none() || done_b.is_none() {
            guard += 1;
            assert!(guard < 100, "no convergence");
            let batch_a: Vec<_> = std::mem::take(&mut out_a);
            let batch_b: Vec<_> = std::mem::take(&mut out_b);
            for (_, m) in batch_a {
                if done_b.is_none() {
                    if let RecolorOutcome::Done(c) = b.on_message(NodeId(0), m, &mut out_b) {
                        done_b = Some(c);
                    }
                }
            }
            for (_, m) in batch_b {
                if done_a.is_none() {
                    if let RecolorOutcome::Done(c) = a.on_message(NodeId(1), m, &mut out_a) {
                        done_a = Some(c);
                    }
                }
            }
        }
        assert_ne!(done_a.unwrap(), done_b.unwrap(), "Assumption 1 violated");
        assert!(done_a.unwrap() < 0 && done_b.unwrap() < 0);
    }

    #[test]
    fn greedy_removal_mid_round_completes() {
        let mut p = GreedyRecolor::new(NodeId(4));
        let mut out = vec![];
        p.start(&set(&[1, 2]), &mut out);
        p.on_message(
            NodeId(1),
            RecolorMsg::Graph {
                edges: vec![],
                finished: false,
            },
            &mut out,
        );
        // p2's link fails; the round should now complete with only p1.
        let r = p.on_removed(NodeId(2), &mut out);
        assert_eq!(r, RecolorOutcome::Continue); // round done, next round sent
        let r = p.on_message(
            NodeId(1),
            RecolorMsg::Graph {
                edges: vec![(1, 4)],
                finished: true,
            },
            &mut out,
        );
        assert!(matches!(r, RecolorOutcome::Done(c) if c < 0));
    }

    #[test]
    fn linial_alone_or_tiny_schedule_finishes_fast() {
        let sched = Arc::new(LinialSchedule::compute(4, 2));
        let mut p = LinialRecolor::new(NodeId(3), sched);
        let mut out = vec![];
        // Schedule has zero rounds; raw color is the ID.
        assert_eq!(p.start(&set(&[1]), &mut out), RecolorOutcome::Done(-4));
    }

    #[test]
    fn linial_two_participants_pick_distinct_colors() {
        let sched = Arc::new(LinialSchedule::compute(1000, 4));
        assert!(sched.rounds() > 0);
        let mut a = LinialRecolor::new(NodeId(10), sched.clone());
        let mut b = LinialRecolor::new(NodeId(700), sched.clone());
        let mut out_a = vec![];
        let mut out_b = vec![];
        assert_eq!(a.start(&set(&[700]), &mut out_a), RecolorOutcome::Continue);
        assert_eq!(b.start(&set(&[10]), &mut out_b), RecolorOutcome::Continue);
        let mut done_a = None;
        let mut done_b = None;
        let mut guard = 0;
        while done_a.is_none() || done_b.is_none() {
            guard += 1;
            assert!(guard < 100, "no convergence");
            let batch_a: Vec<_> = std::mem::take(&mut out_a);
            let batch_b: Vec<_> = std::mem::take(&mut out_b);
            for (_, m) in batch_a {
                if done_b.is_none() {
                    if let RecolorOutcome::Done(c) = b.on_message(NodeId(10), m, &mut out_b) {
                        done_b = Some(c);
                    }
                }
            }
            for (_, m) in batch_b {
                if done_a.is_none() {
                    if let RecolorOutcome::Done(c) = a.on_message(NodeId(700), m, &mut out_a) {
                        done_a = Some(c);
                    }
                }
            }
        }
        let (ca, cb) = (done_a.unwrap(), done_b.unwrap());
        assert_ne!(ca, cb);
        // Colors lie in the schedule's final range (negated).
        let bound = -(sched.final_range() as i64) - 1;
        assert!(
            ca < 0 && ca > bound,
            "{ca} outside (-{}, 0)",
            sched.final_range()
        );
        assert!(cb < 0 && cb > bound);
    }

    #[test]
    fn linial_nack_storm_returns_minus_one() {
        let sched = Arc::new(LinialSchedule::compute(1000, 4));
        let mut p = LinialRecolor::new(NodeId(5), sched);
        let mut out = vec![];
        p.start(&set(&[1, 2, 3]), &mut out);
        assert_eq!(
            p.on_message(NodeId(1), RecolorMsg::Nack, &mut out),
            RecolorOutcome::Continue
        );
        assert_eq!(
            p.on_message(NodeId(2), RecolorMsg::Nack, &mut out),
            RecolorOutcome::Continue
        );
        assert_eq!(
            p.on_message(NodeId(3), RecolorMsg::Nack, &mut out),
            RecolorOutcome::Done(-1)
        );
    }

    #[test]
    fn randomized_alone_finishes_immediately() {
        let mut p = RandomizedRecolor::new(NodeId(2), 4, 7);
        let mut out = vec![];
        assert_eq!(p.start(&[], &mut out), RecolorOutcome::Done(-1));
    }

    #[test]
    fn randomized_nacks_reduce_to_lonely_case() {
        let mut p = RandomizedRecolor::new(NodeId(2), 4, 7);
        let mut out = vec![];
        assert_eq!(p.start(&set(&[5]), &mut out), RecolorOutcome::Continue);
        assert_eq!(out.len(), 1);
        assert_eq!(
            p.on_message(NodeId(5), RecolorMsg::Nack, &mut out),
            RecolorOutcome::Done(-1)
        );
    }

    #[test]
    fn randomized_pair_converges_to_distinct_colors() {
        for seed in 0..20u64 {
            let mut a = RandomizedRecolor::new(NodeId(0), 3, seed);
            let mut b = RandomizedRecolor::new(NodeId(1), 3, seed);
            let mut out_a = vec![];
            let mut out_b = vec![];
            a.start(&set(&[1]), &mut out_a);
            b.start(&set(&[0]), &mut out_b);
            let mut done_a = None;
            let mut done_b = None;
            let mut guard = 0;
            while done_a.is_none() || done_b.is_none() {
                guard += 1;
                assert!(guard < 300, "no convergence (seed {seed})");
                let batch_a: Vec<_> = std::mem::take(&mut out_a);
                let batch_b: Vec<_> = std::mem::take(&mut out_b);
                for (_, m) in batch_a {
                    if done_b.is_none() {
                        if let RecolorOutcome::Done(c) = b.on_message(NodeId(0), m, &mut out_b) {
                            done_b = Some(c);
                        }
                    }
                }
                for (_, m) in batch_b {
                    if done_a.is_none() {
                        if let RecolorOutcome::Done(c) = a.on_message(NodeId(1), m, &mut out_a) {
                            done_a = Some(c);
                        }
                    }
                }
                // A decided node that still receives traffic NACKs (the
                // wrapper's behavior); emulate it so the peer drains.
                if done_a.is_some() && done_b.is_none() && out_a.is_empty() && out_b.is_empty() {
                    if let RecolorOutcome::Done(c) =
                        b.on_message(NodeId(0), RecolorMsg::Nack, &mut out_b)
                    {
                        done_b = Some(c);
                    }
                }
                if done_b.is_some() && done_a.is_none() && out_b.is_empty() && out_a.is_empty() {
                    if let RecolorOutcome::Done(c) =
                        a.on_message(NodeId(1), RecolorMsg::Nack, &mut out_a)
                    {
                        done_a = Some(c);
                    }
                }
            }
            assert_ne!(
                done_a.unwrap(),
                done_b.unwrap(),
                "seed {seed}: equal colors"
            );
            assert!(done_a.unwrap() < 0 && done_b.unwrap() < 0);
        }
    }

    #[test]
    fn randomized_respects_committed_neighbor_colors() {
        let mut p = RandomizedRecolor::new(NodeId(9), 2, 3);
        let mut out = vec![];
        p.start(&set(&[1, 2]), &mut out);
        // Neighbor 1 commits color 0; neighbor 2 keeps proposing whatever p
        // proposes, forcing redraws that must avoid 0. The candidate drawn
        // in `start` predates the commit and is exempt — the commit rule
        // constrains every proposal made *after* the commit is processed.
        let committed_from = out.len();
        let mut result = p.on_message(
            NodeId(1),
            RecolorMsg::Candidate {
                value: 0,
                decided: true,
            },
            &mut out,
        );
        let mut guard = 0;
        while result == RecolorOutcome::Continue {
            guard += 1;
            assert!(guard < 200);
            // Every proposal made since the commit became known must avoid
            // the committed color.
            for (_, m) in &out[committed_from..] {
                if let RecolorMsg::Candidate { value, .. } = m {
                    assert_ne!(*value, 0, "proposed a committed color");
                }
            }
            // Echo p's own current candidate back as a clash.
            let mine = out
                .iter()
                .rev()
                .find_map(|(_, m)| match m {
                    RecolorMsg::Candidate { value, .. } => Some(*value),
                    _ => None,
                })
                .expect("p keeps proposing");
            result = p.on_message(
                NodeId(2),
                RecolorMsg::Candidate {
                    value: mine,
                    decided: false,
                },
                &mut out,
            );
        }
        match result {
            RecolorOutcome::Done(c) => assert_ne!(c, -1, "0 is taken: -(0)-1 is illegal here"),
            RecolorOutcome::Continue => unreachable!(),
        }
    }

    #[test]
    fn linial_fallback_on_degree_violation() {
        let sched = Arc::new(LinialSchedule::compute(1000, 1));
        assert!(sched.rounds() > 0);
        let me = NodeId(5);
        let mut p = LinialRecolor::new(me, sched.clone());
        let mut out = vec![];
        p.start(&set(&[1, 2, 3]), &mut out);
        // Three distinct neighbor colors exceed δ = 1: fallback.
        p.on_message(NodeId(1), RecolorMsg::TempColor(10), &mut out);
        p.on_message(NodeId(2), RecolorMsg::TempColor(11), &mut out);
        let r = p.on_message(NodeId(3), RecolorMsg::TempColor(12), &mut out);
        let expect = -((sched.final_range() + 5) as i64) - 1;
        assert_eq!(r, RecolorOutcome::Done(expect));
    }
}
