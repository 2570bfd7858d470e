//! Algorithm 2: optimal failure locality via dynamic priorities
//! (Chapter 6 of the paper).
//!
//! No doorways, no colors: priorities are an array of `higher` flags —
//! `higher[j]` means neighbor `j` currently has priority — changed by link
//! reversal. A node that exits its critical section reverses all its
//! incoming edges (lowers itself below every neighbor it dominated), and the
//! *notification mechanism* makes a thinking node that still dominates a
//! newly hungry neighbor lower itself immediately, so it cannot interfere
//! later. This is what gives the algorithm response time `O(n)` when no
//! node moves (Theorem 26) — better than any previously known algorithm
//! with optimal failure locality 2 — and `O(n²)` under mobility
//! (Theorem 25).
//!
//! Fork collection is the same preemptive low-then-high strategy as in
//! Algorithm 1, with `higher[j]` in place of color comparisons and
//! "state ≠ thinking" in place of "behind `SD^f`".
//!
//! `higher[j]` lives in neighbour `j`'s fork record (the table's `ext`), so
//! the node's whole state is one record per neighbour, and the request,
//! release and lowering loops walk those records in place.

use manet_sim::{Context, DiningState, Event, LinkUpKind, NodeId, NodeSeed, Obs, Protocol};

use crate::forks::ForkTable;
use crate::message::A2Msg;

/// One node of Algorithm 2. Implements [`Protocol`] for the simulator.
#[derive(Clone, Debug, Hash)]
pub struct Algorithm2 {
    me: NodeId,
    state: DiningState,
    /// Fork records whose `ext` is `higher[j]`: neighbor `j` has priority
    /// over this node.
    forks: ForkTable<bool>,
    /// Ablation switch: when false, newly hungry nodes do not send
    /// `notification` messages (and thinking dominators therefore never
    /// step aside early). The paper credits the notification mechanism for
    /// the `O(n)` static response time of Theorem 26; disabling it
    /// reproduces the Tsay–Bagrodia-style behavior it improves upon.
    pub notifications_enabled: bool,
    /// Mutation knob for the model checker's liveness suite: when set,
    /// this node silently drops every fork request arriving from the named
    /// neighbor — it neither grants nor suspends it, so the victim's
    /// outstanding-request guard keeps it waiting forever. An unfair fork
    /// policy of exactly the kind the paper's withholding rules exclude;
    /// `lme check --liveness` must find the resulting starvation lasso.
    /// Never set on production paths.
    pub defer_requests_from: Option<NodeId>,
}

impl Algorithm2 {
    /// Build a node from its simulator seed. Initially `higher[j]` holds iff
    /// `ID[i] < ID[j]`, and the fork of each link starts at the smaller ID,
    /// exactly as in the paper.
    pub fn new(seed: &NodeSeed) -> Algorithm2 {
        Algorithm2 {
            me: seed.id,
            state: DiningState::Thinking,
            forks: ForkTable::with(seed.id, &seed.neighbors, |j| seed.id < j),
            notifications_enabled: true,
            defer_requests_from: None,
        }
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Whether neighbor `j` currently has priority over this node.
    pub fn neighbor_has_priority(&self, j: NodeId) -> bool {
        self.forks.ext(j).copied().unwrap_or(false)
    }

    /// Whether this node currently holds the fork shared with `j`
    /// (observability for fork-conservation checks and tests).
    pub fn holds_fork(&self, j: NodeId) -> bool {
        self.forks.holds(j)
    }

    // `j` has priority ⇒ `j` plays the role of a *low* (smaller-color)
    // neighbor of Algorithm 1.
    fn is_low(&self, j: NodeId) -> bool {
        self.neighbor_has_priority(j)
    }

    fn is_high(&self, j: NodeId) -> bool {
        self.forks.ext(j) == Some(&false)
    }

    fn withholding(&self) -> bool {
        self.state != DiningState::Thinking
    }

    fn all_forks(&self) -> bool {
        self.forks.all_where(|_| true)
    }

    fn all_low_forks(&self) -> bool {
        self.forks.all_where(|&higher| higher)
    }

    fn send_fork(&mut self, j: NodeId, ctx: &mut Context<'_, A2Msg>) {
        // Line 35: want the fork back iff it is a low fork given away while
        // hungry.
        let flag = self.is_low(j) && self.state == DiningState::Hungry;
        let gen = self.forks.sent(j);
        ctx.send(j, A2Msg::Fork { flag, gen });
    }

    /// Grant the suspended requests whose forks this node holds: every one,
    /// or only those of high neighbors when `high_only`.
    fn release(&mut self, high_only: bool, ctx: &mut Context<'_, A2Msg>) {
        let hungry = self.state == DiningState::Hungry;
        // Line 35, as in `send_fork`.
        let grant = |j, &low: &bool, gen| {
            let flag = low && hungry;
            ctx.send(j, A2Msg::Fork { flag, gen });
        };
        self.forks
            .release_where(|&higher| !(high_only && higher), grant);
    }

    /// Lower this node's priority below every neighbor it dominates
    /// (Lines 7–8 / 24–25 / 45–46).
    fn lower_below_all(&mut self, ctx: &mut Context<'_, A2Msg>) {
        for (j, higher) in self.forks.exts_mut() {
            if !*higher {
                ctx.send(j, A2Msg::Switch);
                ctx.observe(Obs::Switched);
                *higher = true;
            }
        }
    }

    /// Request driver (Lines 3–5 / 18–21): issue the requests appropriate
    /// to current holdings; eat when complete.
    fn kick(&mut self, ctx: &mut Context<'_, A2Msg>) {
        if self.state != DiningState::Hungry {
            return;
        }
        if self.all_forks() {
            self.state = DiningState::Eating;
            return;
        }
        // Low forks first; the high ones once every low fork is in.
        let want_high = self.all_low_forks();
        self.forks
            .request_where(|&higher| higher != want_high, |j| ctx.send(j, A2Msg::Req));
    }

    /// Lines 10–14: evaluate (or re-evaluate) a request from `j`.
    fn consider_request(&mut self, j: NodeId, ctx: &mut Context<'_, A2Msg>) {
        if self.defer_requests_from == Some(j) {
            return; // mutation: black-hole the victim's request
        }
        if !self.forks.holds(j) {
            return;
        }
        let outside = !self.withholding();
        if self.is_high(j) && (!self.all_low_forks() || outside) {
            self.send_fork(j, ctx);
        } else if self.is_low(j) && (!self.all_forks() || outside) {
            self.send_fork(j, ctx);
            self.release(true, ctx);
        } else {
            self.forks.suspend(j);
        }
    }

    fn on_fork(&mut self, from: NodeId, flag: bool, gen: u64, ctx: &mut Context<'_, A2Msg>) {
        if !self.forks.receive_if_fresh(from, gen) {
            // Link died while the fork was in flight, or a duplicated
            // delivery of a transfer already accepted (stale generation).
            return;
        }
        if self.state == DiningState::Hungry && self.all_forks() {
            self.state = DiningState::Eating;
        }
        if self.all_low_forks() && self.withholding() {
            // Lines 18–20.
            if flag {
                self.forks.suspend(from);
            }
            self.kick(ctx);
        } else if flag {
            // Line 21: unusable fork whose owner wants it back.
            self.send_fork(from, ctx);
        } else {
            self.kick(ctx);
        }
    }

    fn become_hungry(&mut self, ctx: &mut Context<'_, A2Msg>) {
        // Lines 1–5.
        self.state = DiningState::Hungry;
        if self.notifications_enabled {
            ctx.broadcast(A2Msg::Notification);
        }
        self.kick(ctx);
    }
}

impl Protocol for Algorithm2 {
    type Msg = A2Msg;

    fn on_event(&mut self, ev: Event<A2Msg>, ctx: &mut Context<'_, A2Msg>) {
        match ev {
            Event::Hungry => {
                if self.state == DiningState::Thinking {
                    self.become_hungry(ctx);
                }
            }
            Event::ExitCs => {
                // Lines 6–9.
                if self.state == DiningState::Eating {
                    self.state = DiningState::Thinking;
                    self.lower_below_all(ctx);
                    self.release(false, ctx);
                }
            }
            Event::Message { from, msg } => match msg {
                A2Msg::Req => self.consider_request(from, ctx),
                A2Msg::Fork { flag, gen } => self.on_fork(from, flag, gen, ctx),
                A2Msg::Notification => {
                    // Lines 22–25: a thinking node that dominates the newly
                    // hungry sender steps aside entirely.
                    if self.state == DiningState::Thinking && self.is_high(from) {
                        self.lower_below_all(ctx);
                    }
                }
                A2Msg::Switch => {
                    // Lines 26–27.
                    if let Some(higher) = self.forks.ext_mut(from) {
                        *higher = false;
                    }
                    self.kick(ctx);
                }
            },
            Event::LinkUp { peer, kind } => match kind {
                LinkUpKind::AsStatic => {
                    // Lines 40–41: the static side owns the fork and the
                    // priority (`higher` starts false).
                    self.forks.link_up(peer, true);
                }
                LinkUpKind::AsMoving => {
                    // Lines 42–46.
                    self.forks.link_up(peer, false);
                    if let Some(higher) = self.forks.ext_mut(peer) {
                        *higher = true;
                    }
                    if self.state == DiningState::Eating {
                        self.become_hungry(ctx);
                    }
                    self.lower_below_all(ctx);
                    self.kick(ctx);
                }
            },
            Event::LinkDown { peer } => {
                // Lines 47–48 (plus fork destruction).
                self.forks.link_down(peer);
                self.kick(ctx);
            }
            Event::MovementStarted | Event::MovementEnded | Event::Timer { .. } => {}
        }
    }

    fn dining_state(&self) -> DiningState {
        self.state
    }

    fn msg_kind(msg: &A2Msg) -> &'static str {
        msg.kind()
    }

    fn state_digest(&self) -> Option<u64> {
        Some(manet_sim::digest_of(self))
    }

    fn progress_digest(&self) -> Option<u64> {
        // Everything behavioral, nothing monotone: the fork table's
        // transfer generations never repeat, so they are excluded (see
        // `ForkTable::progress_digest`).
        Some(manet_sim::digest_of(&(
            self.me,
            self.state,
            self.forks.progress_digest(),
            self.notifications_enabled,
            self.defer_requests_from,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Engine, Metrics, MetricsData, SafetyMonitor, SimConfig, SimTime, Workload};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn line_engine(n: usize) -> Engine<Algorithm2> {
        Engine::new(
            SimConfig::default(),
            (0..n).map(|i| (i as f64, 0.0)).collect::<Vec<_>>(),
            |seed| Algorithm2::new(&seed),
        )
    }

    /// [`line_engine`] with a [`Metrics`] hook counting meals.
    fn fed_line(n: usize) -> (Engine<Algorithm2>, Rc<RefCell<MetricsData>>) {
        let mut e = line_engine(n);
        let (metrics, data) = Metrics::new(n);
        e.add_hook(Box::new(metrics));
        (e, data)
    }

    #[test]
    fn lone_node_eats() {
        let (mut e, data) = fed_line(1);
        e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(500));
        assert!(data.borrow().meals[0] >= 1);
    }

    #[test]
    fn full_contention_line_all_eat() {
        let (mut e, data) = fed_line(6);
        e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
        e.add_hook(Box::new(SafetyMonitor::new(true).0));
        for i in 0..6 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(50_000));
        for (i, &m) in data.borrow().meals.iter().enumerate() {
            assert!(m >= 1, "p{i} starved");
        }
    }

    #[test]
    fn notification_makes_thinking_dominator_step_aside() {
        // p0 < p1: initially higher_0[1] = true, i.e. p1 dominates... no:
        // higher_i[j] = ID[i] < ID[j], so p0 sees p1 as higher. p1 sees p0
        // as lower (higher_1[0] = false) — p1 dominates p0.
        let (mut e, data) = fed_line(2);
        e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(2_000));
        // p1 (thinking, dominating) must have switched below p0 on p0's
        // notification, letting p0 eat.
        assert!(data.borrow().meals[0] >= 1);
        assert!(e.observed(NodeId(1)).switches >= 1);
        // After p0's exit it lowered itself again, so p1 dominates once more.
        assert!(!e.protocol(NodeId(1)).neighbor_has_priority(NodeId(0)));
    }

    #[test]
    fn priorities_alternate_between_two_contenders() {
        let (mut e, data) = fed_line(2);
        e.add_hook(Box::new(Workload::one_shot(10..=10, 0)));
        e.add_hook(Box::new(SafetyMonitor::new(true).0));
        for i in 0..2 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        // Re-hungry drivers to force repeated conflicts.
        for t in (100..5_000).step_by(100) {
            e.set_hungry_at(SimTime(t), NodeId(0));
            e.set_hungry_at(SimTime(t), NodeId(1));
        }
        e.run_until(SimTime(6_000));
        assert!(data.borrow().meals[0] >= 3);
        assert!(data.borrow().meals[1] >= 3);
    }

    /// Node 2 with initial neighbours `neighbors`.
    fn node(neighbors: &[u32]) -> Algorithm2 {
        Algorithm2::new(&NodeSeed {
            id: NodeId(2),
            neighbors: neighbors.iter().map(|&j| NodeId(j)).collect(),
            n_nodes: 5,
            max_degree: 4,
        })
    }

    fn feed(p: &mut Algorithm2, ev: Event<A2Msg>) {
        let nbrs: Vec<NodeId> = p.forks.records().iter().map(|(j, _)| j).collect();
        let (mut outbox, mut timers) = (Vec::new(), Vec::new());
        let mut ctx = Context::for_host(p.me, SimTime(0), &nbrs, false, &mut outbox, &mut timers);
        p.on_event(ev, &mut ctx);
    }

    #[test]
    fn digests_ignore_history_and_progress_ignores_gen() {
        let up = |j| Event::LinkUp {
            peer: NodeId(j),
            kind: LinkUpKind::AsStatic,
        };
        let down = |j| Event::LinkDown { peer: NodeId(j) };
        let mut a = node(&[1, 3]);
        feed(&mut a, up(4));
        feed(&mut a, down(1));
        let mut b = node(&[1, 3]);
        for ev in [down(1), up(4), down(4), up(4)] {
            feed(&mut b, ev);
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.progress_digest(), b.progress_digest());
        // The same state again, except the transfer generation moved.
        let mut c = node(&[3, 4]);
        feed(&mut c, down(4));
        feed(&mut c, up(4));
        c.forks.sent(NodeId(3));
        c.forks.received(NodeId(3));
        assert_ne!(c.state_digest(), a.state_digest());
        assert_eq!(c.progress_digest(), a.progress_digest());
    }
}
