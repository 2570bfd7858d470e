//! The Chandy–Misra "hygienic" dining-philosophers algorithm, adapted to
//! link churn.
//!
//! Forks are *clean* or *dirty*; a hungry node requests a missing fork by
//! sending the shared *request token*. A holder yields a **dirty** fork
//! (cleaning it in transit) unless it is eating; it keeps a **clean** fork
//! while hungry. Forks get dirty when their holder eats. The dirty/clean
//! precedence graph starts acyclic (fork at the smaller ID, dirty) and
//! stays acyclic, which yields freedom from deadlock — but a crashed node
//! can block a chain of hungry nodes of any length, so the failure locality
//! is `n` (this is the property Table 1 contrasts with the paper's
//! algorithms).
//!
//! MANET adaptation (same link-level contract as the paper's algorithms):
//! a new link's fork is born dirty at the designated-static side, the
//! request token at the moving side, and a mover that was eating is demoted
//! to hungry.

use std::collections::BTreeMap;

use manet_sim::{Context, DiningState, Event, LinkUpKind, NodeId, NodeSeed, Protocol};

/// Messages of the Chandy–Misra protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmMsg {
    /// The request token for the shared fork.
    ReqToken,
    /// The shared fork (always sent clean).
    Fork,
}

impl CmMsg {
    /// Coarse label for traces and message-complexity accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            CmMsg::ReqToken => "req-token",
            CmMsg::Fork => "fork",
        }
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
struct Edge {
    holds_fork: bool,
    dirty: bool,
    has_token: bool,
}

/// One Chandy–Misra node. Implements [`Protocol`] for the simulator.
#[derive(Debug, Hash)]
pub struct ChandyMisra {
    me: NodeId,
    state: DiningState,
    edges: BTreeMap<NodeId, Edge>,
}

impl ChandyMisra {
    /// Build a node: the fork of link `{i, j}` starts **dirty** at the
    /// smaller ID; the request token starts at the larger ID.
    pub fn new(seed: &NodeSeed) -> ChandyMisra {
        ChandyMisra {
            me: seed.id,
            state: DiningState::Thinking,
            edges: seed
                .neighbors
                .iter()
                .map(|&j| {
                    let i_hold = seed.id < j;
                    (
                        j,
                        Edge {
                            holds_fork: i_hold,
                            dirty: i_hold,
                            has_token: !i_hold,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Whether this node currently holds the fork shared with `j`.
    pub fn holds_fork(&self, j: NodeId) -> bool {
        self.edges.get(&j).is_some_and(|e| e.holds_fork)
    }

    fn all_forks(&self) -> bool {
        self.edges.values().all(|e| e.holds_fork)
    }

    /// Request missing forks (token in hand), and eat when complete.
    fn kick(&mut self, ctx: &mut Context<'_, CmMsg>) {
        if self.state != DiningState::Hungry {
            return;
        }
        if self.all_forks() {
            self.state = DiningState::Eating;
            for e in self.edges.values_mut() {
                e.dirty = true; // forks get dirty by eating
            }
            return;
        }
        let to_request: Vec<NodeId> = self
            .edges
            .iter()
            .filter(|(_, e)| !e.holds_fork && e.has_token)
            .map(|(&j, _)| j)
            .collect();
        for j in to_request {
            self.edges.get_mut(&j).expect("known neighbor").has_token = false;
            ctx.send(j, CmMsg::ReqToken);
        }
    }

    /// Yield the (dirty) fork shared with `j`, cleaning it in transit.
    fn yield_fork(&mut self, j: NodeId, ctx: &mut Context<'_, CmMsg>) {
        let e = self.edges.get_mut(&j).expect("known neighbor");
        debug_assert!(e.holds_fork);
        e.holds_fork = false;
        e.dirty = false;
        ctx.send(j, CmMsg::Fork);
    }
}

impl Protocol for ChandyMisra {
    type Msg = CmMsg;

    fn on_event(&mut self, ev: Event<CmMsg>, ctx: &mut Context<'_, CmMsg>) {
        match ev {
            Event::Hungry => {
                if self.state == DiningState::Thinking {
                    self.state = DiningState::Hungry;
                    self.kick(ctx);
                }
            }
            Event::ExitCs => {
                if self.state == DiningState::Eating {
                    self.state = DiningState::Thinking;
                    // Grant all deferred requests (token + fork both here).
                    let deferred: Vec<NodeId> = self
                        .edges
                        .iter()
                        .filter(|(_, e)| e.holds_fork && e.has_token)
                        .map(|(&j, _)| j)
                        .collect();
                    for j in deferred {
                        self.yield_fork(j, ctx);
                    }
                }
            }
            Event::Message { from, msg } => {
                let Some(&edge) = self.edges.get(&from) else {
                    return; // link died while the message was in flight
                };
                match msg {
                    CmMsg::ReqToken => {
                        if !edge.holds_fork {
                            // In a fault-free run the token implies the fork
                            // is here; under duplication faults a replayed
                            // request can trail the fork it already won.
                            // Stale — ignore.
                            return;
                        }
                        self.edges.get_mut(&from).expect("known").has_token = true;
                        let withhold = self.state == DiningState::Eating
                            || (self.state == DiningState::Hungry && !edge.dirty);
                        if !withhold {
                            self.yield_fork(from, ctx);
                            // A hungry node that yields immediately re-requests.
                            self.kick(ctx);
                        }
                    }
                    CmMsg::Fork => {
                        let e = self.edges.get_mut(&from).expect("known");
                        if e.holds_fork {
                            // Duplicated delivery of a fork already held
                            // (or already passed on): accepting it twice
                            // would double the fork. Stale — ignore.
                            return;
                        }
                        e.holds_fork = true;
                        e.dirty = false;
                        self.kick(ctx);
                    }
                }
            }
            Event::LinkUp { peer, kind } => {
                match kind {
                    LinkUpKind::AsStatic => {
                        self.edges.insert(
                            peer,
                            Edge {
                                holds_fork: true,
                                dirty: true,
                                has_token: false,
                            },
                        );
                    }
                    LinkUpKind::AsMoving => {
                        self.edges.insert(
                            peer,
                            Edge {
                                holds_fork: false,
                                dirty: false,
                                has_token: true,
                            },
                        );
                        if self.state == DiningState::Eating {
                            self.state = DiningState::Hungry;
                        }
                        self.kick(ctx);
                    }
                }
                let _ = self.me; // id kept for debugging / symmetry with other protocols
            }
            Event::LinkDown { peer } => {
                self.edges.remove(&peer);
                self.kick(ctx);
            }
            Event::MovementStarted | Event::MovementEnded | Event::Timer { .. } => {}
        }
    }

    fn dining_state(&self) -> DiningState {
        self.state
    }

    fn msg_kind(msg: &CmMsg) -> &'static str {
        msg.kind()
    }

    fn state_digest(&self) -> Option<u64> {
        Some(manet_sim::digest_of(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Engine, Metrics, MetricsData, SafetyMonitor, SimConfig, SimTime, Workload};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn line_engine(n: usize) -> Engine<ChandyMisra> {
        Engine::new(
            SimConfig::default(),
            (0..n).map(|i| (i as f64, 0.0)).collect::<Vec<_>>(),
            |seed| ChandyMisra::new(&seed),
        )
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
    fn lone_node_eats() {
        let mut e = line_engine(1);
        e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
        let data = watch(&mut e);
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(200));
        assert!(data.borrow().meals[0] >= 1);
    }

    #[test]
    fn contention_line_all_eat_safely() {
        let mut e = line_engine(6);
        e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
        let data = watch(&mut e);
        for i in 0..6 {
            e.set_hungry_at(SimTime(1), NodeId(i));
        }
        e.run_until(SimTime(50_000));
        for i in 0..6 {
            assert!(data.borrow().meals[i as usize] >= 1, "p{i} starved");
        }
    }

    #[test]
    fn dirty_fork_is_yielded_clean_fork_is_kept() {
        let mut e = line_engine(2);
        e.add_hook(Box::new(Workload::one_shot(5_000..=5_000, 0))); // p1 eats for a long time
                                                                    // p0 holds the dirty fork initially; p1 requests and gets it.
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.run_until(SimTime(100));
        assert_eq!(e.dining_state(NodeId(1)), DiningState::Eating);
        assert!(!e.protocol(NodeId(0)).holds_fork(NodeId(1)));
        // p0 requests while p1 eats: deferred until p1 exits.
        e.set_hungry_at(SimTime(101), NodeId(0));
        e.run_until(SimTime(500));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Hungry);
    }

    #[test]
    fn mobility_demotes_eating_mover() {
        let mut e: Engine<ChandyMisra> = Engine::new(
            SimConfig::default(),
            vec![(0.0, 0.0), (10.0, 0.0)],
            |seed| ChandyMisra::new(&seed),
        );
        e.add_hook(Box::new(Workload::one_shot(10_000..=10_000, 0)));
        let data = watch(&mut e);
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.run_until(SimTime(100));
        // Both eat (no link). Now p1 jumps next to p0.
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
        assert_eq!(e.dining_state(NodeId(1)), DiningState::Eating);
        e.teleport_at(SimTime(150), NodeId(1), (1.0, 0.0));
        e.run_until(SimTime(200));
        assert_eq!(e.dining_state(NodeId(1)), DiningState::Hungry);
        assert_eq!(data.borrow().demotions[1], 1);
    }
}
