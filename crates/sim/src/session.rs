//! Dining sessions: the one definition of a meal and of a response time
//! (DESIGN §16), and the [`Metrics`] hook that feeds it from the engine.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use crate::hooks::{Hook, Sink, View};
use crate::ids::NodeId;
use crate::protocol::DiningState;
use crate::time::SimTime;

/// One completed hungry→eating episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The node that ate.
    pub node: NodeId,
    /// When it became hungry.
    pub hungry_at: SimTime,
    /// When it started eating.
    pub eat_at: SimTime,
    /// Whether the node moved (or was demoted by mobility) during the
    /// episode. Definition 1 of the paper bounds response time only for
    /// nodes that stay static, so experiments usually filter on this.
    pub moved: bool,
    /// Messages delivered to or from the node during the episode — the
    /// empirical message complexity of this CS entry (Section 5 of the
    /// paper counts messages per eating session the same way).
    pub msgs: u64,
}

impl Sample {
    /// The episode's response time in ticks.
    pub fn response(&self) -> u64 {
        self.eat_at - self.hungry_at
    }
}

/// Per-node dining sessions, folded from plain values: the one rule for
/// what a meal and a response time are.
///
/// Sans-IO: a host feeds it dining transitions with their instants,
/// deliveries, recoveries and move starts — the [`Metrics`] hook from
/// engine callbacks, the live runtime's trace audit and the model
/// checker's verdict from trace records — so sim and live count alike:
///
/// * Thinking → Hungry opens an episode;
/// * Eating → Hungry (a mobility demotion) opens a *moved* episode and
///   counts a demotion;
/// * Hungry → Eating closes the open episode with a [`Sample`];
/// * Thinking → Eating (hungry and fed inside one handler) is a
///   zero-latency sample;
/// * Eating → Thinking is a meal — so a meal cut off by a crash or by the
///   end of the run never counts;
/// * a recovery drops the open episode, which belonged to the dead
///   incarnation;
/// * a delivery charges the open episodes at both of its ends.
#[derive(Clone, Debug, Default)]
pub struct SessionFold {
    /// Per node, the sample its open episode will close as; `eat_at` is
    /// set when it closes.
    open: Vec<Option<Sample>>,
    /// Completed meals (Eating → Thinking) per node.
    pub meals: Vec<u64>,
    /// Eating → Hungry demotions per node.
    pub demotions: Vec<u64>,
}

impl SessionFold {
    /// A fold over `n` nodes, none of them hungry.
    pub fn new(n: usize) -> SessionFold {
        SessionFold {
            open: vec![None; n],
            meals: vec![0; n],
            demotions: vec![0; n],
        }
    }

    /// `node` went from `old` to `new` at `at`, `moving` or not. Returns
    /// the episode this transition closes; the fold does not keep it.
    pub fn state_changed(
        &mut self,
        node: NodeId,
        old: DiningState,
        new: DiningState,
        at: SimTime,
        moving: bool,
    ) -> Option<Sample> {
        let i = node.index();
        let opened = |moved| Sample {
            node,
            hungry_at: at,
            eat_at: at,
            moved,
            msgs: 0,
        };
        match (old, new) {
            (DiningState::Thinking, DiningState::Hungry) => self.open[i] = Some(opened(moving)),
            (DiningState::Eating, DiningState::Hungry) => {
                self.demotions[i] += 1;
                self.open[i] = Some(opened(true));
            }
            (DiningState::Hungry, DiningState::Eating) => {
                return self.open[i].take().map(|s| Sample { eat_at: at, ..s })
            }
            (DiningState::Thinking, DiningState::Eating) => return Some(opened(moving)),
            (DiningState::Eating, DiningState::Thinking) => self.meals[i] += 1,
            _ => {}
        }
        None
    }

    /// A message from `from` was delivered to `to`: a hungry node pays for
    /// the traffic its quest causes in either direction.
    pub fn delivered(&mut self, from: NodeId, to: NodeId) {
        for node in [from, to] {
            if let Some(e) = self.open[node.index()].as_mut() {
                e.msgs += 1;
            }
        }
    }

    /// `node` restarted as a fresh incarnation, which starts thinking.
    pub fn recovered(&mut self, node: NodeId) {
        self.open[node.index()] = None;
    }

    /// `node` started moving: its open episode is no longer static.
    pub fn move_started(&mut self, node: NodeId) {
        if let Some(e) = self.open[node.index()].as_mut() {
            e.moved = true;
        }
    }

    /// Nodes that have been hungry since before `deadline` — the empirical
    /// notion of starvation used by the failure-locality probes; sorted by
    /// ID.
    pub fn starving_since(&self, deadline: SimTime) -> Vec<NodeId> {
        self.open
            .iter()
            .flatten()
            .filter(|s| s.hungry_at <= deadline)
            .map(|s| s.node)
            .collect()
    }
}

/// Data collected by the [`Metrics`] hook, shared via `Rc<RefCell<_>>`:
/// the closed episodes, and (through `Deref`) the [`SessionFold`] they
/// were folded from — its `meals`, `demotions` and starvation probes.
#[derive(Clone, Debug, Default)]
pub struct MetricsData {
    /// All completed episodes in completion order.
    pub samples: Vec<Sample>,
    sessions: SessionFold,
}

impl Deref for MetricsData {
    type Target = SessionFold;
    fn deref(&self) -> &SessionFold {
        &self.sessions
    }
}

impl MetricsData {
    /// Response times of episodes where the node stayed static.
    pub fn static_responses(&self) -> Vec<u64> {
        self.samples
            .iter()
            .filter(|s| !s.moved)
            .map(Sample::response)
            .collect()
    }

    /// Response times of all episodes.
    pub fn all_responses(&self) -> Vec<u64> {
        self.samples.iter().map(Sample::response).collect()
    }

    /// Per-episode message counts (the message complexity of each CS
    /// entry), in completion order.
    pub fn msg_complexities(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.msgs).collect()
    }
}

/// Hook feeding a [`SessionFold`] from the engine and keeping every
/// [`Sample`] it closes.
#[derive(Debug)]
pub struct Metrics {
    data: Rc<RefCell<MetricsData>>,
}

impl Metrics {
    /// Create the hook and the shared handle to its data.
    pub fn new(n_nodes: usize) -> (Metrics, Rc<RefCell<MetricsData>>) {
        let data = Rc::new(RefCell::new(MetricsData {
            samples: Vec::new(),
            sessions: SessionFold::new(n_nodes),
        }));
        (Metrics { data: data.clone() }, data)
    }
}

impl<M> Hook<M> for Metrics {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        old: DiningState,
        new: DiningState,
        _sink: &mut Sink,
    ) {
        let d = &mut *self.data.borrow_mut();
        let moving = view.world().is_moving(node);
        d.samples.extend(
            d.sessions
                .state_changed(node, old, new, view.time(), moving),
        );
    }

    fn on_deliver(
        &mut self,
        _view: &View<'_>,
        from: NodeId,
        to: NodeId,
        _msg: &M,
        _sink: &mut Sink,
    ) {
        self.data.borrow_mut().sessions.delivered(from, to);
    }

    fn on_recover(&mut self, _view: &View<'_>, node: NodeId, _sink: &mut Sink) {
        self.data.borrow_mut().sessions.recovered(node);
    }

    fn on_move(&mut self, _view: &View<'_>, node: NodeId, started: bool, _sink: &mut Sink) {
        if started {
            self.data.borrow_mut().sessions.move_started(node);
        }
    }
}
