//! The local mutual exclusion safety monitor.
//!
//! The invariant (Section 3.2 of the paper) is *local*: no two current
//! neighbors eat at once. So is the check. [`SafetyCore`] is told what
//! changed — a node entered or left `Eating`, a link came up, a node
//! crashed or recovered — and [`SafetyCore::settle`] examines only the
//! neighborhoods those changes touched: O(δ) per eating transition, O(1)
//! per link-up, nothing at all for an instant in which none occurred.
//! [`SafetyMonitor`] adapts the core to the simulator's [`Hook`] seam; the
//! live runtime's trace validator drives the same core from trace records.
//! It is the one LME checker: the algorithm crates' own tests, the model
//! checker, the harness runner and the live audit all use it.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use crate::hooks::{Hook, Sink, View};
use crate::ids::NodeId;
use crate::protocol::DiningState;
use crate::time::SimTime;
use crate::world::World;

/// A recorded safety violation: two neighbors eating at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// When it was observed.
    pub at: SimTime,
    /// The lower-ID eater.
    pub a: NodeId,
    /// The higher-ID eater.
    pub b: NodeId,
}

/// What the core knows about one node's claim on the critical section.
#[derive(Clone, Copy, Debug, Default)]
struct Seat {
    /// In the critical section. Frozen while `crashed`: a node that
    /// crashes mid-meal provably holds every shared fork forever.
    eating: bool,
    crashed: bool,
    /// Eating-session counter as of the last entry into `Eating`.
    session: u64,
}

/// The incremental LME invariant: *no two current neighbors eating*, with
/// a node that crashed **mid-eating** counted as eating until it recovers.
///
/// The host reports changes as they happen and calls [`settle`] once per
/// instant, after every event of that instant. Only what holds when the
/// instant settles counts, so an overlap that appears and resolves within
/// one instant is not a violation. A violating pair `{x, y}` is linked,
/// has both seats eating and at least one of them live; it is logged once
/// per distinct `(a, b, session_a, session_b)` — a new eating session of
/// either node is a new violation, a repeated observation is not.
///
/// Within an instant, new violations are logged in the order a scan of
/// the whole configuration would find them: by the live eater reporting
/// the pair (the lower ID when both are live), then by the other node's
/// ID.
///
/// [`settle`]: SafetyCore::settle
#[derive(Clone, Debug)]
pub struct SafetyCore {
    seats: Vec<Seat>,
    /// Nodes that entered `Eating` since the last settle.
    touched: Vec<NodeId>,
    /// Links that came up since the last settle.
    raised: Vec<(NodeId, NodeId)>,
    /// Keys already logged: `(a, b, session_of_a, session_of_b)`.
    seen: BTreeSet<(NodeId, NodeId, u64, u64)>,
    pairs_examined: u64,
}

impl SafetyCore {
    /// A core for `n` nodes, all live and outside the critical section.
    pub fn new(n: usize) -> SafetyCore {
        SafetyCore {
            seats: vec![Seat::default(); n],
            touched: Vec::new(),
            raised: Vec::new(),
            seen: BTreeSet::new(),
            pairs_examined: 0,
        }
    }

    /// `node`'s dining state became `new`; `session` is its eating-session
    /// counter after the transition. Ignored for a crashed node, whose
    /// seat stays frozen until [`SafetyCore::recovered`].
    pub fn state_changed(&mut self, node: NodeId, new: DiningState, session: u64) {
        let seat = &mut self.seats[node.index()];
        if seat.crashed {
            return;
        }
        seat.eating = new == DiningState::Eating;
        if seat.eating {
            seat.session = session;
            self.touched.push(node);
        }
    }

    /// A link between `a` and `b` came up.
    pub fn link_up(&mut self, a: NodeId, b: NodeId) {
        self.raised.push((a, b));
    }

    /// `node` crashed, eating or not. Its seat freezes as it is.
    pub fn crashed(&mut self, node: NodeId) {
        self.seats[node.index()].crashed = true;
    }

    /// `node` restarted as a fresh incarnation: live and thinking. Logged
    /// keys naming it are forgotten, so a violation after the recovery is
    /// a fresh one.
    pub fn recovered(&mut self, node: NodeId) {
        let seat = &mut self.seats[node.index()];
        seat.crashed = false;
        seat.eating = false;
        self.seen.retain(|&(a, b, _, _)| a != node && b != node);
    }

    /// Node pairs examined so far — a deterministic cost counter in the
    /// style of [`World::candidates_examined`]: it grows with eating
    /// transitions × δ and link-ups, never with `n`, the number of
    /// instants or the number of deliveries.
    pub fn pairs_examined(&self) -> u64 {
        self.pairs_examined
    }

    /// Close the instant `at`: append to `log` every violation that holds
    /// in `world` now and was not logged before.
    pub fn settle(&mut self, at: SimTime, world: &World, log: &mut Vec<Violation>) {
        if self.touched.is_empty() && self.raised.is_empty() {
            return;
        }
        // Live eaters with a violating pair to report; stays empty (and
        // unallocated) on every instant of a safe run.
        let mut reporters: Vec<NodeId> = Vec::new();
        for &t in &self.touched {
            if !self.seats[t.index()].eating {
                continue; // left again within the instant
            }
            let nbrs = world.neighbors(t);
            self.pairs_examined += nbrs.len() as u64;
            reporters.extend(nbrs.iter().filter_map(|&b| self.reporter(t, b)));
        }
        for &(a, b) in &self.raised {
            self.pairs_examined += 1;
            if world.linked(a, b) {
                reporters.extend(self.reporter(a, b));
            }
        }
        self.touched.clear();
        self.raised.clear();
        reporters.sort_unstable();
        reporters.dedup();
        for a in reporters {
            for &b in world.neighbors(a) {
                self.pairs_examined += 1;
                if self.reporter(a, b) != Some(a) {
                    continue;
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                let key = (
                    lo,
                    hi,
                    self.seats[lo.index()].session,
                    self.seats[hi.index()].session,
                );
                if self.seen.insert(key) {
                    log.push(Violation { at, a: lo, b: hi });
                }
            }
        }
    }

    /// The endpoint a whole-configuration scan reports the linked pair
    /// `{x, y}` from, or `None` when the pair does not violate: both must
    /// be eating and the reporter live (the lower ID if both are).
    fn reporter(&self, x: NodeId, y: NodeId) -> Option<NodeId> {
        let (sx, sy) = (self.seats[x.index()], self.seats[y.index()]);
        if !(sx.eating && sy.eating) {
            return None;
        }
        match (sx.crashed, sy.crashed) {
            (false, false) => Some(x.min(y)),
            (false, true) => Some(x),
            (true, false) => Some(y),
            (true, true) => None,
        }
    }
}

/// Checks the LME invariant — *no two current neighbors eating* — after
/// every instant of virtual time (Section 3.2 of the paper): the
/// [`Hook`] adapter over [`SafetyCore`]. State changes, link-ups, crashes
/// and recoveries mark the core; `on_quantum_end` settles it, so its cost
/// follows the run's eating transitions, not `n` × instants.
///
/// A node that crashes **mid-eating** never leaves the critical section:
/// it provably holds every shared fork, so a neighbor that eats afterwards
/// is a genuine violation, and each later eating session next to it is a
/// new one.
///
/// In `panic_on_violation` mode the first violation aborts the run (the
/// right default for tests); otherwise violations are recorded for the
/// caller to assert on.
#[derive(Debug)]
pub struct SafetyMonitor {
    violations: Rc<RefCell<Vec<Violation>>>,
    panic_on_violation: bool,
    /// Seeded from the first view the monitor is shown.
    core: Option<SafetyCore>,
}

impl SafetyMonitor {
    /// Create the monitor and the shared handle to its violation log.
    pub fn new(panic_on_violation: bool) -> (SafetyMonitor, Rc<RefCell<Vec<Violation>>>) {
        let v = Rc::new(RefCell::new(Vec::new()));
        (
            SafetyMonitor {
                violations: v.clone(),
                panic_on_violation,
                core: None,
            },
            v,
        )
    }

    /// The violations logged so far: what the shared handle of
    /// [`SafetyMonitor::new`] reads, reached through the monitor itself
    /// (e.g. on a forked engine, whose monitor logs into its own copy).
    pub fn violations(&self) -> std::cell::Ref<'_, Vec<Violation>> {
        self.violations.borrow()
    }
}

/// A core holding the configuration in `view`. The monitor seeds itself
/// from the first view it is shown — protocols may start out eating, and
/// a monitor may be attached to an engine that has already run. A crashed
/// node's cached dining state is frozen at its crash instant, which is
/// exactly what its seat holds.
fn seed(view: &View<'_>) -> SafetyCore {
    let mut core = SafetyCore::new(view.len());
    for node in view.nodes() {
        core.state_changed(node, view.dining(node), view.eating_session(node));
        if view.world().is_crashed(node) {
            core.crashed(node);
        }
    }
    core
}

impl<M> Hook<M> for SafetyMonitor {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        _old: DiningState,
        new: DiningState,
        _sink: &mut Sink,
    ) {
        let core = self.core.get_or_insert_with(|| seed(view));
        core.state_changed(node, new, view.eating_session(node));
    }

    fn on_link_up(&mut self, view: &View<'_>, a: NodeId, b: NodeId, _sink: &mut Sink) {
        self.core.get_or_insert_with(|| seed(view)).link_up(a, b);
    }

    fn on_crash(&mut self, view: &View<'_>, node: NodeId, _sink: &mut Sink) {
        self.core.get_or_insert_with(|| seed(view)).crashed(node);
    }

    fn on_recover(&mut self, view: &View<'_>, node: NodeId, _sink: &mut Sink) {
        // The engine re-syncs the dining cache to the new incarnation
        // without a state-change event; an automaton that starts out
        // eating takes its seat here.
        let core = self.core.get_or_insert_with(|| seed(view));
        core.recovered(node);
        core.state_changed(node, view.dining(node), view.eating_session(node));
    }

    fn on_quantum_end(&mut self, view: &View<'_>, _sink: &mut Sink) {
        let core = self.core.get_or_insert_with(|| seed(view));
        let mut log = self.violations.borrow_mut();
        let logged = log.len();
        core.settle(view.time(), view.world(), &mut log);
        if self.panic_on_violation {
            if let Some(v) = log.get(logged) {
                panic!(
                    "local mutual exclusion violated at {}: {} and {} both eating",
                    v.at, v.a, v.b
                );
            }
        }
    }

    /// A copy logging into a fresh copy of the violations so far, so the
    /// two runs never see each other's.
    fn fork(&self) -> Option<Box<dyn Hook<M>>> {
        Some(Box::new(SafetyMonitor {
            violations: Rc::new(RefCell::new(self.violations.borrow().clone())),
            panic_on_violation: self.panic_on_violation,
            core: self.core.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Engine, Event, Protocol, SimConfig};

    /// Deliberately unsafe protocol: eats whenever told.
    struct Rogue(DiningState);
    impl Protocol for Rogue {
        type Msg = ();
        fn on_event(&mut self, ev: Event<()>, _ctx: &mut Context<'_, ()>) {
            if let Event::Hungry = ev {
                self.0 = DiningState::Eating;
            }
        }
        fn dining_state(&self) -> DiningState {
            self.0
        }
    }

    #[test]
    #[should_panic(expected = "local mutual exclusion violated")]
    fn safety_check_catches_violations() {
        let mut e: Engine<Rogue> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |_| {
                Rogue(DiningState::Thinking)
            });
        e.add_hook(Box::new(SafetyMonitor::new(true).0));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.run_until(SimTime(10));
    }
}
