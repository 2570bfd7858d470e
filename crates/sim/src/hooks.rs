//! Observation hooks: how the harness watches a run and reacts to it.

use std::any::Any;

use crate::command::Command;
use crate::ids::NodeId;
use crate::protocol::DiningState;
use crate::time::SimTime;
use crate::world::World;

/// A read-only view of the engine state passed to hooks.
///
/// The view exposes *global* information (every node's dining state, the full
/// topology) that no protocol may see; it exists for checkers and metrics
/// only.
pub struct View<'a> {
    pub(crate) now: SimTime,
    pub(crate) world: &'a World,
    pub(crate) dining: &'a [DiningState],
    pub(crate) eating_session: &'a [u64],
}

impl View<'_> {
    /// Current virtual time.
    pub fn time(&self) -> SimTime {
        self.now
    }

    /// Number of nodes in the system.
    pub fn len(&self) -> usize {
        self.world.len()
    }

    /// True when the simulated system has no nodes.
    pub fn is_empty(&self) -> bool {
        self.world.is_empty()
    }

    /// The physical world (topology, positions, crash and motion flags).
    pub fn world(&self) -> &World {
        self.world
    }

    /// Dining state of `n` as cached by the engine.
    pub fn dining(&self, n: NodeId) -> DiningState {
        self.dining[n.index()]
    }

    /// Monotonic counter of eating sessions entered by `n`.
    pub fn eating_session(&self, n: NodeId) -> u64 {
        self.eating_session[n.index()]
    }

    /// Iterate over all node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.world.len() as u32).map(NodeId)
    }
}

/// Collector for commands a hook wants to schedule.
pub struct Sink {
    pub(crate) scheduled: Vec<(SimTime, Command)>,
}

impl Sink {
    /// Schedule `cmd` to execute at absolute time `at` (clamped to be not
    /// earlier than the current time by the engine).
    pub fn at(&mut self, at: SimTime, cmd: Command) {
        self.scheduled.push((at, cmd));
    }
}

/// An observer of a simulation run.
///
/// Hooks power everything the harness does: the safety checker asserts the
/// local mutual exclusion invariant, the workload schedules exits after a
/// node starts eating, metrics record response times, and fault injectors
/// watch for trigger conditions. All methods default to no-ops.
///
/// `Any` is a supertrait so a host can find an installed hook again by its
/// type ([`crate::Engine::hook`]) and read what it observed.
#[allow(unused_variables)]
pub trait Hook<M>: Any {
    /// A node's dining state changed (`old` → `new`) at `view.time()`.
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        old: DiningState,
        new: DiningState,
        sink: &mut Sink,
    ) {
    }

    /// Called once whenever virtual time is about to advance past `view.time()`,
    /// i.e. after all events of the current instant have been processed.
    /// Configuration-level invariants (such as local mutual exclusion)
    /// should be checked here.
    fn on_quantum_end(&mut self, view: &View<'_>, sink: &mut Sink) {}

    /// A link between `a` and `b` was created (`a` is the designated static
    /// side).
    fn on_link_up(&mut self, view: &View<'_>, a: NodeId, b: NodeId, sink: &mut Sink) {}

    /// The link between `a` and `b` failed.
    fn on_link_down(&mut self, view: &View<'_>, a: NodeId, b: NodeId, sink: &mut Sink) {}

    /// `node` crashed.
    fn on_crash(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {}

    /// A crashed `node` recovered as a fresh incarnation. Fires before
    /// the rejoin link flaps; observers holding per-node state keyed to
    /// the dead incarnation (open episodes, stale sessions) should drop
    /// it here.
    fn on_recover(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {}

    /// `node` started (`started = true`) or finished moving.
    fn on_move(&mut self, view: &View<'_>, node: NodeId, started: bool, sink: &mut Sink) {}

    /// A message from `from` to `to` was handed to the receiving protocol.
    fn on_deliver(&mut self, view: &View<'_>, from: NodeId, to: NodeId, msg: &M, sink: &mut Sink) {}

    /// An exact copy of this hook for a forked engine ([`crate::Engine::fork`]),
    /// sharing nothing with it: each copy goes on observing its own run.
    /// `None` (the default) means the hook cannot be copied, and an engine
    /// holding it cannot fork.
    fn fork(&self) -> Option<Box<dyn Hook<M>>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Position;

    #[test]
    fn view_exposes_engine_state() {
        let world = World::new(1.5, vec![Position::default(), Position { x: 1.0, y: 0.0 }]);
        let dining = [DiningState::Thinking, DiningState::Eating];
        let sessions = [0u64, 3u64];
        let view = View {
            now: SimTime(9),
            world: &world,
            dining: &dining,
            eating_session: &sessions,
        };
        assert_eq!(view.time(), SimTime(9));
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.dining(NodeId(1)), DiningState::Eating);
        assert_eq!(view.eating_session(NodeId(1)), 3);
        assert_eq!(view.nodes().count(), 2);
    }

    #[test]
    fn sink_collects_commands() {
        let mut sink = Sink { scheduled: vec![] };
        sink.at(SimTime(5), Command::SetHungry(NodeId(0)));
        assert_eq!(sink.scheduled.len(), 1);
    }
}
