//! The application layer of the paper's model: each node cycles thinking
//! → hungry → eating, with eating time ≤ τ. [`Workload`] is that layer as
//! one sans-IO rule for every host: the simulator installs it as a
//! [`Hook`], the live shard node calls it directly. On a dining transition
//! or a recovery it names the one command to schedule and its delay, in
//! the host's time unit (ticks in the simulator, nanoseconds live), and
//! [`Workload::applies`] decides whether that command, once due, still
//! applies.

use std::ops::RangeInclusive;

use crate::command::Command;
use crate::hooks::{Hook, Sink, View};
use crate::ids::NodeId;
use crate::protocol::DiningState;
use crate::rng::SimRng;

/// Every node eats for a time drawn from `eat` (≤ τ) and, in a cyclic
/// workload, goes hungry again after a think time drawn from `think`:
/// after each meal, and after a recovery as a fresh (thinking)
/// incarnation. Each draw is at least 1, so no command is due at the
/// instant that caused it.
///
/// A node's first hunger is the host's to schedule (the simulator's
/// [`crate::Engine::set_hungry_at`], the live node's staggered start);
/// this rule takes over afterwards.
#[derive(Clone, Debug)]
pub struct Workload {
    eat: RangeInclusive<u64>,
    /// `None` in a one-shot workload: a node eats once per external
    /// `SetHungry`.
    think: Option<RangeInclusive<u64>>,
    rng: SimRng,
}

impl Workload {
    /// A cyclic workload: eat `eat`, think `think`, repeat.
    pub fn cyclic(eat: RangeInclusive<u64>, think: RangeInclusive<u64>, seed: u64) -> Workload {
        Workload::new(eat, Some(think), seed)
    }

    /// A one-shot workload: each node eats once per external `SetHungry`.
    pub fn one_shot(eat: RangeInclusive<u64>, seed: u64) -> Workload {
        Workload::new(eat, None, seed)
    }

    fn new(eat: RangeInclusive<u64>, think: Option<RangeInclusive<u64>>, seed: u64) -> Workload {
        Workload {
            eat,
            think,
            rng: SimRng::seed_from_u64(seed ^ 0x574b_4c44),
        }
    }

    /// The command to schedule, and its delay, as `node` enters `new`;
    /// `session` is its eating-session counter, which names the meal on
    /// entering Eating.
    #[inline]
    pub fn entered(
        &mut self,
        node: NodeId,
        new: DiningState,
        session: u64,
    ) -> Option<(u64, Command)> {
        match new {
            DiningState::Eating => {
                let eat = self.rng.gen_range(self.eat.clone()).max(1);
                Some((eat, Command::ExitCs { node, session }))
            }
            DiningState::Thinking => {
                let think = self.rng.gen_range(self.think.clone()?).max(1);
                Some((think, Command::SetHungry(node)))
            }
            DiningState::Hungry => None,
        }
    }

    /// The command to schedule, and its delay, as `node` recovers as a
    /// fresh incarnation, which starts out thinking.
    pub fn recovered(&mut self, node: NodeId) -> Option<(u64, Command)> {
        self.entered(node, DiningState::Thinking, 0)
    }

    /// Whether a due `cmd` still applies to a node in `dining` whose
    /// eating-session counter reads `session`: a `SetHungry` only to a
    /// thinking node, an `ExitCs` only to the meal it was drawn for (a
    /// node demoted by mobility, or eating again, voids it). Commands
    /// that are not the workload's always apply.
    #[inline]
    pub fn applies(cmd: &Command, dining: DiningState, session: u64) -> bool {
        match *cmd {
            Command::SetHungry(_) => dining == DiningState::Thinking,
            Command::ExitCs { session: s, .. } => dining == DiningState::Eating && s == session,
            _ => true,
        }
    }
}

impl<M> Hook<M> for Workload {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        _old: DiningState,
        new: DiningState,
        sink: &mut Sink,
    ) {
        if let Some((delay, cmd)) = self.entered(node, new, view.eating_session(node)) {
            sink.at(view.time() + delay, cmd);
        }
    }

    fn on_recover(&mut self, view: &View<'_>, node: NodeId, sink: &mut Sink) {
        if let Some((delay, cmd)) = self.recovered(node) {
            sink.at(view.time() + delay, cmd);
        }
    }

    fn fork(&self) -> Option<Box<dyn Hook<M>>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Engine, Event, Metrics, Protocol, SimConfig, SimTime};

    struct Instant(DiningState);
    impl Protocol for Instant {
        type Msg = ();
        fn on_event(&mut self, ev: Event<()>, _ctx: &mut Context<'_, ()>) {
            match ev {
                Event::Hungry => self.0 = DiningState::Eating,
                Event::ExitCs => self.0 = DiningState::Thinking,
                _ => {}
            }
        }
        fn dining_state(&self) -> DiningState {
            self.0
        }
    }

    fn meals(workload: Workload) -> u64 {
        let mut e: Engine<Instant> = Engine::new(SimConfig::default(), vec![(0.0, 0.0)], |_| {
            Instant(DiningState::Thinking)
        });
        let (metrics, data) = Metrics::new(1);
        e.add_hook(Box::new(metrics));
        e.add_hook(Box::new(workload));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(1_000));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Thinking);
        let meals = data.borrow().meals[0];
        meals
    }

    #[test]
    fn cyclic_workload_keeps_cycling() {
        let got = meals(Workload::cyclic(5..=10, 5..=10, 1));
        assert!(got >= 20, "got {got}");
    }

    #[test]
    fn one_shot_workload_eats_once() {
        assert_eq!(meals(Workload::one_shot(5..=10, 1)), 1);
    }

    #[test]
    fn only_a_cyclic_workload_rehungers_a_recovered_node() {
        let node = NodeId(3);
        let mut cyclic = Workload::cyclic(4..=4, 7..=7, 1);
        assert_eq!(cyclic.recovered(node), Some((7, Command::SetHungry(node))));
        assert_eq!(Workload::one_shot(4..=4, 1).recovered(node), None);
    }

    #[test]
    fn a_due_command_applies_only_to_the_state_it_was_drawn_for() {
        use DiningState::{Eating, Hungry, Thinking};
        let hungry = Command::SetHungry(NodeId(0));
        let exit = Command::ExitCs {
            node: NodeId(0),
            session: 2,
        };
        let table = [
            (&hungry, Thinking, 2, true),
            (&hungry, Hungry, 2, false),
            (&hungry, Eating, 2, false),
            (&exit, Eating, 2, true),
            (&exit, Eating, 3, false), // eating again: a later meal
            (&exit, Hungry, 2, false), // demoted by mobility
            (&exit, Thinking, 2, false),
            (&Command::Crash(NodeId(0)), Eating, 2, true),
        ];
        for (cmd, dining, session, applies) in table {
            assert_eq!(
                Workload::applies(cmd, dining, session),
                applies,
                "{cmd:?} at {dining:?}, session {session}"
            );
        }
    }
}
