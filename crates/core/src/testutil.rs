//! A minimal workload hook for tests: the algorithm crates cannot depend on
//! `harness` (it sits above them), so [`AutoExit`] stands in for its
//! `Workload`. Safety and meals need no stand-in: the algorithm crates'
//! tests install `manet_sim::SafetyMonitor` and `manet_sim::Metrics`, the
//! same observers every host uses.

use manet_sim::{Command, DiningState, Hook, NodeId, Sink, View};

/// Schedules [`Command::ExitCs`] a fixed number of ticks after every node
/// starts eating (the application layer of the paper's model, with eating
/// time ≤ τ).
#[derive(Clone, Debug)]
pub struct AutoExit {
    eat_ticks: u64,
}

impl AutoExit {
    /// Exit `eat_ticks` after entering the critical section.
    pub fn new(eat_ticks: u64) -> AutoExit {
        AutoExit { eat_ticks }
    }
}

impl<M> Hook<M> for AutoExit {
    fn on_state_change(
        &mut self,
        view: &View<'_>,
        node: NodeId,
        _old: DiningState,
        new: DiningState,
        sink: &mut Sink,
    ) {
        if new == DiningState::Eating {
            sink.at(
                view.time() + self.eat_ticks,
                Command::ExitCs {
                    node,
                    session: view.eating_session(node),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{Context, Engine, Event, Protocol, SafetyMonitor, SimConfig, SimTime};

    /// Deliberately unsafe protocol: eats whenever told.
    struct Rogue(DiningState);
    impl Protocol for Rogue {
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

    #[test]
    fn auto_exit_ends_meals() {
        let mut e: Engine<Rogue> = Engine::new(SimConfig::default(), vec![(0.0, 0.0)], |_| {
            Rogue(DiningState::Thinking)
        });
        e.add_hook(Box::new(AutoExit::new(5)));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.run_until(SimTime(100));
        assert_eq!(e.dining_state(NodeId(0)), DiningState::Thinking);
    }
}
