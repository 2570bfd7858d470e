//! The local mutual exclusion safety monitor: [`manet_sim`]'s incremental
//! [`SafetyCore`] and its [`SafetyMonitor`] hook, re-exported where
//! experiments have always found them.

pub use manet_sim::{SafetyCore, SafetyMonitor, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{
        Command, Context, DiningState, Engine, Event, NodeId, Protocol, SimConfig, SimTime, World,
    };

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

    fn rogue_pair() -> Engine<Rogue> {
        Engine::new(SimConfig::default(), vec![(0.0, 0.0), (1.0, 0.0)], |_| {
            Rogue(DiningState::Thinking)
        })
    }

    #[test]
    fn records_violations_without_panicking() {
        let mut e = rogue_pair();
        let (monitor, log) = SafetyMonitor::new(false);
        e.add_hook(Box::new(monitor));
        e.set_hungry_at(SimTime(1), NodeId(0));
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.run_until(SimTime(10));
        let log = log.borrow();
        assert!(!log.is_empty());
        assert_eq!((log[0].a, log[0].b), (NodeId(0), NodeId(1)));
        // Deduplicated: one entry despite many quanta.
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn eating_next_to_a_neighbor_that_crashed_mid_eating_is_flagged() {
        // Regression: node 1 crashes while eating (it holds every shared
        // fork forever); each later eating session of node 0 is a distinct
        // violation. The old pair-keyed dedup logged the first and
        // swallowed every subsequent session as a "consecutive duplicate".
        let mut e = rogue_pair();
        let (monitor, log) = SafetyMonitor::new(false);
        e.add_hook(Box::new(monitor));
        e.set_hungry_at(SimTime(1), NodeId(1));
        e.crash_at(SimTime(5), NodeId(1)); // mid-eating
                                           // Two separate eating sessions of node 0, both after the crash.
        e.set_hungry_at(SimTime(10), NodeId(0));
        e.schedule(
            SimTime(20),
            Command::ExitCs {
                node: NodeId(0),
                session: 1,
            },
        );
        e.set_hungry_at(SimTime(30), NodeId(0));
        e.run_until(SimTime(40));
        let log = log.borrow();
        assert_eq!(
            log.len(),
            2,
            "each session against the crashed eater is a new violation: {log:?}"
        );
        assert!(log.iter().all(|v| (v.a, v.b) == (NodeId(0), NodeId(1))));
        assert!(
            log[0].at < SimTime(20) && log[1].at >= SimTime(30),
            "{log:?}"
        );
    }

    #[test]
    fn crashing_outside_the_cs_is_benign() {
        let mut e = rogue_pair();
        let (monitor, log) = SafetyMonitor::new(false);
        e.add_hook(Box::new(monitor));
        e.crash_at(SimTime(2), NodeId(1)); // thinking at crash time
        e.set_hungry_at(SimTime(10), NodeId(0));
        e.run_until(SimTime(40));
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn an_overlap_that_resolves_within_the_instant_is_not_a_violation() {
        let world = World::new(1.5, vec![(0.0, 0.0).into(), (1.0, 0.0).into()]);
        let mut core = SafetyCore::new(2);
        let mut log = Vec::new();
        core.state_changed(NodeId(0), DiningState::Eating, 1);
        core.settle(SimTime(1), &world, &mut log);
        // Node 0 hands over to node 1 inside instant 2.
        core.state_changed(NodeId(1), DiningState::Eating, 1);
        core.state_changed(NodeId(0), DiningState::Thinking, 1);
        core.settle(SimTime(2), &world, &mut log);
        assert!(log.is_empty(), "{log:?}");
        // Had node 0 stayed, the same instant would have been one.
        core.state_changed(NodeId(0), DiningState::Eating, 2);
        core.settle(SimTime(3), &world, &mut log);
        assert_eq!(log.len(), 1, "{log:?}");
    }

    #[test]
    fn quiet_instants_and_non_eating_transitions_examine_nothing() {
        let world = World::new(1.5, vec![(0.0, 0.0).into(), (1.0, 0.0).into()]);
        let mut core = SafetyCore::new(2);
        let mut log = Vec::new();
        for t in 0..100 {
            core.state_changed(NodeId(0), DiningState::Hungry, 0);
            core.state_changed(NodeId(0), DiningState::Thinking, 0);
            core.crashed(NodeId(1));
            core.recovered(NodeId(1));
            core.settle(SimTime(t), &world, &mut log);
        }
        assert_eq!(core.pairs_examined(), 0);
        core.state_changed(NodeId(0), DiningState::Eating, 1);
        core.link_up(NodeId(0), NodeId(1));
        core.settle(SimTime(100), &world, &mut log);
        assert_eq!(core.pairs_examined(), 2, "one neighbor, one raised link");
        assert!(log.is_empty());
    }
}
