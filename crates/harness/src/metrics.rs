//! Response-time and progress metrics: the [`manet_sim`] session fold
//! and its [`Metrics`] hook, re-exported where experiments have always
//! found them.

pub use manet_sim::{Metrics, MetricsData, Sample};

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::{
        Command, Context, DiningState, Engine, Event, NodeId, Protocol, SimConfig, SimTime,
    };

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

    #[test]
    fn records_episodes_and_meals() {
        let mut e: Engine<Instant> = Engine::new(SimConfig::default(), vec![(0.0, 0.0)], |_| {
            Instant(DiningState::Thinking)
        });
        let (hook, data) = Metrics::new(1);
        e.add_hook(Box::new(hook));
        e.set_hungry_at(SimTime(5), NodeId(0));
        e.schedule(
            SimTime(25),
            Command::ExitCs {
                node: NodeId(0),
                session: 1,
            },
        );
        e.run_until(SimTime(100));
        let d = data.borrow();
        assert_eq!(d.samples.len(), 1);
        assert_eq!(d.samples[0].response(), 0); // Instant eats at once
        assert_eq!(d.meals[0], 1);
        assert!(d.starving_since(SimTime(u64::MAX)).is_empty());
    }

    #[test]
    fn starving_detection() {
        let mut e: Engine<Instant> =
            Engine::new(SimConfig::default(), vec![(0.0, 0.0), (100.0, 0.0)], |_| {
                Instant(DiningState::Thinking)
            });
        let (hook, data) = Metrics::new(2);
        e.add_hook(Box::new(hook));
        // Crash p1 first: its Hungry command is then ignored, so p1 never
        // transitions and (trivially) never registers as hungry; p0 becomes
        // hungry and "starves" only until it eats instantly. Use p0 as the
        // still-hungry probe by never letting it eat: crash it right after
        // it is made hungry? Simpler: make p0 hungry and check bookkeeping.
        e.set_hungry_at(SimTime(5), NodeId(0));
        e.run_until(SimTime(50));
        let d = data.borrow();
        // Instant protocol eats immediately, so nothing is starving.
        assert!(d.starving_since(SimTime(10)).is_empty());
        assert_eq!(d.samples.len(), 1);
    }
}
