//! Behavioral tests of the engine's trickier semantics: link incarnations,
//! crash/motion interactions, command clamping, and hook firing.

use manet_sim::{
    Command, Context, DiningState, Engine, Event, Hook, NodeId, Protocol, SimConfig, SimTime, Sink,
    View,
};

/// Records everything it sees; replies to `Ping` with `Pong`.
#[derive(Default)]
struct Recorder {
    events: Vec<(u64, String)>,
}

#[derive(Clone, Debug, PartialEq, Hash)]
enum Msg {
    Ping,
    Pong,
}

impl Protocol for Recorder {
    type Msg = Msg;
    fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
        let t = ctx.time().0;
        match ev {
            Event::Message { from, msg } => {
                self.events.push((t, format!("msg {msg:?} from {from}")));
                if msg == Msg::Ping {
                    ctx.send(from, Msg::Pong);
                }
            }
            Event::LinkUp { peer, kind } => {
                self.events.push((t, format!("up {peer} {kind:?}")));
            }
            Event::LinkDown { peer } => self.events.push((t, format!("down {peer}"))),
            Event::MovementStarted => self.events.push((t, "move-start".into())),
            Event::MovementEnded => self.events.push((t, "move-end".into())),
            Event::Timer { token } => {
                self.events.push((t, format!("timer {token}")));
                if token == 1 {
                    ctx.broadcast(Msg::Ping);
                }
            }
            Event::Hungry | Event::ExitCs => {}
        }
    }
    fn dining_state(&self) -> DiningState {
        DiningState::Thinking
    }
}

fn two_nodes(cfg: SimConfig) -> Engine<Recorder> {
    Engine::new(cfg, vec![(0.0, 0.0), (1.0, 0.0)], |_| Recorder::default())
}

#[test]
fn link_flap_drops_stale_incarnation_messages() {
    // A protocol that sends a Ping to its peer whenever a link comes up:
    // with long in-flight delays, a quick down/up flap leaves old-
    // incarnation messages airborne that must be dropped even though the
    // link exists again.
    struct Flapper;
    impl Protocol for Flapper {
        type Msg = Msg;
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            if let Event::LinkUp { peer, .. } = ev {
                ctx.send(peer, Msg::Ping);
            }
        }
        fn dining_state(&self) -> DiningState {
            DiningState::Thinking
        }
    }
    let cfg = SimConfig {
        min_message_delay: 40,
        max_message_delay: 50,
        ..SimConfig::default()
    };
    let mut e: Engine<Flapper> = Engine::new(cfg, vec![(0.0, 0.0), (10.0, 0.0)], |_| Flapper);
    // p1 hops next to p0 (link up, Pings sent with ~45-tick delays), hops
    // away at 20 (link down: in-flight Pings are stale), and back at 30
    // (new incarnation).
    e.teleport_at(SimTime(10), NodeId(1), (1.0, 0.0));
    e.teleport_at(SimTime(20), NodeId(1), (10.0, 0.0));
    e.teleport_at(SimTime(30), NodeId(1), (1.0, 0.0));
    e.run_until(SimTime(500));
    // The Pings of the first incarnation (sent at t=10) were airborne when
    // the link failed at t=20 and must have been dropped.
    assert!(e.stats().dropped_in_flight >= 2, "{:?}", e.stats());
    // After the second teleport the nodes are linked again.
    assert!(e.world().linked(NodeId(0), NodeId(1)));
    // No stale deliveries: every message either delivered on a live
    // incarnation or counted as dropped; conservation holds.
    let s = e.stats();
    assert_eq!(s.messages_sent, s.messages_delivered + s.messages_dropped());
}

#[test]
fn crash_during_smooth_motion_freezes_position() {
    let mut e = two_nodes(SimConfig::default());
    e.schedule(
        SimTime(1),
        Command::StartMove {
            node: NodeId(1),
            dest: (100.0, 0.0).into(),
            speed: 0.1,
        },
    );
    e.crash_at(SimTime(50), NodeId(1));
    e.run_until(SimTime(5_000));
    let pos = e.world().position(NodeId(1));
    assert!(
        pos.x < 100.0,
        "crashed node kept moving to {pos:?} after the crash"
    );
    assert!(!e.world().is_moving(NodeId(1)));
    assert!(e.world().is_crashed(NodeId(1)));
    // And it stays put forever.
    e.run_until(SimTime(10_000));
    assert_eq!(e.world().position(NodeId(1)), pos);
}

#[test]
fn movement_commands_on_crashed_nodes_are_ignored() {
    let mut e = two_nodes(SimConfig::default());
    e.crash_at(SimTime(1), NodeId(1));
    e.teleport_at(SimTime(10), NodeId(1), (50.0, 0.0));
    e.schedule(
        SimTime(20),
        Command::StartMove {
            node: NodeId(1),
            dest: (50.0, 0.0).into(),
            speed: 1.0,
        },
    );
    e.run_until(SimTime(100));
    assert_eq!(e.world().position(NodeId(1)).x, 1.0);
}

#[test]
fn commands_in_the_past_are_clamped_to_now() {
    let mut e = two_nodes(SimConfig::default());
    e.run_until(SimTime(100));
    // Scheduling "at 5" after time 100 executes immediately, not never.
    e.crash_at(SimTime(5), NodeId(0));
    e.run_until(SimTime(200));
    assert!(e.world().is_crashed(NodeId(0)));
}

#[test]
fn on_move_hooks_fire_for_smooth_and_teleport() {
    use std::cell::RefCell;
    use std::rc::Rc;
    struct MoveLog(Rc<RefCell<Vec<(NodeId, bool)>>>);
    impl Hook<Msg> for MoveLog {
        fn on_move(&mut self, _v: &View<'_>, node: NodeId, started: bool, _s: &mut Sink) {
            self.0.borrow_mut().push((node, started));
        }
    }
    let log = Rc::new(RefCell::new(vec![]));
    let mut e = two_nodes(SimConfig::default());
    e.add_hook(Box::new(MoveLog(log.clone())));
    e.teleport_at(SimTime(5), NodeId(0), (0.5, 0.0));
    e.schedule(
        SimTime(50),
        Command::StartMove {
            node: NodeId(1),
            dest: (3.0, 0.0).into(),
            speed: 0.5,
        },
    );
    e.run_until(SimTime(500));
    let log = log.borrow();
    assert_eq!(log[0], (NodeId(0), true));
    assert_eq!(log[1], (NodeId(0), false));
    assert!(log.contains(&(NodeId(1), true)));
    assert!(log.contains(&(NodeId(1), false)));
}

#[test]
fn restarting_motion_reroutes_the_node() {
    let mut e = two_nodes(SimConfig::default());
    e.schedule(
        SimTime(1),
        Command::StartMove {
            node: NodeId(1),
            dest: (100.0, 0.0).into(),
            speed: 0.5,
        },
    );
    // Half-way through, change destination.
    e.schedule(
        SimTime(50),
        Command::StartMove {
            node: NodeId(1),
            dest: (1.0, 50.0).into(),
            speed: 0.5,
        },
    );
    e.run_until(SimTime(5_000));
    let pos = e.world().position(NodeId(1));
    assert!(
        (pos.x - 1.0).abs() < 1e-6 && (pos.y - 50.0).abs() < 1e-6,
        "{pos:?}"
    );
    assert!(!e.world().is_moving(NodeId(1)));
}

#[test]
fn explicit_graph_engine_runs_protocols() {
    // A 3-leaf star wired explicitly; LinkUp events never fire (static),
    // crashes work.
    let mut e: Engine<Recorder> =
        Engine::new_graph(SimConfig::default(), 4, &[(0, 1), (0, 2), (0, 3)], |seed| {
            assert!(seed.n_nodes == 4);
            Recorder::default()
        });
    assert_eq!(e.world().neighbors(NodeId(0)).len(), 3);
    e.crash_at(SimTime(5), NodeId(2));
    e.run_until(SimTime(100));
    assert!(e.world().is_crashed(NodeId(2)));
    assert!(e.world().linked(NodeId(0), NodeId(2)), "crash keeps links");
}

#[test]
fn two_simultaneous_movers_get_exactly_one_static_side() {
    let mut e = two_nodes(SimConfig {
        radio_range: 1.5,
        ..SimConfig::default()
    });
    // Move both far apart first.
    e.teleport_at(SimTime(1), NodeId(0), (0.0, 0.0));
    e.teleport_at(SimTime(1), NodeId(1), (100.0, 0.0));
    // Then move both toward a meeting point simultaneously (smooth), so
    // the link forms while both are moving.
    for (n, dest) in [(0u32, (50.0, 0.0)), (1u32, (50.5, 0.0))] {
        e.schedule(
            SimTime(10),
            Command::StartMove {
                node: NodeId(n),
                dest: dest.into(),
                speed: 1.0,
            },
        );
    }
    e.run_until(SimTime(5_000));
    assert!(e.world().linked(NodeId(0), NodeId(1)));
    let ups0: Vec<&String> = e
        .protocol(NodeId(0))
        .events
        .iter()
        .map(|(_, s)| s)
        .filter(|s| s.starts_with("up"))
        .collect();
    let ups1: Vec<&String> = e
        .protocol(NodeId(1))
        .events
        .iter()
        .map(|(_, s)| s)
        .filter(|s| s.starts_with("up"))
        .collect();
    // Exactly one side saw AsStatic (the smaller ID by the tie-break rule).
    assert!(ups0.iter().any(|s| s.contains("AsStatic")), "{ups0:?}");
    assert!(ups1.iter().any(|s| s.contains("AsMoving")), "{ups1:?}");
}
