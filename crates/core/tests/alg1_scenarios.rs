//! Deterministic scenario tests for the subtlest rules of Algorithm 1's
//! fork-collection module: request suspension (Lines 11–16), the want-back
//! flag (Lines 20–23, 31), exit-time granting (Line 8), and recoloring
//! NACKs (Lines 40–43). Fixed message delays make every schedule exact.

use std::cell::RefCell;
use std::rc::Rc;

use local_mutex::{Algorithm1, Phase};
use manet_sim::{
    Command, DiningState, Engine, Metrics, MetricsData, NodeId, Protocol, SafetyMonitor, SimConfig,
    SimTime, Workload,
};

fn fixed_delay_config() -> SimConfig {
    SimConfig {
        min_message_delay: 5,
        max_message_delay: 5,
        ..SimConfig::default()
    }
}

fn engine_with_colors(positions: Vec<(f64, f64)>, colors: Vec<i64>) -> Engine<Algorithm1> {
    Engine::new(fixed_delay_config(), positions, move |seed| {
        let mut node = Algorithm1::greedy(&seed);
        node.set_initial_coloring(&colors);
        node
    })
}

/// Install the LME checker (it panics on the first violation) and a meal
/// counter; returns the counter's data.
fn watch<P: Protocol>(engine: &mut Engine<P>) -> Rc<RefCell<MetricsData>> {
    engine.add_hook(Box::new(SafetyMonitor::new(true).0));
    let (metrics, data) = Metrics::new(engine.world().len());
    engine.add_hook(Box::new(metrics));
    data
}

/// Exit the critical section `ticks` after a node starts eating.
fn auto_exit(engine: &mut Engine<Algorithm1>, ticks: u64) {
    engine.add_hook(Box::new(Workload::one_shot(ticks..=ticks, 0)));
}

#[test]
fn high_request_is_suspended_while_eating_and_granted_at_exit() {
    // node0 (color 0, holds the fork) eats immediately; node1 (color 1)
    // requests the shared fork mid-meal: the request must sit in S until
    // node0's exit code grants it (Line 8).
    let mut e = engine_with_colors(vec![(0.0, 0.0), (1.0, 0.0)], vec![0, 1]);
    auto_exit(&mut e, 100);
    let data = watch(&mut e);
    e.set_hungry_at(SimTime(1), NodeId(0));
    e.set_hungry_at(SimTime(1), NodeId(1));
    e.run_until(SimTime(60));
    assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
    assert_eq!(e.dining_state(NodeId(1)), DiningState::Hungry);
    assert_eq!(
        e.protocol(NodeId(0)).suspended_requests(),
        vec![NodeId(1)],
        "node1's request must be suspended during node0's meal"
    );
    assert!(e.protocol(NodeId(0)).holds_fork(NodeId(1)));
    // After node0 exits (t ≈ 101), node1 gets the fork, eats, and exits.
    e.run_until(SimTime(400));
    assert_eq!(data.borrow().meals[0], 1);
    assert_eq!(data.borrow().meals[1], 1);
    assert!(e.protocol(NodeId(0)).suspended_requests().is_empty());
    // node1 is node0's high neighbor, so the exit-time grant carried no
    // want-back flag: the fork stays with node1.
    assert!(!e.protocol(NodeId(0)).holds_fork(NodeId(1)));
    assert!(e.protocol(NodeId(1)).holds_fork(NodeId(0)));
}

#[test]
fn want_back_flag_returns_the_fork_after_the_priority_meal() {
    // node0 has ID 0 (so it holds the fork) but the *larger* color 1;
    // node1 has color 0 — the priority. node0 eats first (it happens to
    // hold everything), suspends node1's request, and grants it at exit
    // with the want-back flag set (Line 31: a low fork relinquished while
    // behind SD^f). node1 must suspend the want-back (Line 21), eat, and
    // return the fork at its own exit — ping-pong exactly once.
    let mut e = engine_with_colors(vec![(0.0, 0.0), (1.0, 0.0)], vec![1, 0]);
    auto_exit(&mut e, 50);
    let data = watch(&mut e);
    e.set_hungry_at(SimTime(1), NodeId(0));
    e.set_hungry_at(SimTime(1), NodeId(1));
    e.run_until(SimTime(40));
    assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
    // node1's (high-fork) request is suspended at node0.
    assert_eq!(e.protocol(NodeId(0)).suspended_requests(), vec![NodeId(1)]);
    e.run_until(SimTime(2_000));
    // Both ate exactly once; the want-back flag brought the fork home.
    assert_eq!(data.borrow().meals[0], 1);
    assert_eq!(data.borrow().meals[1], 1);
    assert!(
        e.protocol(NodeId(0)).holds_fork(NodeId(1)),
        "the want-back flag must return the fork to node0"
    );
    assert!(!e.protocol(NodeId(1)).holds_fork(NodeId(0)));
}

#[test]
fn lone_mover_recolors_via_nack_and_gets_minus_one() {
    // node1 teleports next to a thinking node0 and becomes hungry: its
    // recoloring round is NACKed (node0 is not participating), so the
    // procedure returns color −1 (Algorithm 4's R-empty case), after which
    // node1 collects and eats.
    let mut e = engine_with_colors(vec![(0.0, 0.0), (30.0, 0.0)], vec![0, 1]);
    watch(&mut e);
    e.teleport_at(SimTime(10), NodeId(1), (1.0, 0.0));
    e.set_hungry_at(SimTime(100), NodeId(1));
    // No auto-exit: node1 stays eating so we can observe its recolor color.
    e.run_until(SimTime(1_000));
    let recolorings = e.observed(NodeId(1)).recolorings;
    assert_eq!(recolorings, 1, "the mover must recolor");
    assert_eq!(
        e.protocol(NodeId(1)).color(),
        -1,
        "NACKed recoloring yields the lonely color −1"
    );
    assert_eq!(e.dining_state(NodeId(1)), DiningState::Eating);
}

#[test]
fn newcomer_waits_while_static_neighbor_is_behind_sdf() {
    // node0 eats (behind SD^f, no workload exit). node1 arrives, learns
    // node0's doorway status from the Hello, recolors, but must then block
    // at the SD^f entry until node0 exits — the doorway keeps newcomers
    // from interfering with nodes in the fork module.
    let mut e = engine_with_colors(vec![(0.0, 0.0), (30.0, 0.0)], vec![0, 1]);
    watch(&mut e);
    e.set_hungry_at(SimTime(1), NodeId(0)); // eats forever (no exit hook)
    e.teleport_at(SimTime(50), NodeId(1), (1.0, 0.0));
    e.set_hungry_at(SimTime(100), NodeId(1));
    e.run_until(SimTime(2_000));
    assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
    assert_eq!(e.dining_state(NodeId(1)), DiningState::Hungry);
    assert!(
        matches!(
            e.protocol(NodeId(1)).phase(),
            Phase::EnterAdf | Phase::EnterSdf | Phase::Collecting
        ),
        "newcomer should be blocked at the fork module's doorways \
         (node0 is behind AD^f/SD^f), got {:?}",
        e.protocol(NodeId(1)).phase()
    );
    // Let node0 exit: node1 must then eat.
    let session = 1; // first eating session
    e.schedule(
        SimTime(2_000),
        Command::ExitCs {
            node: NodeId(0),
            session,
        },
    );
    e.run_until(SimTime(4_000));
    assert_eq!(e.dining_state(NodeId(1)), DiningState::Eating);
}

#[test]
fn exit_color_is_chosen_fresh_against_neighbor_updates() {
    // Three-clique with colors 0,1,2. They eat in priority order; each
    // exit picks the smallest free color given the *current* neighbor
    // colors, so the coloring stays legal through every rotation.
    let mut e = engine_with_colors(manet_local_mutex_positions(), vec![0, 1, 2]);
    auto_exit(&mut e, 20);
    let data = watch(&mut e);
    for i in 0..3 {
        e.set_hungry_at(SimTime(1), NodeId(i));
    }
    e.run_until(SimTime(5_000));
    let colors: Vec<i64> = (0..3).map(|i| e.protocol(NodeId(i)).color()).collect();
    assert!(colors.iter().all(|&c| (0..=2).contains(&c)), "{colors:?}");
    for a in 0..3 {
        for b in (a + 1)..3 {
            assert_ne!(colors[a], colors[b], "illegal exit coloring {colors:?}");
        }
    }
    for i in 0..3 {
        assert!(data.borrow().meals[i as usize] >= 1);
    }
}

fn manet_local_mutex_positions() -> Vec<(f64, f64)> {
    vec![(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)]
}
