//! Integration test replaying the paper's Figure 6 scenario end to end
//! (crash containment + the `SD^f` return path). Mirrors the
//! `fig6_scenario` experiment binary with hard assertions.

use manet_local_mutex::harness::{Metrics, SafetyMonitor, Workload};
use manet_local_mutex::lme::Algorithm1;
use manet_local_mutex::sim::{DiningState, Engine, NodeId, SimConfig, SimTime};

const P4: NodeId = NodeId(0);
const P3: NodeId = NodeId(1);
const P2: NodeId = NodeId(2);
const P1: NodeId = NodeId(3);

fn scenario_engine() -> Engine<Algorithm1> {
    // Chain p4 – p3 – p2 – p1 with colors p3 < p4, p3 < p2 < p1.
    let positions = vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)];
    let colors = [1i64, 0, 2, 3];
    Engine::new(SimConfig::default(), positions, move |seed| {
        let mut node = Algorithm1::greedy(&seed);
        node.set_initial_coloring(&colors);
        node
    })
}

#[test]
fn crash_is_contained_and_return_path_frees_p2() {
    let mut engine = scenario_engine();
    let (metrics, data) = Metrics::new(4);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::one_shot(20..=20, 1)));

    engine.crash_at(SimTime(5), P4);
    for n in [P3, P2, P1] {
        engine.set_hungry_at(SimTime(10), n);
    }

    // Phase 1: containment at distance 2.
    engine.run_until(SimTime(4_000));
    assert_eq!(data.borrow().meals[P1.index()], 1, "p1 (distance 3) eats");
    assert_eq!(engine.dining_state(P3), DiningState::Hungry, "p3 blocked");
    assert_eq!(engine.dining_state(P2), DiningState::Hungry, "p2 blocked");
    // p2 granted p1's fork request and is stuck in its low phase; it must
    // not have taken a return path yet.
    assert_eq!(engine.observed(P2).return_paths, 0);

    // Phase 2: p3 departs; the return path unblocks p2.
    engine.teleport_at(SimTime(4_000), P3, (50.0, 0.0));
    engine.run_until(SimTime(8_000));
    assert!(
        engine.observed(P2).return_paths >= 1,
        "p2 took the return path"
    );
    assert_eq!(
        data.borrow().meals[P2.index()],
        1,
        "p2 eats after the return path"
    );
    assert_eq!(data.borrow().meals[P3.index()], 1, "p3 eats alone");
}

#[test]
fn without_mobility_p2_and_p3_stay_blocked_indefinitely() {
    // Control: no movement — the blocked region persists (failure locality
    // is about *containment*, not recovery).
    let mut engine = scenario_engine();
    let (metrics, data) = Metrics::new(4);
    engine.add_hook(Box::new(metrics));
    engine.add_hook(Box::new(Workload::one_shot(20..=20, 1)));
    engine.crash_at(SimTime(5), P4);
    for n in [P3, P2, P1] {
        engine.set_hungry_at(SimTime(10), n);
    }
    engine.run_until(SimTime(20_000));
    assert_eq!(data.borrow().meals[P1.index()], 1);
    assert_eq!(data.borrow().meals[P2.index()], 0);
    assert_eq!(data.borrow().meals[P3.index()], 0);
}

#[test]
fn without_crash_everyone_eats() {
    // Control: no crash — the same coloring serves all four nodes.
    let mut engine = scenario_engine();
    let (metrics, data) = Metrics::new(4);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::one_shot(20..=20, 1)));
    for n in [P4, P3, P2, P1] {
        engine.set_hungry_at(SimTime(10), n);
    }
    engine.run_until(SimTime(20_000));
    assert_eq!(data.borrow().meals, vec![1, 1, 1, 1]);
}
