//! Deterministic scenario tests for Algorithm 2's distinctive machinery:
//! the notification mechanism (Lines 22–25), switch-based priority
//! reversal (Lines 6–8, 26–27), withholding while not thinking, and the
//! want-back flag under dynamic priorities.

use std::cell::RefCell;
use std::rc::Rc;

use local_mutex::Algorithm2;
use manet_sim::{
    DiningState, Engine, Metrics, MetricsData, NodeId, Protocol, SafetyMonitor, SimConfig, SimTime,
    Workload,
};

fn fixed_engine(positions: Vec<(f64, f64)>) -> Engine<Algorithm2> {
    Engine::new(
        SimConfig {
            min_message_delay: 5,
            max_message_delay: 5,
            ..SimConfig::default()
        },
        positions,
        |seed| Algorithm2::new(&seed),
    )
}

/// Install the LME checker (it panics on the first violation) and a meal
/// counter; returns the counter's data.
fn watch<P: Protocol>(engine: &mut Engine<P>) -> Rc<RefCell<MetricsData>> {
    engine.add_hook(Box::new(SafetyMonitor::new(true).0));
    let (metrics, data) = Metrics::new(engine.world().len());
    engine.add_hook(Box::new(metrics));
    data
}

#[test]
fn thinking_node_always_grants() {
    // node0 holds the fork (ID rule) and stays thinking; node1 becomes
    // hungry and must get the fork promptly even though node0 initially
    // has priority (higher_1[0] = false means node0 dominates? No:
    // higher_i[j] = ID[i] < ID[j], so node0 sees node1 as higher —
    // node1 dominates node0 from the start). Either way, a thinking
    // holder never withholds.
    let mut e = fixed_engine(vec![(0.0, 0.0), (1.0, 0.0)]);
    e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
    let data = watch(&mut e);
    e.set_hungry_at(SimTime(1), NodeId(1));
    e.run_until(SimTime(100));
    assert_eq!(data.borrow().meals[1], 1);
}

#[test]
fn notification_cascade_lowers_dominator_below_everyone() {
    // Line: n0 - n1 - n2. n1 (middle, dominates n0 since higher_1[0] is
    // false) stays thinking. When n0 becomes hungry, its notification must
    // make n1 switch below *all* nodes it dominated — which is only n0
    // (n2 has the larger ID, so it already dominates n1). Exactly one
    // switch is sent.
    let mut e = fixed_engine(vec![(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
    e.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
    let data = watch(&mut e);
    e.set_hungry_at(SimTime(1), NodeId(0));
    e.run_until(SimTime(500));
    assert_eq!(data.borrow().meals[0], 1, "n0 must eat");
    assert_eq!(
        e.observed(NodeId(1)).switches,
        1,
        "the thinking dominator lowers itself exactly once"
    );
    // (After n0's own exit it lowered itself again, so the *final*
    // priority points back at n1 — the mechanism is a see-saw.)
    // n2 never saw a notification-triggered switch (it dominated nobody
    // adjacent to a hungry node: n1 was the notified party).
    assert_eq!(e.observed(NodeId(2)).switches, 0);
}

#[test]
fn exit_reverses_all_incident_priorities() {
    // Two contenders under continuous contention: the exit-time priority
    // reversal guarantees neither can starve the other. (Exact meal ratios
    // are schedule-dependent — with fixed delays and a periodic workload
    // the system can phase-lock — so we assert sustained progress on both
    // sides, not strict alternation.)
    let mut e = fixed_engine(vec![(0.0, 0.0), (1.0, 0.0)]);
    e.add_hook(Box::new(Workload::one_shot(10..=10, 0)));
    let data = watch(&mut e);
    // Keep both perpetually hungry.
    for t in (1..3_000).step_by(25) {
        e.set_hungry_at(SimTime(t), NodeId(0));
        e.set_hungry_at(SimTime(t), NodeId(1));
    }
    e.run_until(SimTime(3_500));
    let m0 = data.borrow().meals[0];
    let m1 = data.borrow().meals[1];
    assert!(m0 >= 20 && m1 >= 20, "both must keep eating: {m0} vs {m1}");
    assert!(
        m0.max(m1) <= 3 * m0.min(m1),
        "no side may dominate unboundedly: {m0} vs {m1}"
    );
}

#[test]
fn eating_node_suspends_and_grants_at_exit() {
    let mut e = fixed_engine(vec![(0.0, 0.0), (1.0, 0.0)]);
    watch(&mut e);
    // node1 eats forever (no auto-exit); node0 requests mid-meal.
    e.set_hungry_at(SimTime(1), NodeId(1));
    e.run_until(SimTime(50));
    assert_eq!(e.dining_state(NodeId(1)), DiningState::Eating);
    e.set_hungry_at(SimTime(50), NodeId(0));
    e.run_until(SimTime(1_000));
    assert_eq!(
        e.dining_state(NodeId(0)),
        DiningState::Hungry,
        "request must be withheld while the holder eats"
    );
    // Release node1: node0 must eat.
    e.schedule(
        SimTime(1_000),
        manet_sim::Command::ExitCs {
            node: NodeId(1),
            session: 1,
        },
    );
    e.run_until(SimTime(2_000));
    assert_eq!(e.dining_state(NodeId(0)), DiningState::Eating);
}

#[test]
fn clique_contention_is_fair_under_dynamic_priorities() {
    let positions: Vec<(f64, f64)> = (0..5)
        .map(|i| {
            let a = std::f64::consts::TAU * i as f64 / 5.0;
            (0.5 * a.cos(), 0.5 * a.sin())
        })
        .collect();
    let mut e = fixed_engine(positions);
    e.add_hook(Box::new(Workload::one_shot(15..=15, 0)));
    let data = watch(&mut e);
    for t in (1..20_000).step_by(40) {
        for i in 0..5 {
            e.set_hungry_at(SimTime(t + i as u64), NodeId(i));
        }
    }
    e.run_until(SimTime(22_000));
    let meals: Vec<u64> = (0..5).map(|i| data.borrow().meals[i as usize]).collect();
    let min = *meals.iter().min().expect("nonempty");
    let max = *meals.iter().max().expect("nonempty");
    assert!(min >= 10, "meals: {meals:?}");
    assert!(
        max <= min * 2,
        "dynamic priorities should keep the clique fair: {meals:?}"
    );
}
