//! Fork conservation: across transfers, crashes and link churn, the fork
//! of every live link is neither duplicated nor lost — at quiescence it
//! sits at exactly one endpoint. Runs use injected random-delay schedules
//! (the model checker's sampling strategy) rather than the engine's
//! default draw, so the invariant is exercised over adversarial-ish
//! interleavings, not just the historical ones.

use std::sync::Arc;

use manet_local_mutex::baselines::ChandyMisra;
use manet_local_mutex::coloring::LinialSchedule;
use manet_local_mutex::lme::{Algorithm1, Algorithm2};
use manet_local_mutex::sim::{
    Engine, NodeId, NodeSeed, Protocol, RandomDelays, SimConfig, SimTime, Workload,
};

const N: usize = 6;

/// Line world, every node hungry, then: a neighborhood-changing teleport,
/// a crash, and a second teleport — all mid-traffic.
fn run_churny<P, F>(seed: u64, factory: F) -> Engine<P>
where
    P: Protocol,
    F: FnMut(NodeSeed) -> P + 'static,
{
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let positions: Vec<(f64, f64)> = (0..N).map(|i| (i as f64, 0.0)).collect();
    let mut engine = Engine::new(cfg, positions, factory);
    engine.set_strategy(Box::new(RandomDelays::new(seed ^ 0xF0_2C)));
    engine.add_hook(Box::new(Workload::one_shot(8..=8, 0)));
    for i in 0..N as u32 {
        engine.set_hungry_at(SimTime(1), NodeId(i));
    }
    engine.teleport_at(SimTime(900), NodeId(5), (0.5, 0.5));
    engine.crash_at(SimTime(1200), NodeId(2));
    engine.teleport_at(SimTime(1800), NodeId(5), (5.0, 0.0));
    engine.run_until(SimTime(30_000));
    engine
}

fn assert_forks_conserved<P, H>(name: &str, seed: u64, engine: &Engine<P>, holds: H)
where
    P: Protocol,
    H: Fn(&P, NodeId) -> bool,
{
    assert_eq!(
        engine.pending_events(),
        0,
        "{name} seed {seed}: run did not quiesce"
    );
    let world = engine.world();
    let mut live_links = 0;
    for a in 0..N as u32 {
        for b in a + 1..N as u32 {
            let (na, nb) = (NodeId(a), NodeId(b));
            if world.is_crashed(na) || world.is_crashed(nb) || !world.linked(na, nb) {
                continue;
            }
            live_links += 1;
            let at_a = holds(engine.protocol(na), nb);
            let at_b = holds(engine.protocol(nb), na);
            assert!(
                at_a ^ at_b,
                "{name} seed {seed}: fork of link {{{a}, {b}}} is {} at quiescence",
                if at_a { "duplicated" } else { "lost" }
            );
        }
    }
    assert!(
        live_links >= 3,
        "{name} seed {seed}: churn ate the topology"
    );
}

#[test]
fn alg1_greedy_conserves_forks_under_random_schedules() {
    for seed in [1, 7, 23] {
        let engine = run_churny(seed, |s| Algorithm1::greedy(&s));
        assert_forks_conserved("A1-greedy", seed, &engine, Algorithm1::holds_fork);
    }
}

#[test]
fn alg1_linial_conserves_forks_under_random_schedules() {
    for seed in [2, 11, 29] {
        let schedule = Arc::new(LinialSchedule::compute(N as u64, 4));
        let engine = run_churny(seed, move |s| Algorithm1::linial(&s, schedule.clone()));
        assert_forks_conserved("A1-linial", seed, &engine, Algorithm1::holds_fork);
    }
}

#[test]
fn alg2_conserves_forks_under_random_schedules() {
    for seed in [3, 13, 31] {
        let engine = run_churny(seed, |s| Algorithm2::new(&s));
        assert_forks_conserved("A2", seed, &engine, Algorithm2::holds_fork);
    }
}

#[test]
fn chandy_misra_conserves_forks_under_random_schedules() {
    for seed in [5, 17, 37] {
        let engine = run_churny(seed, |s| ChandyMisra::new(&s));
        assert_forks_conserved("chandy-misra", seed, &engine, ChandyMisra::holds_fork);
    }
}
