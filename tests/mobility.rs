//! Mobility integration tests: recoloring, demotion, and post-move
//! liveness for Algorithm 1 and Algorithm 2.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use manet_local_mutex::coloring::LinialSchedule;
use manet_local_mutex::harness::{
    run, run_protocol, topology, AlgKind, Automata, Metrics, RunSpec, SafetyMonitor, Topo, Workload,
};
use manet_local_mutex::lme::{A1Msg, Algorithm1, Algorithm2, RecolorConfig};
use manet_local_mutex::sim::{
    Command, DiningState, Engine, Hook, NodeId, SimConfig, SimTime, Sink, View,
};

fn a1_engine(positions: Vec<(f64, f64)>, cfg: RecolorConfig) -> Engine<Algorithm1> {
    Engine::new(SimConfig::default(), positions, move |seed| {
        Algorithm1::new(&seed, cfg.clone())
    })
}

/// A mover teleports into a 3-clique; when it next gets hungry it must
/// recolor (negative color) and then eat; neighbor colors stay distinct.
fn mover_recolors_and_eats(cfg: RecolorConfig) {
    let mut positions = manet_local_mutex::harness::topology::clique(3);
    positions.push((50.0, 0.0)); // the future mover, initially isolated
    let mover = NodeId(3);
    let mut engine = a1_engine(positions, cfg);
    let (metrics, data) = Metrics::new(4);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::cyclic(10..=20, 40..=80, 9)));
    for i in 0..4 {
        engine.set_hungry_at(SimTime(1), NodeId(i));
    }
    engine.teleport_at(SimTime(500), mover, (0.1, 0.1));
    engine.run_until(SimTime(30_000));

    assert!(
        engine.observed(mover).recolorings >= 1,
        "mover must run the recoloring module"
    );
    assert!(
        data.borrow().meals[mover.index()] >= 3,
        "mover starved after joining: {:?}",
        data.borrow().meals
    );
    // All four now form a clique: colors must be pairwise distinct.
    let colors: Vec<i64> = (0..4).map(|i| engine.protocol(NodeId(i)).color()).collect();
    for a in 0..4 {
        for b in (a + 1)..4 {
            assert_ne!(colors[a], colors[b], "illegal coloring {colors:?}");
        }
    }
}

#[test]
fn greedy_mover_recolors_and_eats() {
    mover_recolors_and_eats(RecolorConfig::Greedy);
}

#[test]
fn linial_mover_recolors_and_eats() {
    mover_recolors_and_eats(RecolorConfig::Linial(Arc::new(LinialSchedule::compute(
        4, 3,
    ))));
}

#[test]
fn eating_mover_is_demoted_for_safety() {
    // Two isolated nodes both eat; one teleports next to the other. The
    // mover must drop to hungry (Algorithm 3, Line 50), never producing two
    // eating neighbors.
    let mut engine = a1_engine(vec![(0.0, 0.0), (50.0, 0.0)], RecolorConfig::Greedy);
    let (metrics, data) = Metrics::new(2);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    // No workload: nodes eat forever until demoted.
    engine.set_hungry_at(SimTime(1), NodeId(0));
    engine.set_hungry_at(SimTime(1), NodeId(1));
    engine.run_until(SimTime(100));
    assert_eq!(engine.dining_state(NodeId(0)), DiningState::Eating);
    assert_eq!(engine.dining_state(NodeId(1)), DiningState::Eating);
    engine.teleport_at(SimTime(100), NodeId(1), (1.0, 0.0));
    engine.run_until(SimTime(200));
    assert_eq!(
        engine.dining_state(NodeId(0)),
        DiningState::Eating,
        "static keeps eating"
    );
    assert_eq!(
        engine.dining_state(NodeId(1)),
        DiningState::Hungry,
        "mover demoted"
    );
    assert_eq!(data.borrow().demotions[1], 1);
}

#[test]
fn a2_eating_mover_is_demoted_for_safety() {
    let mut engine: Engine<Algorithm2> = Engine::new(
        SimConfig::default(),
        vec![(0.0, 0.0), (50.0, 0.0)],
        |seed| Algorithm2::new(&seed),
    );
    let (metrics, data) = Metrics::new(2);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    engine.set_hungry_at(SimTime(1), NodeId(0));
    engine.set_hungry_at(SimTime(1), NodeId(1));
    engine.run_until(SimTime(100));
    engine.teleport_at(SimTime(100), NodeId(1), (1.0, 0.0));
    engine.run_until(SimTime(200));
    assert_eq!(engine.dining_state(NodeId(0)), DiningState::Eating);
    assert_eq!(engine.dining_state(NodeId(1)), DiningState::Hungry);
    assert_eq!(data.borrow().demotions[1], 1);
}

#[test]
fn two_movers_meeting_use_id_symmetry_breaking() {
    // Both nodes move simultaneously toward each other; exactly one side
    // (the smaller ID) is designated static and owns the new fork, and the
    // system stays safe and live.
    let mut engine = a1_engine(vec![(0.0, 0.0), (20.0, 0.0)], RecolorConfig::Greedy);
    let (metrics, data) = Metrics::new(2);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::cyclic(5..=15, 30..=60, 3)));
    engine.set_hungry_at(SimTime(1), NodeId(0));
    engine.set_hungry_at(SimTime(1), NodeId(1));
    engine.schedule(
        SimTime(200),
        manet_local_mutex::sim::Command::StartMove {
            node: NodeId(0),
            dest: (10.0, 0.0).into(),
            speed: 0.5,
        },
    );
    engine.schedule(
        SimTime(200),
        manet_local_mutex::sim::Command::StartMove {
            node: NodeId(1),
            dest: (10.5, 0.0).into(),
            speed: 0.5,
        },
    );
    engine.run_until(SimTime(20_000));
    assert!(engine.world().linked(NodeId(0), NodeId(1)));
    assert!(data.borrow().meals[0] >= 3, "{:?}", data.borrow().meals);
    assert!(data.borrow().meals[1] >= 3, "{:?}", data.borrow().meals);
    assert_ne!(
        engine.protocol(NodeId(0)).color(),
        engine.protocol(NodeId(1)).color(),
        "neighbors ended with equal colors"
    );
}

#[test]
fn post_move_liveness_with_churn() {
    // A node hops across a line repeatedly; after the churn stops, everyone
    // (including the hopper) keeps eating.
    let mut positions = manet_local_mutex::harness::topology::line(6);
    positions.push((0.0, 1.0));
    let hopper = NodeId(6);
    for cfg in [
        RecolorConfig::Greedy,
        RecolorConfig::Linial(Arc::new(LinialSchedule::compute(7, 4))),
    ] {
        let mut engine = a1_engine(positions.clone(), cfg);
        let (metrics, data) = Metrics::new(7);
        engine.add_hook(Box::new(metrics));
        let (monitor, _) = SafetyMonitor::new(true);
        engine.add_hook(Box::new(monitor));
        engine.add_hook(Box::new(Workload::cyclic(10..=20, 40..=100, 17)));
        for i in 0..7 {
            engine.set_hungry_at(SimTime(1), NodeId(i));
        }
        for (k, t) in (1_000..6_000).step_by(1_000).enumerate() {
            let x = (k % 6) as f64;
            engine.teleport_at(SimTime(t as u64), hopper, (x, 1.0));
        }
        engine.run_until(SimTime(40_000));
        let meals = data.borrow().meals.clone();
        assert!(
            meals.iter().all(|&m| m >= 3),
            "starvation after churn: {meals:?}"
        );
    }
}

#[test]
fn bootstrap_recoloring_yields_legal_colors_and_liveness() {
    // The paper's initialization: every node obtains its initial color by
    // running the recoloring module. All nodes recolor concurrently, then
    // everyone must eat and the resulting coloring must be legal.
    let mut engine: Engine<Algorithm1> = Engine::new(
        SimConfig::default(),
        manet_local_mutex::harness::topology::grid(3, 3),
        |seed| {
            let mut node = Algorithm1::greedy(&seed);
            node.require_initial_recoloring();
            node
        },
    );
    let (metrics, data) = Metrics::new(9);
    engine.add_hook(Box::new(metrics));
    let (monitor, _) = SafetyMonitor::new(true);
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(Workload::one_shot(10..=20, 5)));
    for i in 0..9 {
        engine.set_hungry_at(SimTime(1), NodeId(i));
    }
    engine.run_until(SimTime(60_000));
    let meals = data.borrow().meals.clone();
    assert!(
        meals.iter().all(|&m| m == 1),
        "bootstrap starved someone: {meals:?}"
    );
    for i in 0..9u32 {
        assert!(
            engine.observed(NodeId(i)).recolorings >= 1,
            "node {i} skipped its initial recoloring"
        );
        // After eating, exit-colors are in [0, δ] and legal vs neighbors.
        let ci = engine.protocol(NodeId(i)).color();
        assert!((0..=4).contains(&ci));
        for &j in engine.world().neighbors(NodeId(i)) {
            assert_ne!(ci, engine.protocol(j).color(), "illegal pair ({i},{j})");
        }
    }
}

/// EXPERIMENTS C2-recolor's full-size `k = 12` cell: a resident `line:16`
/// plus 12 movers staged at `(200 + 0.2i, 200)`, all teleported at
/// t = 2000 to `(i, 1)`.
fn twelve_movers() -> (RunSpec, Topo, Vec<(SimTime, Command)>) {
    let mut positions = topology::line(16);
    positions.extend((0..12).map(|i| (200.0 + 0.2 * i as f64, 200.0)));
    let teleport = |i: u32| {
        let (node, dest) = (NodeId(16 + i), (f64::from(i), 1.0).into());
        (SimTime(2_000), Command::Teleport { node, dest })
    };
    let spec = RunSpec {
        horizon: 40_000,
        delta_bound: Some(8),
        ..RunSpec::default()
    };
    (spec, Topo::Geo(positions), (0..12).map(teleport).collect())
}

const P25: NodeId = NodeId(25);
const P26: NodeId = NodeId(26);

/// The p25 → p26 forks as `(delivered at, delivery number within the link
/// incarnation, generation)`; a link change between the two restarts the
/// numbering, as the engine's does.
#[derive(Default)]
struct Forks {
    seq: u64,
    log: Vec<(SimTime, u64, u64)>,
}

struct Recorder(Rc<RefCell<Forks>>);

impl Recorder {
    fn link_changed(&mut self, a: NodeId, b: NodeId) {
        if (a.min(b), a.max(b)) == (P25, P26) {
            self.0.borrow_mut().seq = 0;
        }
    }
}

impl Hook<A1Msg> for Recorder {
    fn on_link_up(&mut self, _: &View<'_>, a: NodeId, b: NodeId, _: &mut Sink) {
        self.link_changed(a, b);
    }

    fn on_link_down(&mut self, _: &View<'_>, a: NodeId, b: NodeId, _: &mut Sink) {
        self.link_changed(a, b);
    }

    fn on_deliver(&mut self, view: &View<'_>, from: NodeId, to: NodeId, msg: &A1Msg, _: &mut Sink) {
        let mut forks = self.0.borrow_mut();
        if (from, to) == (P25, P26) {
            forks.seq += 1;
            if let A1Msg::Fork { gen, .. } = msg {
                let entry = (view.time(), forks.seq, *gen);
                forks.log.push(entry);
            }
        }
    }
}

/// A known defect, pinned until it is fixed (ROADMAP): a fork sent on a
/// link incarnation its sender has not yet been notified of is delivered
/// on the new one, and the fork is duplicated.
///
/// The teleports bump p25–p26's incarnation at t = 2000, but
/// `Core::notify` only queues the LinkDown/LinkUp events. p25 first
/// handles an earlier-queued LinkDown of another mover and sends p26 the
/// fork from its old record (generation 11). `send` checks only that the
/// nodes are linked, so the frame rides the new incarnation as its first
/// delivery (t = 2008); p26 accepts generation 11 over its fresh 0 and both
/// ends hold the fork. The two first eat together at t = 3291. The fix
/// flips this test: the frame must carry the incarnation its sender was
/// last notified of, and the run must be safe.
#[test]
fn stale_fork_rides_a_new_link_incarnation_and_duplicates_the_fork() {
    let (spec, topo, commands) = twelve_movers();
    let edges = topo.edges(spec.sim.radio_range);
    let automata = AlgKind::A1Greedy.automata(topo.len(), &edges, Some(8), spec.sim.seed);
    let Automata::A1(make) = automata else {
        unreachable!("A1-greedy is an Algorithm 1 variant");
    };
    let forks = Rc::new(RefCell::new(Forks::default()));
    let recorder = Recorder(forks.clone());
    let setup = |engine: &mut Engine<Algorithm1>| {
        engine.add_hook(Box::new(recorder));
        for (at, cmd) in &commands {
            engine.schedule(*at, cmd.clone());
        }
    };
    let out = run_protocol(&spec, &topo, move |seed| make(&seed), setup);
    let first = out.violations.first().expect("the race is pinned");
    let pair = (first.a.min(first.b), first.a.max(first.b));
    assert_eq!((first.at, pair), (SimTime(3_291), (P25, P26)));
    let after_move = forks
        .borrow()
        .log
        .iter()
        .find(|f| f.0 >= SimTime(2_000))
        .copied();
    assert_eq!(after_move, Some((SimTime(2_008), 1, 11)));

    // The whole Algorithm 1 family shares the race; the static-colour
    // Choy–Singh baseline, Chandy–Misra and A2 do not.
    for (kind, unsafe_) in [
        (AlgKind::A1Linial, true),
        (AlgKind::A1Random, true),
        (AlgKind::ChoySingh, false),
        (AlgKind::ChandyMisra, false),
        (AlgKind::A2, false),
    ] {
        let out = run(kind, &spec, &topo, &commands, None);
        assert_eq!(!out.violations.is_empty(), unsafe_, "{}", kind.name());
    }
}
