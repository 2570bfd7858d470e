//! Integration tests for the repository's extensions beyond the paper's
//! letter: the randomized recoloring variant (suggested in the Discussion
//! chapter) and explicit-graph topologies that unit-disk geometry cannot
//! embed.

use manet_local_mutex::harness::{
    run, run_algorithm, run_protocol, topology, AlgKind, RunSpec, Topo,
};
use manet_local_mutex::lme::{Algorithm1, Algorithm2};
use manet_local_mutex::sim::{Command, NodeId, Position, SimTime};

#[test]
fn a1_random_is_safe_and_live_on_static_topologies() {
    for positions in [topology::line(6), topology::ring(6), topology::clique(5)] {
        let spec = RunSpec {
            horizon: 40_000,
            ..RunSpec::default()
        };
        let out = run_algorithm(AlgKind::A1Random, &spec, &positions, &[]);
        assert!(out.violations.is_empty(), "A1-random unsafe");
        assert!(
            out.metrics.meals.iter().all(|&m| m >= 3),
            "A1-random starved: {:?}",
            out.metrics.meals
        );
    }
}

#[test]
fn a1_random_handles_mobility_with_recoloring() {
    // A mover teleports into a triangle; the randomized procedure must
    // deliver a color and the mover must keep eating.
    let mut positions = topology::clique(3);
    positions.push((50.0, 0.0));
    let spec = RunSpec {
        horizon: 40_000,
        ..RunSpec::default()
    };
    let commands = [(
        SimTime(2_000),
        Command::Teleport {
            node: NodeId(3),
            dest: Position { x: 0.1, y: 0.1 },
        },
    )];
    let out = run_algorithm(AlgKind::A1Random, &spec, &positions, &commands);
    assert!(out.violations.is_empty());
    assert!(
        out.metrics.meals[3] >= 3,
        "mover starved: {:?}",
        out.metrics.meals
    );
}

#[test]
fn extended_kinds_cover_all_six_algorithms() {
    let names: Vec<&str> = AlgKind::extended().iter().map(|k| k.name()).collect();
    assert_eq!(names.len(), 6);
    assert!(names.contains(&"A1-random"));
    // `all()` remains the paper's Table 1 set.
    assert_eq!(AlgKind::all().len(), 5);
}

#[test]
fn algorithms_work_on_an_explicit_star() {
    // A 9-leaf star is not embeddable in the unit disk; the explicit-graph
    // engine runs it anyway. The hub conflicts with every leaf; leaves only
    // with the hub — everyone must still eat.
    let (n, edges) = topology::star_edges(9);
    let spec = RunSpec {
        horizon: 60_000,
        ..RunSpec::default()
    };
    let star = Topo::Graph { n, edges };
    let out = run_protocol(&spec, &star, |seed| Algorithm2::new(&seed), |_| {});
    assert!(out.violations.is_empty());
    assert!(
        out.metrics.meals.iter().all(|&m| m >= 3),
        "starvation on the star: {:?}",
        out.metrics.meals
    );
    // Leaves conflict only with the hub, so they eat far more often.
    let hub = out.metrics.meals[0];
    let leaf_min = out.metrics.meals[1..].iter().min().copied().unwrap();
    assert!(leaf_min >= hub, "leaves should out-eat the contended hub");
}

#[test]
fn every_algorithm_runs_on_an_explicit_star() {
    // The graph dispatcher covers all six kinds; a short star run keeps it
    // cheap while touching each code path (incl. the Choy–Singh coloring
    // over an explicit edge list and the Linial schedule for stars).
    let (n, edges) = topology::star_edges(5);
    let spec = RunSpec {
        horizon: 20_000,
        ..RunSpec::default()
    };
    let star = Topo::Graph { n, edges };
    for kind in manet_local_mutex::harness::AlgKind::extended() {
        let out = run(kind, &spec, &star, &[], None);
        assert!(out.violations.is_empty(), "{} unsafe on star", kind.name());
        assert!(
            out.metrics.meals.iter().all(|&m| m >= 2),
            "{} starved on star: {:?}",
            kind.name(),
            out.metrics.meals
        );
    }
}

#[test]
fn algorithms_work_on_an_explicit_tree() {
    let (n, edges) = topology::binary_tree_edges(15);
    let spec = RunSpec {
        horizon: 60_000,
        ..RunSpec::default()
    };
    let tree = Topo::Graph { n, edges };
    let out = run_protocol(&spec, &tree, |seed| Algorithm1::greedy(&seed), |_| {});
    assert!(out.violations.is_empty());
    assert!(
        out.metrics.meals.iter().all(|&m| m >= 3),
        "starvation on the tree: {:?}",
        out.metrics.meals
    );
}

#[test]
fn crash_on_explicit_star_blocks_only_the_hub_side() {
    // Crash one leaf mid-CS: only the hub can be blocked (it shares the
    // crashed fork); other leaves keep eating.
    let (n, edges) = topology::star_edges(8);
    let spec = RunSpec {
        horizon: 60_000,
        crash_eating: Some((NodeId(3), 2_000)),
        ..RunSpec::default()
    };
    let star = Topo::Graph { n, edges };
    let out = run_protocol(&spec, &star, |seed| Algorithm2::new(&seed), |_| {});
    assert!(out.violations.is_empty());
    assert!(out.crash_time.is_some(), "the victim leaf must have eaten");
    for i in 1..n {
        if i == 3 {
            continue;
        }
        assert!(
            out.metrics.meals[i] >= 3,
            "leaf {i} starved after a sibling's crash: {:?}",
            out.metrics.meals
        );
    }
}
