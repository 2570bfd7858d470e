//! Integration tests of the failure-locality claims (Definition 1 and
//! Theorems 16/22/25): crash a node and check how far starvation reaches.

use manet_local_mutex::harness::{probe, topology, AlgKind, FaultClass, RunSpec, Topo};
use manet_local_mutex::sim::NodeId;

fn spec(horizon: u64) -> RunSpec {
    RunSpec {
        horizon,
        ..RunSpec::default()
    }
}

#[test]
fn a2_failure_locality_is_at_most_two_on_a_line() {
    let n = 15;
    let report = probe(
        AlgKind::A2,
        &spec(60_000),
        &Topo::Geo(topology::line(n)),
        NodeId(n as u32 / 2),
        FaultClass::Crash,
        2_000,
    );
    assert!(report.outcome.violations.is_empty());
    if let Some(m) = report.locality {
        assert!(m <= 2, "Theorem 25 violated: starvation at distance {m}");
    }
    // Endpoints (distance 7) keep eating.
    assert!(report.outcome.metrics.meals[0] >= 5);
    assert!(report.outcome.metrics.meals[n - 1] >= 5);
}

#[test]
fn a2_failure_locality_is_at_most_two_on_a_grid() {
    let report = probe(
        AlgKind::A2,
        &spec(60_000),
        &Topo::Geo(topology::grid(5, 5)),
        NodeId(12),
        FaultClass::Crash,
        2_000,
    );
    assert!(report.outcome.violations.is_empty());
    if let Some(m) = report.locality {
        assert!(m <= 2, "Theorem 25 violated on the grid: distance {m}");
    }
}

#[test]
fn doorway_algorithms_contain_the_figure_six_crash() {
    // On a line, the fork-collection containment argument (Lemma 9) keeps
    // nodes at distance ≥ 3 progressing for the A1 variants too.
    let n = 13;
    for kind in [AlgKind::A1Greedy, AlgKind::A1Linial, AlgKind::ChoySingh] {
        let report = probe(
            kind,
            &spec(60_000),
            &Topo::Geo(topology::line(n)),
            NodeId(n as u32 / 2),
            FaultClass::Crash,
            2_000,
        );
        assert!(report.outcome.violations.is_empty());
        // Far endpoints must keep eating.
        assert!(
            report.outcome.metrics.meals[0] >= 5,
            "{}: far node starved",
            kind.name()
        );
        assert!(
            report.outcome.metrics.meals[n - 1] >= 5,
            "{}: far node starved",
            kind.name()
        );
    }
}

#[test]
fn chandy_misra_starvation_reaches_far() {
    // The contrast row of Table 1: CM's dirty-fork chains let one crash
    // starve nodes arbitrarily far away. On a 13-line with a center crash,
    // starvation reaches beyond distance 2 (where A2 is guaranteed safe).
    let n = 13;
    let report = probe(
        AlgKind::ChandyMisra,
        &spec(60_000),
        &Topo::Geo(topology::line(n)),
        NodeId(n as u32 / 2),
        FaultClass::Crash,
        2_000,
    );
    assert!(report.outcome.violations.is_empty());
    let m = report.locality.unwrap_or(0);
    assert!(
        m > 2,
        "expected CM starvation beyond distance 2, saw {m} ({} starving)",
        report.starving.len()
    );
}

#[test]
fn crash_of_a_leaf_barely_matters() {
    // Crashing an endpoint of the line affects at most its 2-neighborhood
    // for every implemented algorithm.
    let n = 9;
    for kind in AlgKind::all() {
        let line = Topo::Geo(topology::line(n));
        let report = probe(
            kind,
            &spec(40_000),
            &line,
            NodeId(0),
            FaultClass::Crash,
            2_000,
        );
        assert!(report.outcome.violations.is_empty());
        assert!(
            report.outcome.metrics.meals[n - 1] >= 5,
            "{}: far endpoint starved after a leaf crash",
            kind.name()
        );
    }
}

#[test]
fn recoloring_crash_separates_greedy_from_linial() {
    // §5.4.2's scenario, the paper's argument for the Linial procedure:
    // everyone recolors at once with one node pre-crashed. The greedy
    // flood's blockage must reach far beyond the Linial variant's.
    use manet_local_mutex::sim::SimTime;
    let n = 17usize;
    let victim = NodeId(n as u32 / 2);
    let mut localities = Vec::new();
    for greedy in [true, false] {
        let spec = RunSpec {
            horizon: 80_000,
            cyclic: false,
            first_hungry: (5, 5),
            ..RunSpec::default()
        };
        let sched = std::sync::Arc::new(manet_local_mutex::coloring::LinialSchedule::compute(
            n as u64, 2,
        ));
        let out = manet_local_mutex::harness::run_protocol(
            &spec,
            &Topo::Geo(topology::line(n)),
            move |seed| {
                let mut node = if greedy {
                    manet_local_mutex::lme::Algorithm1::greedy(&seed)
                } else {
                    manet_local_mutex::lme::Algorithm1::linial(&seed, sched.clone())
                };
                node.require_initial_recoloring();
                node
            },
            |e| e.crash_at(SimTime(2), victim),
        );
        assert!(out.violations.is_empty());
        let dist = out.distances_from(victim);
        let locality = out
            .metrics
            .starving_since(SimTime(spec.horizon / 2))
            .into_iter()
            .filter(|&s| s != victim)
            .filter_map(|s| dist[s.index()])
            .max()
            .unwrap_or(0);
        localities.push(locality);
    }
    let (greedy_loc, linial_loc) = (localities[0], localities[1]);
    assert!(
        greedy_loc >= 6,
        "greedy recoloring blockage should sweep the line, got {greedy_loc}"
    );
    assert!(
        linial_loc <= 6,
        "Linial recoloring blockage must stay within max(log* n, 4) + 2, got {linial_loc}"
    );
    assert!(greedy_loc > linial_loc, "{greedy_loc} vs {linial_loc}");
}
