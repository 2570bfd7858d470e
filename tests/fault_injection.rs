//! Tier-1 tests of the fault-injection adversary: for every fault class
//! the safety invariant must hold unconditionally, crash probes must
//! respect Algorithm 2's failure locality of 2 (Theorem 25), and once an
//! injected fault schedule quiesces, every live node must resume regular
//! progress.

use manet_local_mutex::harness::{
    probe, run_algorithm, topology, AlgKind, FaultClass, RunSpec, Topo,
};
use manet_local_mutex::sim::{NodeId, SimTime};

fn spec(horizon: u64) -> RunSpec {
    RunSpec {
        horizon,
        ..RunSpec::default()
    }
}

const CLASSES: [FaultClass; 5] = [
    FaultClass::Crash,
    FaultClass::Loss(0.4),
    FaultClass::Duplication(0.6),
    FaultClass::Partition,
    FaultClass::MaxDelay,
];

#[test]
fn safety_holds_under_every_fault_class() {
    for kind in [AlgKind::A1Greedy, AlgKind::A2] {
        for class in CLASSES {
            let line = Topo::Geo(topology::line(9));
            let report = probe(kind, &spec(30_000), &line, NodeId(4), class, 1_500);
            assert!(
                report.outcome.violations.is_empty(),
                "{} under {} faults violated safety: {:?}",
                kind.name(),
                class.label(),
                report.outcome.violations
            );
        }
    }
}

#[test]
fn a2_crash_probe_failure_locality_is_at_most_two() {
    let victim = NodeId(5);
    let report = probe(
        AlgKind::A2,
        &spec(60_000),
        &Topo::Geo(topology::line(11)),
        victim,
        FaultClass::Crash,
        2_000,
    );
    assert!(
        report.outcome.crash_time.is_some(),
        "the victim never ate, so the crash never fired"
    );
    if let Some(m) = report.locality {
        assert!(
            m <= 2,
            "empirical failure locality {m} exceeds Theorem 25's bound of 2: {:?}",
            report.starving
        );
    }
    // Graceful degradation: every node beyond radius 2 keeps eating.
    let dist = report.outcome.distances_from(victim);
    for (i, d) in dist.iter().enumerate() {
        if d.is_some_and(|d| d > 2) {
            assert!(
                report.outcome.metrics.meals[i] >= 3,
                "node {i} at distance {d:?} from the crash stopped eating"
            );
        }
    }
}

#[test]
fn progress_resumes_after_loss_duplication_and_partition_quiesce() {
    for class in [
        FaultClass::Loss(0.5),
        FaultClass::Duplication(1.0),
        FaultClass::Partition,
    ] {
        let (n, horizon, at) = (9, 40_000, 2_000);
        let line = Topo::Geo(topology::line(n));
        let report = probe(AlgKind::A2, &spec(horizon), &line, NodeId(4), class, at);
        // The fault window closes halfway through the rest of the run.
        let quiesced_at = at + (horizon - at) / 2;
        let out = &report.outcome;
        assert!(
            out.violations.is_empty(),
            "{}: safety violated: {:?}",
            class.label(),
            out.violations
        );
        assert!(
            report.starving.is_empty(),
            "{}: still starving after quiescence at {}: {:?}",
            class.label(),
            quiesced_at,
            report.starving
        );
        // Stronger than "not starving": every live node completes a meal
        // in the post-quiescence tail.
        let tail = SimTime(quiesced_at);
        for i in 0..n as u32 {
            let node = NodeId(i);
            let tail_meals = out
                .metrics
                .samples
                .iter()
                .filter(|s| s.node == node && s.eat_at >= tail)
                .count();
            assert!(
                tail_meals > 0,
                "{}: node {i} made no progress after the faults quiesced at {}",
                class.label(),
                quiesced_at
            );
        }
    }
}

#[test]
fn faulted_runs_are_deterministic() {
    let run = || {
        let mut s = spec(20_000);
        FaultClass::Loss(0.3).apply(&mut s, NodeId(4), (1_000, 10_000));
        run_algorithm(AlgKind::A2, &s, &topology::line(9), &[])
    };
    let a = run();
    let b = run();
    assert!(a.stats.faults.total() > 0, "the fault window never fired");
    assert_eq!(a.stats.faults, b.stats.faults);
    assert_eq!(a.messages_sent, b.messages_sent);
    assert_eq!(a.events, b.events);
    assert_eq!(a.metrics.meals, b.metrics.meals);
}
