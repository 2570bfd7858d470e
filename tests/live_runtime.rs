//! Live-runtime safety and conformance (DESIGN.md §11).
//!
//! Short in-process mpsc runs of every algorithm on a clique and a ring,
//! each with one mid-run crash: the captured trace must be safe under the
//! harness monitor, every node thread must join, and the wire codec must
//! not drop a single frame. Separate tests export fault-free one-shot
//! runs' delivery timings as simulator schedules and assert the
//! deterministic replay is safe and reproduces the same eating census —
//! the sim-conformance bridge.

use harness::{topology, AlgKind};
use lme_net::{conformance_replay, run_live, LiveConfig, TransportKind};
use manet_sim::{Command, NodeId};

fn crash_cfg(alg: AlgKind, positions: Vec<(f64, f64)>) -> LiveConfig {
    let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, positions);
    cfg.duration_ms = 300;
    cfg.rate = 60.0;
    cfg.eat_ms = 1;
    cfg.commands = vec![(100, Command::Crash(NodeId(0)))];
    cfg
}

#[test]
fn crashed_mpsc_runs_stay_safe_on_clique_and_ring() {
    for alg in AlgKind::extended() {
        for (name, positions) in [
            ("clique:4", topology::clique(4)),
            ("ring:5", topology::ring(5)),
        ] {
            let n = positions.len();
            let cfg = crash_cfg(alg, positions);
            let out = run_live(&cfg).unwrap_or_else(|e| panic!("{} on {name}: {e}", alg.name()));
            assert!(
                out.violations.is_empty(),
                "{} on {name}: {:?}",
                alg.name(),
                out.violations
            );
            assert_eq!(
                out.threads_joined,
                n,
                "{} on {name}: leaked node threads",
                alg.name()
            );
            assert_eq!(
                out.decode_errors,
                0,
                "{} on {name}: wire frames failed to decode",
                alg.name()
            );
            // The crash severs node 0 at 100 ms; survivors must keep the
            // trace non-trivial (states, deliveries) without it.
            assert!(
                !out.trace.is_empty(),
                "{} on {name}: empty trace",
                alg.name()
            );
        }
    }
}

#[test]
fn live_delivery_order_replays_safely_in_the_simulator() {
    // One-shot and fault-free: every node eats exactly once, so the
    // eating census is schedule-independent and the sim replay of the
    // observed delivery timings must reproduce it exactly.
    let mut cfg = LiveConfig::new(AlgKind::A1Greedy, TransportKind::Mpsc, topology::ring(5));
    cfg.one_shot = true;
    cfg.eat_ms = 1;
    cfg.duration_ms = 5_000;
    let out = run_live(&cfg).expect("live run");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.meals, vec![1; 5], "one-shot run must feed every node");
    // Fault-free and in-process: every decode or send failure is a bug,
    // and each node must report its own zero counters (a node silently
    // eating errors would be invisible in the global totals alone).
    for (i, s) in out.trace.net_stats(5).iter().enumerate() {
        assert_eq!(s.decode_errors, 0, "node {i} saw decode errors");
        assert_eq!(s.send_failures, 0, "node {i} saw send failures");
    }

    let report = conformance_replay(&cfg, &out).expect("replay");
    assert!(
        report.imported_delays > 0,
        "no live delivery delays were imported"
    );
    assert_eq!(report.sim_violations, 0, "sim replay was unsafe");
    assert!(
        report.census_match,
        "sim census {:?} != live census {:?}",
        report.sim_census, report.live_census
    );
    assert!(report.conforms());
}

#[test]
fn choy_singh_one_shot_run_conforms_in_the_simulator() {
    // The static-coloring baseline runs live too: its one-shot census
    // survives the crossing into the simulator like every other
    // algorithm's.
    let mut cfg = LiveConfig::new(AlgKind::ChoySingh, TransportKind::Mpsc, topology::ring(6));
    cfg.one_shot = true;
    cfg.eat_ms = 1;
    cfg.duration_ms = 5_000;
    let out = run_live(&cfg).expect("live run");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.meals, vec![1; 6], "one-shot run must feed every node");
    let report = conformance_replay(&cfg, &out).expect("replay");
    assert!(report.imported_delays > 0, "no delays were imported");
    assert!(
        report.conforms(),
        "sim census {:?} != live census {:?}, {} sim violations",
        report.sim_census,
        report.live_census,
        report.sim_violations
    );
}

#[test]
fn reliable_mpsc_runs_stay_safe_with_the_live_shim() {
    // The in-process transport never loses frames, so the live ARQ shim
    // must be pure overhead: same safety, all threads joined, and no
    // decode or send failures introduced by the envelope layer.
    for alg in AlgKind::extended() {
        let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, topology::ring(5));
        cfg.duration_ms = 300;
        cfg.rate = 60.0;
        cfg.eat_ms = 1;
        cfg.reliable = true;
        let out = run_live(&cfg).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            alg.name(),
            out.violations
        );
        assert_eq!(out.threads_joined, 5, "{}: leaked node threads", alg.name());
        assert_eq!(
            out.decode_errors,
            0,
            "{}: envelope decode errors",
            alg.name()
        );
        for (i, s) in out.trace.net_stats(5).iter().enumerate() {
            assert_eq!(s.decode_errors, 0, "{}: node {i} decode errors", alg.name());
            assert_eq!(s.send_failures, 0, "{}: node {i} send failures", alg.name());
        }
    }
}

#[test]
fn crashed_node_recovers_and_rejoins_on_mpsc() {
    // Crash node 0 at 100 ms and recover it at 180 ms of a 500 ms run:
    // the fresh incarnation must rejoin (link flaps to every world
    // neighbor), the run must stay safe, and all threads must join.
    for alg in AlgKind::extended() {
        let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, topology::clique(4));
        cfg.duration_ms = 500;
        cfg.rate = 60.0;
        cfg.eat_ms = 1;
        cfg.reliable = true;
        cfg.commands = vec![
            (100, Command::Crash(NodeId(0))),
            (180, Command::Recover(NodeId(0))),
        ];
        let out = run_live(&cfg).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        assert!(
            out.violations.is_empty(),
            "{}: {:?}",
            alg.name(),
            out.violations
        );
        assert_eq!(out.threads_joined, 4, "{}: leaked node threads", alg.name());
        assert_eq!(
            out.recoveries,
            1,
            "{}: recovery was not executed",
            alg.name()
        );
        assert_eq!(out.decode_errors, 0, "{}: decode errors", alg.name());
    }
}
