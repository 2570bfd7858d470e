//! The shard worker pool: safety, ticket-range merge, and verdict parity
//! across worker counts (DESIGN.md §11).
//!
//! Every live run executes on a fixed worker pool, with each shard
//! stamping its own ticket range from a hybrid logical clock and the
//! ranges merged into one total order at export. These tests pin the
//! contract of that merge — the order is dense (no ticket reused or
//! skipped), every shard's stream order survives, and the merged trace
//! satisfies the harness safety core whether the pool is one worker (no
//! cross-shard traffic at all) or one worker per node (nothing but) —
//! plus crash/recovery, the reliable shim and the conformance bridge.

use harness::{topology, AlgKind};
use lme_net::{
    conformance_replay, merge_stamped, run_live, LiveConfig, LiveEventKind, LiveRuntime,
    StampedRecord, TransportKind,
};
use manet_sim::DiningState::{Eating, Hungry, Thinking};
use manet_sim::{Command, NodeId, Position, SimRng};

fn sharded_cfg(alg: AlgKind, positions: Vec<(f64, f64)>, workers: usize) -> LiveConfig {
    let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, positions);
    cfg.duration_ms = 300;
    cfg.rate = 60.0;
    cfg.eat_ms = 1;
    cfg.runtime = LiveRuntime::Sharded { workers };
    cfg
}

/// The merged total order must be dense — `order` is exactly `0..len` —
/// and per-node record sequences must keep their own wall-clock order
/// (each node lives on one shard, so its stream order is the shard's).
fn assert_valid_merge(out: &lme_net::LiveOutcome, n: usize) {
    let mut last_at = vec![0u64; n];
    for (i, r) in out.trace.records().iter().enumerate() {
        assert_eq!(r.order, i as u64, "ticket reused or skipped at {i}");
        let node = match r.kind {
            LiveEventKind::State { node, .. }
            | LiveEventKind::Deliver { to: node, .. }
            | LiveEventKind::Recover { node }
            | LiveEventKind::NetStats { node, .. } => Some(node),
            _ => None,
        };
        if let Some(node) = node {
            assert!(
                r.at_ns >= last_at[node.index()],
                "node {} record at {} ns merged before its own {} ns record",
                node.index(),
                r.at_ns,
                last_at[node.index()]
            );
            last_at[node.index()] = r.at_ns;
        }
    }
}

/// Seeded runs on clique:4 and ring:5 with one crash, under worker
/// counts {1, 3, n}: one worker means no cross-shard merge at all, n
/// workers means every message crosses shards, 3 is the mixed case. Each
/// merged order must be a valid interleaving and every worker count must
/// reach the same safety verdict — clean. The id predates the deletion of the
/// thread-per-node runtime, whose verdict the 3-worker run used to be
/// compared against.
#[test]
fn crashed_sharded_runs_match_thread_per_node_verdicts() {
    for alg in AlgKind::extended() {
        for (name, positions) in [
            ("clique:4", topology::clique(4)),
            ("ring:5", topology::ring(5)),
        ] {
            let n = positions.len();
            for workers in [1, 3, n] {
                let mut cfg = sharded_cfg(alg, positions.clone(), workers);
                cfg.commands = vec![(100, Command::Crash(NodeId(0)))];
                let cell = format!("{} on {name}, {workers} workers", alg.name());
                let out = run_live(&cfg).unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert!(out.violations.is_empty(), "{cell}: {:?}", out.violations);
                assert_eq!(out.threads_joined, n, "{cell}: nodes lost");
                assert_eq!(out.decode_errors, 0, "{cell}: decode errors");
                assert!(!out.trace.is_empty(), "{cell}: empty trace");
                assert_valid_merge(&out, n);
            }
        }
    }
}

#[test]
fn sharded_one_shot_run_conforms_in_the_simulator() {
    // The conformance bridge must not care how the trace was merged: a
    // fault-free one-shot two-shard run's delivery timings replay safely
    // in the simulator with the same eating census.
    let mut cfg = LiveConfig::new(AlgKind::A1Greedy, TransportKind::Mpsc, topology::ring(5));
    cfg.one_shot = true;
    cfg.eat_ms = 1;
    cfg.duration_ms = 5_000;
    cfg.runtime = LiveRuntime::Sharded { workers: 2 };
    let out = run_live(&cfg).expect("sharded one-shot run");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.meals, vec![1; 5], "one-shot run must feed every node");
    assert_valid_merge(&out, 5);
    let report = conformance_replay(&cfg, &out).expect("replay");
    assert_eq!(report.sim_violations, 0, "sim replay was unsafe");
    assert!(
        report.conforms(),
        "sim census {:?} != live census {:?}",
        report.sim_census,
        report.live_census
    );
}

#[test]
fn one_shot_run_waits_for_meals_longer_than_its_drain_window() {
    // A meal counts when it ends, so the one-shot early stop must wait for
    // every node to *finish* one: an 80 ms meal outlasts the 50 ms drain
    // window that follows the last entry into Eating.
    let mut cfg = LiveConfig::new(AlgKind::A2, TransportKind::Mpsc, topology::clique(3));
    cfg.one_shot = true;
    cfg.tick_ns = 2_000_000; // τ = 50 ticks = 100 ms
    cfg.eat_ms = 80;
    cfg.duration_ms = 5_000;
    let out = run_live(&cfg).expect("one-shot run");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(out.meals, vec![1, 1, 1], "every meal must finish");
    let report = conformance_replay(&cfg, &out).expect("replay");
    assert!(
        report.conforms(),
        "sim census {:?} != live census {:?}",
        report.sim_census,
        report.live_census
    );
}

#[test]
fn sharded_udp_smoke_stays_safe() {
    // Same batches, real datagrams: one shard pair per socket on
    // loopback. Loss is possible in principle, so only safety and clean
    // shutdown are asserted, not delivery counts — with the reliable shim
    // off, and on, where a retransmission can actually be needed.
    for reliable in [false, true] {
        let mut cfg = sharded_cfg(AlgKind::A2, topology::clique(4), 2);
        cfg.transport = TransportKind::Udp;
        cfg.reliable = reliable;
        let out = run_live(&cfg).expect("sharded udp run");
        assert!(
            out.violations.is_empty(),
            "reliable {reliable}: {:?}",
            out.violations
        );
        assert_eq!(out.threads_joined, 4, "reliable {reliable}");
        assert_valid_merge(&out, 4);
    }
}

#[test]
fn sharded_crash_and_recovery_rejoins() {
    // The go-back-N shim lives in the node, not the carrier, so the
    // reliable cells must behave the same whether acks and
    // retransmissions stay inside one worker or cross a ring.
    for (reliable, workers) in [(false, 2), (true, 1), (true, 2)] {
        let cell = format!("reliable {reliable}, {workers} workers");
        let mut cfg = sharded_cfg(AlgKind::A2, topology::clique(4), workers);
        cfg.duration_ms = 500;
        cfg.reliable = reliable;
        cfg.commands = vec![
            (100, Command::Crash(NodeId(0))),
            (180, Command::Recover(NodeId(0))),
        ];
        let out = run_live(&cfg).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert!(out.violations.is_empty(), "{cell}: {:?}", out.violations);
        assert_eq!(out.recoveries, 1, "{cell}: recovery was not executed");
        assert_eq!(out.threads_joined, 4, "{cell}: nodes lost");
        assert_eq!(out.decode_errors, 0, "{cell}: decode errors");
        assert_eq!(out.send_failures, 0, "{cell}: send failures");
        let records = out.trace.records();
        let recovered = records
            .iter()
            .position(|r| matches!(r.kind, LiveEventKind::Recover { node } if node == NodeId(0)));
        let recovered = recovered.unwrap_or_else(|| panic!("{cell}: no Recover record"));
        // The fresh incarnation rejoins the workload: it finishes a meal.
        let ate = records[recovered..].iter().any(|r| {
            matches!(r.kind, LiveEventKind::State { node, old: Eating, new: Thinking, .. }
                if node == NodeId(0))
        });
        assert!(ate, "{cell}: p0 finished no meal after its recovery");
        // The shim's counters reach the outcome and agree with the
        // per-node NetStats records; with the shim off both are zero.
        assert_eq!(out.acks_sent > 0, reliable, "{cell}: standalone acks");
        let net = out.trace.net_stats(4);
        assert_eq!(
            net.iter().map(|s| s.acks_sent).sum::<u64>(),
            out.acks_sent,
            "{cell}: per-node NetStats disagree with the total"
        );
        assert_eq!(
            net.iter().map(|s| s.retransmissions).sum::<u64>(),
            out.retransmissions,
            "{cell}: per-node NetStats disagree with the total"
        );
        assert_valid_merge(&out, 4);
    }
}

#[test]
fn closed_loop_outruns_the_open_loop_rate_cap() {
    // The saturation blind spot: at rate 60/s a 300 ms open-loop run caps
    // every algorithm near the same meal count. Closed-loop re-requests
    // immediately after eating, so the same cell must eat strictly more.
    let open = sharded_cfg(AlgKind::A2, topology::clique(4), 2);
    let mut closed = open.clone();
    closed.closed_loop = true;
    let open_out = run_live(&open).expect("open-loop run");
    let closed_out = run_live(&closed).expect("closed-loop run");
    assert!(
        closed_out.violations.is_empty(),
        "{:?}",
        closed_out.violations
    );
    assert!(
        closed_out.total_meals() > open_out.total_meals(),
        "closed loop ({}) did not outrun the open-loop rate cap ({})",
        closed_out.total_meals(),
        open_out.total_meals()
    );
    // Each 1 ms meal ends at a wheel deadline that an idle worker parks
    // for, so the park layer has wakes to count. How late they were is
    // host time and is not asserted.
    assert!(closed_out.timer_wakes > 0, "no timed park woke at its tick");
}

#[test]
fn synthetic_ticket_merge_is_a_dense_valid_interleaving() {
    // Property test against the merge itself, no runtime involved: seeded
    // per-shard streams with strictly increasing clocks merge into a
    // dense total order that preserves every stream's internal order.
    let mut rng = SimRng::seed_from_u64(0x5AAD_2008);
    for round in 0..32 {
        let shards = 2 + (round % 4);
        let mut streams: Vec<Vec<StampedRecord>> = Vec::new();
        for s in 0..shards {
            let len = rng.gen_range(0..40u64) as usize;
            let mut clock = 0u64;
            let mut stream = Vec::with_capacity(len);
            for i in 0..len {
                clock += 1 + rng.gen_range(0..5u64);
                // Tag each record with its (stream, index) identity via
                // the NetStats counters so order can be audited after the
                // merge.
                stream.push(StampedRecord {
                    clock,
                    at_ns: clock * 10,
                    kind: LiveEventKind::NetStats {
                        node: NodeId(s as u32),
                        decode_errors: i as u32,
                        send_failures: 0,
                        retransmissions: 0,
                        acks_sent: 0,
                    },
                });
            }
            streams.push(stream);
        }
        let total: usize = streams.iter().map(Vec::len).sum();
        let merged = merge_stamped(streams);
        assert_eq!(merged.len(), total, "round {round}: records lost");
        let mut next_index = vec![0u32; shards];
        for (i, r) in merged.iter().enumerate() {
            assert_eq!(r.order, i as u64, "round {round}: ticket reused or skipped");
            if let LiveEventKind::NetStats {
                node,
                decode_errors,
                ..
            } = r.kind
            {
                assert_eq!(
                    decode_errors,
                    next_index[node.index()],
                    "round {round}: stream {} order broken",
                    node.index()
                );
                next_index[node.index()] += 1;
            }
        }
    }
}

/// A known live/sim divergence, pinned until ROADMAP item 15 flips it.
///
/// p1 shuttles between (50, 0), alone, and (0.5, 0), next to p0, while
/// both eat back to back. p1 arrives `Eating` and demotes itself only when
/// it handles its `LinkUp(AsMoving)`, tens of microseconds after the
/// driver's `Relocate` record. The live audit settles at every record, so
/// it flags the pair inside that window: at the `Relocate` record itself,
/// or, when p0 was between two meals there, at p0's next entry into
/// `Eating`, made before p0 has handled its own `LinkUp`. The simulator
/// settles at the end of the instant, after the demotion, and reports
/// nothing for the same script. Item 15's rule (each node records its own
/// link notifications, and the audit raises a link once both ends have
/// recorded it) turns the expectation into "no violations".
#[test]
fn live_audit_flags_an_eating_mover_until_it_demotes() {
    let p1 = NodeId(1);
    let script = [(100, 0.5), (160, 50.0), (220, 0.5), (280, 50.0), (340, 0.5)];
    for alg in AlgKind::extended() {
        let mut cfg = LiveConfig::new(alg, TransportKind::Mpsc, vec![(0.0, 0.0), (50.0, 0.0)]);
        cfg.closed_loop = true;
        cfg.eat_ms = 5;
        cfg.duration_ms = 400;
        for (at_ms, x) in script {
            let dest = Position { x, y: 0.0 };
            cfg.commands
                .push((at_ms, Command::Teleport { node: p1, dest }));
        }
        let out = run_live(&cfg).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        // The instants of every record from a p1 `Relocate` up to p1's
        // next demotion from `Eating` to `Hungry`, in merged order.
        let mut window = Vec::new();
        let mut open = false;
        for r in out.trace.records() {
            match r.kind {
                LiveEventKind::Relocate { node, .. } if node == p1 => open = true,
                LiveEventKind::State { node, old, new, .. }
                    if node == p1 && (old, new) == (Eating, Hungry) =>
                {
                    open = false
                }
                _ => {}
            }
            if open {
                window.push(r.at_ns);
            }
        }
        assert!(
            !out.violations.is_empty(),
            "{}: item 15 no longer reproduces; flip this test",
            alg.name()
        );
        for v in &out.violations {
            assert_eq!((v.a, v.b), (NodeId(0), p1), "{}: {v:?}", alg.name());
            assert!(
                window.contains(&v.at.0),
                "{}: {v:?} is outside every relocate-to-demotion window",
                alg.name()
            );
        }
    }
}
