//! Golden pin of the event queue's contract: the engine dispatches in
//! `(at, seq)` order, exactly as a binary heap keyed on that pair would.
//!
//! These cells used to run every scenario twice — timing wheel vs the
//! binary-heap core — and compare. The heap core is gone (the wheel's own
//! unit tests keep a `std::collections::BinaryHeap` differential at the
//! queue seam); here each cell's traces, digests, stats and JSONL are folded
//! into one constant computed on parent `b193b59` through that heap core.
//! See `tests/sim_golden/mod.rs`.
//!
//! Cells cover a line under motion with a far-future command over 8 seeds,
//! the model checker's DFS/PCT/random/replay strategies, the
//! imported-schedule conformance-replay path and the parallel sweep. The
//! topology × mobility × fault cells live in `tests/engine_equivalence.rs`
//! alone (they pin the same `sim_golden` constants).

mod sim_golden;

use harness::{run, topology, AlgKind, RunOutcome, RunSpec, SweepSpec, Topo};
use lme_check::{run_schedule, CheckSpec, Plan};
use manet_sim::{Command, FaultPlan, ImportedSchedule, NodeId, SimConfig, SimTime, Strategy};
use sim_golden::{fold_traced_run, jsonl_of, spec_with_seed, waypoints, Fold, SEEDS};

// ---------------------------------------------------------------------
// Engine-level cells: full traces.
// ---------------------------------------------------------------------

/// Cell 1: line topology with waypoint motion plus a far-future teleport —
/// the command sits beyond the wheel's bucket horizon at schedule time, so
/// it lands in the overflow heap and must still dispatch in exact order.
#[test]
fn cell_line_motion_with_far_overflow_command() {
    let positions = topology::line(12);
    let mut fold = Fold::new();
    for seed in SEEDS {
        let mut commands = vec![(
            SimTime(5_500), // scheduled at t=0: far outside any bucket window
            Command::Teleport {
                node: NodeId(0),
                dest: manet_sim::Position { x: 3.0, y: 1.5 },
            },
        )];
        commands.extend(waypoints(12, 6, 6_000, seed ^ 0xB0B));
        commands.sort_by_key(|(t, _)| *t);
        fold_traced_run(&mut fold, seed, &positions, &commands);
    }
    fold.check("line:12+overflow", 0x6285_ba34_0254_f7aa);
}

// ---------------------------------------------------------------------
// Checker-level cell: every exploration strategy sees the pinned runs.
// ---------------------------------------------------------------------

fn fold_verdict(fold: &mut Fold, alg: AlgKind, plan: &Plan) -> lme_check::RunVerdict {
    let edges: Vec<(u32, u32)> = (0..3).map(|i| (i, i + 1)).collect();
    let verdict = run_schedule(&CheckSpec::new(alg, "line:4", 4, edges), plan);
    fold.add(&verdict.choices);
    fold.add(&verdict.trace);
    fold.add(&verdict.violation);
    fold.add(&verdict.drained);
    fold.add(&verdict.meals);
    fold.add(&verdict.abort);
    verdict
}

/// Cell 2: the model checker's DFS, PCT, random-walk, and replay
/// strategies resolve the pinned branch points.
#[test]
fn cell_check_strategies_agree_across_cores() {
    let mut fold = Fold::new();
    for alg in [AlgKind::A1Greedy, AlgKind::A2] {
        let dfs = |prefix: Vec<u8>, dedup| Plan::Dfs { prefix, dedup };
        fold_verdict(&mut fold, alg, &dfs(vec![], true));
        fold_verdict(&mut fold, alg, &dfs(vec![1, 1, 0], false));
        for seed in SEEDS {
            fold_verdict(&mut fold, alg, &Plan::Pct { seed, changes: 3 });
            let sampled = fold_verdict(&mut fold, alg, &Plan::Random { seed });
            // Replay the random walk's recorded delays.
            let delays: Vec<u64> = sampled.choices.iter().map(|c| c.delay).collect();
            fold_verdict(&mut fold, alg, &Plan::Replay { delays });
        }
    }
    fold.check("check:line:4", 0x1fb9_fc15_9a14_23d3);
}

// ---------------------------------------------------------------------
// Imported-schedule cells: the conformance-replay path of live runs.
// ---------------------------------------------------------------------

fn replay_outcome(schedule: ImportedSchedule, seed: u64) -> (RunOutcome, String) {
    let spec = spec_with_seed(seed, 5_000, FaultPlan::default());
    let clique = Topo::Geo(topology::clique(6));
    let out = run(AlgKind::A2, &spec, &clique, &[], Some(Box::new(schedule)));
    let jsonl = jsonl_of("replay:clique6", AlgKind::A2, &spec, &out);
    (out, jsonl)
}

/// Cell 3: a recorded (synthetic, in-window) live schedule replays without
/// an abort, to the pinned outcome and JSONL.
#[test]
fn cell_imported_schedule_replay_agrees() {
    let mut fold = Fold::new();
    for seed in SEEDS {
        let nu = SimConfig::default().max_message_delay;
        let mut sched = ImportedSchedule::new(1);
        let mut k = seed;
        for from in 0..6u32 {
            for to in 0..6u32 {
                if from == to {
                    continue;
                }
                for _ in 0..8 {
                    k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    sched.push(NodeId(from), NodeId(to), 1 + k % nu);
                }
            }
        }
        let (out, jsonl) = replay_outcome(sched, seed);
        assert_eq!(out.abort, None, "seed {seed}: in-window replay aborted");
        fold.add_outcome(&out, &jsonl);
    }
    fold.check("replay:clique6", 0x868d_c1eb_8662_6ad8);
}

/// Cell 4: a malformed recording (delay below the legal window) is
/// rejected with a structured abort, never silently clamped.
#[test]
fn cell_malformed_replay_rejected_identically() {
    let mut sched = ImportedSchedule::new(1);
    sched.push(NodeId(0), NodeId(1), 0); // below min_message_delay
    let (out, jsonl) = replay_outcome(sched, 3);
    assert!(
        out.abort
            .as_deref()
            .is_some_and(|a| a.contains("outside legal window")),
        "abort: {:?}",
        out.abort
    );
    let mut fold = Fold::new();
    fold.add_outcome(&out, &jsonl);
    fold.check("replay:clique6+malformed", 0x6536_df70_2a95_429b);
}

// ---------------------------------------------------------------------
// Sweep-level cell: parallel JSONL identical across job counts.
// ---------------------------------------------------------------------

/// Cell 5: a multi-seed sweep renders the pinned JSONL for any worker
/// count.
#[test]
fn cell_sweep_jsonl_identical_across_cores_and_jobs() {
    let sweep = || {
        SweepSpec::new(
            "line6",
            Topo::Geo(topology::line(6)),
            RunSpec {
                horizon: 3_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2, AlgKind::A1Greedy])
        .seed_range(1, 4)
    };
    let serial = sweep().run(1).jsonl();
    let parallel = sweep().run(4).jsonl();
    assert_eq!(serial, parallel, "jobs changed the JSONL");
    assert_eq!(serial.lines().count(), 8);
    let mut fold = Fold::new();
    fold.add(&serial);
    fold.check("sweep:line6", 0x7d60_7647_275f_c7dc);
}

// ---------------------------------------------------------------------
// Strategy sanity: the suite's own plumbing.
// ---------------------------------------------------------------------

/// The `Strategy` object is what the replay cells inject; double-check the
/// trait-object path sees the same choices the engine validates.
#[test]
fn imported_schedule_strategy_object_is_consulted() {
    let mut sched = ImportedSchedule::new(2);
    sched.push(NodeId(0), NodeId(1), 4);
    let mut boxed: Box<dyn Strategy> = Box::new(sched);
    let choice = manet_sim::DeliveryChoice {
        from: NodeId(0),
        to: NodeId(1),
        kind: "msg",
        now: SimTime(10),
        earliest: 1,
        latest: 10,
        pending_in_window: 0,
        pending_dependent_in_window: 0,
        fifo_floor: None,
        digest: None,
    };
    assert_eq!(boxed.choose_delay(&choice), 4);
    assert_eq!(boxed.choose_delay(&choice), 2);
}
