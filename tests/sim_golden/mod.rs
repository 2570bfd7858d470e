//! Golden pin of the simulator core, shared by `tests/queue_equivalence.rs`,
//! `tests/engine_equivalence.rs`, `tests/reliable_delivery.rs`,
//! `tests/channel_models.rs` and `tests/algorithm_table.rs`.
//!
//! The engine used to ship two event queues (binary heap, timing wheel) and
//! two link engines (pairwise scan, spatial grid), and those two suites
//! compared them run by run. The heap and the pairwise scan are gone; what
//! they would have produced is kept as one FNV-64 constant per cell: every
//! observable artifact of the cell (traces, state digests, `EngineStats`,
//! metrics, adjacency, JSONL bytes) folded over all seeds.
//!
//! Every constant was computed on parent commit `b193b59` through the
//! reference paths — the binary-heap queue for the queue cells, the
//! pairwise link scan for the link cells, and both for the four cells the
//! suites share — and must be reproduced unchanged by the single path.
//! A mismatch prints the observed value: an *intentional* behaviour change
//! re-pins by pasting it over the constant.
//!
//! Provenance: these three files were copied onto `b193b59` with every
//! constant zeroed, and the queue-kind and link-engine `Default` impls
//! patched to honour `LME_QUEUE=heap` / `LME_LINK=pairwise`; the suites
//! printed the same eleven digests under all four settings (wheel+grid,
//! heap+grid, wheel+pairwise, heap+pairwise).
//!
//! **Digest re-pin.** Cells that fold an engine state digest — the three
//! engine-level cells here and in `engine_equivalence.rs`,
//! `line:12+overflow` and `check:line:4`, and the digest-folding pins of
//! `reliable_delivery.rs` and `channel_models.rs` — were re-pinned twice:
//! when digests stopped hashing each automaton's `Debug` text and started
//! hashing its derived `Hash` (`f86a6d9`), and when the automata's meal,
//! demotion, recoloring, return-path and switch counters moved out of
//! their state into the engine's `Observed` records and Choy–Singh's
//! `recolor_on_move` switch became `RecolorConfig::Never` (`94651b5`). A
//! digest's value is arbitrary; dedup, DPOR and lasso detection act only
//! on which states digest equal. So before each re-pin, every such cell
//! was folded on the old and the new code with `Engine::state_digest` and
//! `Engine::progress_digest` patched to return each digest's index of
//! first occurrence on the test's thread, and the two folds were equal:
//! the new digest merges exactly the states the old one merged. These
//! cells take few digests and see each one about once (a throwaway
//! mutation that adds `now` to the engine digest folds identically too),
//! so the sensitive evidence for the second re-pin is the certify pins,
//! which moved under that mutation and did not move under the re-pin:
//! `dedup_partition_on_line3_for_every_algorithm` in
//! `crates/check/src/certify.rs` and CI's four-algorithm `line:4` canary.

// Each test binary uses its own subset of this module.
#![allow(dead_code)]

use std::fmt::Debug;
use std::hash::Hasher;

use harness::{run_algorithm, topology, AlgKind, RunOutcome, RunReport, RunSpec, WaypointPlan};
use local_mutex::Algorithm2;
use manet_sim::{
    Command, CrashWave, Engine, FaultPlan, Fnv, NodeId, PartitionWindow, SimConfig, SimTime,
};

pub const SEEDS: std::ops::Range<u64> = 1..9;

/// FNV-64 over the `Debug` rendering of everything a cell observes.
pub struct Fold(Fnv);

impl Fold {
    pub fn new() -> Fold {
        Fold(Fnv::new())
    }

    pub fn add(&mut self, value: &impl Debug) {
        self.0.write(format!("{value:?}\n").as_bytes());
    }

    /// Everything the differential suites compared about one harness run.
    pub fn add_outcome(&mut self, out: &RunOutcome, jsonl: &str) {
        self.add(&out.stats);
        self.add(&out.metrics.samples);
        self.add(&out.metrics.meals);
        self.add(&out.adjacency);
        self.add(&out.crashed);
        self.add(&out.violations);
        self.add(&out.abort);
        self.add(&jsonl);
    }

    pub fn check(self, cell: &str, golden: u64) {
        let observed = self.0.finish();
        assert_eq!(
            observed, golden,
            "{cell}: golden digest drifted — the engine's behaviour changed. \
             If that is intended, re-pin with {observed:#018x}"
        );
    }
}

pub fn spec_with_seed(seed: u64, horizon: u64, fault: FaultPlan) -> RunSpec {
    RunSpec {
        sim: SimConfig {
            seed,
            fault,
            ..SimConfig::default()
        },
        horizon,
        ..RunSpec::default()
    }
}

pub fn waypoints(n: usize, moves: usize, horizon: u64, seed: u64) -> Vec<(SimTime, Command)> {
    WaypointPlan {
        area_side: (n as f64 / 1.6).sqrt().max(2.0),
        moves,
        window: (horizon / 10, horizon * 9 / 10),
        speed: Some(0.25),
        seed,
    }
    .commands(n)
}

pub fn jsonl_of(label: &str, kind: AlgKind, spec: &RunSpec, out: &RunOutcome) -> String {
    RunReport::from_outcome(label, kind.name(), spec.sim.seed, spec.horizon, out, None).to_jsonl()
}

/// Engine-level cell body: build a traced A2 engine over `positions`, apply
/// `commands`, run, and fold the full trace, state digest and stats.
pub fn fold_traced_run(
    fold: &mut Fold,
    seed: u64,
    positions: &[(f64, f64)],
    commands: &[(SimTime, Command)],
) {
    let cfg = SimConfig {
        seed,
        trace: true,
        ..SimConfig::default()
    };
    let mut eng = Engine::new(cfg, positions.to_vec(), |seed| Algorithm2::new(&seed));
    for i in 0..positions.len() as u32 {
        eng.set_hungry_at(SimTime(1 + u64::from(i % 7)), NodeId(i));
    }
    for (at, cmd) in commands {
        eng.schedule(*at, cmd.clone());
    }
    eng.run_until(SimTime(6_000));
    fold.add(&eng.trace());
    fold.add(&eng.state_digest());
    fold.add(eng.stats());
}

/// Harness-level cell body: run `kind` and fold stats, metrics, final
/// adjacency, crash set, violations, abort and the rendered JSONL line.
pub fn fold_outcome(
    fold: &mut Fold,
    label: &str,
    kind: AlgKind,
    spec: &RunSpec,
    positions: &[(f64, f64)],
    commands: &[(SimTime, Command)],
) {
    let out = run_algorithm(kind, spec, positions, commands);
    fold.add_outcome(&out, &jsonl_of(label, kind, spec, &out));
}

// ---------------------------------------------------------------------
// The four cells both reference paths had to agree on (one constant
// each: heap ≡ pairwise), run by `tests/engine_equivalence.rs`.
// ---------------------------------------------------------------------

/// Random deployment with smooth random-waypoint motion — dense same-tick
/// ties (timers, deliveries, link changes) and continuous cell migration.
pub fn random_waypoint_smooth_motion() {
    let mut fold = Fold::new();
    for seed in SEEDS {
        let positions = topology::random_connected(30, seed);
        let commands = waypoints(30, 12, 6_000, seed ^ 0xB0B);
        fold_traced_run(&mut fold, seed, &positions, &commands);
    }
    fold.check("random:30+waypoint", 0x4cbe_dd53_720e_b869);
}

/// Clique under the adaptive max-delay adversary with moves.
pub fn clique_max_delay_adversary() {
    let positions = topology::clique(8);
    let mut fold = Fold::new();
    for seed in SEEDS {
        let fault = FaultPlan {
            max_delay: Some(manet_sim::DelayAdversary {
                targets: (0..8).map(NodeId).collect(),
                window: Some((100, 3_000)),
            }),
            ..FaultPlan::default()
        };
        let spec = spec_with_seed(seed, 8_000, fault);
        let commands = waypoints(8, 4, 8_000, seed);
        fold_outcome(
            &mut fold,
            "clique:8",
            AlgKind::A1Greedy,
            &spec,
            &positions,
            &commands,
        );
    }
    fold.check("clique:8", 0xf016_9c82_0e2c_c5a9);
}

/// Ring under message drop + duplication faults with moves — duplicate
/// ghosts are pushed with out-of-order timestamps relative to their
/// originals, the regime that forces wheel re-anchoring.
pub fn ring_loss_and_duplication() {
    let positions = topology::ring(16);
    let mut fold = Fold::new();
    for seed in SEEDS {
        let fault = FaultPlan {
            link: Some(manet_sim::LinkFaults {
                drop: 0.15,
                duplicate: 0.15,
                ..manet_sim::LinkFaults::default()
            }),
            ..FaultPlan::default()
        };
        let spec = spec_with_seed(seed, 8_000, fault);
        let commands = waypoints(16, 5, 8_000, seed);
        fold_outcome(
            &mut fold,
            "ring:16",
            AlgKind::A1Linial,
            &spec,
            &positions,
            &commands,
        );
    }
    fold.check("ring:16", 0xa0f0_c48d_472b_3419);
}

/// Random deployment with a crash wave and a partition window under
/// waypoint motion.
pub fn random_crash_wave_and_partition() {
    let mut fold = Fold::new();
    for seed in SEEDS {
        let positions = topology::random_connected(40, seed);
        let fault = FaultPlan {
            crash_waves: vec![CrashWave {
                at: 2_000,
                nodes: vec![NodeId(seed as u32 % 40)],
            }],
            partitions: vec![PartitionWindow {
                at: 3_000,
                side: (0..10).map(NodeId).collect(),
                heal_after: 1_500,
            }],
            ..FaultPlan::default()
        };
        let spec = spec_with_seed(seed, 9_000, fault);
        let commands = waypoints(40, 8, 9_000, seed ^ 0xFEED);
        fold_outcome(
            &mut fold,
            "random:40",
            AlgKind::A2,
            &spec,
            &positions,
            &commands,
        );
    }
    fold.check("random:40", 0xd6e2_55ff_d74d_4102);
}

// ---------------------------------------------------------------------
// The algorithm table: every `AlgKind::extended()` through the runner on
// a geometric world with motion and on an explicit graph, and through the
// checker. Computed on parent `344bdbe`, where each algorithm name still
// became automata in four hand-kept places, run by
// `tests/algorithm_table.rs`.
// ---------------------------------------------------------------------

/// Every algorithm on `random:24` under random-waypoint motion.
pub fn every_algorithm_random_waypoint() {
    let mut fold = Fold::new();
    for kind in AlgKind::extended() {
        for seed in 1..4 {
            let positions = topology::random_connected(24, seed);
            let spec = spec_with_seed(seed, 5_000, FaultPlan::default());
            let commands = waypoints(24, 8, 5_000, seed ^ 0xB0B);
            fold_outcome(&mut fold, "random:24", kind, &spec, &positions, &commands);
        }
    }
    fold.check("every-alg random:24+waypoint", 0x77e0_cbeb_4bb5_f6b8);
}

/// Every algorithm on the explicit complete binary tree `tree:15`.
pub fn every_algorithm_explicit_tree() {
    let (n, edges) = topology::binary_tree_edges(15);
    let tree = harness::Topo::Graph { n, edges };
    let mut fold = Fold::new();
    for kind in AlgKind::extended() {
        for seed in 1..4 {
            let spec = spec_with_seed(seed, 5_000, FaultPlan::default());
            let out = harness::run(kind, &spec, &tree, &[], None);
            fold.add_outcome(&out, &jsonl_of("tree:15", kind, &spec, &out));
        }
    }
    fold.check("every-alg tree:15", 0x7e93_0331_17ca_7240);
}

/// Every algorithm under `lme check --alg <a> --topo line:3 --horizon
/// 4000`: the bounded DFS with dedup and DPOR, folded as `(schedules,
/// dedup_prunes, dpor_prunes, verdict)`.
pub fn every_algorithm_check_line3() {
    let mut fold = Fold::new();
    for kind in AlgKind::extended() {
        let spec = lme_check::CheckSpec::new(kind, "line:3", 3, vec![(0, 1), (1, 2)]);
        let result = lme_check::explore(&spec, &lme_check::ExploreConfig::default());
        let verdict = result.witness.map(|w| (w.property, w.detail, w.choices));
        fold.add(&(
            result.schedules,
            result.dedup_prunes,
            result.dpor_prunes,
            verdict,
        ));
    }
    fold.check("every-alg check line:3", 0x8f8e_7122_7b7b_fc5e);
}
