//! Golden pin of the link engine's contract: links follow the unit-disk
//! rule, and every change is reported in the order a pairwise scan over
//! ascending peer ids would report it.
//!
//! These cells used to run every scenario twice — spatial grid vs the
//! pairwise O(n²) engine — and compare. The pairwise engine is gone; here
//! each cell's traces (link-change events, delivery sequence numbers),
//! digests, stats and JSONL are folded into one constant computed on parent
//! `b193b59` through that pairwise engine (see `tests/sim_golden/mod.rs`),
//! and the world-level fuzz checks `World::relocate` against a brute-force
//! unit-disk oracle.
//!
//! Cells cover topology × mobility × fault combinations, including nodes
//! crossing cell boundaries and landing exactly on cell edges, each over
//! 8 seeds.

mod sim_golden;

use harness::topology;
use manet_sim::{Command, LinkChange, NodeId, Position, SimTime, World};
use sim_golden::{fold_traced_run, waypoints, Fold, SEEDS};

// ---------------------------------------------------------------------
// Engine-level cells: full traces.
// ---------------------------------------------------------------------

/// Cell 1: line topology with teleports that cross cell boundaries and
/// land *exactly* on cell edges (x = k · 1.5 = k · radio_range, the
/// worst case for the grid's floor-keying).
#[test]
fn cell_line_teleports_onto_cell_edges() {
    let positions = topology::line(12);
    let mut fold = Fold::new();
    for seed in SEEDS {
        let k = (seed % 5) as f64;
        let teleport = |at, node, x, y| {
            (
                SimTime(at),
                Command::Teleport {
                    node: NodeId(node),
                    dest: Position { x, y },
                },
            )
        };
        let commands = vec![
            teleport(500, 0, k * 1.5, 0.0),
            // Exactly one cell down, one range away.
            teleport(1_000, 11, 3.0, 1.5),
            // Co-located with node 0's column.
            teleport(1_500, 5, 0.0, 0.0),
            // Negative coordinates: floor ≠ truncate.
            teleport(2_000, 0, -1.5, -1.5),
        ];
        fold_traced_run(&mut fold, seed, &positions, &commands);
    }
    fold.check("line:12+edge-teleports", 0x9437_745f_11d4_9fc8);
}

/// Cell 2: random deployment with smooth random-waypoint motion — the
/// bread-and-butter mobility workload, nodes migrate cells continuously.
#[test]
fn cell_random_waypoint_smooth_motion() {
    sim_golden::random_waypoint_smooth_motion();
}

/// Cell 3: partition + heal through engine commands while nodes move —
/// exercises the cut mask in `apply_cut`, `clear_cut` and `relocate`.
#[test]
fn cell_grid_partition_and_heal() {
    let positions = topology::grid(5, 5);
    let mut fold = Fold::new();
    for seed in SEEDS {
        let side: Vec<NodeId> = (0..8).map(NodeId).collect();
        let mut commands = vec![
            (SimTime(800), Command::Partition { side: side.clone() }),
            (
                SimTime(1_200),
                Command::Teleport {
                    node: NodeId(3), // inside the cut side, walks next to outsiders
                    dest: Position { x: 4.0, y: 4.0 },
                },
            ),
            (SimTime(2_500), Command::Heal),
        ];
        commands.extend(waypoints(25, 6, 6_000, seed));
        commands.sort_by_key(|(t, _)| *t);
        fold_traced_run(&mut fold, seed, &positions, &commands);
    }
    fold.check("grid:5x5+partition", 0xae3a_4721_c657_7d0a);
}

// ---------------------------------------------------------------------
// Harness-level cells: stats + metrics + JSONL.
// ---------------------------------------------------------------------

/// Cell 4: clique under the adaptive max-delay adversary with moves.
#[test]
fn cell_clique_max_delay_adversary() {
    sim_golden::clique_max_delay_adversary();
}

/// Cell 5: ring under message drop + duplication faults with moves.
#[test]
fn cell_ring_loss_and_duplication() {
    sim_golden::ring_loss_and_duplication();
}

/// Cell 6: random deployment with a crash wave and a partition window,
/// under waypoint motion.
#[test]
fn cell_random_crash_wave_and_partition() {
    sim_golden::random_crash_wave_and_partition();
}

// ---------------------------------------------------------------------
// World-level fuzz: `relocate` against the unit-disk rule itself.
// ---------------------------------------------------------------------

/// The whole adjacency, recomputed from scratch in O(n²).
fn unit_disk(range: f64, positions: &[Position]) -> Vec<Vec<NodeId>> {
    (0..positions.len())
        .map(|i| {
            (0..positions.len())
                .filter(|&j| j != i && positions[i].distance(positions[j]) <= range)
                .map(|j| NodeId(j as u32))
                .collect()
        })
        .collect()
}

/// Random relocations (exact cell-edge/corner landings, negative
/// coordinates) must leave the adjacency equal to the brute-force oracle
/// and report exactly the before/after diff, in ascending peer-id order.
#[test]
fn world_level_relocate_fuzz() {
    const RANGE: f64 = 1.5;
    for seed in SEEDS {
        let n = 24;
        let mut positions: Vec<Position> = topology::random_connected(n, seed)
            .into_iter()
            .map(Position::from)
            .collect();
        let mut world = World::new(RANGE, positions.clone());
        let mut rng = manet_sim::SimRng::seed_from_u64(seed);
        let mut before = unit_disk(RANGE, &positions);
        for step in 0..400 {
            let node = NodeId(rng.gen_range(0..n as u32));
            let dest = if step % 5 == 0 {
                // Land exactly on a cell corner (multiples of the range).
                Position {
                    x: (f64::from(rng.gen_range(0..6u32)) - 2.0) * RANGE,
                    y: (f64::from(rng.gen_range(0..6u32)) - 2.0) * RANGE,
                }
            } else {
                Position {
                    x: rng.gen_f64() * 9.0 - 3.0,
                    y: rng.gen_f64() * 9.0 - 3.0,
                }
            };
            let changes = world.relocate(node, dest);
            positions[node.index()] = dest;
            let after = unit_disk(RANGE, &positions);
            let (was, now) = (&before[node.index()], &after[node.index()]);
            let expected: Vec<LinkChange> = (0..n as u32)
                .map(NodeId)
                .filter_map(|peer| match (was.contains(&peer), now.contains(&peer)) {
                    (false, true) => Some(LinkChange::Up(node, peer)),
                    (true, false) => Some(LinkChange::Down(node, peer)),
                    _ => None,
                })
                .collect();
            assert_eq!(changes, expected, "seed {seed} step {step}: link changes");
            for i in 0..n as u32 {
                assert_eq!(
                    world.neighbors(NodeId(i)),
                    after[i as usize],
                    "seed {seed} step {step}: adjacency of node {i}"
                );
            }
            before = after;
        }
        // The whole point of the grid: on a sparse world it examines far
        // fewer candidates than the n − 1 per step of a full scan.
        let full_scan = 400 * (n as u64 - 1);
        assert!(
            world.candidates_examined() < full_scan / 2,
            "seed {seed}: grid examined {} candidates, a full scan {full_scan}",
            world.candidates_examined()
        );
    }
}
