//! The sweep executor's determinism guarantee (tier-1): the JSON-lines
//! report of a fixed `SweepSpec` is byte-identical for 1 worker vs 4
//! workers, and across repeated runs — worker scheduling must never leak
//! into the output. This is what makes parallel sweeps trustworthy as
//! measurement infrastructure.

use manet_local_mutex::harness::{
    par_map, topology, AlgKind, Mobility, RunSpec, SweepSpec, Topo, WaypointPlan,
};
use manet_local_mutex::sim::NodeId;

fn sweep() -> SweepSpec {
    SweepSpec::new(
        "line6",
        Topo::Geo(topology::line(6)),
        RunSpec {
            horizon: 6_000,
            ..RunSpec::default()
        },
    )
    .kinds([AlgKind::A2, AlgKind::ChandyMisra])
    .seed_range(1, 8)
}

#[test]
fn sweep_jsonl_is_byte_identical_for_jobs_1_vs_4() {
    let serial = sweep().run(1).jsonl();
    let parallel = sweep().run(4).jsonl();
    assert_eq!(serial, parallel);
    // 2 algorithms × 8 seeds, one line per run.
    assert_eq!(serial.lines().count(), 16);
}

#[test]
fn sweep_jsonl_is_byte_identical_across_repeats() {
    let first = sweep().run(4).jsonl();
    let second = sweep().run(4).jsonl();
    assert_eq!(first, second);
}

#[test]
fn aggregate_rows_are_jobs_invariant_too() {
    let a: Vec<String> = sweep()
        .run(1)
        .aggregate()
        .iter()
        .map(|r| r.to_jsonl())
        .collect();
    let b: Vec<String> = sweep()
        .run(4)
        .aggregate()
        .iter()
        .map(|r| r.to_jsonl())
        .collect();
    assert_eq!(a, b);
    assert_eq!(a.len(), 2, "one aggregate row per (label, alg) group");
}

#[test]
fn mobile_probe_sweeps_are_deterministic() {
    // The hardest cell kind: per-cell waypoint mobility plus a mid-CS
    // crash probe. Everything still derives from the cell seed alone.
    let spec = || {
        SweepSpec::new(
            "line9",
            Topo::Geo(topology::line(9)),
            RunSpec {
                horizon: 12_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2])
        .seed_range(3, 5)
        .mobility(Mobility::Waypoints(WaypointPlan {
            area_side: 4.0,
            moves: 6,
            window: (2_000, 10_000),
            speed: Some(0.25),
            seed: 0, // overridden per cell
        }))
        .probe(NodeId(4), 1_000)
    };
    assert_eq!(spec().run(1).jsonl(), spec().run(4).jsonl());
}

#[test]
fn par_map_matches_serial_map_for_any_worker_count() {
    let items: Vec<u64> = (0..53).collect();
    let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
    for jobs in [1, 2, 4, 16] {
        assert_eq!(
            par_map(&items, jobs, |&x| x.wrapping_mul(2654435761)),
            expect,
            "jobs={jobs}"
        );
    }
}
