//! Regression gate for the hottest layer of a simulated event, the
//! paper's automata and the engine that hosts them: heap allocations per
//! dispatched event.
//!
//! A counting `#[global_allocator]` (std only) tallies every `alloc`,
//! `alloc_zeroed` and `realloc` made on the calling thread across one
//! whole `run_algorithm` call — set-up, run, hooks and teardown — and the
//! tally is divided by the events the engine dispatched. The count is
//! deterministic (same inputs, same code, same allocations) and does not
//! depend on the machine, so the bound is exact, not a timing threshold.
//!
//! The two runs mirror the benchmark's two simulator workloads at smaller
//! sizes: Algorithm 2 on a static grid, and Algorithm 1 with Linial
//! recoloring on random nodes under waypoint motion. Measured with this
//! file at the commit before automata state moved into one record per
//! neighbour (ordered trees per node, a fresh outbox per event):
//!
//! | run | allocations / event, before | after |
//! |---|---|---|
//! | A2, `grid:20x20`, horizon 6 000 (288 339 events) | 0.980 | 0.120 |
//! | A1-linial, `random:300`, waypoints, horizon 6 000 (742 308 events) | 0.523 | 0.122 |
//!
//! A third cell gates the checker's per-branch-point cost the same way:
//! allocations per `Engine::state_digest` call (37 when digests formatted
//! `Debug` text, 1 since they hash the state).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use harness::{run_algorithm, topology, AlgKind, RunSpec, WaypointPlan};
use local_mutex::Algorithm2;
use manet_sim::{Engine, NodeId, SimConfig, SimTime, World};

/// The bound both runs must meet.
const MAX_ALLOCS_PER_EVENT: f64 = 0.25;

thread_local! {
    /// Allocation calls made by this thread. Const-initialised and without
    /// a destructor, so the allocator can read it without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: never panic inside the allocator, even on a thread
    // that is shutting down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting calls per thread so tests running in
/// parallel do not see each other's allocations.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's layout (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System` (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System` (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `alg` once and assert its allocations per dispatched event are
/// within the bound.
fn assert_within_bound(alg: AlgKind, positions: &[(f64, f64)], horizon: u64, waypoints: bool) {
    let sim = SimConfig {
        seed: 7,
        ..SimConfig::default()
    };
    let n = positions.len();
    let commands = if waypoints {
        WaypointPlan {
            area_side: (n as f64 / 1.6).sqrt(),
            moves: (horizon / 10) as usize,
            window: (horizon / 10, horizon * 9 / 10),
            speed: Some(0.25),
            seed: 7,
        }
        .commands(n)
    } else {
        Vec::new()
    };
    let delta = World::new(
        sim.radio_range,
        positions.iter().map(|&p| p.into()).collect(),
    )
    .max_degree();
    let spec = RunSpec {
        sim,
        horizon,
        delta_bound: Some(delta),
        ..RunSpec::default()
    };
    let before = ALLOCS.with(Cell::get);
    let out = run_algorithm(alg, &spec, positions, &commands);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(out.violations.is_empty() && out.abort.is_none());
    assert!(
        out.total_meals() > 0 && out.events > 10_000,
        "too small to measure"
    );
    let per_event = allocs as f64 / out.events as f64;
    let report = format!(
        "{}: {allocs} allocations / {} events = {per_event:.3}",
        alg.name(),
        out.events
    );
    println!("{report}");
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{report} > {MAX_ALLOCS_PER_EVENT}"
    );
}

#[test]
fn a2_on_a_static_grid_stays_under_the_allocation_bound() {
    assert_within_bound(AlgKind::A2, &topology::grid(20, 20), 6_000, false);
}

#[test]
fn a1_linial_under_waypoint_motion_stays_under_the_allocation_bound() {
    let positions = topology::random_connected(300, 7);
    assert_within_bound(AlgKind::A1Linial, &positions, 6_000, true);
}

/// The checker computes a state digest at every branch point. It hashes
/// the automata and the queued items in place: the one allocation per
/// call is the scratch vector the pending queue is sorted in.
#[test]
fn state_digest_allocates_once_per_call() {
    const CALLS: u64 = 100;
    let edges: Vec<(u32, u32)> = (0..4).map(|i| (i, i + 1)).collect();
    let mut engine: Engine<Algorithm2> =
        Engine::new_graph(SimConfig::default(), 5, &edges, |s| Algorithm2::new(&s));
    for i in 0..5 {
        engine.set_hungry_at(SimTime(1), NodeId(i));
    }
    engine.run_until(SimTime(15));
    assert!(engine.pending_events() > 0, "mid-run: something is queued");
    let before = ALLOCS.with(Cell::get);
    for _ in 0..CALLS {
        std::hint::black_box(engine.state_digest());
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    println!("state_digest: {allocs} allocations / {CALLS} calls");
    assert!(allocs <= CALLS, "{allocs} allocations in {CALLS} calls");
}
