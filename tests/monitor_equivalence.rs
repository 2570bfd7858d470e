//! The incremental safety monitor against the scan it replaced.
//!
//! `harness::SafetyCore` is told what changed and examines only the
//! neighborhoods those changes touched. The monitor it replaced re-scanned
//! every node after every instant (and, in the live replay, after every
//! trace record). That scan is kept here — and only here — as the oracle:
//! on rogue-protocol simulations under churn, crashes, recoveries,
//! partitions and teleports, and on random well-formed live traces, both
//! must log the same violations in the same order, the first one included
//! (the checker reports `violations.first()`).
//!
//! The last test is the machine-independent cost gate: the pairs the core
//! examines are bounded by eating transitions × δ plus link-ups, and do
//! not move when the trace carries ten times the deliveries.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use harness::{topology, SafetyMonitor, Violation, WaypointPlan, Workload};
use lme_net::{LiveEventKind, LiveRecord, LiveTrace};
use local_mutex::Algorithm2;
use manet_sim::{
    Command, Context, DiningState, Engine, Event, Hook, NodeId, Position, Protocol, SimConfig,
    SimRng, SimTime, Sink, TraceKind, View, World,
};

const T: DiningState = DiningState::Thinking;
const H: DiningState = DiningState::Hungry;
const E: DiningState = DiningState::Eating;

// ------------------------------------------------------------- oracle ---

/// The O(n) scan over the whole configuration, deduplicated by the set of
/// distinct `(a, b, session_a, session_b)` keys.
#[derive(Default)]
struct Oracle {
    /// Nodes that crashed while eating: permanent CS occupants.
    crashed_eating: BTreeSet<NodeId>,
    seen: BTreeSet<(NodeId, NodeId, u64, u64)>,
    log: Vec<Violation>,
}

impl Oracle {
    fn crash(&mut self, node: NodeId, was_eating: bool) {
        if was_eating {
            self.crashed_eating.insert(node);
        }
    }

    fn recover(&mut self, node: NodeId) {
        self.crashed_eating.remove(&node);
        self.seen.retain(|&(a, b, _, _)| a != node && b != node);
    }

    fn scan(
        &mut self,
        at: SimTime,
        world: &World,
        eating: impl Fn(NodeId) -> bool,
        session: impl Fn(NodeId) -> u64,
    ) {
        for a in (0..world.len() as u32).map(NodeId) {
            if world.is_crashed(a) || !eating(a) {
                continue;
            }
            for &b in world.neighbors(a) {
                let violates = if world.is_crashed(b) {
                    self.crashed_eating.contains(&b)
                } else {
                    b > a && eating(b)
                };
                if !violates {
                    continue;
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if self.seen.insert((lo, hi, session(lo), session(hi))) {
                    self.log.push(Violation { at, a: lo, b: hi });
                }
            }
        }
    }
}

/// The oracle as an engine hook, exactly as the old monitor was wired.
struct OracleHook(Rc<RefCell<Oracle>>);

impl<M> Hook<M> for OracleHook {
    fn on_crash(&mut self, view: &View<'_>, node: NodeId, _sink: &mut Sink) {
        self.0.borrow_mut().crash(node, view.dining(node) == E);
    }

    fn on_recover(&mut self, _view: &View<'_>, node: NodeId, _sink: &mut Sink) {
        self.0.borrow_mut().recover(node);
    }

    fn on_quantum_end(&mut self, view: &View<'_>, _sink: &mut Sink) {
        self.0.borrow_mut().scan(
            view.time(),
            view.world(),
            |n| view.dining(n) == E,
            |n| view.eating_session(n),
        );
    }
}

/// The old `LiveTrace::check_safety`: one full scan after every record.
fn oracle_check_safety(
    trace: &LiveTrace,
    radio_range: f64,
    positions: &[(f64, f64)],
) -> Vec<Violation> {
    let mut world = World::new(radio_range, positions.iter().map(|&p| p.into()).collect());
    let mut dining = vec![T; world.len()];
    let mut sessions = vec![0u64; world.len()];
    let mut oracle = Oracle::default();
    for r in trace.records() {
        match r.kind {
            LiveEventKind::State {
                node, new, session, ..
            } => {
                dining[node.index()] = new;
                sessions[node.index()] = session;
            }
            LiveEventKind::Crash { node } => {
                oracle.crash(node, dining[node.index()] == E);
                world.crash(node);
            }
            LiveEventKind::Recover { node } => {
                world.recover(node);
                dining[node.index()] = T;
                oracle.recover(node);
            }
            LiveEventKind::Relocate { node, x, y } => {
                let _ = world.relocate(node, (x, y).into());
            }
            _ => {}
        }
        oracle.scan(
            SimTime(r.at_ns),
            &world,
            |n| dining[n.index()] == E,
            |n| sessions[n.index()],
        );
    }
    oracle.log
}

// ---------------------------------------------------------- sim side ---

/// Eats the moment it is hungry, whatever its neighbors do.
struct Rogue(DiningState);

impl Protocol for Rogue {
    type Msg = ();
    fn on_event(&mut self, ev: Event<()>, _ctx: &mut Context<'_, ()>) {
        match ev {
            Event::Hungry => self.0 = E,
            Event::ExitCs => self.0 = T,
            _ => {}
        }
    }
    fn dining_state(&self) -> DiningState {
        self.0
    }
}

/// Both monitors on one engine; returns (incremental log, oracle log).
fn run_both(
    mut engine: Engine<Rogue>,
    workload_seed: Option<u64>,
    horizon: u64,
) -> (Vec<Violation>, Vec<Violation>) {
    let (monitor, log) = SafetyMonitor::new(false);
    let oracle = Rc::new(RefCell::new(Oracle::default()));
    engine.add_hook(Box::new(monitor));
    engine.add_hook(Box::new(OracleHook(oracle.clone())));
    if let Some(seed) = workload_seed {
        engine.add_hook(Box::new(Workload::cyclic(3..=9, 2..=12, seed)));
    }
    engine.run_until(SimTime(horizon));
    let incremental = log.borrow().clone();
    let expected = oracle.borrow().log.clone();
    (incremental, expected)
}

fn assert_same_logs(what: &str, incremental: &[Violation], expected: &[Violation]) {
    assert_eq!(
        incremental.first(),
        expected.first(),
        "{what}: first violation differs"
    );
    assert_eq!(incremental, expected, "{what}: logs differ");
}

#[test]
fn seeded_rogue_runs_log_what_the_full_scan_logs() {
    const N: usize = 24;
    const SIDE: f64 = 6.0;
    const HORIZON: u64 = 600;
    let mut total = 0;
    for seed in 0..10u64 {
        let positions = topology::random_points(N, SIDE, seed ^ 0xA11CE);
        // Odd seeds: every seventh automaton is born eating and, with no
        // state change to hang an exit on, never stops — the seeding and
        // recover-into-eating paths.
        let born_eating = seed % 2 == 1;
        let cfg = SimConfig {
            seed,
            ..SimConfig::default()
        };
        let mut engine = Engine::new(cfg, positions, move |s| {
            Rogue(if born_eating && s.id.0 % 7 == 0 { E } else { T })
        });
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5AFE);
        for i in 0..N as u32 {
            engine.set_hungry_at(SimTime(rng.gen_range(1..=20u64)), NodeId(i));
        }
        // Waypoint churn: smooth motion and teleports.
        for (speed, moves) in [(Some(0.2), 30), (None, 30)] {
            let plan = WaypointPlan {
                area_side: SIDE,
                moves,
                window: (10, HORIZON - 50),
                speed,
                seed: seed ^ moves as u64 ^ u64::from(speed.is_some()),
            };
            for (at, cmd) in plan.commands(N) {
                engine.schedule(at, cmd);
            }
        }
        // Crashes land on eaters and thinkers alike (nodes eat roughly a
        // third of the time); half of the victims come back.
        for k in 0..6u64 {
            let victim = NodeId(rng.gen_range(0..N as u32));
            let at = rng.gen_range(30..=HORIZON - 200);
            engine.schedule(SimTime(at), Command::Crash(victim));
            if k % 2 == 0 {
                let back = at + rng.gen_range(20..=120u64);
                engine.schedule(SimTime(back), Command::Recover(victim));
            }
        }
        // One partition window.
        let at = rng.gen_range(100..=300u64);
        let side = (0..N as u32 / 2).map(NodeId).collect();
        engine.schedule(SimTime(at), Command::Partition { side });
        engine.schedule(SimTime(at + 80), Command::Heal);

        let (incremental, expected) = run_both(engine, Some(seed), HORIZON);
        assert_same_logs(&format!("seed {seed}"), &incremental, &expected);
        total += expected.len();
    }
    assert!(total > 500, "scenarios too tame: {total} violations in all");
}

#[test]
fn teleporting_next_to_a_crashed_eater_is_flagged_like_the_full_scan() {
    // Node 1 crashes mid-meal; node 0 starts a meal out of range, then
    // teleports next to it: the violation appears through a link-up, with
    // no eating transition at that instant.
    let mut engine = Engine::new(
        SimConfig::default(),
        vec![(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)],
        |_| Rogue(T),
    );
    engine.set_hungry_at(SimTime(1), NodeId(1));
    engine.schedule(SimTime(5), Command::Crash(NodeId(1)));
    engine.set_hungry_at(SimTime(10), NodeId(0));
    engine.schedule(
        SimTime(15),
        Command::Teleport {
            node: NodeId(0),
            dest: Position { x: 9.0, y: 0.0 },
        },
    );
    // A thinker crashing next to an eater is benign.
    engine.schedule(SimTime(16), Command::Crash(NodeId(2)));
    engine.schedule(
        SimTime(18),
        Command::Teleport {
            node: NodeId(0),
            dest: Position { x: 19.0, y: 0.0 },
        },
    );
    let (incremental, expected) = run_both(engine, None, 40);
    assert_same_logs("teleport", &incremental, &expected);
    assert_eq!(
        incremental,
        vec![Violation {
            at: SimTime(15),
            a: NodeId(0),
            b: NodeId(1)
        }]
    );
}

#[test]
fn a_clique_of_eaters_is_logged_once_per_pair() {
    // Three always-eating neighbors: pairs (0,1), (0,2), (1,2). A single
    // last-key dedup alternated between them and logged all three again
    // every quantum.
    let mut engine = Engine::new(SimConfig::default(), topology::clique(3), |_| Rogue(E));
    // Give the engine something to do at every instant.
    for t in 1..=50 {
        engine.set_hungry_at(SimTime(t), NodeId(0));
    }
    let (incremental, expected) = run_both(engine, None, 50);
    assert_same_logs("clique", &incremental, &expected);
    let pairs: Vec<_> = incremental.iter().map(|v| (v.a.0, v.b.0)).collect();
    assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
}

// --------------------------------------------------------- live side ---

/// A random well-formed trace: every node's State records chain
/// (`old` is its previous `new`, the session counter steps on entering
/// `Eating`), crashed nodes stay silent until their Recover — nodes record
/// their own crash and recovery, serialized against their state records —
/// and nothing stops two neighbors from eating.
fn random_trace(seed: u64, n: usize, side: f64, len: usize) -> (Vec<(f64, f64)>, LiveTrace) {
    let positions = topology::random_points(n, side, seed);
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7ACE);
    let mut dining = vec![T; n];
    let mut sessions = vec![0u64; n];
    let mut crashed = vec![false; n];
    let mut records = Vec::with_capacity(len);
    while records.len() < len {
        let node = NodeId(rng.gen_range(0..n as u32));
        let i = node.index();
        let kind = match rng.gen_range(0..100u32) {
            0..=54 if !crashed[i] => {
                let old = dining[i];
                let new = match (old, rng.gen_range(0..4u32)) {
                    (DiningState::Thinking, _) => H,
                    (DiningState::Hungry, 0) => T,
                    (DiningState::Hungry, _) => E,
                    (DiningState::Eating, 0) => H, // demoted by mobility
                    (DiningState::Eating, _) => T,
                };
                if new == E {
                    sessions[i] += 1;
                }
                dining[i] = new;
                LiveEventKind::State {
                    node,
                    old,
                    new,
                    session: sessions[i],
                }
            }
            55..=58 if !crashed[i] => {
                crashed[i] = true;
                LiveEventKind::Crash { node }
            }
            55..=64 if crashed[i] => {
                crashed[i] = false;
                dining[i] = T;
                LiveEventKind::Recover { node }
            }
            65..=72 if !crashed[i] => LiveEventKind::Relocate {
                node,
                x: rng.gen_f64() * side,
                y: rng.gen_f64() * side,
            },
            73..=76 => LiveEventKind::LinkUp {
                a: node,
                b: NodeId(rng.gen_range(0..n as u32)),
            },
            77..=80 => LiveEventKind::LinkDown {
                a: node,
                b: NodeId(rng.gen_range(0..n as u32)),
            },
            _ => LiveEventKind::Deliver {
                from: NodeId(rng.gen_range(0..n as u32)),
                to: node,
                seq: records.len() as u64,
                latency_ns: 1_000,
            },
        };
        let order = records.len() as u64;
        records.push(LiveRecord {
            at_ns: order * 1_000,
            order,
            kind,
        });
    }
    (positions, LiveTrace::new(records))
}

#[test]
fn seeded_live_traces_replay_to_what_the_full_scan_finds() {
    let mut total = 0;
    for seed in 0..12u64 {
        let (positions, trace) = random_trace(seed, 16, 5.0, 4_000);
        let incremental = trace.check_safety(1.5, &positions);
        let expected = oracle_check_safety(&trace, 1.5, &positions);
        assert_same_logs(&format!("live seed {seed}"), &incremental, &expected);
        total += expected.len();
    }
    assert!(total > 500, "traces too tame: {total} violations in all");
}

// --------------------------------------------------------- cost gate ---

/// A2 on ring:200 in the simulator, its trace re-cut as live records.
fn ring_trace(n: usize) -> (Vec<(f64, f64)>, Vec<LiveRecord>) {
    let positions = topology::ring(n);
    let cfg = SimConfig {
        seed: 7,
        trace: true,
        ..SimConfig::default()
    };
    let mut engine = Engine::new(cfg, positions.clone(), |seed| Algorithm2::new(&seed));
    engine.add_hook(Box::new(Workload::cyclic(10..=30, 50..=150, 7)));
    for i in 0..n as u32 {
        engine.set_hungry_at(SimTime(1 + u64::from(i % 20)), NodeId(i));
    }
    engine.run_until(SimTime(2_000));
    let mut sessions = vec![0u64; n];
    let mut records = Vec::new();
    for entry in engine.trace() {
        let kind = match entry.kind {
            TraceKind::StateChange(node, old, new) => {
                if new == E {
                    sessions[node.index()] += 1;
                }
                LiveEventKind::State {
                    node,
                    old,
                    new,
                    session: sessions[node.index()],
                }
            }
            TraceKind::Deliver { from, to, seq, .. } => LiveEventKind::Deliver {
                from,
                to,
                seq,
                latency_ns: 0,
            },
            _ => continue,
        };
        let order = records.len() as u64;
        records.push(LiveRecord {
            at_ns: entry.at.0,
            order,
            kind,
        });
    }
    (positions, records)
}

#[test]
fn pairs_examined_track_eating_transitions_not_deliveries() {
    const DELTA: u64 = 2; // a ring
    let (positions, records) = ring_trace(200);
    let entered = records
        .iter()
        .filter(|r| matches!(r.kind, LiveEventKind::State { new: E, .. }))
        .count() as u64;
    let deliveries: Vec<LiveRecord> = records
        .iter()
        .filter(|r| matches!(r.kind, LiveEventKind::Deliver { .. }))
        .cloned()
        .collect();
    assert!(entered > 1_000 && deliveries.len() as u64 > 4 * entered);

    let audit = LiveTrace::new(records.clone()).audit_safety(1.5, &positions);
    assert!(audit.violations.is_empty(), "{:?}", audit.violations);
    assert!(audit.pairs_examined > 0);
    // No link ever comes up on a static ring, so the link-up term is 0.
    assert!(
        audit.pairs_examined <= 2 * entered * DELTA,
        "{} pairs for {entered} eating transitions",
        audit.pairs_examined
    );

    // Ten times the deliveries appended: not one more pair.
    let mut padded = records;
    for _ in 0..10 {
        for d in &deliveries {
            let order = padded.len() as u64;
            padded.push(LiveRecord { order, ..d.clone() });
        }
    }
    let padded = LiveTrace::new(padded).audit_safety(1.5, &positions);
    assert_eq!(padded.pairs_examined, audit.pairs_examined);
    assert!(padded.violations.is_empty());
}
