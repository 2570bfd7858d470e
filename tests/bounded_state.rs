//! Bounded state: a node of every algorithm holds O(δ) words, however long
//! it runs (Daymude–Richa's title property, PAPERS.md, arXiv 2111.09449).
//!
//! A byte-counting `Hasher` sizes each automaton through its derived
//! `Hash`, which covers every field. Each algorithm, default-constructed,
//! runs a recycling workload on a static topology: every node asks to eat
//! every 60 ticks until tick 10³, all of them finish, and the same again
//! until tick 10⁴. After each stretch the network is quiescent, every node
//! thinking, and a node's size after 10⁴ ticks must equal its size after
//! 10³ unless some field grows with run length. (A freshly built node is
//! smaller: a fork's transfer generation is ⊥ until its first transfer,
//! and a doorway keeps whom it last saw outside.) A fixed-width counter
//! whose *value* grows, like that generation, hashes to a fixed number of
//! bytes, so this pins the shape of the state, not the range of its
//! words.
//!
//! The one known growing field is Algorithm 1's `phase_log` with
//! `record_phases` on, which gains an entry per phase change; the last
//! test pins that it grows, until the phase log leaves the automaton.

use std::hash::{Hash, Hasher};

use harness::{topology, AlgKind, Automata};
use local_mutex::Algorithm1;
use manet_sim::{
    DiningState, Engine, Metrics, NodeId, NodeSeed, Protocol, SimConfig, SimTime, Workload,
};

/// The ends of the two busy stretches, and the quiet time after each.
const STRETCHES: [u64; 2] = [1_000, 10_000];
const QUIET: u64 = 2_000;

/// A `Hasher` that counts the bytes written to it.
#[derive(Default)]
struct ByteCount(u64);

impl Hasher for ByteCount {
    fn write(&mut self, bytes: &[u8]) {
        self.0 += bytes.len() as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn hashed_bytes(state: &impl Hash) -> u64 {
    let mut h = ByteCount::default();
    state.hash(&mut h);
    h.finish()
}

/// After each stretch: every node's hashed size, and the meals eaten by
/// then.
type Sizes = [(Vec<u64>, u64); 2];

fn sizes<P, F>(positions: &[(f64, f64)], make: F) -> Sizes
where
    P: Protocol + Hash + 'static,
    F: FnMut(NodeSeed) -> P + 'static,
{
    let n = positions.len() as u32;
    let mut engine = Engine::new(SimConfig::default(), positions.to_vec(), make);
    engine.add_hook(Box::new(Workload::one_shot(20..=20, 0)));
    let (metrics, data) = Metrics::new(positions.len());
    engine.add_hook(Box::new(metrics));
    let measure = |e: &Engine<P>| -> Vec<u64> {
        let thinking = (0..n).all(|i| e.dining_state(NodeId(i)) == DiningState::Thinking);
        assert!(thinking, "not quiescent at {:?}", e.now());
        (0..n)
            .map(|i| hashed_bytes(e.protocol(NodeId(i))))
            .collect()
    };
    let mut start = 1;
    STRETCHES.map(|end| {
        for i in 0..n {
            for t in (start + u64::from(i % 7)..end).step_by(60) {
                engine.set_hungry_at(SimTime(t), NodeId(i));
            }
        }
        start = end + QUIET;
        engine.run_until(SimTime(start));
        (measure(&engine), data.borrow().meals.iter().sum())
    })
}

fn world() -> Vec<(f64, f64)> {
    topology::random_connected(12, 5)
}

fn sizes_of(kind: AlgKind) -> Sizes {
    let positions = world();
    let edges = topology::unit_disk_edges(SimConfig::default().radio_range, &positions);
    match kind.automata(positions.len(), &edges, None, 1) {
        Automata::A1(make) => sizes(&positions, move |s| make(&s)),
        Automata::A2 => sizes(&positions, |s| local_mutex::Algorithm2::new(&s)),
        Automata::ChandyMisra => sizes(&positions, |s| baselines::ChandyMisra::new(&s)),
    }
}

#[test]
fn no_automaton_grows_with_run_length() {
    for kind in AlgKind::extended() {
        let [(early, early_meals), (late, late_meals)] = sizes_of(kind);
        let meals = (early_meals, late_meals);
        assert!(
            meals.0 > 0 && meals.1 > 5 * meals.0,
            "{kind:?}: {meals:?} meals"
        );
        assert_eq!(
            late, early,
            "{kind:?}: hashed bytes per node, 10⁴ vs 10³ ticks"
        );
    }
}

#[test]
fn the_recorded_phase_log_is_the_known_exception() {
    let recording = |s: NodeSeed| {
        let mut node = Algorithm1::greedy(&s);
        node.record_phases = true;
        node
    };
    let [(early, _), (late, _)] = sizes(&world(), recording);
    for (i, (early, late)) in early.iter().zip(&late).enumerate() {
        assert!(late > early, "node {i}: the phase log stopped growing");
    }
}
