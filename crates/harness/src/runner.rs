//! One-call experiment runner, generic over the algorithm under test.

use std::ops::RangeInclusive;
use std::rc::Rc;
use std::sync::Arc;

use baselines::{choy_singh, ChandyMisra, StaticColoring};
use coloring::LinialSchedule;
use local_mutex::{Algorithm1, Algorithm2};
use manet_sim::{
    Command, CsrAdjacency, Engine, EngineStats, Metrics, MetricsData, NodeId, NodeSeed, Protocol,
    SafetyMonitor, SimConfig, SimRng, SimTime, Strategy, Violation, Workload,
};

use crate::stats::Summary;
use crate::topology::{max_degree, Topo};

/// What to run and for how long.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Engine configuration (seed, ν, τ, radio range…).
    pub sim: SimConfig,
    /// Virtual-time horizon of the run.
    pub horizon: u64,
    /// Eating-time range (must respect τ).
    pub eat: RangeInclusive<u64>,
    /// Think-time range between meals (cyclic workloads).
    pub think: RangeInclusive<u64>,
    /// Whether nodes become hungry again after each meal.
    pub cyclic: bool,
    /// Window `[a, b]` in which each node's first `SetHungry` is sampled.
    pub first_hungry: (u64, u64),
    /// Override for the δ bound handed to the Linial schedule (default:
    /// the initial topology's maximum degree).
    pub delta_bound: Option<usize>,
    /// Panic on the first safety violation instead of recording it.
    pub panic_on_violation: bool,
    /// Crash this node the first time it eats at or after the given time —
    /// the adversarial fault of the failure-locality probes (a node that
    /// crashes mid-CS provably holds every shared fork). `None` = no crash.
    pub crash_eating: Option<(NodeId, u64)>,
}

impl Default for RunSpec {
    fn default() -> RunSpec {
        RunSpec {
            sim: SimConfig::default(),
            horizon: 50_000,
            eat: 10..=30,
            think: 50..=150,
            cyclic: true,
            first_hungry: (1, 20),
            delta_bound: None,
            panic_on_violation: false,
            crash_eating: None,
        }
    }
}

/// Everything an experiment needs from one finished run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Response-time samples, meals, and still-hungry bookkeeping.
    pub metrics: MetricsData,
    /// Safety violations observed (empty for correct algorithms).
    pub violations: Vec<Violation>,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Events processed by the engine.
    pub events: u64,
    /// Full engine counters (deliveries and the two drop classes).
    pub stats: EngineStats,
    /// Final adjacency as an immutable CSR snapshot (sorted rows).
    pub adjacency: CsrAdjacency,
    /// Nodes crashed during the run.
    pub crashed: Vec<NodeId>,
    /// When the [`RunSpec::crash_eating`] fault fired, if it did.
    pub crash_time: Option<SimTime>,
    /// The time the run ended.
    pub end: SimTime,
    /// Why the engine stopped early, if it did (rendered
    /// [`manet_sim::RunAbort`]): the event-budget livelock guard or a
    /// malformed injected schedule. `None` for healthy runs.
    pub abort: Option<String>,
}

impl RunOutcome {
    /// Summary of response times of episodes where the node stayed static
    /// (the paper's Definition 1 regime).
    pub fn static_summary(&self) -> Summary {
        Summary::of(&self.metrics.static_responses())
    }

    /// Summary over *all* episodes, including mobile ones.
    pub fn all_summary(&self) -> Summary {
        Summary::of(&self.metrics.all_responses())
    }

    /// Total completed critical sections.
    pub fn total_meals(&self) -> u64 {
        self.metrics.meals.iter().sum()
    }

    /// Messages per completed critical section.
    pub fn messages_per_meal(&self) -> f64 {
        let meals = self.total_meals();
        if meals == 0 {
            f64::INFINITY
        } else {
            self.messages_sent as f64 / meals as f64
        }
    }

    /// Hop distances from `src` in the final topology (`None` =
    /// unreachable).
    pub fn distances_from(&self, src: NodeId) -> Vec<Option<usize>> {
        let n = self.adjacency.len();
        let mut dist = vec![None; n];
        let mut queue = std::collections::VecDeque::new();
        dist[src.index()] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued implies visited");
            for &v in self.adjacency.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }
}

/// Run `spec` on `topo` with one protocol instance per node, built by
/// `factory`; `setup` may schedule extra commands (crashes, mobility) on
/// the engine before it runs.
pub fn run_protocol<P, F, S>(spec: &RunSpec, topo: &Topo, factory: F, setup: S) -> RunOutcome
where
    P: Protocol,
    F: FnMut(NodeSeed) -> P + 'static,
    S: FnOnce(&mut Engine<P>),
{
    let engine = match topo {
        Topo::Geo(positions) => Engine::new(spec.sim.clone(), positions.clone(), factory),
        Topo::Graph { n, edges } => Engine::new_graph(spec.sim.clone(), *n, edges, factory),
    };
    drive(engine, spec, setup)
}

/// Attach the standard hooks and workload, inject initial hungers, run to
/// the horizon, and collect the outcome.
fn drive<P, S>(mut engine: Engine<P>, spec: &RunSpec, setup: S) -> RunOutcome
where
    P: Protocol,
    S: FnOnce(&mut Engine<P>),
{
    let n = engine.world().len();
    let (metrics, data) = Metrics::new(n);
    engine.add_hook(Box::new(metrics));
    let (monitor, violations) = SafetyMonitor::new(spec.panic_on_violation);
    engine.add_hook(Box::new(monitor));
    let crash_time: Rc<std::cell::RefCell<Option<SimTime>>> =
        Rc::new(std::cell::RefCell::new(None));
    if let Some((victim, not_before)) = spec.crash_eating {
        engine.add_hook(Box::new(CrashWhenEating {
            victim,
            not_before: SimTime(not_before),
            fired: crash_time.clone(),
        }));
    }
    let workload = if spec.cyclic {
        Workload::cyclic(spec.eat.clone(), spec.think.clone(), spec.sim.seed)
    } else {
        Workload::one_shot(spec.eat.clone(), spec.sim.seed)
    };
    engine.add_hook(Box::new(workload));
    let mut rng = SimRng::seed_from_u64(spec.sim.seed ^ 0x4655_4747);
    let (a, b) = spec.first_hungry;
    for i in 0..n as u32 {
        let t = rng.gen_range(a..=b.max(a));
        engine.set_hungry_at(SimTime(t), NodeId(i));
    }
    setup(&mut engine);
    engine.run_until(SimTime(spec.horizon));
    let world = engine.world();
    let adjacency = world.csr_snapshot();
    let crashed = (0..n as u32)
        .map(NodeId)
        .filter(|&i| world.is_crashed(i))
        .collect();
    let metrics = data.borrow().clone();
    let violations = violations.borrow().clone();
    let crash_time = *crash_time.borrow();
    RunOutcome {
        metrics,
        violations,
        messages_sent: engine.stats().messages_sent,
        events: engine.stats().events,
        stats: engine.stats().clone(),
        adjacency,
        crashed,
        crash_time,
        end: engine.now(),
        abort: engine.abort().map(|a| a.to_string()),
    }
}

/// Crashes `victim` the first time it eats at or after `not_before` —
/// mid-critical-section, when it provably holds all its forks.
struct CrashWhenEating {
    victim: NodeId,
    not_before: SimTime,
    fired: Rc<std::cell::RefCell<Option<SimTime>>>,
}

impl<M> manet_sim::Hook<M> for CrashWhenEating {
    fn on_state_change(
        &mut self,
        view: &manet_sim::View<'_>,
        node: NodeId,
        _old: manet_sim::DiningState,
        new: manet_sim::DiningState,
        sink: &mut manet_sim::Sink,
    ) {
        if node == self.victim
            && new == manet_sim::DiningState::Eating
            && view.time() >= self.not_before
            && self.fired.borrow().is_none()
        {
            *self.fired.borrow_mut() = Some(view.time());
            sink.at(view.time() + 1, Command::Crash(self.victim));
        }
    }
}

/// The algorithms the head-to-head experiments compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgKind {
    /// Algorithm 1 with the greedy recoloring procedure (Theorem 16).
    A1Greedy,
    /// Algorithm 1 with the Linial recoloring procedure (Theorem 22).
    A1Linial,
    /// Algorithm 1 with the randomized recoloring procedure (the
    /// Kuhn–Wattenhofer-style extension from the Discussion chapter).
    A1Random,
    /// Algorithm 2, optimal failure locality (Theorems 25–26).
    A2,
    /// Chandy–Misra baseline (failure locality `n`).
    ChandyMisra,
    /// Choy–Singh-style static-color baseline (no recoloring).
    ChoySingh,
}

impl AlgKind {
    /// The five algorithms of the paper's Table 1, in its order.
    pub fn all() -> [AlgKind; 5] {
        [
            AlgKind::ChandyMisra,
            AlgKind::ChoySingh,
            AlgKind::A1Greedy,
            AlgKind::A1Linial,
            AlgKind::A2,
        ]
    }

    /// Every implemented algorithm, including the randomized-recoloring
    /// extension.
    pub fn extended() -> [AlgKind; 6] {
        [
            AlgKind::ChandyMisra,
            AlgKind::ChoySingh,
            AlgKind::A1Greedy,
            AlgKind::A1Linial,
            AlgKind::A1Random,
            AlgKind::A2,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgKind::A1Greedy => "A1-greedy",
            AlgKind::A1Linial => "A1-linial",
            AlgKind::A1Random => "A1-random",
            AlgKind::A2 => "A2",
            AlgKind::ChandyMisra => "chandy-misra",
            AlgKind::ChoySingh => "choy-singh",
        }
    }

    /// Theoretical failure locality, as reported in Table 1 of the paper.
    pub fn paper_failure_locality(self) -> &'static str {
        match self {
            AlgKind::A1Greedy => "n",
            AlgKind::A1Linial => "max(log* n, 4) + 2",
            AlgKind::A1Random => "O(log n) whp",
            AlgKind::A2 => "2",
            AlgKind::ChandyMisra => "n",
            AlgKind::ChoySingh => "4",
        }
    }

    /// Theoretical response time, as reported in Table 1 of the paper.
    pub fn paper_response_time(self) -> &'static str {
        match self {
            AlgKind::A1Greedy => "O((n + δ³)δ)",
            AlgKind::A1Linial => "O((log* n + δ⁴)δ)",
            AlgKind::A1Random => "O((log n + δ³)δ) whp",
            AlgKind::A2 => "O(n²), O(n) static",
            AlgKind::ChandyMisra => "unbounded chains",
            AlgKind::ChoySingh => "O(δ²) (static only)",
        }
    }

    /// The one place an algorithm name becomes automata, for the initial
    /// topology of `n` nodes wired by `edges`. δ is `delta_bound`, else
    /// the topology's maximum degree, and at least 1; `seed` seeds the
    /// randomized recoloring. Whatever the algorithm shares between its
    /// nodes (the Linial schedule, the static coloring) is built here,
    /// once.
    pub fn automata(
        self,
        n: usize,
        edges: &[(u32, u32)],
        delta_bound: Option<usize>,
        seed: u64,
    ) -> Automata {
        let delta = || delta_bound.unwrap_or_else(|| max_degree(n, edges)).max(1) as u64;
        match self {
            AlgKind::A1Greedy => Automata::A1(Arc::new(Algorithm1::greedy)),
            AlgKind::A1Linial => {
                let sched = Arc::new(LinialSchedule::compute(n as u64, delta()));
                Automata::A1(Arc::new(move |s: &NodeSeed| {
                    Algorithm1::linial(s, sched.clone())
                }))
            }
            AlgKind::A1Random => {
                let delta = delta();
                Automata::A1(Arc::new(move |s: &NodeSeed| {
                    Algorithm1::randomized(s, delta, seed)
                }))
            }
            AlgKind::ChoySingh => {
                let coloring = StaticColoring::compute(n, edges.iter().copied());
                Automata::A1(Arc::new(move |s: &NodeSeed| choy_singh(s, &coloring)))
            }
            AlgKind::A2 => Automata::A2,
            AlgKind::ChandyMisra => Automata::ChandyMisra,
        }
    }
}

/// The automata of one algorithm, as [`AlgKind::automata`] builds them.
/// Every host — runner, checker, live runtime — matches these three arms
/// and nothing else.
pub enum Automata {
    /// The Algorithm 1 family: the three recoloring variants and the
    /// Choy–Singh baseline built on it, as one node factory.
    A1(Arc<dyn Fn(&NodeSeed) -> Algorithm1 + Send + Sync>),
    /// Algorithm 2 ([`Algorithm2::new`]).
    A2,
    /// The Chandy–Misra baseline ([`ChandyMisra::new`]).
    ChandyMisra,
}

/// Run `kind` on `topo` under `spec`, after scheduling `commands` (crashes,
/// mobility; explicit graphs reject movement) and installing `strategy`,
/// an injectable delivery-delay [`Strategy`] — the hook through which a
/// recorded live execution is replayed deterministically for conformance
/// checking.
pub fn run(
    kind: AlgKind,
    spec: &RunSpec,
    topo: &Topo,
    commands: &[(SimTime, Command)],
    strategy: Option<Box<dyn Strategy>>,
) -> RunOutcome {
    let automata = kind.automata(
        topo.len(),
        &topo.edges(spec.sim.radio_range),
        spec.delta_bound,
        spec.sim.seed,
    );
    match automata {
        Automata::A1(make) => run_protocol(
            spec,
            topo,
            move |seed| make(&seed),
            |e| install(e, commands, strategy),
        ),
        Automata::A2 => run_protocol(
            spec,
            topo,
            |seed| Algorithm2::new(&seed),
            |e| install(e, commands, strategy),
        ),
        Automata::ChandyMisra => run_protocol(
            spec,
            topo,
            |seed| ChandyMisra::new(&seed),
            |e| install(e, commands, strategy),
        ),
    }
}

/// [`run`] on the unit-disk geometry of `positions`, with no strategy.
pub fn run_algorithm(
    kind: AlgKind,
    spec: &RunSpec,
    positions: &[(f64, f64)],
    commands: &[(SimTime, Command)],
) -> RunOutcome {
    run(kind, spec, &Topo::Geo(positions.to_vec()), commands, None)
}

fn install<P: Protocol>(
    engine: &mut Engine<P>,
    commands: &[(SimTime, Command)],
    strategy: Option<Box<dyn Strategy>>,
) {
    if let Some(s) = strategy {
        engine.set_strategy(s);
    }
    for (at, cmd) in commands {
        engine.schedule(*at, cmd.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn all_algorithms_complete_a_static_line() {
        let spec = RunSpec {
            horizon: 30_000,
            ..RunSpec::default()
        };
        let positions = topology::line(5);
        for kind in AlgKind::all() {
            let out = run_algorithm(kind, &spec, &positions, &[]);
            assert!(out.violations.is_empty(), "{}: unsafe", kind.name());
            assert!(
                out.metrics.meals.iter().all(|&m| m >= 3),
                "{}: starvation on a static line: {:?}",
                kind.name(),
                out.metrics.meals
            );
        }
    }

    #[test]
    fn outcome_distances_use_final_topology() {
        let spec = RunSpec {
            horizon: 2_000,
            ..RunSpec::default()
        };
        let out = run_algorithm(AlgKind::A2, &spec, &topology::line(4), &[]);
        let d = out.distances_from(NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn a_recovered_node_rejoins_the_cycle() {
        let spec = RunSpec {
            horizon: 40_000,
            ..RunSpec::default()
        };
        let victim = NodeId(2);
        let commands = [
            (SimTime(6_000), Command::Crash(victim)),
            (SimTime(20_000), Command::Recover(victim)),
        ];
        let topo = Topo::Geo(topology::ring(6));
        let out = run(AlgKind::A2, &spec, &topo, &commands, None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        let rejoined = out
            .metrics
            .samples
            .iter()
            .filter(|s| s.node == victim && s.hungry_at > SimTime(20_000))
            .count();
        assert!(rejoined > 0, "no meal requested after the recovery");
    }

    #[test]
    fn deterministic_outcomes_per_seed() {
        let spec = RunSpec {
            horizon: 5_000,
            ..RunSpec::default()
        };
        let positions = topology::ring(6);
        let a = run_algorithm(AlgKind::A1Greedy, &spec, &positions, &[]);
        let b = run_algorithm(AlgKind::A1Greedy, &spec, &positions, &[]);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.metrics.samples, b.metrics.samples);
    }
}
