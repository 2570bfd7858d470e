//! Running one schedule and judging it against the checked properties.

use std::collections::HashMap;

use baselines::ChandyMisra;
use harness::Automata;
use local_mutex::{Algorithm1, Algorithm2, Phase};
use manet_sim::{
    DigestMode, DiningState, Engine, NodeId, Protocol, SafetyMonitor, SessionFold, SimConfig,
    SimTime, TraceEntry, TraceKind, Violation, Workload,
};

use crate::spec::{CheckSpec, Mutation};
use crate::strategy::{ChoicePoint, DeliveryRecord, Plan, Recorder, RecorderMode};

/// Property names, in the order they are checked (first hit wins).
pub const PROPERTIES: [&str; 5] = [
    "lme-safety",
    "doorway-non-bypass",
    "fork-conservation",
    "eventual-eating",
    "starvation-lasso",
];

/// A property violated by one concrete schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PropertyViolation {
    /// Which property (one of [`PROPERTIES`]).
    pub property: String,
    /// Deterministic human-readable description of the violating state.
    pub detail: String,
}

/// Everything observed about one schedule.
#[derive(Clone, Debug)]
pub struct RunVerdict {
    /// The resolved branch points, in encounter order.
    pub choices: Vec<ChoicePoint>,
    /// The first property violation found, if any.
    pub violation: Option<PropertyViolation>,
    /// The full engine trace of the run.
    pub trace: Vec<TraceEntry>,
    /// Whether the event queue drained before the horizon (quiescence);
    /// the fork-conservation and eventual-eating properties are only
    /// meaningful — and only checked — at quiescence.
    pub drained: bool,
    /// Completed critical sections across all nodes.
    pub meals: u64,
    /// Structured abort raised by the engine (rendered
    /// [`manet_sim::RunAbort`]), if the run stopped abnormally — e.g. a
    /// malformed replay schedule or an exhausted event budget.
    pub abort: Option<String>,
    /// Every delivery of the run — forced ones included — as observed by
    /// the recorder. The DPOR flip-relevance analysis and lasso detection
    /// both consume this log.
    pub deliveries: Vec<DeliveryRecord>,
    /// Per-node time of the first `→ Eating` transition, `None` if the
    /// node never ate. Certification measures response times from here
    /// (hungry commands land at tick 1).
    pub first_eat: Vec<Option<u64>>,
}

/// What the property checks need from a protocol, beyond [`Protocol`].
///
/// A local trait (rather than methods on `Protocol`) keeps the simulator
/// crate free of checker concerns; `None` means "property not applicable".
trait Checkable: Protocol {
    /// Whether this node holds the fork shared with `j`.
    fn fork_with(&self, j: NodeId) -> Option<bool> {
        let _ = j;
        None
    }
    /// The timestamped doorway-phase log, if the protocol records one.
    fn phases(&self) -> Option<&[(SimTime, Phase)]> {
        None
    }
}

impl Checkable for Algorithm1 {
    fn fork_with(&self, j: NodeId) -> Option<bool> {
        Some(self.holds_fork(j))
    }
    fn phases(&self) -> Option<&[(SimTime, Phase)]> {
        self.record_phases.then_some(self.phase_log.as_slice())
    }
}

impl Checkable for Algorithm2 {
    fn fork_with(&self, j: NodeId) -> Option<bool> {
        Some(self.holds_fork(j))
    }
}

impl Checkable for ChandyMisra {
    fn fork_with(&self, j: NodeId) -> Option<bool> {
        Some(self.holds_fork(j))
    }
}

/// Run one schedule of `spec` under `plan` and judge it.
///
/// The run is a pure function of `(spec, plan)`: same inputs, same verdict,
/// byte for byte — this is what makes witnesses replayable.
pub fn run_schedule(spec: &CheckSpec, plan: &Plan) -> RunVerdict {
    run_schedule_mode(spec, plan, RecorderMode::default())
}

/// [`run_schedule`] with explicit recorder overrides: certification passes
/// `branch_all` so delivery *times* (not just orders) are exhausted.
/// Purity holds for the triple `(spec, plan, rmode)`.
pub fn run_schedule_mode(spec: &CheckSpec, plan: &Plan, rmode: RecorderMode) -> RunVerdict {
    let mutate = spec.mutation == Mutation::NoSdfGuard;
    match spec.alg.automata(spec.n, &spec.edges, None, spec.seed) {
        Automata::A1(make) => drive(spec, plan, rmode, move |seed| prep_a1(make(&seed), mutate)),
        Automata::A2 => {
            let unfair = spec.mutation == Mutation::UnfairFork;
            drive(spec, plan, rmode, move |seed| {
                let mut node = Algorithm2::new(&seed);
                if unfair {
                    node.defer_requests_from = Some(NodeId(0));
                }
                node
            })
        }
        Automata::ChandyMisra => drive(spec, plan, rmode, |seed| ChandyMisra::new(&seed)),
    }
}

fn prep_a1(mut node: Algorithm1, mutate: bool) -> Algorithm1 {
    node.record_phases = true;
    node.sdf_guard_enabled = !mutate;
    node
}

fn drive<P, F>(spec: &CheckSpec, plan: &Plan, mut rmode: RecorderMode, factory: F) -> RunVerdict
where
    P: Checkable,
    F: FnMut(manet_sim::NodeSeed) -> P + 'static,
{
    if spec.liveness && rmode.digest.is_none() {
        // Lasso detection needs the progress digest on every delivery.
        rmode.digest = Some(DigestMode::Progress);
    }
    let recorder = Recorder::with_mode(plan, spec.n, rmode);
    let cfg = SimConfig {
        seed: spec.seed,
        max_message_delay: spec.nu,
        max_eating_ticks: spec.eat,
        trace: true,
        arq: spec.arq.clone(),
        ..SimConfig::default()
    };
    let mut engine = Engine::new_graph(cfg, spec.n, &spec.edges, factory);
    engine.set_strategy(Box::new(recorder.clone()));
    let (monitor, violations) = SafetyMonitor::new(false);
    engine.add_hook(Box::new(monitor));
    // Meals of exactly `eat` ticks. In liveness mode a node goes hungry
    // again `think` ticks after each, so runs cycle until the horizon
    // instead of draining, and starvation shows as a *lasso* (a repeated
    // progress state) rather than as a quiescent hungry node.
    let (eat, think) = (spec.eat..=spec.eat, spec.think..=spec.think);
    engine.add_hook(Box::new(if spec.liveness {
        Workload::cyclic(eat, think, spec.seed)
    } else {
        Workload::one_shot(eat, spec.seed)
    }));
    for &h in &spec.hungry {
        engine.set_hungry_at(SimTime(1), NodeId(h));
    }
    engine.run_until(SimTime(spec.horizon));

    let drained = engine.pending_events() == 0;
    let trace = engine.trace().to_vec();
    let mut sessions = SessionFold::new(spec.n);
    let mut first_eat = vec![None; spec.n];
    for t in &trace {
        if let TraceKind::StateChange(node, old, new) = t.kind {
            sessions.state_changed(node, old, new, t.at, false);
            if new == DiningState::Eating {
                first_eat[node.index()].get_or_insert(t.at.0);
            }
        }
    }
    let meals = sessions.meals.iter().sum();
    let deliveries = recorder.deliveries();

    let violation = check_lme(&violations.borrow())
        .or_else(|| check_doorway(&engine, &trace))
        .or_else(|| {
            drained
                .then(|| check_fork_conservation(spec, &engine))
                .flatten()
        })
        .or_else(|| {
            drained
                .then(|| check_eventual_eating(spec, &engine))
                .flatten()
        })
        .or_else(|| {
            spec.liveness
                .then(|| check_starvation_lasso(spec, &trace, &deliveries))
                .flatten()
        });

    let abort = engine.abort().map(|a| a.to_string());

    RunVerdict {
        choices: recorder.log(),
        violation,
        trace,
        drained,
        meals,
        abort,
        deliveries,
        first_eat,
    }
}

/// Local mutual exclusion: no two current neighbors eating simultaneously
/// (delegated to [`SafetyMonitor`], which also handles nodes
/// that crash mid-meal).
fn check_lme(violations: &[Violation]) -> Option<PropertyViolation> {
    violations.first().map(|v| PropertyViolation {
        property: "lme-safety".into(),
        detail: format!("neighbors {} and {} both eating at t={}", v.a, v.b, v.at.0),
    })
}

/// Doorway non-bypass: a node of the Algorithm 1 family may only start
/// eating while behind SD^f (doorway phase `Collecting`). Not applicable
/// (and skipped) for protocols without a phase log.
fn check_doorway<P: Checkable>(
    engine: &Engine<P>,
    trace: &[TraceEntry],
) -> Option<PropertyViolation> {
    for entry in trace {
        let TraceKind::StateChange(node, _, DiningState::Eating) = entry.kind else {
            continue;
        };
        let phases = engine.protocol(node).phases()?;
        let current = phases
            .iter()
            .rev()
            .find(|(at, _)| *at <= entry.at)
            .map(|&(_, p)| p);
        if current != Some(Phase::Collecting) {
            return Some(PropertyViolation {
                property: "doorway-non-bypass".into(),
                detail: format!(
                    "{node} started eating at t={} in doorway phase {:?} (expected Collecting)",
                    entry.at.0, current
                ),
            });
        }
    }
    None
}

/// Fork conservation at quiescence: with no message in flight, the fork of
/// every live link must sit at exactly one endpoint — transfers may neither
/// duplicate nor lose it. Skipped for protocols without fork observability.
fn check_fork_conservation<P: Checkable>(
    spec: &CheckSpec,
    engine: &Engine<P>,
) -> Option<PropertyViolation> {
    let world = engine.world();
    for &(a, b) in &spec.edges {
        let (a, b) = (NodeId(a), NodeId(b));
        if world.is_crashed(a) || world.is_crashed(b) || !world.linked(a, b) {
            continue;
        }
        let at_a = engine.protocol(a).fork_with(b)?;
        let at_b = engine.protocol(b).fork_with(a)?;
        if at_a == at_b {
            let what = if at_a { "duplicated" } else { "lost" };
            return Some(PropertyViolation {
                property: "fork-conservation".into(),
                detail: format!("fork of link {{{a}, {b}}} {what} at quiescence"),
            });
        }
    }
    None
}

/// Eventual eating at quiescence: in these message-driven protocols a
/// hungry live node with no event left in the queue can never make
/// progress again — a starvation witness, not merely a slow run.
fn check_eventual_eating<P: Checkable>(
    spec: &CheckSpec,
    engine: &Engine<P>,
) -> Option<PropertyViolation> {
    for i in 0..spec.n as u32 {
        let node = NodeId(i);
        if engine.world().is_crashed(node) {
            continue;
        }
        if engine.dining_state(node) == DiningState::Hungry {
            return Some(PropertyViolation {
                property: "eventual-eating".into(),
                detail: format!("{node} is hungry at quiescence (deadlocked/starved)"),
            });
        }
    }
    None
}

/// Starvation lasso: the run's *progress digest* (relative queue times,
/// monotone counters excluded) repeated at two delivery points `i < j`
/// while some node was hungry at `i` and never started eating in
/// `(tᵢ, tⱼ]`. Equal digests mean the engine+protocol configurations are
/// identical up to time translation, so the schedule segment between them
/// — delay choices included, since windows are relative — can be repeated
/// forever: a legal infinite execution on which that node starves (Hungry
/// exits only via Eating). Checked only in liveness mode, where every
/// delivery carries the digest; consecutive occurrences of each digest
/// suffice, because a node hungry across `i₁ → i₃` is also hungry across
/// `i₂ → i₃`.
fn check_starvation_lasso(
    spec: &CheckSpec,
    trace: &[TraceEntry],
    deliveries: &[DeliveryRecord],
) -> Option<PropertyViolation> {
    let mut transitions: Vec<Vec<(u64, DiningState)>> = vec![Vec::new(); spec.n];
    for t in trace {
        if let TraceKind::StateChange(node, _, new) = t.kind {
            transitions[node.index()].push((t.at.0, new));
        }
    }
    let state_at = |node: usize, at: u64| -> DiningState {
        transitions[node]
            .iter()
            .rev()
            .find(|&&(t, _)| t <= at)
            .map_or(DiningState::Thinking, |&(_, s)| s)
    };
    let eats_in = |node: usize, lo: u64, hi: u64| -> bool {
        transitions[node]
            .iter()
            .any(|&(t, s)| s == DiningState::Eating && t > lo && t <= hi)
    };
    let mut last_seen: HashMap<u64, u64> = HashMap::new();
    for d in deliveries {
        let Some(digest) = d.digest else { continue };
        if let Some(&prev) = last_seen.get(&digest) {
            if d.now > prev {
                for h in 0..spec.n {
                    if state_at(h, prev) == DiningState::Hungry && !eats_in(h, prev, d.now) {
                        return Some(PropertyViolation {
                            property: "starvation-lasso".into(),
                            detail: format!(
                                "{} hungry across a repeated progress state: t={prev} recurs at \
                                 t={} (period {}), so the schedule can loop forever with {} starving",
                                NodeId(h as u32),
                                d.now,
                                d.now - prev,
                                NodeId(h as u32),
                            ),
                        });
                    }
                }
            }
        }
        last_seen.insert(digest, d.now);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::AlgKind;

    fn line(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32 - 1).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn default_schedule_is_clean_for_every_algorithm() {
        for alg in AlgKind::extended() {
            let spec = CheckSpec::new(alg, "line:3", 3, line(3));
            let v = run_schedule(
                &spec,
                &Plan::Dfs {
                    prefix: vec![],
                    dedup: false,
                },
            );
            assert!(
                v.violation.is_none(),
                "{}: unexpected violation {:?}",
                alg.name(),
                v.violation
            );
            assert!(v.drained, "{}: did not reach quiescence", alg.name());
            assert!(v.meals >= 3, "{}: only {} meals", alg.name(), v.meals);
        }
    }

    #[test]
    fn runs_are_pure_functions_of_spec_and_plan() {
        let spec = CheckSpec::new(AlgKind::A1Greedy, "line:3", 3, line(3));
        let plan = Plan::Random { seed: 11 };
        let a = run_schedule(&spec, &plan);
        let b = run_schedule(&spec, &plan);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.meals, b.meals);
    }

    #[test]
    fn replaying_recorded_delays_reproduces_the_trace() {
        let spec = CheckSpec::new(AlgKind::A2, "line:3", 3, line(3));
        let sampled = run_schedule(&spec, &Plan::Random { seed: 5 });
        let delays: Vec<u64> = sampled.choices.iter().map(|c| c.delay).collect();
        let replayed = run_schedule(&spec, &Plan::Replay { delays });
        assert_eq!(sampled.trace, replayed.trace);
        assert_eq!(sampled.meals, replayed.meals);
    }

    #[test]
    fn sdf_guard_mutation_breaks_lme_under_some_schedule() {
        let mut spec = CheckSpec::new(AlgKind::A1Greedy, "line:2", 2, line(2));
        spec.mutation = Mutation::NoSdfGuard;
        let found = (0..32u64).any(|s| {
            run_schedule(&spec, &Plan::Random { seed: s })
                .violation
                .is_some_and(|v| v.property == "lme-safety")
        });
        assert!(found, "mutated A1 should violate LME under random walks");
    }

    #[test]
    fn dfs_digests_appear_only_when_dedup_is_on() {
        let spec = CheckSpec::new(AlgKind::A1Greedy, "line:3", 3, line(3));
        let with = run_schedule(
            &spec,
            &Plan::Dfs {
                prefix: vec![],
                dedup: true,
            },
        );
        let without = run_schedule(
            &spec,
            &Plan::Dfs {
                prefix: vec![],
                dedup: false,
            },
        );
        assert!(!with.choices.is_empty());
        assert!(with.choices.iter().all(|c| c.digest.is_some()));
        assert!(without.choices.iter().all(|c| c.digest.is_none()));
    }

    /// A DFS run digests exactly the branch points its merge reads: the
    /// ones past its prefix. The count is exact: a complete certify runs
    /// the root plus one child per unpruned flip, and reads one digest per
    /// flip candidate, so it reads `schedules − 1 + dedup_prunes` digests
    /// (199,583 for A2 on `line:5`, where digesting every branch point
    /// computed 658,151).
    #[test]
    fn dfs_digests_only_past_the_prefix() {
        let spec = CheckSpec::new(AlgKind::A2, "line:3", 3, line(3));
        let prefix = vec![0, 1, 0];
        let with = run_schedule(
            &spec,
            &Plan::Dfs {
                prefix: prefix.clone(),
                dedup: true,
            },
        );
        assert!(with.choices[..3].iter().all(|c| c.digest.is_none()));
        assert!(with.choices.len() > 3, "the run branches past its prefix");
        assert!(with.choices[3..].iter().all(|c| c.digest.is_some()));
        let without = run_schedule(
            &spec,
            &Plan::Dfs {
                prefix,
                dedup: false,
            },
        );
        assert!(without.choices.iter().all(|c| c.digest.is_none()));
    }
}
