//! Empirical failure-locality probes, and the one rule for what a fault
//! class does to a run.
//!
//! Definition 1 of the paper: an algorithm has failure locality `m` if any
//! node with no failures in its `m`-neighborhood makes progress. The probe
//! inverts this into a measurement: crash one node mid-run under a cyclic
//! workload and record *how far from the crash* starving nodes are found.
//! An algorithm with failure locality `m` must show starvation only at
//! hop distance ≤ `m`; the farthest starving node is the empirical
//! locality.
//!
//! [`FaultClass::apply`] alone decides what a fault class changes in a
//! [`RunSpec`]: `lme probe`, `lme chaos`, the experiments and the tests all
//! reach a fault through it. A crash probe is a run whose spec crashes a
//! node mid-CS ([`RunSpec::crash_eating`]), and [`starvation`] judges any
//! finished run, probe or not.

use manet_sim::{
    ArqConfig, ChannelConfig, CrashWave, DelayAdversary, FaultPlan, LinkFaults, NodeId,
    PartitionWindow, SimTime,
};

use crate::runner::{run, AlgKind, RunOutcome, RunSpec};
use crate::topology::Topo;

/// Result of one probe: which nodes starved, and how far from the victim.
#[derive(Clone, Debug)]
pub struct FlReport {
    /// Starving nodes with their hop distance from the victim (`None` =
    /// disconnected from it, or a run that crashed no node mid-CS).
    pub starving: Vec<(NodeId, Option<usize>)>,
    /// The farthest observed starvation distance — the empirical failure
    /// locality. `Some(0)` can only be the crashed node itself (excluded),
    /// so values start at 1; `None` means no starving node has a distance.
    pub locality: Option<usize>,
    /// The full run outcome, for further inspection.
    pub outcome: RunOutcome,
}

/// Inject `class` around `victim` at tick `at` (see [`FaultClass::apply`])
/// and measure which nodes starve afterwards.
///
/// The fault window is `[at, quiesce)`, where `quiesce = at + (horizon −
/// at) / 2` splits the rest of the run: every class but the crash, which
/// is permanent, has quiesced by then, and the second half measures
/// recovery. A node other than the victim "starves" if it stays hungry
/// from before `quiesce` to the horizon; under [`FaultClass::Crash`] the
/// window starts when the crash fired. Crashing mid-CS is the adversarial
/// fault: the victim provably holds every shared fork, so its neighbors'
/// requests go unanswered and blocking chains get their best chance to
/// form. The spec should use a horizon much larger than `at` plus the
/// algorithm's normal response time.
pub fn probe(
    kind: AlgKind,
    spec: &RunSpec,
    topo: &Topo,
    victim: NodeId,
    class: FaultClass,
    at: u64,
) -> FlReport {
    assert!(
        at < spec.horizon,
        "fault at {} must precede the horizon {}",
        at,
        spec.horizon
    );
    let quiesce = at + (spec.horizon - at) / 2;
    let mut spec = spec.clone();
    class.apply(&mut spec, victim, (at, quiesce));
    let outcome = run(kind, &spec, topo, &[], None);
    match spec.crash_eating {
        Some(_) => starvation(&spec, outcome),
        None => after_fault(outcome, victim, at, true, spec.horizon),
    }
}

/// The starvation verdict on a finished run of `spec`. A run whose spec
/// crashes a node mid-CS ([`RunSpec::crash_eating`]) is judged as a
/// [`probe`] of [`FaultClass::Crash`], with each starving node's distance
/// from the victim once the crash fired; if the victim never ate, the
/// crash never fired and no node has a distance. In any other run a node
/// starves if it stays hungry through the back half of the horizon, and
/// the locality is `None`.
pub fn starvation(spec: &RunSpec, outcome: RunOutcome) -> FlReport {
    if let Some((victim, at)) = spec.crash_eating {
        let fired = outcome.crash_time;
        let at = fired.map_or(at, |t| t.0);
        return after_fault(outcome, victim, at, fired.is_some(), spec.horizon);
    }
    let starving = outcome.metrics.starving_since(SimTime(spec.horizon / 2));
    FlReport {
        starving: starving.into_iter().map(|node| (node, None)).collect(),
        locality: None,
        outcome,
    }
}

/// The nodes other than `victim` and the crashed that stayed hungry from
/// before the midpoint of the post-fault window `[at, horizon)` to
/// `horizon`, each with its distance from `victim` if the fault `struck`.
fn after_fault(out: RunOutcome, victim: NodeId, at: u64, struck: bool, horizon: u64) -> FlReport {
    let deadline = SimTime(at + horizon.saturating_sub(at) / 2);
    let dist = struck.then(|| out.distances_from(victim));
    let starving: Vec<(NodeId, Option<usize>)> = out
        .metrics
        .starving_since(deadline)
        .into_iter()
        .filter(|&node| node != victim && !out.crashed.contains(&node))
        .map(|node| (node, dist.as_ref().and_then(|d| d[node.index()])))
        .collect();
    let locality = starving.iter().filter_map(|&(_, d)| d).max();
    FlReport {
        starving,
        locality,
        outcome: out,
    }
}

/// Mean post-crash response time of static episodes, bucketed by hop
/// distance from `victim` (index = distance; distance 0 = the victim
/// itself, normally empty). Visualizes the locality gradient: algorithms
/// with small failure locality show elevated latencies only in the first
/// one or two buckets.
pub fn response_by_distance(
    outcome: &RunOutcome,
    victim: NodeId,
    after: SimTime,
) -> Vec<Option<f64>> {
    let dist = outcome.distances_from(victim);
    let max_d = dist.iter().flatten().copied().max().unwrap_or(0);
    let mut sum = vec![0u64; max_d + 1];
    let mut count = vec![0u64; max_d + 1];
    for s in &outcome.metrics.samples {
        if s.moved || s.hungry_at < after {
            continue;
        }
        if let Some(d) = dist[s.node.index()] {
            sum[d] += s.response();
            count[d] += 1;
        }
    }
    sum.into_iter()
        .zip(count)
        .map(|(s, c)| {
            if c == 0 {
                None
            } else {
                Some(s as f64 / c as f64)
            }
        })
        .collect()
}

/// A fault class a probe or the chaos matrix injects around a victim node.
///
/// `Crash`, `Recover`, `Partition` and `MaxDelay` are **in-model** faults
/// (the paper assumes reliable FIFO links whose delay is bounded by ν and a
/// link layer that reports failures); the loss and duplication classes
/// violate the link contract and are probed only to measure *graceful
/// degradation*.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultClass {
    /// Crash the victim mid-eating (the adversarial crash of Definition 1).
    Crash,
    /// Crash the victim at the window start and recover it as a fresh
    /// incarnation at the window end (crash → rejoin handshake).
    Recover,
    /// Drop each message on the victim's links with this probability,
    /// within a bounded window (a partition/heal at the window end
    /// re-incarnates the links, restoring any forks lost in flight).
    Loss(f64),
    /// Drop each message on the victim's links with this probability for
    /// the *entire run* — no window, no healing partition. [`apply`] arms
    /// the ARQ shim (`manet_sim::ArqConfig`), the only thing that can
    /// restore liveness under this class.
    ///
    /// [`apply`]: FaultClass::apply
    SustainedLoss(f64),
    /// Correlated (bursty) loss on *every* link for the entire run: the
    /// Gilbert–Elliott channel model with its chaos defaults. Where
    /// `SustainedLoss` drops frames independently, bursts black a link out
    /// for several consecutive frames — the regime ARQ retransmission
    /// timers find hardest. [`apply`] arms that channel model, not a
    /// [`FaultPlan`], and the ARQ shim.
    ///
    /// [`apply`]: FaultClass::apply
    BurstLoss,
    /// Duplicate each message on the victim's links with this probability.
    Duplication(f64),
    /// Sever every link between the victim and the rest, then heal.
    Partition,
    /// Force every message on the victim's links to the maximum legal
    /// delay ν (the adaptive worst-case delay adversary).
    MaxDelay,
}

impl FaultClass {
    /// Stable label for reports and CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Crash => "crash",
            FaultClass::Recover => "recover",
            FaultClass::Loss(_) => "windowed-loss",
            FaultClass::SustainedLoss(_) => "sustained-loss",
            FaultClass::BurstLoss => "burst-loss",
            FaultClass::Duplication(_) => "windowed-duplication",
            FaultClass::Partition => "partition",
            FaultClass::MaxDelay => "max-delay",
        }
    }

    /// Whether the paper's system model admits this fault: whether a run it
    /// is applied to stays [`RunSpec::in_model`].
    pub fn in_model(&self) -> bool {
        let mut spec = RunSpec::default();
        self.apply(&mut spec, NodeId(0), (0, 1));
        spec.in_model()
    }

    /// Set in `spec` everything this class changes, against `victim` over
    /// the active window `[start, end)`. `Crash` sets
    /// [`RunSpec::crash_eating`] at `start`, so the victim dies mid-CS (the
    /// worst case) rather than at a fixed time; `BurstLoss` sets the
    /// channel model; every other class sets `spec.sim.fault`. The two
    /// whole-run loss classes also arm the ARQ shim.
    pub fn apply(self, spec: &mut RunSpec, victim: NodeId, window: (u64, u64)) {
        let targets = Some(vec![victim]);
        match self {
            FaultClass::Crash => spec.crash_eating = Some((victim, window.0)),
            FaultClass::Recover => {
                spec.sim.fault = FaultPlan {
                    crash_waves: vec![CrashWave {
                        at: window.0,
                        nodes: vec![victim],
                    }],
                    recovers: vec![CrashWave {
                        at: window.1,
                        nodes: vec![victim],
                    }],
                    ..FaultPlan::default()
                }
            }
            FaultClass::Loss(p) => {
                spec.sim.fault = FaultPlan {
                    link: Some(LinkFaults {
                        drop: p,
                        window: Some(window),
                        targets,
                        ..LinkFaults::default()
                    }),
                    // A dropped fork is gone for good on a surviving link
                    // incarnation, so loss probes end with a one-tick
                    // partition/heal of the victim: healing re-derives the
                    // links as fresh incarnations with freshly minted forks.
                    partitions: vec![PartitionWindow {
                        at: window.1,
                        side: vec![victim],
                        heal_after: 1,
                    }],
                    ..FaultPlan::default()
                }
            }
            // Sustained loss runs unbounded and gets no healing partition:
            // recovery is the ARQ shim's job, not the fault schedule's.
            FaultClass::SustainedLoss(p) => {
                spec.sim.fault = FaultPlan {
                    link: Some(LinkFaults {
                        drop: p,
                        window: None,
                        targets,
                        ..LinkFaults::default()
                    }),
                    ..FaultPlan::default()
                };
                spec.sim.arq = Some(ArqConfig::default());
            }
            FaultClass::BurstLoss => {
                spec.sim.channel = ChannelConfig::burst_loss_default();
                spec.sim.arq = Some(ArqConfig::default());
            }
            FaultClass::Duplication(p) => {
                spec.sim.fault = FaultPlan {
                    link: Some(LinkFaults {
                        duplicate: p,
                        window: Some(window),
                        targets,
                        ..LinkFaults::default()
                    }),
                    ..FaultPlan::default()
                }
            }
            FaultClass::Partition => {
                spec.sim.fault = FaultPlan {
                    partitions: vec![PartitionWindow {
                        at: window.0,
                        side: vec![victim],
                        heal_after: (window.1 - window.0).max(1),
                    }],
                    ..FaultPlan::default()
                }
            }
            FaultClass::MaxDelay => {
                spec.sim.fault = FaultPlan {
                    max_delay: Some(DelayAdversary {
                        targets: vec![victim],
                        window: Some(window),
                    }),
                    ..FaultPlan::default()
                }
            }
        }
    }
}

// The in-model rule lives beside the fault classes it judges; `RunSpec`
// itself is defined in `runner`.
impl RunSpec {
    /// Whether a run of this spec stays inside the paper's system model of
    /// reliable links: no frame can be lost or duplicated. A fault plan
    /// whose [`LinkFaults`] drop or duplicate with a probability above 0,
    /// or a Gilbert–Elliott channel, takes the run out of the model. A
    /// safety violation in an in-model run is a bug; out of the model it is
    /// a measurement.
    pub fn in_model(&self) -> bool {
        let link = self.sim.fault.link.as_ref();
        let lossy = link.is_some_and(|l| l.drop > 0.0 || l.duplicate > 0.0);
        !lossy && !matches!(self.sim.channel, ChannelConfig::GilbertElliott { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepCell;
    use crate::topology;

    fn spec(horizon: u64) -> RunSpec {
        RunSpec {
            horizon,
            ..RunSpec::default()
        }
    }

    fn line(n: usize) -> Topo {
        Topo::Geo(topology::line(n))
    }

    #[test]
    fn a2_starvation_stays_within_two_hops_of_a_crash() {
        let crash = FaultClass::Crash;
        let report = probe(
            AlgKind::A2,
            &spec(60_000),
            &line(9),
            NodeId(4),
            crash,
            2_000,
        );
        assert!(report.outcome.violations.is_empty());
        if let Some(m) = report.locality {
            assert!(
                m <= 2,
                "Algorithm 2 must have failure locality 2, saw starvation at distance {m}: {:?}",
                report.starving
            );
        }
        // Nodes far from the crash keep eating.
        assert!(report.outcome.metrics.meals[0] >= 3);
        assert!(report.outcome.metrics.meals[8] >= 3);
    }

    #[test]
    fn response_by_distance_buckets_samples() {
        let crash = FaultClass::Crash;
        let report = probe(
            AlgKind::A2,
            &spec(30_000),
            &line(7),
            NodeId(3),
            crash,
            1_000,
        );
        let curve = response_by_distance(
            &report.outcome,
            NodeId(3),
            report.outcome.crash_time.unwrap_or(SimTime(1_000)),
        );
        // Distance 0 = the crashed node itself: no post-crash samples.
        assert!(curve[0].is_none());
        // Far nodes have samples.
        assert!(curve.last().expect("non-empty").is_some());
    }

    #[test]
    fn loss_probe_recovers_after_quiescence() {
        let loss = FaultClass::Loss(0.5);
        let report = probe(AlgKind::A2, &spec(40_000), &line(7), NodeId(3), loss, 2_000);
        let out = &report.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.faults.msgs_dropped > 0, "loss window never hit");
        // The heal at quiescence re-incarnates the victim's links; nobody
        // stays hungry through the whole recovery half of the run.
        assert!(
            report.starving.is_empty(),
            "starving after quiescence: {:?}",
            report.starving
        );
    }

    #[test]
    fn duplication_probe_is_safe_and_live() {
        let dup = FaultClass::Duplication(1.0);
        let report = probe(AlgKind::A2, &spec(40_000), &line(7), NodeId(3), dup, 2_000);
        let out = &report.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.faults.msgs_duplicated > 0);
        assert!(report.starving.is_empty(), "{:?}", report.starving);
    }

    #[test]
    fn max_delay_adversary_slows_but_never_starves() {
        let delay = FaultClass::MaxDelay;
        let report = probe(
            AlgKind::A2,
            &spec(40_000),
            &line(7),
            NodeId(3),
            delay,
            2_000,
        );
        let out = &report.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.faults.max_delay_forced > 0);
        // ν is a legal delay: liveness must be untouched.
        assert!(report.starving.is_empty(), "{:?}", report.starving);
    }

    #[test]
    fn partition_probe_heals_and_victim_rejoins() {
        let cut = FaultClass::Partition;
        let report = probe(AlgKind::A2, &spec(40_000), &line(7), NodeId(3), cut, 2_000);
        let out = &report.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.stats.faults.partitions, 1);
        assert_eq!(out.stats.faults.heals, 1);
        assert!(report.starving.is_empty(), "{:?}", report.starving);
        // The victim itself eats again after the heal.
        assert!(out.metrics.meals[3] >= 1);
    }

    /// A crash probe is a run whose spec crashes the victim mid-CS: a
    /// [`SweepCell`] carrying the same `crash_eating` reports the same
    /// starvation as the probe.
    #[test]
    fn crash_class_probe_matches_its_sweep_cell() {
        let (victim, at) = (NodeId(3), 1_000);
        let crash = FaultClass::Crash;
        let report = probe(AlgKind::A2, &spec(30_000), &line(7), victim, crash, at);
        assert!(report.outcome.crash_time.is_some());
        assert!(!report.starving.is_empty(), "the crash starved nobody");
        if let Some(m) = report.locality {
            assert!(m <= 2, "{:?}", report.starving);
        }
        let cell = SweepCell {
            label: "line:7".to_string(),
            kind: AlgKind::A2,
            spec: RunSpec {
                crash_eating: Some((victim, at)),
                ..spec(30_000)
            },
            topo: line(7),
            commands: Vec::new(),
        };
        let run = cell.run();
        assert_eq!(
            (run.starving, run.locality, run.meals),
            (
                report.starving.len(),
                report.locality,
                report.outcome.total_meals()
            )
        );
        assert!(!FaultClass::Loss(0.1).in_model());
        assert!(!FaultClass::SustainedLoss(0.3).in_model());
        assert!(!FaultClass::BurstLoss.in_model());
        assert!(FaultClass::Partition.in_model());
        assert_eq!(FaultClass::Loss(0.1).label(), "windowed-loss");
        assert_eq!(FaultClass::SustainedLoss(0.3).label(), "sustained-loss");
        assert_eq!(FaultClass::BurstLoss.label(), "burst-loss");
    }

    /// The fault rule as a table: which of `crash_eating`, `sim.fault`,
    /// `sim.channel` and `sim.arq` each class sets (every other one stays
    /// at its default), and whether the run stays in the paper's model.
    #[test]
    fn apply_sets_exactly_what_its_class_changes() {
        let (victim, window) = (NodeId(3), (100, 900));
        #[rustfmt::skip]
        let rows = [
            // class                        crash  fault  channel arq    in-model
            (FaultClass::Crash,             true,  false, false,  false, true),
            (FaultClass::Recover,           false, true,  false,  false, true),
            (FaultClass::Loss(0.3),         false, true,  false,  false, false),
            (FaultClass::SustainedLoss(0.3), false, true, false,  true,  false),
            (FaultClass::BurstLoss,         false, false, true,   true,  false),
            (FaultClass::Duplication(0.3),  false, true,  false,  false, false),
            (FaultClass::Partition,         false, true,  false,  false, true),
            (FaultClass::MaxDelay,          false, true,  false,  false, true),
        ];
        for (class, crash, fault, channel, arq, in_model) in rows {
            let mut spec = RunSpec::default();
            class.apply(&mut spec, victim, window);
            let set = (
                spec.crash_eating.is_some(),
                spec.sim.fault != FaultPlan::default(),
                spec.sim.channel != ChannelConfig::default(),
                spec.sim.arq.is_some(),
            );
            assert_eq!(set, (crash, fault, channel, arq), "{}", class.label());
            assert_eq!(spec.in_model(), in_model, "{}", class.label());
            assert_eq!(class.in_model(), in_model, "{}", class.label());
        }
        let mut spec = RunSpec::default();
        FaultClass::Crash.apply(&mut spec, victim, window);
        assert_eq!(spec.crash_eating, Some((victim, 100)));
        FaultClass::BurstLoss.apply(&mut spec, victim, window);
        let burst = matches!(spec.sim.channel, ChannelConfig::GilbertElliott { .. });
        assert!(burst, "{:?}", spec.sim.channel);
        // Sustained loss gets no healing partition; windowed loss does.
        let plan = |class: FaultClass| {
            let mut spec = RunSpec::default();
            class.apply(&mut spec, victim, window);
            spec.sim.fault
        };
        assert!(plan(FaultClass::SustainedLoss(0.3)).partitions.is_empty());
        assert_eq!(plan(FaultClass::Loss(0.3)).partitions[0].at, 900);
    }

    /// A crash that never fired (the victim never ate) struck nobody: its
    /// starving nodes are listed without a distance, and there is no
    /// locality.
    #[test]
    fn a_crash_that_never_fired_has_no_locality() {
        let crash = FaultClass::Crash;
        let report = probe(AlgKind::A2, &spec(19), &line(5), NodeId(2), crash, 0);
        assert_eq!(report.outcome.crash_time, None);
        assert!(!report.starving.is_empty(), "nobody starved");
        let distances: Vec<Option<usize>> = report.starving.iter().map(|&(_, d)| d).collect();
        assert!(
            distances.iter().all(Option::is_none),
            "{:?}",
            report.starving
        );
        assert_eq!(report.locality, None);
    }

    #[test]
    fn probe_without_contention_reports_no_starvation() {
        // Crash an isolated node: nobody else is affected.
        let mut positions = topology::line(3);
        positions.push((100.0, 100.0));
        let report = probe(
            AlgKind::A2,
            &spec(20_000),
            &Topo::Geo(positions),
            NodeId(3),
            FaultClass::Crash,
            1_000,
        );
        assert_eq!(report.locality, None);
        assert!(report.starving.is_empty());
    }
}
