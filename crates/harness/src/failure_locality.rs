//! Empirical failure-locality probes.
//!
//! Definition 1 of the paper: an algorithm has failure locality `m` if any
//! node with no failures in its `m`-neighborhood makes progress. The probe
//! inverts this into a measurement: crash one node mid-run under a cyclic
//! workload and record *how far from the crash* starving nodes are found.
//! An algorithm with failure locality `m` must show starvation only at
//! hop distance ≤ `m`; the farthest starving node is the empirical
//! locality.

use manet_sim::{
    ChannelConfig, CrashWave, DelayAdversary, FaultPlan, LinkFaults, NodeId, PartitionWindow,
    SimTime,
};

use crate::runner::{run, run_algorithm, AlgKind, RunOutcome, RunSpec};
use crate::topology::Topo;

/// Result of one crash probe.
#[derive(Clone, Debug)]
pub struct FlReport {
    /// Starving nodes with their hop distance from the crashed node
    /// (`None` = disconnected from it).
    pub starving: Vec<(NodeId, Option<usize>)>,
    /// The farthest observed starvation distance — the empirical failure
    /// locality. `Some(0)` can only be the crashed node itself (excluded),
    /// so values start at 1; `None` means nobody starved.
    pub locality: Option<usize>,
    /// The full run outcome, for further inspection.
    pub outcome: RunOutcome,
}

/// Crash `victim` *while it is eating* (first meal at or after `crash_at`)
/// and measure which nodes starve afterwards. Crashing mid-CS is the
/// adversarial fault: the victim provably holds every shared fork, so its
/// neighbors' requests go unanswered and blocking chains get their best
/// chance to form.
///
/// A node "starves" if it has been continuously hungry for the entire
/// second half of the post-crash window. The spec should use a horizon much
/// larger than the crash time plus the algorithm's normal response time.
pub fn crash_probe(
    kind: AlgKind,
    spec: &RunSpec,
    topo: &Topo,
    victim: NodeId,
    crash_at: u64,
) -> FlReport {
    assert!(
        crash_at < spec.horizon,
        "crash_at {} must precede the horizon {}",
        crash_at,
        spec.horizon
    );
    let spec = RunSpec {
        crash_eating: Some((victim, crash_at)),
        ..spec.clone()
    };
    let outcome = run(kind, &spec, topo, &[], None);
    analyze_crash(outcome, victim, crash_at, spec.horizon)
}

/// Post-process a finished run that carried a [`RunSpec::crash_eating`]
/// fault into an [`FlReport`]: find the starving nodes and the farthest
/// starvation distance. Split out of [`crash_probe`] so callers that run
/// the engine themselves (the sweep executor) can reuse the analysis.
pub fn analyze_crash(outcome: RunOutcome, victim: NodeId, crash_at: u64, horizon: u64) -> FlReport {
    let crash_at = outcome.crash_time.map_or(crash_at, |t| t.0);
    // Starvation deadline: hungry since before the midpoint of the
    // post-crash window.
    let deadline = SimTime(crash_at + horizon.saturating_sub(crash_at) / 2);
    let dist = outcome.distances_from(victim);
    let starving: Vec<(NodeId, Option<usize>)> = outcome
        .metrics
        .starving_since(deadline)
        .into_iter()
        .filter(|&node| node != victim && !outcome.crashed.contains(&node))
        .map(|node| (node, dist[node.index()]))
        .collect();
    let locality = starving.iter().filter_map(|&(_, d)| d).max();
    FlReport {
        starving,
        locality,
        outcome,
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

/// A fault class the generalized probe can inject around a victim node.
///
/// `Crash`, `Partition`, and `MaxDelay` are **in-model** faults (the paper
/// assumes reliable FIFO links whose delay is bounded by ν and a link layer
/// that reports failures); `Loss` and `Duplication` violate the link
/// contract and are probed only to measure *graceful degradation*.
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
    /// the *entire run* — no window, no healing partition. Only an ARQ
    /// shim (see `manet_sim::ArqConfig`) can restore liveness under this
    /// class; without it, runs are expected to stall.
    SustainedLoss(f64),
    /// Correlated (bursty) loss on *every* link for the entire run: the
    /// Gilbert–Elliott channel model with its chaos defaults (see
    /// `manet_sim::ChannelConfig::burst_loss_default`). Where
    /// `SustainedLoss` drops frames independently, bursts black a link out
    /// for several consecutive frames — the regime ARQ retransmission
    /// timers find hardest. Not expressible as a [`FaultPlan`]; probes and
    /// the chaos runner arm the channel model instead.
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

    /// Whether the paper's system model admits this fault (reliable FIFO
    /// links rule out loss and duplication).
    pub fn in_model(&self) -> bool {
        !matches!(
            self,
            FaultClass::Loss(_)
                | FaultClass::SustainedLoss(_)
                | FaultClass::BurstLoss
                | FaultClass::Duplication(_)
        )
    }

    /// Build the [`FaultPlan`] that realizes this class against `victim`
    /// over the active window `[start, end)`. `Crash` returns an empty
    /// plan: the probe arms [`RunSpec::crash_eating`] instead, so the
    /// victim dies mid-CS (the worst case) rather than at a fixed time.
    pub fn plan(&self, victim: NodeId, window: (u64, u64)) -> FaultPlan {
        let targets = Some(vec![victim]);
        match *self {
            FaultClass::Crash => FaultPlan::default(),
            // Burst loss lives in the channel model, not the fault plan;
            // callers arm `SimConfig::channel` instead (see `fault_probe`).
            FaultClass::BurstLoss => FaultPlan::default(),
            FaultClass::Recover => FaultPlan {
                crash_waves: vec![CrashWave {
                    at: window.0,
                    nodes: vec![victim],
                }],
                recovers: vec![CrashWave {
                    at: window.1,
                    nodes: vec![victim],
                }],
                ..FaultPlan::default()
            },
            FaultClass::Loss(p) => FaultPlan {
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
            },
            // Sustained loss runs unbounded and gets no healing partition:
            // recovery is the ARQ shim's job, not the fault schedule's.
            FaultClass::SustainedLoss(p) => FaultPlan {
                link: Some(LinkFaults {
                    drop: p,
                    window: None,
                    targets,
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            FaultClass::Duplication(p) => FaultPlan {
                link: Some(LinkFaults {
                    duplicate: p,
                    window: Some(window),
                    targets,
                    ..LinkFaults::default()
                }),
                ..FaultPlan::default()
            },
            FaultClass::Partition => FaultPlan {
                partitions: vec![PartitionWindow {
                    at: window.0,
                    side: vec![victim],
                    heal_after: (window.1 - window.0).max(1),
                }],
                ..FaultPlan::default()
            },
            FaultClass::MaxDelay => FaultPlan {
                max_delay: Some(DelayAdversary {
                    targets: vec![victim],
                    window: Some(window),
                }),
                ..FaultPlan::default()
            },
        }
    }
}

/// Result of one [`fault_probe`]: a baseline run and a faulted run of the
/// same spec, compared per hop distance from the victim.
#[derive(Clone, Debug)]
pub struct FaultProbeReport {
    /// The injected fault class.
    pub class: FaultClass,
    /// When the fault schedule went quiet (faults stop; partitions healed).
    pub quiesced_at: u64,
    /// Mean post-`fault_at` response time by hop distance, fault-free run.
    pub baseline_response: Vec<Option<f64>>,
    /// Mean post-`fault_at` response time by hop distance, faulted run.
    pub faulted_response: Vec<Option<f64>>,
    /// Starvation analysis of the faulted run (starving = continuously
    /// hungry since before the quiescence point).
    pub fl: FlReport,
}

impl FaultProbeReport {
    /// Per-distance degradation: faulted mean response ÷ baseline mean
    /// response (`None` where either run has no samples at that distance).
    pub fn degradation(&self) -> Vec<Option<f64>> {
        let len = self
            .baseline_response
            .len()
            .max(self.faulted_response.len());
        (0..len)
            .map(|d| {
                match (
                    self.baseline_response.get(d).copied().flatten(),
                    self.faulted_response.get(d).copied().flatten(),
                ) {
                    (Some(b), Some(f)) if b > 0.0 => Some(f / b),
                    _ => None,
                }
            })
            .collect()
    }

    /// Graceful-degradation check: every distance bucket strictly beyond
    /// `radius` (with data in both runs) stayed within `factor`× the
    /// baseline mean response, and no node beyond `radius` starved.
    pub fn graceful_beyond(&self, radius: usize, factor: f64) -> bool {
        let slow = self
            .degradation()
            .into_iter()
            .skip(radius + 1)
            .flatten()
            .any(|r| r > factor);
        let starved = self
            .fl
            .starving
            .iter()
            .any(|&(_, d)| d.is_none_or(|d| d > radius));
        !slow && !starved
    }
}

/// Generalized fault probe: run `spec` once fault-free and once with
/// `class` injected around `victim` starting at `fault_at`, and compare.
///
/// The fault window is `[fault_at, midpoint)` where the midpoint splits
/// the post-`fault_at` part of the horizon, so every class (except the
/// crash, which is permanent) has quiesced by `quiesced_at` and the whole
/// second half of the window measures recovery. Starvation is judged
/// against the quiescence point, matching [`analyze_crash`].
pub fn fault_probe(
    kind: AlgKind,
    spec: &RunSpec,
    positions: &[(f64, f64)],
    victim: NodeId,
    class: FaultClass,
    fault_at: u64,
) -> FaultProbeReport {
    assert!(
        fault_at < spec.horizon,
        "fault_at {} must precede the horizon {}",
        fault_at,
        spec.horizon
    );
    let quiesce = fault_at + (spec.horizon - fault_at) / 2;
    let baseline = run_algorithm(kind, spec, positions, &[]);
    let baseline_response = response_by_distance(&baseline, victim, SimTime(fault_at));

    let mut faulted = spec.clone();
    match class {
        FaultClass::Crash => faulted.crash_eating = Some((victim, fault_at)),
        FaultClass::BurstLoss => faulted.sim.channel = ChannelConfig::burst_loss_default(),
        _ => faulted.sim.fault = class.plan(victim, (fault_at, quiesce)),
    }
    let outcome = run_algorithm(kind, &faulted, positions, &[]);
    let faulted_response = response_by_distance(&outcome, victim, SimTime(fault_at));
    let fl = analyze_crash(outcome, victim, fault_at, spec.horizon);
    FaultProbeReport {
        class,
        quiesced_at: quiesce,
        baseline_response,
        faulted_response,
        fl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn a2_starvation_stays_within_two_hops_of_a_crash() {
        let spec = RunSpec {
            horizon: 60_000,
            ..RunSpec::default()
        };
        let positions = topology::line(9);
        let report = crash_probe(AlgKind::A2, &spec, &Topo::Geo(positions), NodeId(4), 2_000);
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
        let spec = RunSpec {
            horizon: 30_000,
            ..RunSpec::default()
        };
        let report = crash_probe(
            AlgKind::A2,
            &spec,
            &Topo::Geo(topology::line(7)),
            NodeId(3),
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
        let spec = RunSpec {
            horizon: 40_000,
            ..RunSpec::default()
        };
        let report = fault_probe(
            AlgKind::A2,
            &spec,
            &topology::line(7),
            NodeId(3),
            FaultClass::Loss(0.5),
            2_000,
        );
        let out = &report.fl.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.faults.msgs_dropped > 0, "loss window never hit");
        // The heal at quiescence re-incarnates the victim's links; nobody
        // stays hungry through the whole recovery half of the run.
        assert!(
            report.fl.starving.is_empty(),
            "starving after quiescence: {:?}",
            report.fl.starving
        );
    }

    #[test]
    fn duplication_probe_is_safe_and_live() {
        let spec = RunSpec {
            horizon: 40_000,
            ..RunSpec::default()
        };
        let report = fault_probe(
            AlgKind::A2,
            &spec,
            &topology::line(7),
            NodeId(3),
            FaultClass::Duplication(1.0),
            2_000,
        );
        let out = &report.fl.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.faults.msgs_duplicated > 0);
        assert!(report.fl.starving.is_empty(), "{:?}", report.fl.starving);
    }

    #[test]
    fn max_delay_adversary_slows_but_never_starves() {
        let spec = RunSpec {
            horizon: 40_000,
            ..RunSpec::default()
        };
        let report = fault_probe(
            AlgKind::A2,
            &spec,
            &topology::line(7),
            NodeId(3),
            FaultClass::MaxDelay,
            2_000,
        );
        let out = &report.fl.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.stats.faults.max_delay_forced > 0);
        // ν is a legal delay: liveness must be untouched.
        assert!(report.fl.starving.is_empty(), "{:?}", report.fl.starving);
    }

    #[test]
    fn partition_probe_heals_and_victim_rejoins() {
        let spec = RunSpec {
            horizon: 40_000,
            ..RunSpec::default()
        };
        let report = fault_probe(
            AlgKind::A2,
            &spec,
            &topology::line(7),
            NodeId(3),
            FaultClass::Partition,
            2_000,
        );
        let out = &report.fl.outcome;
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.stats.faults.partitions, 1);
        assert_eq!(out.stats.faults.heals, 1);
        assert!(report.fl.starving.is_empty(), "{:?}", report.fl.starving);
        // The victim itself eats again after the heal.
        assert!(out.metrics.meals[3] >= 1);
    }

    #[test]
    fn crash_probe_class_matches_the_dedicated_probe() {
        let spec = RunSpec {
            horizon: 30_000,
            ..RunSpec::default()
        };
        let report = fault_probe(
            AlgKind::A2,
            &spec,
            &topology::line(7),
            NodeId(3),
            FaultClass::Crash,
            1_000,
        );
        assert!(report.fl.outcome.crash_time.is_some());
        if let Some(m) = report.fl.locality {
            assert!(m <= 2, "{:?}", report.fl.starving);
        }
        assert!(!FaultClass::Loss(0.1).in_model());
        assert!(!FaultClass::SustainedLoss(0.3).in_model());
        assert!(!FaultClass::BurstLoss.in_model());
        assert!(FaultClass::Partition.in_model());
        assert_eq!(FaultClass::Loss(0.1).label(), "windowed-loss");
        assert_eq!(FaultClass::SustainedLoss(0.3).label(), "sustained-loss");
        assert_eq!(FaultClass::BurstLoss.label(), "burst-loss");
        assert!(FaultClass::SustainedLoss(0.3)
            .plan(NodeId(3), (0, 100))
            .partitions
            .is_empty());
        // Burst loss is channel-armed, not plan-armed.
        assert_eq!(
            FaultClass::BurstLoss.plan(NodeId(3), (0, 100)),
            FaultPlan::default()
        );
    }

    #[test]
    fn probe_without_contention_reports_no_starvation() {
        // Crash an isolated node: nobody else is affected.
        let mut positions = topology::line(3);
        positions.push((100.0, 100.0));
        let spec = RunSpec {
            horizon: 20_000,
            ..RunSpec::default()
        };
        let report = crash_probe(AlgKind::A2, &spec, &Topo::Geo(positions), NodeId(3), 1_000);
        assert_eq!(report.locality, None);
        assert!(report.starving.is_empty());
    }
}
