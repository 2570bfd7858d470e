//! Deterministic fault-injection adversary.
//!
//! A [`FaultPlan`] is a *seeded, scripted adversary* layered over the
//! engine: message drop/duplication/delay-skew per link, scripted crash
//! waves, timed network partitions, and an adaptive worst-case delay
//! adversary that always charges the maximum legal delay ν against a
//! target set. Every fault decision is drawn from a dedicated RNG (seeded
//! by [`FaultPlan::seed`], falling back to a salt of the run seed), so
//!
//! * a run with an empty plan consumes *exactly* the same random stream as
//!   a run built before this module existed, and
//! * a run with any plan is replayable byte-for-byte from its seed.
//!
//! Faults injected are counted by kind in [`FaultStats`] (surfaced through
//! `EngineStats::faults`).
//!
//! The plan has two halves. The scripted half (crash waves, recoveries,
//! partition windows) becomes ordinary engine commands when the engine is
//! built. The per-frame half ([`LinkFaults`], [`DelayAdversary`]) is
//! judged in exactly one place, the link layer's adversary
//! (`crate::link`), for every frame on every channel model: the max-delay
//! adversary first, then drop, duplicate and skew, one draw each. The
//! max-delay adversary only ever delays — it raises an arrival to
//! `send + ν` and never pulls one earlier.
//!
//! # Relation to the paper's model
//!
//! The paper assumes reliable FIFO links: *drop* and *duplicate* faults are
//! deliberately **outside** its model and exist to measure how gracefully
//! the algorithms degrade beyond their guarantees. *Crash waves*,
//! *partitions* (expressed as link failures, which the paper's link layer
//! reports) and the *max-delay adversary* (ν is an upper bound, so always
//! charging ν is a legal schedule) stay **inside** the model.

use crate::ids::NodeId;
use crate::time::SimTime;

/// Faults applied per message on matching links.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a message is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a message is delayed beyond its drawn
    /// delay by [`LinkFaults::skew_ticks`].
    pub skew: f64,
    /// Extra delay, in ticks, added to skewed messages (may exceed ν — an
    /// out-of-model fault).
    pub skew_ticks: u64,
    /// How many ticks after the original delivery the duplicate arrives.
    /// `None` = ν (the largest in-model lag). Large lags are the
    /// interesting ones: they let the original be acted on (e.g. a fork
    /// forwarded onward) before its ghost shows up.
    pub dup_lag: Option<u64>,
    /// Restrict faults to sends happening in `[start, end)` (virtual
    /// time). `None` = the whole run.
    pub window: Option<(u64, u64)>,
    /// Periodic burst amplification of all three probabilities.
    pub burst: Option<Burst>,
    /// Only fault links touching one of these nodes. `None` = every link.
    pub targets: Option<Vec<NodeId>>,
}

impl Default for LinkFaults {
    fn default() -> LinkFaults {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            skew: 0.0,
            skew_ticks: 0,
            dup_lag: None,
            window: None,
            burst: None,
            targets: None,
        }
    }
}

impl LinkFaults {
    /// Whether this fault class touches the message `from → to` sent at
    /// `now` (window + target filter; the probabilities still decide).
    pub fn applies(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        in_window(self.window, now)
            && (self.targets.as_ref()).is_none_or(|ts| ts.contains(&from) || ts.contains(&to))
    }

    /// `base` probability amplified by the burst schedule at `now`,
    /// clamped to `[0, 1]`.
    pub fn rate(&self, base: f64, now: SimTime) -> f64 {
        let amplified = match &self.burst {
            Some(b) if now.0 % b.period < b.active => base * b.factor,
            _ => base,
        };
        amplified.clamp(0.0, 1.0)
    }
}

/// A periodic burst window: for `active` out of every `period` ticks, the
/// link fault probabilities are multiplied by `factor`.
#[derive(Clone, Debug, PartialEq)]
pub struct Burst {
    /// Length of one burst cycle in ticks.
    pub period: u64,
    /// Ticks at the start of each cycle during which the burst is active.
    pub active: u64,
    /// Probability multiplier while active (results clamp to `[0, 1]`).
    pub factor: f64,
}

/// The adaptive worst-case delay adversary: every message to or from a
/// target node is charged ν, the maximum legal delay — its arrival becomes
/// at least `send + ν` (a channel delay already past ν is kept; on the
/// shared medium ν is added to the delivery delay). This is a legal
/// schedule of the paper's model — it tests the response-time analysis at
/// its worst case, not robustness beyond the model.
#[derive(Clone, Debug, PartialEq)]
pub struct DelayAdversary {
    /// The nodes whose traffic is slowed (both directions).
    pub targets: Vec<NodeId>,
    /// Restrict the adversary to sends in `[start, end)`. `None` = always.
    pub window: Option<(u64, u64)>,
}

impl DelayAdversary {
    /// Whether the adversary charges ν against the message `from → to`
    /// sent at `now`.
    pub fn applies(&self, from: NodeId, to: NodeId, now: SimTime) -> bool {
        in_window(self.window, now) && (self.targets.contains(&from) || self.targets.contains(&to))
    }
}

/// Whether `now` falls in `[start, end)`; no window means always.
fn in_window(window: Option<(u64, u64)>, now: SimTime) -> bool {
    window.is_none_or(|(start, end)| (start..end).contains(&now.0))
}

/// A scripted simultaneous crash of several nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashWave {
    /// When the wave strikes.
    pub at: u64,
    /// The nodes that crash (already-crashed members are no-ops).
    pub nodes: Vec<NodeId>,
}

/// A timed network partition: at `at`, every link crossing the cut between
/// `side` and the rest of the network is severed; `heal_after` ticks later
/// the cut is lifted and the links that the connectivity rule then implies
/// come back as fresh incarnations.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionWindow {
    /// When the partition starts.
    pub at: u64,
    /// One side of the cut (the "partitioned-off" node set).
    pub side: Vec<NodeId>,
    /// Ticks until the cut heals.
    pub heal_after: u64,
}

/// The full adversary schedule of one run. The default plan is empty:
/// no faults, and no change to the engine's random stream.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG. `0` (the default) derives the
    /// fault seed from the run seed, so distinct run seeds still explore
    /// distinct fault schedules without extra configuration.
    pub seed: u64,
    /// Per-message link faults (drop / duplicate / delay-skew).
    pub link: Option<LinkFaults>,
    /// The adaptive maximum-delay adversary.
    pub max_delay: Option<DelayAdversary>,
    /// Scripted crash waves.
    pub crash_waves: Vec<CrashWave>,
    /// Scripted partition/heal windows.
    pub partitions: Vec<PartitionWindow>,
    /// Scripted recovery waves: at `at`, each named node — if actually
    /// crashed by then — restarts as a fresh incarnation and rejoins
    /// (see `Command::Recover`). Reuses the [`CrashWave`] shape.
    pub recovers: Vec<CrashWave>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.link.is_none()
            && self.max_delay.is_none()
            && self.crash_waves.is_empty()
            && self.partitions.is_empty()
            && self.recovers.is_empty()
    }

    /// The earliest tick from which no more faults are injected: past it
    /// the network is fault-free again (crashed nodes stay crashed). Used
    /// by harness probes to assert post-quiescence progress.
    pub fn quiescence(&self) -> u64 {
        let mut q = 0u64;
        if let Some(lf) = &self.link {
            q = q.max(match lf.window {
                Some((_, end)) => end,
                // An unbounded window never quiesces.
                None if lf.drop > 0.0 || lf.duplicate > 0.0 || lf.skew > 0.0 => u64::MAX,
                None => 0,
            });
        }
        if let Some(da) = &self.max_delay {
            q = q.max(match da.window {
                Some((_, end)) => end,
                None if !da.targets.is_empty() => u64::MAX,
                None => 0,
            });
        }
        for w in &self.crash_waves {
            q = q.max(w.at.saturating_add(1));
        }
        for w in &self.recovers {
            q = q.max(w.at.saturating_add(1));
        }
        for p in &self.partitions {
            q = q.max(p.at.saturating_add(p.heal_after).saturating_add(1));
        }
        q
    }

    /// Validate the plan's invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant.
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        let check_prob = |name: &str, p: f64| -> Result<(), String> {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("fault probability {name} = {p} outside [0, 1]"));
            }
            Ok(())
        };
        let check_node = |ctx: &str, node: NodeId| -> Result<(), String> {
            if node.index() >= n_nodes {
                return Err(format!(
                    "{ctx}: node {} out of range (n = {n_nodes})",
                    node.0
                ));
            }
            Ok(())
        };
        let check_window = |ctx: &str, w: Option<(u64, u64)>| -> Result<(), String> {
            if let Some((start, end)) = w {
                if start >= end {
                    return Err(format!("{ctx}: empty window [{start}, {end})"));
                }
            }
            Ok(())
        };
        if let Some(lf) = &self.link {
            check_prob("link.drop", lf.drop)?;
            check_prob("link.duplicate", lf.duplicate)?;
            check_prob("link.skew", lf.skew)?;
            if lf.skew > 0.0 && lf.skew_ticks == 0 {
                return Err("link.skew > 0 requires skew_ticks ≥ 1".into());
            }
            if lf.dup_lag == Some(0) {
                return Err("link.dup_lag must be ≥ 1 (duplicates arrive strictly later)".into());
            }
            check_window("link faults", lf.window)?;
            if let Some(b) = &lf.burst {
                if b.period == 0 {
                    return Err("burst.period must be ≥ 1".into());
                }
                if b.active > b.period {
                    return Err(format!(
                        "burst.active ({}) exceeds burst.period ({})",
                        b.active, b.period
                    ));
                }
                if b.factor < 0.0 || b.factor.is_nan() {
                    return Err("burst.factor must be ≥ 0".into());
                }
            }
            if let Some(ts) = &lf.targets {
                if ts.is_empty() {
                    return Err("link.targets, when given, must be non-empty".into());
                }
                for &t in ts {
                    check_node("link.targets", t)?;
                }
            }
        }
        if let Some(da) = &self.max_delay {
            if da.targets.is_empty() {
                return Err("max_delay.targets must be non-empty".into());
            }
            check_window("max-delay adversary", da.window)?;
            for &t in &da.targets {
                check_node("max_delay.targets", t)?;
            }
        }
        for (i, w) in self.crash_waves.iter().enumerate() {
            if w.nodes.is_empty() {
                return Err(format!("crash wave #{i} names no nodes"));
            }
            for &t in &w.nodes {
                check_node("crash wave", t)?;
            }
        }
        for (i, w) in self.recovers.iter().enumerate() {
            if w.nodes.is_empty() {
                return Err(format!("recover wave #{i} names no nodes"));
            }
            for &t in &w.nodes {
                check_node("recover wave", t)?;
            }
        }
        for (i, p) in self.partitions.iter().enumerate() {
            if p.side.is_empty() {
                return Err(format!("partition #{i} has an empty side"));
            }
            if p.side.len() >= n_nodes {
                return Err(format!(
                    "partition #{i}: side of {} nodes leaves nothing to cut off (n = {n_nodes})",
                    p.side.len()
                ));
            }
            if p.heal_after == 0 {
                return Err(format!("partition #{i}: heal_after must be ≥ 1"));
            }
            for &t in &p.side {
                check_node("partition side", t)?;
            }
        }
        Ok(())
    }
}

/// Counters of faults actually injected, by kind. Lives inside
/// `EngineStats`. With link faults active the no-fault message ledger
/// generalizes to `sent + msgs_duplicated = delivered + dropped_in_flight
/// + msgs_dropped` (once the queue drains).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the link-fault adversary (counted separately
    /// from the engine's link-race drop classes).
    pub msgs_dropped: u64,
    /// Extra deliveries scheduled by the duplication adversary.
    pub msgs_duplicated: u64,
    /// Messages skewed beyond their drawn delay.
    pub msgs_delayed: u64,
    /// Messages whose delay the adaptive adversary forced to ν.
    pub max_delay_forced: u64,
    /// Crashes injected by scripted crash waves.
    pub crashes_injected: u64,
    /// Partition cuts applied.
    pub partitions: u64,
    /// Partition cuts healed.
    pub heals: u64,
    /// Crashed nodes actually restarted by recovery commands (counted at
    /// execution, unlike `crashes_injected`: a recover addressed to a
    /// live node is a no-op and does not count).
    pub recoveries: u64,
}

impl FaultStats {
    /// Total faults injected across every kind.
    pub fn total(&self) -> u64 {
        self.msgs_dropped
            + self.msgs_duplicated
            + self.msgs_delayed
            + self.max_delay_forced
            + self.crashes_injected
            + self.partitions
            + self.heals
            + self.recoveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        plan.validate(5).unwrap();
        assert_eq!(plan.quiescence(), 0);
    }

    #[test]
    fn rejects_bad_probabilities_and_windows() {
        let mut plan = FaultPlan {
            link: Some(LinkFaults {
                drop: 1.5,
                ..LinkFaults::default()
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate(5).is_err());
        plan.link = Some(LinkFaults {
            skew: 0.5,
            skew_ticks: 0,
            ..LinkFaults::default()
        });
        assert!(plan.validate(5).is_err());
        plan.link = Some(LinkFaults {
            drop: 0.5,
            window: Some((10, 10)),
            ..LinkFaults::default()
        });
        assert!(plan.validate(5).is_err());
    }

    #[test]
    fn rejects_out_of_range_nodes_and_degenerate_partitions() {
        let plan = FaultPlan {
            crash_waves: vec![CrashWave {
                at: 5,
                nodes: vec![NodeId(9)],
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(5).is_err());
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                at: 5,
                side: (0..5).map(NodeId).collect(),
                heal_after: 10,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(5).is_err(), "a cut needs two sides");
        let plan = FaultPlan {
            max_delay: Some(DelayAdversary {
                targets: vec![],
                window: None,
            }),
            ..FaultPlan::default()
        };
        assert!(plan.validate(5).is_err());
    }

    #[test]
    fn window_and_targets_gate_applicability() {
        let lf = LinkFaults {
            drop: 1.0,
            window: Some((10, 20)),
            targets: Some(vec![NodeId(2)]),
            ..LinkFaults::default()
        };
        assert!(lf.applies(NodeId(2), NodeId(3), SimTime(10)));
        assert!(lf.applies(NodeId(3), NodeId(2), SimTime(19)));
        assert!(!lf.applies(NodeId(2), NodeId(3), SimTime(20)), "window end");
        assert!(!lf.applies(NodeId(2), NodeId(3), SimTime(9)), "too early");
        assert!(!lf.applies(NodeId(0), NodeId(1), SimTime(15)), "off-target");
    }

    #[test]
    fn burst_amplifies_and_clamps() {
        let lf = LinkFaults {
            drop: 0.2,
            burst: Some(Burst {
                period: 100,
                active: 10,
                factor: 10.0,
            }),
            ..LinkFaults::default()
        };
        assert_eq!(lf.rate(0.2, SimTime(5)), 1.0, "amplified 2.0 clamps to 1");
        assert_eq!(lf.rate(0.2, SimTime(50)), 0.2, "outside burst");
        assert_eq!(lf.rate(0.05, SimTime(105)), 0.5);
    }

    #[test]
    fn quiescence_covers_every_fault_class() {
        let plan = FaultPlan {
            link: Some(LinkFaults {
                drop: 0.5,
                window: Some((0, 500)),
                ..LinkFaults::default()
            }),
            max_delay: Some(DelayAdversary {
                targets: vec![NodeId(0)],
                window: Some((0, 800)),
            }),
            crash_waves: vec![CrashWave {
                at: 900,
                nodes: vec![NodeId(1)],
            }],
            partitions: vec![PartitionWindow {
                at: 100,
                side: vec![NodeId(2)],
                heal_after: 1_000,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.quiescence(), 1_101);
        let unbounded = FaultPlan {
            link: Some(LinkFaults {
                drop: 0.1,
                ..LinkFaults::default()
            }),
            ..FaultPlan::default()
        };
        assert_eq!(unbounded.quiescence(), u64::MAX);
    }
}
