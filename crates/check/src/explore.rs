//! Schedule-space exploration drivers: exhaustive DFS, random walks, PCT.
//!
//! # Parallel wave exploration
//!
//! The DFS is organized as *waves* over a frontier of schedule prefixes:
//! every wave's membership and order are a pure function of `(spec, cfg)`
//! — never of `jobs` — and the runs of a wave are embarrassingly parallel
//! (each is an independent deterministic simulation). Workers claim runs
//! off a shared atomic counter (work stealing); the *merge* of a wave —
//! deduplication, DPOR pruning, child generation, and picking the first
//! violating run in wave order — is sequential. Verdicts, counts, and the
//! emitted witness are therefore byte-identical at any `--jobs` value.
//! Each worker reduces its run to what the merge reads ([`WaveRun`]), and
//! the merge alone keeps the seen-set of state digests.
//!
//! # Partial-order reduction
//!
//! Beyond the engine's order-preserving `forced()` reduction (a branch
//! point only exists where something else dispatches inside the delay
//! window), the merge prunes *flips* whose effect commutes with the rest
//! of the run: flipping the delay of a delivery to node `d` is skipped
//! iff nothing dependent was pending in its window at choice time
//! ([`crate::strategy::DeliveryRecord::dependent`], which counts items
//! dispatching at `d` plus global items such as commands conservatively)
//! and no recorded delivery of the *whole* run — including ones sent
//! after the choice — arrives at `d` within the window. Deliveries to
//! other nodes commute with ours because node state is touched only when
//! a node's own events dispatch. The window argument for hook-scheduled
//! commands requires `eat ≥ ν` (and `think ≥ ν` in liveness mode):
//! commands scheduled after the choice then land at or beyond the
//! window's end, and one landing exactly on its end cannot reorder (the
//! delivery already carries the smaller queue sequence number). DPOR is
//! disabled automatically when those preconditions fail or an ARQ shim
//! (whose retransmission timers are not in the delivery log) is armed.
//!
//! Residual gap (standard for dynamic reductions of *timed* systems):
//! the pruned flip shifts `d`'s event by up to ν − 1 ticks, which is
//! order-invisible but not time-invisible — e.g. it can slide an eating
//! interval relative to a neighbor's. The property set is predominantly
//! order-sensitive, and `tests/check_dpor.rs` differentially checks
//! verdict equality against the unreduced DFS on every shipped instance
//! family, intact and mutated; the timing-exact `certify` mode never
//! uses DPOR.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::spec::CheckSpec;
use crate::strategy::{ChoicePoint, DeliveryRecord, Plan, RecorderMode};
use crate::verdict::{run_schedule, run_schedule_mode, PropertyViolation, RunVerdict};
use crate::witness::{shrink, Witness};

/// Which exploration strategy to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StrategyKind {
    /// Bounded exhaustive DFS over earliest/latest branch decisions with
    /// state-digest deduplication and DPOR flip pruning.
    #[default]
    Dfs,
    /// Independent seeded random walks over the full delay windows.
    Random,
    /// PCT-style priority schedules, one per seed.
    Pct,
}

impl StrategyKind {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Dfs => "dfs",
            StrategyKind::Random => "random",
            StrategyKind::Pct => "pct",
        }
    }

    /// Parse a CLI name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid spellings.
    pub fn parse(s: &str) -> Result<StrategyKind, String> {
        match s {
            "dfs" => Ok(StrategyKind::Dfs),
            "random" => Ok(StrategyKind::Random),
            "pct" => Ok(StrategyKind::Pct),
            other => Err(format!(
                "unknown strategy '{other}' (expected 'dfs', 'random' or 'pct')"
            )),
        }
    }
}

/// Exploration bounds and options.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Strategy to run.
    pub strategy: StrategyKind,
    /// Maximum number of schedules: the DFS backtracking budget, or the
    /// number of random/PCT walks.
    pub max_schedules: usize,
    /// DFS flips only the first `max_depth` branch points of a run (the
    /// classic preemption/depth bound of stateless model checking).
    pub max_depth: usize,
    /// PCT priority change points per walk.
    pub pct_changes: usize,
    /// Deduplicate DFS subtrees by engine state digest.
    pub dedup: bool,
    /// Prune DFS flips that provably commute with the rest of the run
    /// (see the module docs). Silently inert when the instance does not
    /// satisfy the DPOR preconditions.
    pub dpor: bool,
    /// Worker threads per wave. Wave composition and merge order are
    /// independent of this, so any value yields byte-identical results.
    pub jobs: usize,
    /// Maximum replays spent shrinking a found witness.
    pub shrink_budget: usize,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            strategy: StrategyKind::Dfs,
            max_schedules: 256,
            max_depth: 12,
            pct_changes: 3,
            dedup: true,
            dpor: true,
            jobs: 1,
            shrink_budget: 200,
        }
    }
}

/// The outcome of one exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Schedules actually executed (excluding shrink replays).
    pub schedules: usize,
    /// DFS: the bounded tree was exhausted. Sampling: every requested walk
    /// ran. False when the schedule budget cut exploration short.
    pub complete: bool,
    /// Largest number of branch points seen in any single run.
    pub max_branch_points: usize,
    /// DFS subtrees skipped because their pre-choice state digest was
    /// already explored.
    pub dedup_prunes: usize,
    /// DFS flips skipped by the partial-order reduction.
    pub dpor_prunes: usize,
    /// Replays spent shrinking the witness.
    pub shrink_runs: usize,
    /// The shrunk counterexample, if any schedule violated a property.
    pub witness: Option<Witness>,
}

/// Explore the schedule space of `spec` under `cfg`, stopping at the first
/// violation (which is then shrunk into the returned witness).
pub fn explore(spec: &CheckSpec, cfg: &ExploreConfig) -> Exploration {
    match cfg.strategy {
        StrategyKind::Dfs => dfs(spec, cfg),
        StrategyKind::Random | StrategyKind::Pct => sample(spec, cfg),
    }
}

fn new_exploration() -> Exploration {
    Exploration {
        schedules: 0,
        complete: false,
        max_branch_points: 0,
        dedup_prunes: 0,
        dpor_prunes: 0,
        shrink_runs: 0,
        witness: None,
    }
}

/// Shrink a violating schedule and attach the canonical witness.
fn finish(
    spec: &CheckSpec,
    cfg: &ExploreConfig,
    delays: Vec<u64>,
    violation: &PropertyViolation,
    out: &mut Exploration,
) {
    let (shrunk_spec, shrunk_delays, runs) =
        shrink(spec, delays, &violation.property, cfg.shrink_budget);
    out.shrink_runs = runs;
    // One canonical replay of the shrunk schedule yields the final detail
    // string and trims never-consumed trailing choices.
    let verdict = run_schedule(
        &shrunk_spec,
        &Plan::Replay {
            delays: shrunk_delays.clone(),
        },
    );
    let consumed = shrunk_delays.len().min(verdict.choices.len());
    let final_delays = shrunk_delays[..consumed].to_vec();
    let (property, detail) = match &verdict.violation {
        Some(v) => (v.property.clone(), v.detail.clone()),
        // Shrinking always preserves the violation; keep the original as a
        // defensive fallback.
        None => (violation.property.clone(), violation.detail.clone()),
    };
    out.witness = Some(Witness::new(&shrunk_spec, final_delays, &property, &detail));
}

/// What a wave's merge reads of one run. The worker that ran the schedule
/// reduces its [`RunVerdict`] to this, so a wave never holds a trace.
pub(crate) struct WaveRun {
    pub choices: Vec<ChoicePoint>,
    pub violation: Option<PropertyViolation>,
    pub drained: bool,
    pub first_eat: Vec<Option<u64>>,
    /// The full delivery log, kept only for a DPOR merge (empty otherwise).
    pub deliveries: Vec<DeliveryRecord>,
}

impl WaveRun {
    fn of(verdict: RunVerdict, keep_deliveries: bool) -> WaveRun {
        WaveRun {
            choices: verdict.choices,
            violation: verdict.violation,
            drained: verdict.drained,
            first_eat: verdict.first_eat,
            deliveries: if keep_deliveries {
                verdict.deliveries
            } else {
                Vec::new()
            },
        }
    }
}

/// Run a wave of independent schedules, `jobs` at a time. Workers claim
/// run indices off a shared counter; results land in their slot, so the
/// returned order matches `plans` regardless of completion order.
pub(crate) fn run_wave(
    spec: &CheckSpec,
    plans: &[Plan],
    rmode: RecorderMode,
    jobs: usize,
    keep_deliveries: bool,
) -> Vec<WaveRun> {
    let run = |plan: &Plan| WaveRun::of(run_schedule_mode(spec, plan, rmode), keep_deliveries);
    if jobs <= 1 || plans.len() <= 1 {
        return plans.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<WaveRun>>> = plans.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(plans.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= plans.len() {
                    break;
                }
                let reduced = run(&plans[i]);
                *slots[i].lock().expect("wave slot poisoned") = Some(reduced);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("wave slot poisoned")
                .expect("every claimed slot is filled")
        })
        .collect()
}

/// Whether the DPOR window argument holds for this instance (see the
/// module docs): hook commands must land beyond any delay window, and
/// every timed queue item must be visible in the delivery log.
pub(crate) fn dpor_applicable(spec: &CheckSpec) -> bool {
    spec.arq.is_none() && spec.eat >= spec.nu && (!spec.liveness || spec.think >= spec.nu)
}

/// Whether flipping the branch point recorded as `r` commutes with the
/// rest of the run: no dependent item was pending in its window at choice
/// time, and no other delivery of the run — wherever it was sent —
/// arrives at the same destination within the window.
pub(crate) fn flip_commutes(r: &DeliveryRecord, deliveries: &[DeliveryRecord]) -> bool {
    if r.dependent != 0 {
        return false;
    }
    let lo = r.now + r.earliest;
    let hi = r.now + r.latest;
    !deliveries.iter().any(|o| {
        if o.choice == r.choice {
            return false; // the flipped delivery itself
        }
        let arrive = o.now + o.delay;
        o.to == r.to && arrive >= lo && arrive <= hi
    })
}

/// Stateless DFS over branch decisions, CHESS-style, organized as waves.
///
/// Every run is identified by its prefix of flip decisions; a run's
/// children flip one of its default-earliest branch points (at or beyond
/// the prefix, within the depth bound) to the latest delay. Each
/// earliest/latest schedule of the bounded tree is generated exactly once:
/// a prefix ending in `1` decomposes uniquely as `parent ++ 0^m ++ 1`.
/// State digests prune subtrees already explored from an identical engine
/// state; DPOR prunes flips that provably commute. The merge is the only
/// reader and writer of the seen-set, so a plain growing set serves.
fn dfs(spec: &CheckSpec, cfg: &ExploreConfig) -> Exploration {
    let mut out = new_exploration();
    let mut seen: HashSet<u64> = HashSet::new();
    let dpor_on = cfg.dpor && dpor_applicable(spec);
    let mut frontier: Vec<Vec<u8>> = vec![Vec::new()];
    let mut truncated = false;
    while !frontier.is_empty() {
        let budget = cfg.max_schedules - out.schedules;
        if budget == 0 {
            return out; // budget exhausted: incomplete
        }
        let wave: Vec<Vec<u8>> = if frontier.len() > budget {
            truncated = true;
            frontier.drain(..budget).collect()
        } else {
            std::mem::take(&mut frontier)
        };
        let plans: Vec<Plan> = wave
            .iter()
            .map(|prefix| Plan::Dfs {
                prefix: prefix.clone(),
                dedup: cfg.dedup,
            })
            .collect();
        let verdicts = run_wave(spec, &plans, RecorderMode::default(), cfg.jobs, dpor_on);
        out.schedules += verdicts.len();
        // Sequential merge, in wave order: the first violating run wins
        // deterministically, otherwise children join the next frontier.
        for verdict in &verdicts {
            out.max_branch_points = out.max_branch_points.max(verdict.choices.len());
            if let Some(violation) = &verdict.violation {
                let delays: Vec<u64> = verdict.choices.iter().map(|c| c.delay).collect();
                finish(spec, cfg, delays, violation, &mut out);
                return out;
            }
        }
        for (prefix, verdict) in wave.iter().zip(&verdicts) {
            let limit = verdict.choices.len().min(cfg.max_depth);
            for i in prefix.len()..limit {
                debug_assert_eq!(verdict.choices[i].index, 0, "beyond-prefix default");
                if dpor_on {
                    let record = verdict.deliveries.iter().find(|d| d.choice == Some(i));
                    if record.is_some_and(|r| flip_commutes(r, &verdict.deliveries)) {
                        out.dpor_prunes += 1;
                        continue;
                    }
                }
                if cfg.dedup {
                    if let Some(digest) = verdict.choices[i].digest {
                        if !seen.insert(digest) {
                            out.dedup_prunes += 1;
                            continue;
                        }
                    }
                }
                let mut child: Vec<u8> = verdict.choices[..i].iter().map(|c| c.index).collect();
                child.push(1);
                frontier.push(child);
            }
        }
    }
    out.complete = !truncated;
    out
}

/// Sampling waves have a fixed size so walk membership per wave — and
/// thus the first violating walk, the schedule count, and the witness —
/// never depend on `jobs`.
const SAMPLE_WAVE: usize = 8;

/// Independent walks: one run per derived seed, random or PCT.
fn sample(spec: &CheckSpec, cfg: &ExploreConfig) -> Exploration {
    let mut out = new_exploration();
    let mut walk = 0usize;
    while walk < cfg.max_schedules {
        let wave_len = SAMPLE_WAVE.min(cfg.max_schedules - walk);
        let plans: Vec<Plan> = (walk..walk + wave_len)
            .map(|w| {
                let seed = spec.seed.wrapping_add(w as u64);
                match cfg.strategy {
                    StrategyKind::Random => Plan::Random { seed },
                    StrategyKind::Pct => Plan::Pct {
                        seed,
                        changes: cfg.pct_changes,
                    },
                    StrategyKind::Dfs => unreachable!("sample() only runs sampling strategies"),
                }
            })
            .collect();
        let verdicts = run_wave(spec, &plans, RecorderMode::default(), cfg.jobs, false);
        out.schedules += verdicts.len();
        for verdict in &verdicts {
            out.max_branch_points = out.max_branch_points.max(verdict.choices.len());
            if let Some(violation) = &verdict.violation {
                let delays: Vec<u64> = verdict.choices.iter().map(|c| c.delay).collect();
                finish(spec, cfg, delays, violation, &mut out);
                return out;
            }
        }
        walk += wave_len;
    }
    out.complete = true;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Mutation;
    use crate::witness::replay;
    use harness::AlgKind;

    fn line(n: usize) -> Vec<(u32, u32)> {
        (0..n as u32 - 1).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn strategy_names_round_trip() {
        for k in [StrategyKind::Dfs, StrategyKind::Random, StrategyKind::Pct] {
            assert_eq!(StrategyKind::parse(k.name()).unwrap(), k);
        }
        assert!(StrategyKind::parse("bfs").is_err());
    }

    #[test]
    fn dfs_finds_shrinks_and_replays_the_seeded_bug() {
        let mut spec = CheckSpec::new(AlgKind::A1Greedy, "line:2", 2, line(2));
        spec.mutation = Mutation::NoSdfGuard;
        let result = explore(&spec, &ExploreConfig::default());
        let witness = result.witness.expect("mutation must be found");
        assert_eq!(witness.property, "lme-safety");
        let (_, verdict) = replay(&witness).unwrap();
        let violation = verdict.violation.expect("witness must replay");
        assert_eq!(violation.property, witness.property);
        assert_eq!(violation.detail, witness.detail);
    }

    #[test]
    fn dfs_on_intact_algorithm_reports_no_witness() {
        let spec = CheckSpec::new(AlgKind::A1Greedy, "line:2", 2, line(2));
        let cfg = ExploreConfig {
            max_schedules: 64,
            max_depth: 6,
            ..ExploreConfig::default()
        };
        let result = explore(&spec, &cfg);
        assert!(result.witness.is_none(), "intact A1 must be clean");
        assert!(result.schedules >= 1);
    }

    #[test]
    fn dedup_prunes_without_changing_the_verdict() {
        let spec = CheckSpec::new(AlgKind::A2, "line:2", 2, line(2));
        let base = ExploreConfig {
            max_schedules: 48,
            max_depth: 5,
            ..ExploreConfig::default()
        };
        let with = explore(&spec, &base);
        let without = explore(
            &spec,
            &ExploreConfig {
                dedup: false,
                ..base
            },
        );
        assert!(with.witness.is_none());
        assert!(without.witness.is_none());
        assert!(with.schedules <= without.schedules);
    }

    #[test]
    fn sampling_strategies_find_the_seeded_bug_too() {
        for strategy in [StrategyKind::Random, StrategyKind::Pct] {
            let mut spec = CheckSpec::new(AlgKind::A1Greedy, "line:2", 2, line(2));
            spec.mutation = Mutation::NoSdfGuard;
            let cfg = ExploreConfig {
                strategy,
                max_schedules: 32,
                ..ExploreConfig::default()
            };
            let result = explore(&spec, &cfg);
            assert!(
                result.witness.is_some(),
                "{} should find the mutation",
                strategy.name()
            );
        }
    }

    #[test]
    fn jobs_do_not_change_counts_or_witnesses() {
        for (alg, mutation) in [
            (AlgKind::A1Greedy, Mutation::NoSdfGuard),
            (AlgKind::A2, Mutation::None),
        ] {
            let mut spec = CheckSpec::new(alg, "line:3", 3, line(3));
            spec.mutation = mutation;
            let base = ExploreConfig {
                max_schedules: 64,
                max_depth: 6,
                ..ExploreConfig::default()
            };
            let one = explore(&spec, &base);
            let four = explore(
                &spec,
                &ExploreConfig {
                    jobs: 4,
                    ..base.clone()
                },
            );
            assert_eq!(one.schedules, four.schedules);
            assert_eq!(one.complete, four.complete);
            assert_eq!(one.dedup_prunes, four.dedup_prunes);
            assert_eq!(one.dpor_prunes, four.dpor_prunes);
            assert_eq!(
                one.witness.as_ref().map(Witness::to_json),
                four.witness.as_ref().map(Witness::to_json),
                "{}: witness must be byte-identical across jobs",
                alg.name()
            );
        }
    }

    #[test]
    fn dpor_prunes_flips_without_changing_the_verdict() {
        let spec = CheckSpec::new(AlgKind::A2, "line:3", 3, line(3));
        let base = ExploreConfig {
            max_schedules: 128,
            max_depth: 8,
            dedup: false,
            ..ExploreConfig::default()
        };
        let with = explore(&spec, &base);
        let without = explore(
            &spec,
            &ExploreConfig {
                dpor: false,
                ..base
            },
        );
        assert!(with.witness.is_none());
        assert!(without.witness.is_none());
        assert!(
            with.schedules <= without.schedules,
            "DPOR must not enlarge the schedule space ({} vs {})",
            with.schedules,
            without.schedules
        );
    }
}
