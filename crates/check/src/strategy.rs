//! Schedule plans and the recording strategy that executes them.
//!
//! Every checker run injects a [`Recorder`] into the engine as its
//! [`Strategy`]. The recorder resolves each *branch point* — a delivery whose
//! legal window `[1, ν]` genuinely matters, i.e. [`DeliveryChoice::forced`]
//! is false — according to the active [`Plan`], and logs the decision as a
//! [`ChoicePoint`]. Forced points always take the earliest delay and are
//! *not* logged or counted, so a recorded schedule indexes exactly the
//! non-forced branch points and replays stably even when prefixes of it are
//! truncated or edited.
//!
//! Independently of the choice log, the recorder keeps a full
//! [`DeliveryRecord`] log of *every* delivery — forced ones included. The
//! DPOR pass needs it to decide post hoc whether flipping a branch point
//! could have reordered anything observable (another delivery to the same
//! destination arriving inside the flipped window), and lasso detection
//! needs the per-delivery progress digests.

use std::cell::RefCell;
use std::rc::Rc;

use manet_sim::{DeliveryChoice, DigestMode, NodeId, RandomDelays, SimRng, Strategy};

/// One resolved branch point of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Which branch was taken: 0 = earliest, 1 = latest, 2 = interior.
    pub index: u8,
    /// The chosen delay in ticks.
    pub delay: u64,
    /// Engine state digest *before* the choice, present only when the plan
    /// or mode asked for digests. An absolute digest under a DFS plan is
    /// taken only past the plan's prefix, the only branch points a DFS
    /// merge reads; a progress digest (liveness) is taken at every one.
    pub digest: Option<u64>,
}

/// One delivery of a run — forced or not — as observed by the recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The sender.
    pub from: NodeId,
    /// The destination.
    pub to: NodeId,
    /// Send instant in ticks.
    pub now: u64,
    /// Smallest legal delay.
    pub earliest: u64,
    /// Largest legal delay (ν).
    pub latest: u64,
    /// The delay actually taken.
    pub delay: u64,
    /// Whether the point was forced (never logged as a [`ChoicePoint`]).
    pub forced: bool,
    /// Queued events dispatching *at the destination* within the window at
    /// send time ([`DeliveryChoice::pending_dependent_in_window`]).
    pub dependent: usize,
    /// Index into the choice log for non-forced points.
    pub choice: Option<usize>,
    /// Engine digest before the choice, when a digest mode was active.
    pub digest: Option<u64>,
}

/// How to resolve the branch points of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Depth-first exploration: follow `prefix` (0 = earliest, 1 = latest)
    /// and default to earliest beyond it. `dedup` additionally asks the
    /// engine for state digests at each branch point past the prefix.
    Dfs {
        /// Branch indices to follow, outermost first.
        prefix: Vec<u8>,
        /// Collect state digests past the prefix for driver-level
        /// deduplication.
        dedup: bool,
    },
    /// Replay recorded delays verbatim (clamped to the legal window);
    /// earliest beyond the end of the list.
    Replay {
        /// Delay per branch point, in encounter order.
        delays: Vec<u64>,
    },
    /// Seeded uniform random walk over the legal windows.
    Random {
        /// Walk seed (independent of the engine seed).
        seed: u64,
    },
    /// PCT-style priority schedule: each node gets a random high/low
    /// priority (high ⇒ earliest delivery, low ⇒ latest), flipped at
    /// `changes` random change points.
    Pct {
        /// Priority/change-point seed.
        seed: u64,
        /// Number of priority change points (the `d − 1` of PCT).
        changes: usize,
    },
}

/// Recorder behavior beyond the plan itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecorderMode {
    /// Digest override: `None` derives the mode from the plan (DFS with
    /// dedup ⇒ [`DigestMode::Absolute`], everything else ⇒ off). Under a
    /// DFS plan an absolute digest is skipped inside the prefix. Liveness
    /// runs pass [`DigestMode::Progress`] so every delivery carries the
    /// cycle-detection digest.
    pub digest: Option<DigestMode>,
    /// Branch at every delivery whose *timing* can matter (certify mode):
    /// only degenerate windows and full FIFO clamps count as forced. The
    /// standard [`DeliveryChoice::forced`] reduction preserves event
    /// *order* but not event *times* — a lone delivery in its window still
    /// arrives up to ν − 1 ticks apart across its legal delays — so exact
    /// worst-case response-time certification must branch on it.
    pub branch_all: bool,
}

enum Mode {
    Dfs { prefix: Vec<u8>, cursor: usize },
    Replay { delays: Vec<u64>, cursor: usize },
    Free(Box<dyn Strategy>),
}

struct Inner {
    mode: Mode,
    digest_mode: DigestMode,
    branch_all: bool,
    log: Vec<ChoicePoint>,
    deliveries: Vec<DeliveryRecord>,
}

/// A cloneable strategy handle: one clone is boxed into the engine, the
/// other stays with the driver to read the recorded [`ChoicePoint`] and
/// [`DeliveryRecord`] logs after the run.
#[derive(Clone)]
pub struct Recorder {
    inner: Rc<RefCell<Inner>>,
}

impl Recorder {
    /// Build a recorder executing `plan` over a model with `n` nodes
    /// (`n` parameterizes the PCT priority table), with default
    /// [`RecorderMode`].
    pub fn new(plan: &Plan, n: usize) -> Recorder {
        Recorder::with_mode(plan, n, RecorderMode::default())
    }

    /// Build a recorder with explicit [`RecorderMode`] overrides.
    pub fn with_mode(plan: &Plan, n: usize, rmode: RecorderMode) -> Recorder {
        let (mode, plan_digest) = match plan {
            Plan::Dfs { prefix, dedup } => (
                Mode::Dfs {
                    prefix: prefix.clone(),
                    cursor: 0,
                },
                if *dedup {
                    DigestMode::Absolute
                } else {
                    DigestMode::Off
                },
            ),
            Plan::Replay { delays } => (
                Mode::Replay {
                    delays: delays.clone(),
                    cursor: 0,
                },
                DigestMode::Off,
            ),
            Plan::Random { seed } => (
                Mode::Free(Box::new(RandomDelays::new(*seed))),
                DigestMode::Off,
            ),
            Plan::Pct { seed, changes } => (
                Mode::Free(Box::new(Pct::new(n, *seed, *changes))),
                DigestMode::Off,
            ),
        };
        Recorder {
            inner: Rc::new(RefCell::new(Inner {
                mode,
                digest_mode: rmode.digest.unwrap_or(plan_digest),
                branch_all: rmode.branch_all,
                log: Vec::new(),
                deliveries: Vec::new(),
            })),
        }
    }

    /// The branch points resolved so far, in encounter order.
    pub fn log(&self) -> Vec<ChoicePoint> {
        self.inner.borrow().log.clone()
    }

    /// Every delivery observed so far — forced ones included — in
    /// encounter order.
    pub fn deliveries(&self) -> Vec<DeliveryRecord> {
        self.inner.borrow().deliveries.clone()
    }
}

fn branch_index(delay: u64, choice: &DeliveryChoice) -> u8 {
    if delay == choice.earliest {
        0
    } else if delay == choice.latest {
        1
    } else {
        2
    }
}

/// Forcedness that preserves delivery *times*, not just order: the window
/// is a single point, or the FIFO floor clamps every legal delay to the
/// same arrival instant.
fn timing_forced(choice: &DeliveryChoice) -> bool {
    choice.earliest == choice.latest
        || choice
            .fifo_floor
            .is_some_and(|f| f >= choice.now + choice.latest)
}

impl Strategy for Recorder {
    fn choose_delay(&mut self, choice: &DeliveryChoice) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let forced = if inner.branch_all {
            timing_forced(choice)
        } else {
            choice.forced()
        };
        let record = |delay: u64, forced: bool, idx: Option<usize>| DeliveryRecord {
            from: choice.from,
            to: choice.to,
            now: choice.now.0,
            earliest: choice.earliest,
            latest: choice.latest,
            delay,
            forced,
            dependent: choice.pending_dependent_in_window,
            choice: idx,
            digest: choice.digest,
        };
        if forced {
            inner.deliveries.push(record(choice.earliest, true, None));
            return choice.earliest;
        }
        let (index, delay) = match &mut inner.mode {
            Mode::Dfs { prefix, cursor } => {
                let idx = prefix.get(*cursor).copied().unwrap_or(0);
                *cursor += 1;
                let d = if idx == 0 {
                    choice.earliest
                } else {
                    choice.latest
                };
                (idx.min(1), d)
            }
            Mode::Replay { delays, cursor } => {
                let d = delays
                    .get(*cursor)
                    .copied()
                    .unwrap_or(choice.earliest)
                    .clamp(choice.earliest, choice.latest);
                *cursor += 1;
                (branch_index(d, choice), d)
            }
            Mode::Free(strategy) => {
                let d = strategy
                    .choose_delay(choice)
                    .clamp(choice.earliest, choice.latest);
                (branch_index(d, choice), d)
            }
        };
        let idx = inner.log.len();
        inner.log.push(ChoicePoint {
            index,
            delay,
            digest: choice.digest,
        });
        inner.deliveries.push(record(delay, false, Some(idx)));
        delay
    }

    fn digest_mode(&self) -> DigestMode {
        let inner = self.inner.borrow();
        match (&inner.mode, inner.digest_mode) {
            // The DFS merges read an absolute digest only past the prefix:
            // the next branch point indexes `cursor`, so none is wanted yet.
            (Mode::Dfs { prefix, cursor }, DigestMode::Absolute) if *cursor < prefix.len() => {
                DigestMode::Off
            }
            (_, mode) => mode,
        }
    }
}

/// Number of branch points over which PCT change points are drawn. Branch
/// points past this index keep the last priority assignment.
const PCT_SPAN: u64 = 200;

/// PCT-style priority scheduler (Burckhardt et al.): nodes with *high*
/// priority get their messages delivered as early as legal, *low* priority
/// as late as legal, and the priority of a random node flips at each of the
/// seeded change points. With `d − 1` change points this samples bug
/// patterns of depth `d` with known probability on bounded runs.
pub struct Pct {
    high: Vec<bool>,
    /// Remaining change points (branch-point indices), largest first so the
    /// next one to fire is at the end.
    change_at: Vec<u64>,
    branch: u64,
    rng: SimRng,
}

impl Pct {
    /// Seeded priority table over `n` nodes with `changes` change points.
    pub fn new(n: usize, seed: u64, changes: usize) -> Pct {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x9C7_C0DE_0BAD_F00D);
        let high = (0..n.max(1)).map(|_| rng.gen_bool(0.5)).collect();
        let mut change_at: Vec<u64> = (0..changes).map(|_| rng.gen_range(0..PCT_SPAN)).collect();
        change_at.sort_unstable_by(|a, b| b.cmp(a));
        Pct {
            high,
            change_at,
            branch: 0,
            rng,
        }
    }
}

impl Strategy for Pct {
    fn choose_delay(&mut self, choice: &DeliveryChoice) -> u64 {
        while self.change_at.last().is_some_and(|&cp| cp <= self.branch) {
            self.change_at.pop();
            let i = self.rng.gen_range(0..self.high.len());
            self.high[i] = !self.high[i];
        }
        self.branch += 1;
        let high = self.high.get(choice.from.index()).copied().unwrap_or(true);
        if high {
            choice.earliest
        } else {
            choice.latest
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use manet_sim::SimTime;

    fn open_choice(earliest: u64, latest: u64) -> DeliveryChoice {
        DeliveryChoice {
            from: NodeId(0),
            to: NodeId(1),
            kind: "msg",
            now: SimTime(5),
            earliest,
            latest,
            pending_in_window: 3,
            pending_dependent_in_window: 2,
            fifo_floor: None,
            digest: Some(42),
        }
    }

    #[test]
    fn forced_points_take_earliest_and_are_not_logged() {
        let rec = Recorder::new(
            &Plan::Dfs {
                prefix: vec![1],
                dedup: false,
            },
            2,
        );
        let mut boxed: Box<dyn Strategy> = Box::new(rec.clone());
        let forced = DeliveryChoice {
            pending_in_window: 0,
            pending_dependent_in_window: 0,
            ..open_choice(1, 10)
        };
        assert_eq!(boxed.choose_delay(&forced), 1);
        assert!(rec.log().is_empty());
        // …but they are in the full delivery log.
        assert_eq!(rec.deliveries().len(), 1);
        assert!(rec.deliveries()[0].forced);
        assert_eq!(rec.deliveries()[0].choice, None);
        // The prefix entry is still unconsumed: the next open point uses it.
        assert_eq!(boxed.choose_delay(&open_choice(1, 10)), 10);
        assert_eq!(rec.log().len(), 1);
        assert_eq!(rec.log()[0].index, 1);
        assert_eq!(rec.deliveries()[1].choice, Some(0));
    }

    #[test]
    fn dfs_defaults_to_earliest_beyond_the_prefix() {
        let rec = Recorder::new(
            &Plan::Dfs {
                prefix: vec![1],
                dedup: false,
            },
            2,
        );
        let mut boxed: Box<dyn Strategy> = Box::new(rec.clone());
        assert_eq!(boxed.choose_delay(&open_choice(1, 10)), 10);
        assert_eq!(boxed.choose_delay(&open_choice(1, 10)), 1);
        assert_eq!(boxed.choose_delay(&open_choice(2, 7)), 2);
        let log = rec.log();
        assert_eq!(
            log.iter().map(|c| c.index).collect::<Vec<_>>(),
            vec![1, 0, 0]
        );
        assert_eq!(log[0].digest, Some(42));
    }

    #[test]
    fn replay_clamps_and_defaults_to_earliest() {
        let rec = Recorder::new(
            &Plan::Replay {
                delays: vec![99, 4],
            },
            2,
        );
        let mut boxed: Box<dyn Strategy> = Box::new(rec.clone());
        assert_eq!(boxed.choose_delay(&open_choice(1, 10)), 10); // clamped down
        assert_eq!(boxed.choose_delay(&open_choice(1, 10)), 4);
        assert_eq!(boxed.choose_delay(&open_choice(1, 10)), 1); // past the end
        assert_eq!(
            rec.log().iter().map(|c| c.delay).collect::<Vec<_>>(),
            vec![10, 4, 1]
        );
    }

    #[test]
    fn digest_mode_follows_plan_unless_overridden() {
        let dfs = Plan::Dfs {
            prefix: vec![],
            dedup: true,
        };
        assert_eq!(
            Recorder::new(&dfs, 2).digest_mode(),
            DigestMode::Absolute,
            "DFS dedup asks for absolute digests"
        );
        assert_eq!(
            Recorder::new(&Plan::Random { seed: 1 }, 2).digest_mode(),
            DigestMode::Off
        );
        let rec = Recorder::with_mode(
            &Plan::Random { seed: 1 },
            2,
            RecorderMode {
                digest: Some(DigestMode::Progress),
                branch_all: false,
            },
        );
        assert_eq!(rec.digest_mode(), DigestMode::Progress);
    }

    #[test]
    fn branch_all_branches_on_order_forced_but_not_timing_forced_points() {
        let rec = Recorder::with_mode(
            &Plan::Dfs {
                prefix: vec![1],
                dedup: false,
            },
            2,
            RecorderMode {
                digest: None,
                branch_all: true,
            },
        );
        let mut boxed: Box<dyn Strategy> = Box::new(rec.clone());
        // Nothing else in the window: order-forced, but the arrival time
        // still spans [6, 15] — certify mode must branch here.
        let lone = DeliveryChoice {
            pending_in_window: 0,
            pending_dependent_in_window: 0,
            ..open_choice(1, 10)
        };
        assert_eq!(boxed.choose_delay(&lone), 10, "prefix flip consumed");
        assert_eq!(rec.log().len(), 1);
        // Degenerate window and full FIFO clamp stay forced: every legal
        // delay yields the same arrival instant.
        assert_eq!(boxed.choose_delay(&open_choice(3, 3)), 3);
        let clamped = DeliveryChoice {
            fifo_floor: Some(SimTime(15)),
            ..open_choice(1, 10)
        };
        assert_eq!(boxed.choose_delay(&clamped), 1);
        assert_eq!(rec.log().len(), 1, "forced points stay unlogged");
        assert_eq!(rec.deliveries().len(), 3);
    }

    #[test]
    fn pct_is_deterministic_per_seed_and_bipolar() {
        for seed in 0..20u64 {
            let mut a = Pct::new(3, seed, 2);
            let mut b = Pct::new(3, seed, 2);
            for i in 0..50u64 {
                let c = DeliveryChoice {
                    from: NodeId((i % 3) as u32),
                    ..open_choice(1, 10)
                };
                let d = a.choose_delay(&c);
                assert_eq!(d, b.choose_delay(&c));
                assert!(d == 1 || d == 10, "PCT must pick an extreme, got {d}");
            }
        }
    }
}
