//! Parallel, deterministic sweep executor.
//!
//! A sweep fans a grid of `(algorithm, seed)` cells over a fixed topology
//! across `std::thread::scope` workers. Each cell is one independent,
//! single-threaded [`Engine`](manet_sim::Engine) run — embarrassingly
//! parallel, zero dependencies. Determinism is by construction:
//!
//! * the cell grid (and therefore the report order) is a pure function of
//!   the [`SweepSpec`], computed before any worker starts;
//! * every cell derives all of its randomness from its own seed;
//! * workers claim cells through an atomic cursor and return `(index,
//!   report)` pairs over a channel; results are slotted back by index,
//!   so the output order never depends on worker scheduling.
//!
//! Hence [`SweepReport::jsonl`] is byte-identical for any `jobs` value and
//! across repeated runs of the same spec.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use manet_sim::{Command, NodeId, SimConfig, SimTime};

use crate::failure_locality::{starvation, FlReport};
use crate::mobility::Mobility;
use crate::report::{RunReport, SweepReport};
use crate::runner::{run, AlgKind, RunSpec};
use crate::topology::Topo;

/// One independent unit of sweep work: an algorithm, a fully-seeded
/// [`RunSpec`], a topology, and optional pre-scheduled commands. A spec
/// with [`RunSpec::crash_eating`] set makes the cell a crash probe.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Group label carried into the report (e.g. the topology name).
    pub label: String,
    /// Algorithm under test.
    pub kind: AlgKind,
    /// Run parameters; `spec.sim.seed` is this cell's seed.
    pub spec: RunSpec,
    /// Topology to run on.
    pub topo: Topo,
    /// Commands (mobility, crashes) scheduled before the run starts.
    pub commands: Vec<(SimTime, Command)>,
}

impl SweepCell {
    /// Execute the cell to completion and report it: the [`report`] of
    /// its [`outcome`].
    ///
    /// [`report`]: SweepCell::report
    /// [`outcome`]: SweepCell::outcome
    pub fn run(&self) -> RunReport {
        self.report(&self.outcome())
    }

    /// Execute the cell to completion, with its [`starvation`] verdict:
    /// plain runs still report starving nodes so fault sweeps can flag
    /// stalls, and crash probes add the locality.
    pub fn outcome(&self) -> FlReport {
        let outcome = run(self.kind, &self.spec, &self.topo, &self.commands, None);
        starvation(&self.spec, outcome)
    }

    /// The record of this cell's finished run `fl`.
    pub fn report(&self, fl: &FlReport) -> RunReport {
        RunReport::from_outcome(
            &self.label,
            self.kind.name(),
            self.spec.sim.seed,
            self.spec.horizon,
            &fl.outcome,
            Some(fl),
        )
    }
}

/// A declarative sweep: `kinds × seeds` cells over one topology.
///
/// Build with [`SweepSpec::new`], chain the setters, then [`run`]
/// (parallel) or [`cells`] (inspect the grid). Cell order — and therefore
/// report and JSONL order — is kind-major, seed-minor.
///
/// [`run`]: SweepSpec::run
/// [`cells`]: SweepSpec::cells
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Group label stamped on every report.
    pub label: String,
    /// Topology shared by all cells.
    pub topo: Topo,
    /// Template run parameters; each cell overrides `sim.seed`.
    pub base: RunSpec,
    /// Algorithms to sweep (grid's major axis).
    pub kinds: Vec<AlgKind>,
    /// Seeds to sweep (grid's minor axis).
    pub seeds: Vec<u64>,
    /// How nodes move; each cell re-seeds the model with its own seed.
    pub mobility: Mobility,
}

impl SweepSpec {
    /// A sweep of `base` over `topo`, initially with no algorithms and the
    /// single seed of `base.sim`.
    pub fn new(label: impl Into<String>, topo: Topo, base: RunSpec) -> SweepSpec {
        SweepSpec {
            label: label.into(),
            seeds: vec![base.sim.seed],
            topo,
            base,
            kinds: Vec::new(),
            mobility: Mobility::Static,
        }
    }

    /// Set the algorithms to sweep.
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = AlgKind>) -> SweepSpec {
        self.kinds = kinds.into_iter().collect();
        self
    }

    /// Set the seeds to sweep.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> SweepSpec {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// `count` consecutive seeds starting at `first`.
    pub fn seed_range(self, first: u64, count: u64) -> SweepSpec {
        self.seeds(first..first + count)
    }

    /// Set how nodes move; the model's RNG is re-seeded from each cell's
    /// seed so every cell gets its own (deterministic) movement schedule.
    pub fn mobility(mut self, mobility: Mobility) -> SweepSpec {
        self.mobility = mobility;
        self
    }

    /// Turn every cell into a crash probe: crash `victim` the first time
    /// it eats at or after `crash_at` ([`RunSpec::crash_eating`]).
    pub fn probe(mut self, victim: NodeId, crash_at: u64) -> SweepSpec {
        self.base.crash_eating = Some((victim, crash_at));
        self
    }

    /// Materialize the cell grid (kind-major, seed-minor) — a pure
    /// function of the spec.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.kinds.len() * self.seeds.len());
        for &kind in &self.kinds {
            for &seed in &self.seeds {
                let spec = RunSpec {
                    sim: SimConfig {
                        seed,
                        ..self.base.sim.clone()
                    },
                    ..self.base.clone()
                };
                cells.push(SweepCell {
                    label: self.label.clone(),
                    kind,
                    spec,
                    topo: self.topo.clone(),
                    commands: self.mobility.commands(self.topo.len(), seed),
                });
            }
        }
        cells
    }

    /// Run the whole grid across `jobs` workers. The report is in cell
    /// order no matter the worker count; `jobs = 1` runs inline.
    pub fn run(&self, jobs: usize) -> SweepReport {
        run_cells(&self.cells(), jobs)
    }
}

/// Run pre-built cells across `jobs` workers, reports in input order.
pub fn run_cells(cells: &[SweepCell], jobs: usize) -> SweepReport {
    SweepReport {
        runs: par_map(cells, jobs, SweepCell::run),
    }
}

/// Number of workers to default to: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` using `jobs` scoped worker threads, returning
/// results in input order.
///
/// Workers claim indices from an atomic cursor (dynamic load balancing —
/// long cells don't stall a fixed stripe) and send `(index, result)` pairs
/// through a channel; the collector slots them back by index. As long as
/// `f` is a pure function of its item, the output is identical for every
/// `jobs` value. With `jobs <= 1` the items are mapped inline on the
/// calling thread.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // A send only fails if the collector hung up, which it
                // cannot before all workers finish.
                let _ = tx.send((i, f(item)));
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::MobilityMix;
    use crate::topology;

    #[test]
    fn par_map_preserves_order_and_results() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(&items, 1, |&x| x * x);
        for jobs in [2, 3, 8] {
            assert_eq!(par_map(&items, jobs, |&x| x * x), serial, "jobs={jobs}");
        }
        assert_eq!(serial[36], 36 * 36);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn grid_order_is_kind_major_seed_minor() {
        let spec = SweepSpec::new("g", Topo::Geo(topology::line(3)), RunSpec::default())
            .kinds([AlgKind::A2, AlgKind::ChandyMisra])
            .seeds([10, 11]);
        let cells = spec.cells();
        let grid: Vec<(&'static str, u64)> = cells
            .iter()
            .map(|c| (c.kind.name(), c.spec.sim.seed))
            .collect();
        assert_eq!(
            grid,
            vec![
                ("A2", 10),
                ("A2", 11),
                ("chandy-misra", 10),
                ("chandy-misra", 11)
            ]
        );
    }

    #[test]
    fn sweep_jsonl_is_identical_across_job_counts() {
        let spec = SweepSpec::new(
            "line5",
            Topo::Geo(topology::line(5)),
            RunSpec {
                horizon: 3_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2])
        .seed_range(1, 4);
        let serial = spec.run(1).jsonl();
        let parallel = spec.run(4).jsonl();
        assert_eq!(serial, parallel);
        assert_eq!(serial.lines().count(), 4);
    }

    #[test]
    fn probe_cells_report_locality_fields() {
        let spec = SweepSpec::new(
            "line7",
            Topo::Geo(topology::line(7)),
            RunSpec {
                horizon: 20_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2])
        .seeds([5])
        .probe(NodeId(3), 1_000);
        let report = spec.run(2);
        assert_eq!(report.runs.len(), 1);
        // A2's locality is at most 2 whenever anyone starves at all.
        if let Some(m) = report.runs[0].locality {
            assert!(m <= 2, "locality {m}");
        }
        assert!(report.runs[0].to_jsonl().contains("\"starving\""));
    }

    #[test]
    fn budget_overrun_cell_aborts_without_sinking_its_siblings() {
        // Three identical cells except the middle one's event budget is far
        // too small to finish. The old engine panicked there, and par_map
        // propagates worker panics — the whole sweep would have died. Now
        // the overrun is a structured abort on that one report.
        let spec = SweepSpec::new(
            "line5",
            Topo::Geo(topology::line(5)),
            RunSpec {
                horizon: 3_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2])
        .seeds([1, 2, 3]);
        let mut cells = spec.cells();
        cells[1].spec.sim.max_events = 40;
        let report = run_cells(&cells, 2);
        assert_eq!(report.runs.len(), 3);
        let aborted = &report.runs[1];
        assert!(
            aborted
                .abort
                .as_deref()
                .is_some_and(|a| a.contains("event budget exceeded")),
            "abort: {:?}",
            aborted.abort
        );
        assert!(aborted
            .to_jsonl()
            .contains("\"abort\":\"event budget exceeded"));
        for sibling in [&report.runs[0], &report.runs[2]] {
            assert_eq!(sibling.abort, None);
            assert!(sibling.meals > 0);
            assert!(sibling.to_jsonl().ends_with(
                "\"abort\":null,\"retransmissions\":0,\"acks_sent\":0,\
                 \"recoveries\":0,\"buffer_high_water\":0,\"frames_queued\":0,\
                 \"queue_peak\":0,\"burst_transitions\":0,\"frames_lost\":0}"
            ));
        }
    }

    #[test]
    fn mix_cells_run_deterministically_and_stay_safe() {
        let spec = SweepSpec::new(
            "line6",
            Topo::Geo(topology::line(6)),
            RunSpec {
                horizon: 5_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2])
        .seeds([1, 2])
        .mobility(Mobility::Mix(MobilityMix {
            static_frac: 0.5,
            highway_frac: 0.25,
            ..MobilityMix::default()
        }));
        let serial = spec.run(1);
        assert_eq!(serial.jsonl(), spec.run(4).jsonl());
        assert!(serial.runs.iter().all(|r| r.violations == 0));
        // The mix is re-seeded per cell, so the two seeds see different
        // movement schedules.
        let cells = spec.cells();
        assert_ne!(cells[0].commands, cells[1].commands);
        assert!(!cells[0].commands.is_empty());
    }

    #[test]
    fn graph_topology_cells_run() {
        let (n, edges) = topology::star_edges(5);
        let spec = SweepSpec::new(
            "star5",
            Topo::Graph { n, edges },
            RunSpec {
                horizon: 3_000,
                ..RunSpec::default()
            },
        )
        .kinds([AlgKind::A2])
        .seeds([1, 2]);
        let report = spec.run(2);
        assert_eq!(report.runs.len(), 2);
        assert!(report.runs.iter().all(|r| r.violations == 0));
        assert!(report.runs.iter().all(|r| r.meals > 0));
    }
}
