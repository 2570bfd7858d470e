//! # `harness` — experiment substrate for the reproduction
//!
//! Everything needed to turn the algorithm crates into measurements:
//!
//! * [`topology`] — line / ring / grid / clique / random unit-disk layouts,
//!   star / tree edge lists, and [`Topo`], the initial topology every run
//!   takes;
//! * [`Workload`] — a re-export of the model's application layer, which
//!   lives in `manet_sim` because the checker, the algorithm tests and
//!   the live node use it too: one rule for every exit and every next
//!   hunger (cyclic or one-shot, with eating time ≤ τ);
//! * [`mobility`] — random-waypoint movement scripts and heterogeneous
//!   mobility mixes (static-core + highway + group waypoint);
//! * [`metrics`] and [`safety`] — re-exports of the observers that live in
//!   `manet_sim`, because every host links it: the session fold behind
//!   [`Metrics`] (response-time samples with per-episode static/moved
//!   flags, matching Definition 1 of the paper, meals, demotions,
//!   starvation probes) and the incremental LME checker [`SafetyCore`]
//!   behind [`SafetyMonitor`];
//! * [`failure_locality`] — the one rule for what a fault class does to a
//!   run ([`FaultClass::apply`]), and probes that measure how far from a
//!   crashed node starvation reaches;
//! * [`census`] — message-complexity accounting by message kind;
//! * [`runner`] — one-call execution of any implemented algorithm on any
//!   [`Topo`], returning a [`runner::RunOutcome`]; [`runner::AlgKind`] is
//!   the one table that turns an algorithm name into automata;
//! * [`sweep`] — the parallel, deterministic sweep executor: fans a grid of
//!   `(algorithm, seed)` cells across scoped worker threads, each cell an
//!   independent single-threaded engine run, with output order (and bytes)
//!   independent of the worker count;
//! * [`report`] — run-level observability: per-run [`report::RunReport`]
//!   records, stable JSON-lines emission, and pooled percentile aggregation
//!   across seeds ([`report::AggregateRow`]);
//! * [`stats`] / [`table`] — reporting helpers for the `lme` reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod census;
pub mod failure_locality;
pub mod metrics;
pub mod mobility;
pub mod report;
pub mod runner;
pub mod safety;
pub mod stats;
pub mod sweep;
pub mod table;
pub mod topology;

pub use census::{CensusCounts, MessageCensus};
pub use failure_locality::{probe, response_by_distance, starvation, FaultClass, FlReport};
pub use manet_sim::Workload;
pub use metrics::{Metrics, MetricsData, Sample};
pub use mobility::{MobilityMix, NodeClass, WaypointPlan};
pub use report::{AggregateRow, RunReport, SweepReport};
pub use runner::{run, run_algorithm, run_protocol, AlgKind, Automata, RunOutcome, RunSpec};
pub use safety::{SafetyCore, SafetyMonitor, Violation};
pub use stats::Summary;
pub use sweep::{default_jobs, par_map, run_cells, SweepCell, SweepSpec};
pub use table::Table;
pub use topology::Topo;
