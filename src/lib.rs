//! # `manet-local-mutex` — local mutual exclusion in mobile ad hoc networks
//!
//! A full reproduction of Attiya, Kogan and Welch, *"Efficient and Robust
//! Local Mutual Exclusion in Mobile Ad Hoc Networks"* (ICDCS 2008; thesis
//! version: A. Kogan, Technion, 2008): the two LME algorithms, every
//! substrate they need (a deterministic MANET simulator, doorways, and
//! distributed coloring procedures), comparison baselines, and the
//! experiment harness that regenerates the paper's table and figures.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`sim`] — deterministic discrete-event MANET simulator;
//! * [`doorway`] — synchronous/asynchronous/double doorways (Figures 1–4);
//! * [`coloring`] — greedy + Linial coloring over cover-free families;
//! * [`lme`] — the paper's Algorithm 1 (two recoloring variants) and
//!   Algorithm 2;
//! * [`baselines`] — Chandy–Misra and Choy–Singh comparators;
//! * [`harness`] — topologies, workloads, safety/liveness checkers,
//!   metrics, failure-locality probes, and the one-call runner;
//! * [`check`] — bounded schedule-space model checker with witness
//!   shrinking and byte-for-byte replay (`lme check`).
//!
//! ## Quickstart
//!
//! ```
//! use manet_local_mutex::harness::{run_algorithm, AlgKind, RunSpec};
//! use manet_local_mutex::harness::topology;
//!
//! let spec = RunSpec { horizon: 20_000, ..RunSpec::default() };
//! let out = run_algorithm(AlgKind::A2, &spec, &topology::line(5), &[]);
//! assert!(out.violations.is_empty());          // never two neighbors eating
//! assert!(out.metrics.meals.iter().all(|&m| m > 0)); // everyone ate
//! println!("static response times: {}", out.static_summary());
//! ```
//!
//! See `examples/` for runnable application scenarios, and `lme
//! experiments` (`crates/cli`) for the command that regenerates every
//! table and figure of EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use baselines;
pub use coloring;
pub use doorway;
pub use harness;
pub use lme_check as check;
pub use local_mutex as lme;
pub use manet_sim as sim;
