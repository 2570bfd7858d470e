//! `lme-check`: a deterministic schedule-space model checker for the
//! local-mutual-exclusion algorithms.
//!
//! The simulator's only nondeterminism is the per-message delivery delay,
//! legal anywhere in `[1, ν]`; since events are totally ordered by
//! `(time, sequence)`, choosing the delays *is* choosing the interleaving.
//! This crate drives the engine through that space:
//!
//! * [`Plan`]/[`Recorder`] — resolve each non-forced *branch point* per a
//!   plan (DFS prefix, verbatim replay, random walk, PCT priorities) and
//!   record every decision;
//! * [`run_schedule`] — run one schedule and judge it against the checked
//!   properties (LME safety, doorway non-bypass, fork conservation and
//!   eventual eating at quiescence);
//! * [`explore`] — search the space by bounded exhaustive DFS (with DPOR
//!   flip pruning, state-digest dedup in the sequential merge, and
//!   deterministic wave parallelism across `jobs` workers), seeded random
//!   walks, or PCT-style priority schedules — in liveness mode runs
//!   recycle through think/hungry and starvation is detected directly as
//!   a *lasso* (repeated progress digest bracketing a never-fed hungry
//!   node);
//! * [`certify`] — exhaust the extremal schedule space of a small
//!   instance and emit a machine-readable worst-case response-time
//!   certificate for the paper's bounds;
//! * [`Witness`]/[`shrink`]/[`replay`] — serialize a violating schedule as
//!   a single JSON line, minimize it, and re-run it byte-for-byte.
//!
//! Everything is a pure function of the spec and the plan, so a witness
//! found on one machine replays identically on any other. See DESIGN.md §9
//! for the legal-schedule definition and the soundness argument of the
//! reduction.

mod certify;
mod explore;
mod spec;
mod strategy;
mod table;
mod verdict;
mod witness;

pub use certify::{certify, Certificate, CertifyConfig};
pub use explore::{explore, Exploration, ExploreConfig, StrategyKind};
pub use spec::{CheckSpec, Mutation};
pub use strategy::{ChoicePoint, DeliveryRecord, Pct, Plan, Recorder, RecorderMode};
pub use table::{DigestTable, Insert};
pub use verdict::{run_schedule, run_schedule_mode, PropertyViolation, RunVerdict, PROPERTIES};
pub use witness::{replay, shrink, Witness, MIN_DELAY};
