//! # `baselines` — comparator algorithms for the Table 1 experiments
//!
//! Executable implementations of the two baselines the paper builds on
//! directly:
//!
//! * [`ChandyMisra`] — the classic hygienic dining-philosophers algorithm
//!   (failure locality `n`), adapted to link churn with the same link-level
//!   contract as the paper's algorithms;
//! * [`choy_singh()`] — Choy–Singh-style doorway algorithm with a fixed
//!   precomputed coloring (failure locality 4, response time `O(δ²)` in
//!   static networks); equivalently, Algorithm 1 with its recoloring module
//!   disabled, which makes the value of recoloring directly measurable.
//!
//! The remaining Table 1 rows (Tsay–Bagrodia / Sivilotti) are carried as
//! literature values by the table generator; see DESIGN.md §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chandy_misra;
pub mod choy_singh;

pub use chandy_misra::{ChandyMisra, CmMsg};
pub use choy_singh::{choy_singh, StaticColoring};
