//! # `lme-cli` — run local-mutual-exclusion experiments from the shell
//!
//! A thin, dependency-free command-line front end over the [`harness`]
//! runner:
//!
//! ```text
//! lme list
//! lme run   --alg a2 --topo line:12 --horizon 40000
//! lme run   --alg a1-linial --topo random:24:7 --moves 20 --csv
//! lme probe --alg chandy-misra --topo line:21 --victim 10
//! lme experiments --quick T1 C3
//! ```
//!
//! Argument parsing, topology specs, command execution and the
//! [`experiments`] behind EXPERIMENTS.md live here so they are
//! unit-testable; `main.rs` only forwards `std::env::args`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod exec;
pub mod experiments;
pub mod svg;

pub use args::{parse, Command, TopoSpec};
pub use exec::execute;

/// Entry point shared by `main.rs` and tests: parse and execute, returning
/// the rendered report.
///
/// # Errors
///
/// Returns a usage/diagnostic message on bad arguments or a failed run.
pub fn run_cli<I: IntoIterator<Item = String>>(argv: I) -> Result<String, String> {
    execute(&parse(argv)?)
}
