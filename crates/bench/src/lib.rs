//! Shared helpers for the experiment binaries that regenerate the paper's
//! table and figures. See EXPERIMENTS.md at the repository root for the
//! mapping from binaries to paper artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod svg;

use harness::{AlgKind, Automata};
use local_mutex::Algorithm1;
use manet_sim::NodeSeed;

/// True when the binary was invoked with `--quick`: experiment sizes are
/// reduced so the whole suite runs in seconds (used by smoke checks).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Pick between a full-size and a quick-mode parameter.
pub fn sized<T>(full: T, quick: T) -> T {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Print a section header in the style shared by all experiment binaries.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Worker threads for sweep fan-out: `--jobs N` if given, else every core.
/// Results are byte-identical for any value (see `harness::sweep`).
pub fn jobs() -> usize {
    match flag_value("--jobs").map(|v| v.parse::<usize>().map_err(|_| v)) {
        None => harness::default_jobs(),
        Some(Ok(n)) if n > 0 => n,
        Some(Ok(_)) => fail("--jobs must be at least 1"),
        Some(Err(v)) => fail(&format!("invalid --jobs '{v}'")),
    }
}

/// Path given with `--metrics-out PATH`, if any.
pub fn metrics_out() -> Option<std::path::PathBuf> {
    flag_value("--metrics-out").map(std::path::PathBuf::from)
}

/// Append `runs` to the binary-wide metrics collection and, at the end of
/// `main`, write them with [`write_metrics`]. Binaries that produce
/// [`harness::RunReport`]s funnel them here so `--metrics-out` captures
/// every run of the invocation in one JSONL file.
pub fn write_metrics(report: &harness::SweepReport) {
    let Some(path) = metrics_out() else { return };
    if let Err(e) = report.write_jsonl(&path) {
        fail(&format!("cannot write metrics to {}: {e}", path.display()));
    }
    println!("per-run metrics written to {}", path.display());
}

/// A line of `n` nodes (δ = 2) running `kind`, an Algorithm 1 variant,
/// with every node recoloring before its first meal: the bootstrap
/// scenario where the greedy and Linial procedures part ways.
///
/// # Panics
///
/// Panics if `kind` is not of the Algorithm 1 family.
pub fn recoloring_a1(kind: AlgKind, n: usize) -> impl FnMut(NodeSeed) -> Algorithm1 + 'static {
    let Automata::A1(make) = kind.automata(n, &[], Some(2), 0) else {
        panic!("{} is not an Algorithm 1 variant", kind.name());
    };
    move |seed| {
        let mut node = make(&seed);
        node.require_initial_recoloring();
        node
    }
}

/// Report a malformed command line and exit with status 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| fail(&format!("{flag} needs a value"))),
            );
        }
    }
    None
}
