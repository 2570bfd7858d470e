//! Shared helpers for the experiment binaries that regenerate the paper's
//! table and figures. See EXPERIMENTS.md at the repository root for the
//! mapping from binaries to paper artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod svg;

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
    flag_value("--jobs")
        .map(|v| {
            let n: usize = v.parse().unwrap_or_else(|_| panic!("invalid --jobs '{v}'"));
            assert!(n > 0, "--jobs must be at least 1");
            n
        })
        .unwrap_or_else(harness::default_jobs)
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
    report
        .write_jsonl(&path)
        .unwrap_or_else(|e| panic!("cannot write metrics to {}: {e}", path.display()));
    println!("per-run metrics written to {}", path.display());
}

fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} needs a value")),
            );
        }
    }
    None
}
