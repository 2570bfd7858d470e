//! Every simulator and checker table of EXPERIMENTS.md, at quick size,
//! pinned byte for byte: a change that moves a published number fails
//! here instead of leaving the document silently stale. Only the commit
//! in each provenance line is normalised. After an intended change,
//! regenerate the golden with
//!
//! ```text
//! cargo run --release -p lme-cli -- experiments --quick \
//!     T1 F1-F4 F5 F6 C1 C2 C3 C4 M1 AB R CH \
//!     > crates/cli/tests/golden/experiments_quick.md
//! ```
//!
//! and the full-size document with `lme experiments --out EXPERIMENTS.md`.

use lme_cli::experiments;

const GOLDEN: &str = include_str!("golden/experiments_quick.md");

/// `text` with the word after every `at commit ` replaced.
fn normalise(text: &str) -> String {
    let mut parts = text.split("at commit ");
    let head = parts.next().unwrap_or_default().to_string();
    parts.fold(head, |out, part| {
        let rest = part.find(' ').map_or("", |i| &part[i..]);
        format!("{out}at commit <commit>{rest}")
    })
}

fn quick(jobs: &str) -> String {
    let ids = experiments::ids().into_iter();
    let ids = ids.filter(|id| !experiments::WALL_CLOCK.contains(id));
    let flags = ["experiments", "--quick", "--jobs", jobs].into_iter();
    let argv = flags.chain(ids).map(String::from);
    lme_cli::run_cli(argv).unwrap_or_else(|e| panic!("error: {e}"))
}

#[test]
fn quick_experiments_match_the_golden_at_any_job_count() {
    let serial = quick("1");
    assert_eq!(quick("2"), serial, "--jobs changed a block");
    let (got, want) = (normalise(&serial), normalise(GOLDEN));
    let mut lines = got.lines().zip(want.lines()).enumerate();
    if let Some((i, (got, want))) = lines.find(|(_, (g, w))| g != w) {
        let line = i + 1;
        panic!("line {line} moved (regenerate the golden as the header says):\n{got}\n{want}");
    }
    assert_eq!(got, want, "the golden and the rendering differ in length");
}

#[test]
fn normalise_replaces_only_the_commit() {
    let line = "_`lme experiments T1` at commit a8eafdd-dirty · seeds: 7_";
    let want = "_`lme experiments T1` at commit <commit> · seeds: 7_";
    assert_eq!(normalise(line), want);
}
