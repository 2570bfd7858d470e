//! Tier-1 twins of scheduled CI commands that are cheap enough to run on
//! every build: the same command line, through the same entry point, with
//! the same pass condition.

/// PCT walks over 8 seeds on `line:6`, once per algorithm the walks
/// cover; each must end with "no property violations".
#[test]
fn pct_walks_find_no_property_violations() {
    for alg in ["a1-greedy", "a1-linial", "a2", "chandy-misra"] {
        let line =
            format!("check --alg {alg} --topo line:6 --strategy pct --seeds 8 --horizon 8000");
        let out = lme_cli::run_cli(line.split_whitespace().map(str::to_string))
            .unwrap_or_else(|e| panic!("`lme {line}` failed: {e}"));
        assert!(
            out.contains("no property violations"),
            "`lme {line}`:\n{out}"
        );
    }
}
