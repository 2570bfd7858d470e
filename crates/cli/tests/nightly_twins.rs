//! Tier-1 twins of scheduled CI commands that are cheap enough to run on
//! every build: the same command line, through the same entry point, with
//! the same pass condition.

fn lme(line: &str) -> Result<String, String> {
    lme_cli::run_cli(line.split_whitespace().map(str::to_string))
}

/// PCT walks over 8 seeds on `line:6`, once per algorithm the walks
/// cover; each must end with "no property violations".
#[test]
fn pct_walks_find_no_property_violations() {
    for alg in ["a1-greedy", "a1-linial", "a2", "chandy-misra"] {
        let line =
            format!("check --alg {alg} --topo line:6 --strategy pct --seeds 8 --horizon 8000");
        let out = lme(&line).unwrap_or_else(|e| panic!("`lme {line}` failed: {e}"));
        assert!(
            out.contains("no property violations"),
            "`lme {line}`:\n{out}"
        );
    }
}

/// Every in-model row of a chaos table (crash, recover, partition,
/// max-delay) reads `unsafe 0`.
fn assert_in_model_rows_safe(line: &str, report: &str) {
    // Columns: fault class, in-model, runs, meals, faults, unsafe, ...
    let rows = report
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>());
    let in_model: Vec<Vec<&str>> = rows.filter(|r| r.len() == 8 && r[1] == "yes").collect();
    assert_eq!(in_model.len(), 4, "`lme {line}`:\n{report}");
    for row in in_model {
        assert_eq!(
            row[5], "0",
            "{} row unsafe in `lme {line}`:\n{report}",
            row[0]
        );
    }
}

/// The green cells of the chaos and reliability nightlies (`line:9` and
/// `ring:6`, horizon 40000, seeds 1..9): each exits 0, and every in-model
/// row of its table is safe, the `recover` row's rejoined node included.
fn assert_green(cells: &[(&str, &str)]) {
    for (alg, topo) in cells {
        let line = format!("chaos --alg {alg} --topo {topo} --horizon 40000 --seed 1 --seeds 8");
        let out = lme(&line).unwrap_or_else(|e| panic!("`lme {line}` failed: {e}"));
        assert_in_model_rows_safe(&line, &out);
    }
}

/// Known failures, pinned until ROADMAP item 2 (the ARQ shim's give-up)
/// flips them: a red nightly cell at its first failing seed stalls in the
/// burst-loss class with `starving` node-runs and exits 2, while its
/// in-model rows stay safe.
fn assert_stalls_until_item_2(cells: &[(&str, &str, u64, usize)]) {
    for (alg, topo, seed, starving) in cells {
        let line =
            format!("chaos --alg {alg} --topo {topo} --horizon 40000 --seed {seed} --seeds 1");
        let err = lme(&line).expect_err("the burst-loss stall of ROADMAP item 2 is fixed");
        let stall = format!("burst-loss stalled: {starving} starving node-run(s)");
        assert!(err.contains(&stall), "`lme {line}`:\n{err}");
        assert_in_model_rows_safe(&line, &err);
    }
}

#[test]
fn a2_chaos_matrix_is_safe_in_the_model() {
    assert_green(&[("a2", "ring:6"), ("a2", "line:9")]);
}

#[test]
fn chandy_misra_ring_chaos_is_safe_in_the_model() {
    assert_green(&[("chandy-misra", "ring:6")]);
}

/// The smallest red cell of the chaos nightly.
#[test]
fn a1_greedy_burst_loss_stalls_until_item_2() {
    assert_stalls_until_item_2(&[("a1-greedy", "line:9", 2, 4)]);
}

/// The other red cells of the chaos (`line:9`) and reliability
/// (`ring:6`) nightlies.
#[test]
fn a1_and_choy_singh_burst_loss_stalls_until_item_2() {
    assert_stalls_until_item_2(&[
        ("a1-linial", "line:9", 2, 4),
        ("a1-greedy", "ring:6", 3, 4),
        ("a1-linial", "ring:6", 3, 4),
        ("choy-singh", "ring:6", 1, 3),
    ]);
}
