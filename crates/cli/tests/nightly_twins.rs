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

/// The A2 cells of the chaos and reliability nightlies (`line:9` and
/// `ring:6`, horizon 40000, seeds 1..9): each exits 0, and every in-model
/// row of its table (crash, recover, partition, max-delay) is safe.
#[test]
fn a2_chaos_matrix_is_safe_in_the_model() {
    for topo in ["ring:6", "line:9"] {
        let line = format!("chaos --alg a2 --topo {topo} --horizon 40000 --seed 1 --seeds 8");
        let out = lme(&line).unwrap_or_else(|e| panic!("`lme {line}` failed: {e}"));
        // Columns: fault class, in-model, runs, meals, faults, unsafe, ...
        let rows = out
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>());
        let in_model: Vec<Vec<&str>> = rows.filter(|r| r.len() == 8 && r[1] == "yes").collect();
        assert_eq!(in_model.len(), 4, "`lme {line}`:\n{out}");
        for row in in_model {
            assert_eq!(row[5], "0", "{} row unsafe in `lme {line}`:\n{out}", row[0]);
        }
    }
}

/// Known failure, pinned until ROADMAP item 2 (the ARQ shim's give-up)
/// flips it: the smallest red cell of the chaos nightly, A1-greedy on
/// `line:9` at seed 2, stalls in the burst-loss class and exits 2.
#[test]
fn a1_greedy_burst_loss_stalls_until_item_2() {
    let line = "chaos --alg a1-greedy --topo line:9 --horizon 40000 --seed 2 --seeds 1";
    let err = lme(line).expect_err("the burst-loss stall of ROADMAP item 2 is fixed");
    assert!(
        err.contains("burst-loss stalled: 4 starving node-run(s)"),
        "`lme {line}`:\n{err}"
    );
}
