//! A malformed `lme` command line is a one-line `error:` and exit status
//! 2, never a panic. That includes a flag the command, or the mode the
//! command line chose, does not read: each `flags` row below once ran
//! with the flag silently ignored.

use std::path::Path;
use std::process::{Command, Output};

fn lme(dir: &Path, line: &str) -> Output {
    let lme = Command::new(env!("CARGO_BIN_EXE_lme"))
        .args(line.split_whitespace())
        .current_dir(dir)
        .output();
    lme.expect("spawn lme")
}

#[test]
fn malformed_jobs_exits_2_without_a_panic() {
    let dir = std::env::temp_dir().join("lme-malformed-flags");
    std::fs::create_dir_all(&dir).unwrap();
    // A real witness, so that every replay row below names a file that
    // replays cleanly without the refused flag.
    let witness = "check --alg a1-greedy --topo line:3 --mutate no-sdf-guard \
                   --horizon 4000 --witness-out w.json";
    assert!(lme(&dir, witness).status.success());
    let jobs = [
        "experiments --quick C4 --jobs 0 => --jobs must be at least 1",
        "experiments --quick C4 --jobs many => invalid --jobs value 'many'",
        "experiments --quick C4 --jobs => flag --jobs needs a value",
        "experiments --quick T9 => unknown experiment id 'T9'",
        "bench live => unknown command 'bench'",
        "run --topo line:5 --horizon 0 => --horizon must be at least 1",
        "probe --topo line:5 --horizon 0 => --horizon must be at least 1",
        "sweep --topo line:5 --horizon 0 --seeds 1 => --horizon must be at least 1",
        "chaos --topo line:5 --horizon 0 => --horizon must be at least 1",
        "check --nodes 2 --horizon 0 => --horizon must be at least 1",
    ];
    let flags = [
        "run --topo line:5 --horizon 2000 --victim 2 => --victim needs --recover",
        "sweep --topo line:4 --horizon 2000 --seeds 1 --victim 1 => --victim needs --recover",
        "run --topo random:12:3 --horizon 2000 --moves 3 --mix 0.5:0.25 => --mix and --moves",
        "check --nodes 2 --horizon 2000 --out c.json \
         => --out does not apply to `lme check --strategy dfs`",
        "check --certify --nodes 2 --horizon 300 --witness-out w2.json \
         => --witness-out does not apply to `lme check --certify`",
        "check --nodes 2 --horizon 2000 --seeds 3 \
         => --seeds does not apply to `lme check --strategy dfs`",
        "check --nodes 2 --horizon 2000 --strategy random --steps 9 \
         => --steps does not apply to `lme check --strategy random`",
        "check --nodes 2 --horizon 2000 --strategy pct --depth 4 \
         => --depth does not apply to `lme check --strategy pct`",
        "check --replay w.json --jobs 4 => --jobs does not apply to `lme check --replay`",
        "check --replay w.json --strategy dfs => --strategy does not apply to `lme check --replay`",
        "check --replay w.json --steps 9 => --steps does not apply to `lme check --replay`",
        "check --replay w.json --depth 4 => --depth does not apply to `lme check --replay`",
        "check --replay w.json --seeds 3 => --seeds does not apply to `lme check --replay`",
        "check --replay w.json --witness-out w2.json \
         => --witness-out does not apply to `lme check --replay`",
        "check --replay w.json --out c.json => --out does not apply to `lme check --replay`",
        "check --nodes 2 --horizon 2000 --think 10..10 => --think needs --liveness",
        "check --nodes 2 --horizon 2000 --eat 5..9 => --eat 5..9: `lme check` takes one time",
        "check --alg a2 --topo clique:3 --steps 8 --horizon 2000 --liveness --think 5..9 \
         => --think 5..9: `lme check` takes one time",
        "live --matrix --duration 40 --alg a2 => --alg does not apply to `lme live --matrix`",
        "live --matrix --duration 40 --topo ring:6 => --topo does not apply to `lme live --matrix`",
        "live --matrix --duration 40 --nodes 4 => --nodes does not apply to `lme live --matrix`",
        "live --matrix --oneshot --conformance \
         => --conformance does not apply to `lme live --matrix`",
    ];
    for case in jobs.iter().chain(&flags) {
        let (line, says) = case.split_once(" => ").expect("command => error");
        let out = lme(&dir, line);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let error = format!("error: {says}");
        assert!(stderr.starts_with(&error), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    }
    // Refused, so nothing was written.
    for file in ["c.json", "w2.json"] {
        assert!(!dir.join(file).exists(), "{file} was written");
    }
    std::fs::remove_file(dir.join("w.json")).ok();
}
