//! A malformed `lme` command line is a one-line `error:` and exit status
//! 2, never a panic.

use std::process::Command;

#[test]
fn malformed_jobs_exits_2_without_a_panic() {
    for case in [
        "experiments --quick C4 --jobs 0 => --jobs must be at least 1",
        "experiments --quick C4 --jobs many => invalid --jobs value 'many'",
        "experiments --quick C4 --jobs => flag --jobs needs a value",
        "experiments --quick T9 => unknown experiment id 'T9'",
        "bench live => unknown command 'bench'",
    ] {
        let (line, says) = case.split_once(" => ").expect("command => error");
        let lme = Command::new(env!("CARGO_BIN_EXE_lme"))
            .args(line.split(' '))
            .output();
        let out = lme.expect("spawn lme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{line}: {stderr}");
        let error = format!("error: {says}");
        assert!(stderr.starts_with(&error), "{line}: {stderr}");
        assert!(!stderr.contains("panicked"), "{line}: {stderr}");
    }
}
