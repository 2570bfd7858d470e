//! The experiment binaries turn a malformed command line into a one-line
//! error and exit status 2, never a panic.

use std::process::Command;

#[test]
fn malformed_jobs_exits_2_without_a_panic() {
    for args in [&["--jobs", "0"][..], &["--jobs", "many"], &["--jobs"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_seed_sweep"))
            .arg("--quick")
            .args(args)
            .output()
            .expect("spawn seed_sweep");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("--jobs"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
