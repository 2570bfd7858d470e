//! A void certificate is a failure: `lme check --certify` exits 2 when
//! the certificate certifies nothing, so a script cannot read it as a
//! pass.

use std::process::Command;

#[test]
fn an_exhausted_budget_voids_the_certificate_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_lme"))
        .args("check --alg a2 --topo line:3 --certify --steps 5".split_whitespace())
        .output()
        .expect("spawn lme");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("budget exhausted"), "{stderr}");
    assert!(stderr.contains("certificate       : VOID"), "{stderr}");
    assert!(out.stdout.is_empty(), "a void report goes to stderr");
}
