//! Golden of the `faults` binary's stdout: both engines' fault-rate sweep
//! and the TcktApp retry-budget sweep, whose small budgets abort requests
//! on exhausted retries. The rows pin the exact completed, failed,
//! injected, retried and fault-squash counts, so any change to admission,
//! the retry-budget decision or request termination shows. Re-bless with
//! `BLESS_GOLDEN=1` only when a fault-path change is intentional.

use std::process::Command;

#[test]
fn faults_stdout_matches_golden() {
    let bin = env!("CARGO_BIN_EXE_faults");
    let out = Command::new(bin)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    assert!(out.status.success(), "faults failed: {}", out.status);
    let got = String::from_utf8(out.stdout).expect("faults prints UTF-8");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/faults.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("failed to bless golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "faults output drifted from the golden; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}
