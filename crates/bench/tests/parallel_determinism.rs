//! Cross-thread determinism, end to end: running an experiment binary
//! with `--jobs 4` must produce *byte-identical* stdout to the serial run.
//! Parallelism lives only in the harness — every cell is an independent,
//! seeded, single-threaded simulation — so any divergence here means a
//! cell ordering or shared-state bug in the executor.

use std::process::Command;

fn stdout_of(bin: &str, args: &[&str]) -> Vec<u8> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        out.status
    );
    out.stdout
}

/// The serial run is also the Fig. 11 golden (warm grid and cold
/// variant, `--quick`), so any change that moves a paper number shows.
/// Re-bless with `BLESS_GOLDEN=1` only for an intended change.
#[test]
fn fig11_quick_parallel_output_is_byte_identical_to_serial() {
    let bin = env!("CARGO_BIN_EXE_fig11");
    let serial = stdout_of(bin, &["--quick", "--jobs", "1"]);
    let parallel = stdout_of(bin, &["--quick", "--jobs", "4"]);
    assert!(!serial.is_empty(), "fig11 produced no output");
    assert_eq!(
        serial,
        parallel,
        "fig11 --jobs 4 diverged from serial:\n--- serial ---\n{}\n--- jobs 4 ---\n{}",
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&parallel)
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig11_quick.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &serial).expect("failed to bless golden file");
        return;
    }
    let want =
        std::fs::read(path).expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&want),
        "fig11 --quick drifted from the golden; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn table1_parallel_output_is_byte_identical_to_serial() {
    let bin = env!("CARGO_BIN_EXE_table1");
    let serial = stdout_of(bin, &["--jobs", "1"]);
    let parallel = stdout_of(bin, &["--jobs", "3"]);
    assert!(!serial.is_empty(), "table1 produced no output");
    assert_eq!(serial, parallel, "table1 --jobs 3 diverged from serial");
}

/// The DAG suite rides the same determinism guarantee: two same-seed
/// `profile --trace` runs of the wide fork/join word-count app must
/// export byte-identical Chrome-trace JSON.
#[test]
fn trace_export_for_dag_app_is_deterministic() {
    let bin = env!("CARGO_BIN_EXE_profile");
    let dir = std::env::temp_dir();
    let p1 = dir.join("specfaas_dag_trace_1.json");
    let p2 = dir.join("specfaas_dag_trace_2.json");
    for p in [&p1, &p2] {
        stdout_of(
            bin,
            &[
                "--app",
                "WordCount",
                "--requests",
                "40",
                "--trace",
                p.to_str().unwrap(),
            ],
        );
    }
    let a = std::fs::read(&p1).expect("first trace file");
    let b = std::fs::read(&p2).expect("second trace file");
    assert!(!a.is_empty(), "trace export is empty");
    assert_eq!(a, b, "same-seed trace exports differ for WordCount");
}
