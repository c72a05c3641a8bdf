//! The `table1` artifact bin rejects an unknown circuit before planning,
//! and writes no record for it.

use std::process::Command;

#[test]
fn unknown_circuit_fails_before_planning() {
    let records = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("table1_unknown");
    let out = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quiet", "s344", "nosuch"])
        .env("LACR_RECORD_DIR", &records)
        .output()
        .expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown benchmark \"nosuch\""), "{err}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!records.join("RUN_table1.json").exists());
}
