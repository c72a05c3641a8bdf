//! The `ablations` bin rejects an unknown mode or circuit before
//! planning, and prints one row per circuit.

use std::process::{Command, Output};

fn ablations(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ablations"))
        .args(args)
        .output()
        .expect("runs")
}

fn assert_usage_error(out: &Output, problem: &str) {
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(problem), "{err}");
    assert!(
        err.contains("usage: ablations <alpha|nmax|subseg|pruning|sharing>"),
        "{err}"
    );
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_mode_fails_before_planning() {
    assert_usage_error(
        &ablations(&["--quiet", "nosuch"]),
        "unknown mode \"nosuch\"",
    );
    assert_usage_error(&ablations(&["--quiet"]), "no mode given");
}

#[test]
fn unknown_circuit_fails_before_planning() {
    assert_usage_error(
        &ablations(&["sharing", "--quiet", "s344", "nosuch"]),
        "unknown benchmark \"nosuch\"",
    );
}

#[test]
fn sharing_prints_a_header_and_one_row() {
    let out = ablations(&["sharing", "--quiet", "s344"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("circuit  |    sum N_F"), "{text}");
    assert!(lines[1].starts_with("s344     | "), "{text}");
}
