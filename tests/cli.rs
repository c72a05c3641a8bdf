//! Integration tests of the `lacr` command-line binary.

use std::process::Command;

fn lacr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lacr"))
}

#[test]
fn list_names_the_suite() {
    let out = lacr().arg("list").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["s344", "s1423", "s5378"] {
        assert!(text.contains(name), "missing {name} in:\n{text}");
    }
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = lacr().output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn every_dispatched_subcommand_appears_in_the_usage_text() {
    // The dispatcher and the usage text are generated from one table in
    // src/main.rs, so a runnable-but-undocumented subcommand can't
    // exist by construction; this audits the rendered output against
    // the full dispatched set (and will fail when a new subcommand is
    // added to the binary but not here).
    let out = lacr()
        .arg("definitely-not-a-subcommand")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    let header = usage
        .lines()
        .find(|l| l.starts_with("usage: lacr <"))
        .unwrap_or_else(|| panic!("no usage header in:\n{usage}"));
    let names: Vec<&str> = header
        .trim_start_matches("usage: lacr <")
        .split('>')
        .next()
        .expect("closing bracket")
        .split('|')
        .collect();
    let expected = ["list", "plan", "run", "fig2", "retime", "serve"];
    assert_eq!(names, expected, "dispatched set drifted from the test");
    for name in expected {
        // Each subcommand also has a usage body line, not just the header.
        assert!(
            usage.lines().any(|l| l.trim_start().starts_with(name)),
            "subcommand {name} has no usage line:\n{usage}"
        );
    }
    assert!(usage.contains("exit codes"), "{usage}");
}

#[test]
fn list_mentions_serve_mode() {
    let out = lacr().arg("list").output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lacr serve"), "{text}");
}

#[test]
fn unknown_circuit_is_a_clean_error() {
    let out = lacr().args(["plan", "sXYZ"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

#[test]
fn list_rejects_stray_arguments() {
    let out = lacr().args(["list", "--bogus"]).output().expect("runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--bogus"), "{err}");
}

#[test]
fn plan_on_a_bench_file() {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/counter3.bench");
    let out = lacr().args(["plan", input]).output().expect("runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T_init"));
    assert!(text.contains("LAC"));
}

#[test]
fn retime_roundtrips_a_bench_file() {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fir_tap.bench");
    let dir = std::env::temp_dir().join("lacr_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let output = dir.join("fir_tap_retimed.bench");
    let out = lacr()
        .args(["retime", input, output.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    // Exit 0 (pristine) or 3 (degraded-but-complete, e.g. a residual
    // tile overflow on this deliberately tiny floorplan) both write the
    // retimed netlist; anything else is a hard failure.
    let code = out.status.code();
    assert!(
        code == Some(0) || code == Some(3),
        "exit {code:?}, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    if code == Some(3) {
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("degraded"),
            "exit 3 must explain itself on stderr"
        );
    }
    // The produced file must parse and validate.
    let text = std::fs::read_to_string(&output).expect("output written");
    let c = lacr::netlist::bench_format::parse("roundtrip", &text).expect("parses");
    assert!(c.validate().is_empty(), "{:?}", c.validate());
    assert!(c.num_flops() > 0);
}

#[test]
fn missing_file_is_a_one_line_diagnostic_with_path() {
    let out = lacr()
        .args(["plan", "/no/such/dir/ghost.bench"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read"), "{err}");
    assert!(err.contains("/no/such/dir/ghost.bench"), "{err}");
    assert_eq!(err.lines().count(), 1, "one-line diagnostic: {err}");
}

#[test]
fn malformed_bench_cites_path_and_line() {
    let dir = std::env::temp_dir().join("lacr_cli_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken.bench");
    std::fs::write(&path, "INPUT(a)\nOUTPUT(z)\ngarbage\n").expect("write");
    let out = lacr()
        .args(["plan", path.to_str().expect("utf8 path")])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("broken.bench"), "{err}");
    assert!(err.contains("line 3"), "{err}");
}

#[test]
fn expired_budget_exits_3_with_degradation_reasons() {
    let input = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/counter3.bench");
    let out = lacr()
        .args(["plan", input, "--budget-ms", "0"])
        .output()
        .expect("runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("degraded"), "{err}");
    assert!(err.contains("budget"), "{err}");
    // The plan itself still printed.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T_init"), "{text}");
}

#[test]
fn budget_flag_rejects_garbage() {
    let out = lacr()
        .args(["plan", "s344", "--budget-ms", "soon"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--budget-ms"));
}

#[test]
fn removed_trace_chrome_flag_is_a_usage_error() {
    let trace = std::env::temp_dir().join(format!("lacr-cli-trace-{}.json", std::process::id()));
    let out = lacr()
        .args(["run", "s344", "--trace-chrome"])
        .arg(&trace)
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-chrome"));
    assert!(!trace.exists(), "nothing may be written for a removed flag");
}

#[test]
fn fig2_prints_a_tile_map() {
    let out = lacr().args(["fig2", "s344"]).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("legend"));
}

#[test]
fn fig2_writes_the_occupancy_svg() {
    let svg = std::env::temp_dir().join(format!("lacr-cli-fig2-{}.svg", std::process::id()));
    let out = lacr()
        .args(["fig2", "s344"])
        .arg(&svg)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("s344: chip "), "{text}");
    assert!(text.contains("routing congestion"), "{text}");
    assert!(text.contains("; N_FOA = "), "{text}");
    let body = std::fs::read_to_string(&svg).expect("svg written");
    let _ = std::fs::remove_file(&svg);
    assert!(body.starts_with("<svg"), "{body}");
}

#[test]
fn plan_runs_each_stage_once() {
    let metrics = std::env::temp_dir().join(format!("lacr-cli-once-{}.jsonl", std::process::id()));
    let out = lacr()
        .args(["run", "s344", "--quiet", "--metrics-out"])
        .arg(&metrics)
        .output()
        .expect("runs");
    assert!(out.status.success());
    let stream = std::fs::read_to_string(&metrics).expect("stream written");
    let _ = std::fs::remove_file(&metrics);
    let opens = stream
        .lines()
        .filter(|l| l.contains("\"t\":\"span_open\"") && l.contains("\"name\":\"plan.partition\""))
        .count();
    assert_eq!(opens, 1, "plan.partition opened {opens} times");
}
