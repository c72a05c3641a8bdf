//! Adversarial soak of `lacr serve`: a 200-request mixed batch against
//! a 3-worker daemon. The contract under fire:
//!
//! * the daemon never dies (exit 0 even with panic-injected requests);
//! * every request line gets exactly one structured response line;
//! * valid requests produce plan text byte-identical to the one-shot
//!   `lacr plan` output for the same netlist;
//! * panics are isolated per request and leave a request-tagged
//!   flight-recorder postmortem;
//! * `{"cmd":"stats"}` probes interleaved with the soak answer with
//!   schema-valid snapshots whose counts stay self-consistent.

use lacr::bench::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};

const TOTAL: usize = 200;
/// Stats probes interleaved into the soak (one per 50 requests).
const PROBES: usize = TOTAL / 50;

/// Stats-snapshot paths that count over the daemon's lifetime and so
/// never decrease from one probe to the next.
const MONOTONE_COUNTERS: &[&[&str]] = &[
    &["requests", "received"],
    &["requests", "ok"],
    &["requests", "degraded"],
    &["requests", "error"],
    &["requests", "rejected"],
    &["requests", "completed"],
    &["pool", "shed_total"],
    &["pool", "completed_total"],
    &["pool", "panics"],
    &["cache", "hits"],
    &["cache", "misses"],
    &["cache", "evictions"],
    &["connections", "accepted_total"],
    &["connections", "shed_total"],
    &["flight", "dumps"],
    &["mem", "allocs"],
    &["mem", "deallocs"],
    &["mem", "peak_bytes"],
    &["mem", "peak_rss_bytes"],
    &["uptime_us"],
];

fn bench_path(name: &str) -> String {
    format!("{}/tests/data/{name}.bench", env!("CARGO_MANIFEST_DIR"))
}

/// The request mix, one line per request, cycling through the six
/// adversarial shapes. Returns (line, expected-kind) pairs.
fn request_mix() -> Vec<(String, &'static str)> {
    (0..TOTAL)
        .map(|i| {
            let id = format!("soak-{i}");
            match i % 8 {
                0 => (format!("malformed request {i} {{"), "malformed"),
                1 => (
                    format!(r#"{{"id":"{id}","bench_path":"/no/such/soak-{i}.bench"}}"#),
                    "unknown-path",
                ),
                2 => (
                    format!(r#"{{"id":"{id}","circuit":"s344","fault":{{"panic":true}}}}"#),
                    "panic",
                ),
                3 => (
                    format!(
                        r#"{{"id":"{id}","bench_path":"{}","budget_ms":0}}"#,
                        bench_path("counter3")
                    ),
                    "over-budget",
                ),
                4 => (
                    format!(r#"{{"id":"{id}","bench":"{}"}}"#, "x".repeat(8192)),
                    "oversized",
                ),
                _ => {
                    let name = if i % 2 == 0 { "counter3" } else { "fir_tap" };
                    (
                        format!(r#"{{"id":"{id}","bench_path":"{}"}}"#, bench_path(name)),
                        if i % 2 == 0 {
                            "valid-counter3"
                        } else {
                            "valid-fir_tap"
                        },
                    )
                }
            }
        })
        .collect()
}

/// One-shot `lacr plan` reference for a `.bench` file: the stdout lines
/// (the byte-identity reference for the daemon's `plan.text`) and the
/// expected daemon status ("ok" for exit 0, "degraded" for exit 3 —
/// e.g. fir_tap's residual tile overflow is a deterministic exit 3).
fn one_shot_reference(name: &str) -> (Vec<String>, &'static str) {
    let out = Command::new(env!("CARGO_BIN_EXE_lacr"))
        .args(["plan", &bench_path(name)])
        .output()
        .expect("one-shot plan runs");
    let status = match out.status.code() {
        Some(0) => "ok",
        Some(3) => "degraded",
        code => panic!(
            "one-shot {name}: exit {code:?}, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        ),
    };
    let lines = String::from_utf8(out.stdout)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();
    (lines, status)
}

#[test]
fn soak_200_requests_against_a_3_worker_daemon() {
    let flight_dir = std::env::temp_dir().join(format!("lacr_soak_flight_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let mix = request_mix();

    let mut child = Command::new(env!("CARGO_BIN_EXE_lacr"))
        .args([
            "serve",
            "--workers",
            "3",
            "--queue-cap",
            "300",
            "--max-line-bytes",
            "4096",
            "--flight-recorder-out",
        ])
        .arg(flight_dir.join("last-run.jsonl"))
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");

    // Feed from a thread so a full stdout pipe can never deadlock the
    // write side (wait_with_output drains stdout/stderr concurrently).
    // A stats probe rides along every 50 requests, mid-soak.
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines: Vec<String> = Vec::with_capacity(TOTAL + PROBES);
    for (i, (line, _)) in mix.iter().enumerate() {
        lines.push(line.clone());
        if (i + 1) % 50 == 0 {
            lines.push(format!(
                r#"{{"cmd":"stats","id":"stats-{}"}}"#,
                (i + 1) / 50
            ));
        }
    }
    let feeder = std::thread::spawn(move || {
        for line in lines {
            writeln!(stdin, "{line}").expect("request written");
        }
        // Dropping stdin sends EOF: the graceful-drain path.
    });
    let out = child.wait_with_output().expect("daemon runs to completion");
    feeder.join().expect("feeder finishes");

    // Zero daemon deaths: EOF drain exits 0 despite 25 injected panics.
    assert_eq!(
        out.status.code(),
        Some(0),
        "daemon exit: {:?}, stderr tail: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .rev()
            .take(15)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Exactly one structured response line per request (and per probe).
    let stdout = String::from_utf8(out.stdout).expect("utf8 responses");
    let all_lines: Vec<Json> = stdout
        .lines()
        .map(|l| parse_json(l).unwrap_or_else(|e| panic!("invalid response JSON ({e}): {l}")))
        .collect();
    let (snapshots, responses): (Vec<Json>, Vec<Json>) = all_lines
        .into_iter()
        .partition(|r| r.get("status").and_then(Json::as_str) == Some("stats"));
    assert_eq!(responses.len(), TOTAL, "one response per request");
    for r in &responses {
        assert!(
            r.get("status").and_then(Json::as_str).is_some(),
            "response without status: {r:?}"
        );
    }

    // Every probe answered with a schema-valid, self-consistent
    // snapshot: status counts sum to completed, nothing completes that
    // was never received, rolling percentiles are ordered.
    assert_eq!(snapshots.len(), PROBES, "one snapshot per probe");
    for s in &snapshots {
        let num = |path: &[&str]| -> f64 {
            let mut cur = s;
            for k in path {
                cur = cur
                    .get(k)
                    .unwrap_or_else(|| panic!("snapshot missing {path:?}: {s:?}"));
            }
            cur.as_num()
                .unwrap_or_else(|| panic!("{path:?} not numeric: {s:?}"))
        };
        assert_eq!(
            num(&["schema_version"]),
            f64::from(lacr::obs::SCHEMA_VERSION)
        );
        let completed = num(&["requests", "completed"]);
        assert_eq!(
            completed,
            num(&["requests", "ok"]) + num(&["requests", "degraded"]) + num(&["requests", "error"])
        );
        assert!(completed + num(&["requests", "rejected"]) <= num(&["requests", "received"]));
        assert_eq!(num(&["pool", "workers"]), 3.0);
        assert!(num(&["pool", "inflight"]) >= 0.0);
        for block in ["queue_wait_us", "service_us"] {
            let (p50, p95, p99) = (
                num(&["latency", block, "p50"]),
                num(&["latency", block, "p95"]),
                num(&["latency", block, "p99"]),
            );
            assert!(p50 <= p95 && p95 <= p99, "{block}: {p50} {p95} {p99}");
        }
    }
    // Probes are answered inline, in order, so every lifetime counter is
    // non-decreasing from one snapshot to the next.
    for pair in snapshots.windows(2) {
        for path in MONOTONE_COUNTERS {
            let num = |s: &Json| path.iter().try_fold(s, |cur, k| cur.get(k))?.as_num();
            let (before, after) = (num(&pair[0]), num(&pair[1]));
            assert!(
                matches!((before, after), (Some(b), Some(a)) if b <= a),
                "{path:?} went backwards: {before:?} -> {after:?}"
            );
        }
    }

    // Index responses that carry an id; count the anonymous ones.
    let mut by_id: BTreeMap<String, &Json> = BTreeMap::new();
    let mut anonymous = 0_usize;
    for r in &responses {
        match r.get("id").and_then(Json::as_str) {
            Some(id) => {
                assert!(by_id.insert(id.to_string(), r).is_none(), "duplicate {id}");
            }
            None => anonymous += 1,
        }
    }
    // Malformed lines (id unrecoverable) + oversized lines (discarded
    // unread) answer with id null.
    let expected_anonymous = mix
        .iter()
        .filter(|(_, kind)| matches!(*kind, "malformed" | "oversized"))
        .count();
    assert_eq!(anonymous, expected_anonymous);

    let reference: BTreeMap<&str, (Vec<String>, &str)> = [
        ("valid-counter3", one_shot_reference("counter3")),
        ("valid-fir_tap", one_shot_reference("fir_tap")),
    ]
    .into_iter()
    .collect();

    for (i, (_, kind)) in mix.iter().enumerate() {
        let id = format!("soak-{i}");
        match *kind {
            "malformed" | "oversized" => continue, // counted above
            "unknown-path" => {
                let r = by_id[&id];
                assert_eq!(r.get("status").and_then(Json::as_str), Some("error"));
                assert_eq!(
                    r.get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str),
                    Some("bad-request"),
                    "{id}: {r:?}"
                );
            }
            "panic" => {
                let r = by_id[&id];
                assert_eq!(
                    r.get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str),
                    Some("panic"),
                    "{id}: {r:?}"
                );
                // Each panic left its own request-tagged postmortem.
                let dump = flight_dir.join(format!("req-{id}.jsonl"));
                assert!(dump.is_file(), "missing postmortem {}", dump.display());
            }
            "over-budget" => {
                let r = by_id[&id];
                assert_eq!(
                    r.get("status").and_then(Json::as_str),
                    Some("degraded"),
                    "{id}: {r:?}"
                );
                assert!(
                    r.get("degradations")
                        .and_then(Json::as_arr)
                        .is_some_and(|a| !a.is_empty()),
                    "{id}: degraded without notes"
                );
            }
            valid => {
                let r = by_id[&id];
                let (expected_text, expected_status) = &reference[valid];
                assert_eq!(
                    r.get("status").and_then(Json::as_str),
                    Some(*expected_status),
                    "{id}: {r:?}"
                );
                let text: Vec<String> = r
                    .get("plan")
                    .and_then(|p| p.get("text"))
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| panic!("{id}: no plan.text"))
                    .iter()
                    .map(|l| l.as_str().expect("text line").to_string())
                    .collect();
                assert_eq!(
                    &text, expected_text,
                    "{id}: daemon plan text differs from one-shot `lacr plan`"
                );
            }
        }
    }

    let _ = std::fs::remove_dir_all(&flight_dir);
}
