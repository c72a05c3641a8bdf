//! Validates the workspace's machine-readable observability artifacts.
//!
//! Default mode checks a JSONL metrics file produced by `--metrics-out`,
//! line by line:
//!
//! 1. every line is one syntactically valid JSON object;
//! 2. every record carries a known `"t"` type tag;
//! 3. `span_open` / `span_close` records balance like parentheses, with
//!    matching names and depths (no orphaned opens at end of file);
//! 4. the final line is the `summary` record, and it carries a
//!    supported `schema_version`;
//! 5. the `lacr-par` contract holds: every `par.region` span carries
//!    numeric `items`/`threads` attributes, `par.tasks` / `par.steal`
//!    counters only fire inside an open `par.region` span, and the
//!    summed `par.tasks` deltas equal the summed region `items` (a
//!    `par.steal` counter is optional — single-threaded regions never
//!    emit one);
//! 6. the min-period contract holds: no `retime.wd_build` span opens
//!    inside a `retime.min_period` span (every probe runs FEAS, on host
//!    and host-free graphs alike, and the period constraints are built
//!    once, at the planned target), and every `retime.probe` counter
//!    fires inside one (a probe belongs to a search);
//! 7. a `hist` record that carries a `count` (samples of one value
//!    folded into one record) carries a positive integer there.
//!
//! Other artifact kinds have their own modes:
//!
//! - `--run <RUN_x.json>`: provenance (`schema_version`, `threads`,
//!   `git_rev`) plus a `quality` block with the gated metrics on every
//!   circuit entry;
//! - `--bench <BENCH_x.json>`: provenance only (legacy shape otherwise);
//! - `--flight <dump.jsonl>`: a flight-recorder postmortem — versioned
//!   header with a `reason`, an `events` count matching the body, every
//!   body line a known record type;
//! - `--serve <responses.jsonl>`: `lacr serve` output lines — responses,
//!   `{"cmd":"stats"}` probe answers or `--stats-interval-ms`
//!   heartbeats — every line a structured response with an `id`
//!   (string-or-null) and a known `status`, and the payload each status
//!   promises (plan text, error kind/message, rejection reason, a
//!   versioned stats snapshot with its six blocks).
//!
//! Each mode guards a format that crosses a process boundary. Invariants
//! that hold by construction inside one process (a stats snapshot's
//! status partition, `peak >= live`) are unit-tested beside the code
//! that guarantees them.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin check_metrics -- [mode] <file>
//! ```
//!
//! Exits 0 on success (one confirmation line on stdout), 1 with the
//! offending line number on stderr otherwise.

use lacr_bench::json::{parse_json, Json};
use std::process::ExitCode;

/// Quality metrics every `RUN_*.json` circuit entry must carry. A
/// subset of [`lacr_bench::compare::GATED_METRICS`]: the gate also
/// covers artifact-specific metrics (`min_area_flops` in scale runs)
/// that planner run records never have.
const REQUIRED_RUN_METRICS: &[&str] = &["lac_n_foa", "n_wr", "t_clk_ns", "route_overflow"];

const KNOWN_TYPES: &[&str] = &[
    "span_open",
    "span_close",
    "counter",
    "gauge",
    "hist",
    "event",
    "summary",
];

/// Validates the whole stream; returns (records, spans, parallel
/// regions) on success.
fn check_stream(text: &str) -> Result<(usize, usize, usize), String> {
    let mut open_spans: Vec<(String, u64)> = Vec::new();
    let mut records = 0usize;
    let mut spans = 0usize;
    let mut saw_summary = false;
    let mut par_regions = 0usize;
    let mut par_items = 0u64;
    let mut par_tasks = 0u64;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        if saw_summary {
            return Err(format!("line {ln}: records after the summary line"));
        }
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        records += 1;
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: missing \"t\" tag"))?;
        if !KNOWN_TYPES.contains(&t) {
            return Err(format!("line {ln}: unknown record type {t:?}"));
        }
        match t {
            "span_open" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: span_open without name"))?;
                let depth = v
                    .get("depth")
                    .and_then(Json::as_num)
                    .ok_or(format!("line {ln}: span_open without depth"))?;
                if depth as usize != open_spans.len() {
                    return Err(format!(
                        "line {ln}: span_open depth {depth} but {} spans are open",
                        open_spans.len()
                    ));
                }
                if name == "par.region" {
                    let attrs = v
                        .get("attrs")
                        .ok_or(format!("line {ln}: par.region without attrs"))?;
                    let items = attrs
                        .get("items")
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: par.region without numeric items"))?;
                    let threads = attrs
                        .get("threads")
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: par.region without numeric threads"))?;
                    if threads < 1.0 {
                        return Err(format!("line {ln}: par.region with {threads} threads"));
                    }
                    par_regions += 1;
                    par_items += items as u64;
                }
                if name == "retime.wd_build"
                    && open_spans.iter().any(|(n, _)| n == "retime.min_period")
                {
                    return Err(format!(
                        "line {ln}: retime.wd_build opened inside retime.min_period"
                    ));
                }
                open_spans.push((name.to_string(), depth as u64));
            }
            "span_close" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: span_close without name"))?;
                let (open_name, _) = open_spans
                    .pop()
                    .ok_or(format!("line {ln}: span_close with no open span"))?;
                if open_name != name {
                    return Err(format!(
                        "line {ln}: span_close {name:?} does not match open {open_name:?}"
                    ));
                }
                spans += 1;
            }
            "counter" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: counter without name"))?;
                if name == "par.tasks" || name == "par.steal" {
                    if !open_spans.iter().any(|(n, _)| n == "par.region") {
                        return Err(format!(
                            "line {ln}: {name} counter outside any par.region span"
                        ));
                    }
                    let delta = v
                        .get("delta")
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: {name} without numeric delta"))?;
                    if name == "par.tasks" {
                        par_tasks += delta as u64;
                    }
                }
                if name == "retime.probe"
                    && !open_spans.iter().any(|(n, _)| n == "retime.min_period")
                {
                    return Err(format!(
                        "line {ln}: retime.probe counter outside any retime.min_period span"
                    ));
                }
            }
            "hist" => {
                if let Some(count) = v.get("count") {
                    if !count.as_num().is_some_and(|n| n >= 1.0 && n.fract() == 0.0) {
                        return Err(format!("line {ln}: hist count is not a positive integer"));
                    }
                }
            }
            "summary" => {
                check_schema_version(&v).map_err(|e| format!("line {ln}: summary {e}"))?;
                saw_summary = true;
            }
            _ => {}
        }
    }
    if let Some((name, _)) = open_spans.last() {
        return Err(format!("end of file with span {name:?} still open"));
    }
    if !saw_summary {
        return Err("no summary record (stream truncated?)".to_string());
    }
    if par_tasks != par_items {
        return Err(format!(
            "par.tasks total {par_tasks} does not match the {par_items} items \
             declared by {par_regions} par.region span(s)"
        ));
    }
    Ok((records, spans, par_regions))
}

/// Requires a supported `schema_version` on `v`.
fn check_schema_version(v: &Json) -> Result<u32, String> {
    let version = v
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("has no schema_version (artifact predates the telemetry contract)")?
        as u32;
    if version > lacr_obs::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} is newer than this tool's {}",
            lacr_obs::SCHEMA_VERSION
        ));
    }
    Ok(version)
}

/// Requires full provenance (`schema_version`, `threads`, `git_rev`) on
/// a perf-record artifact.
fn check_provenance(v: &Json) -> Result<(), String> {
    check_schema_version(v)?;
    v.get("threads")
        .and_then(Json::as_num)
        .ok_or("record has no numeric threads field")?;
    v.get("git_rev")
        .and_then(Json::as_str)
        .ok_or("record has no git_rev field")?;
    Ok(())
}

/// Validates a `BENCH_*.json` perf record: provenance only — the body
/// shape is bench-specific. Returns the bench name.
fn check_bench_record(text: &str) -> Result<String, String> {
    let v = parse_json(text)?;
    check_provenance(&v)?;
    Ok(v.get("bench")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string())
}

/// Validates a `RUN_*.json` solution-quality artifact: provenance plus
/// a `quality` block with every gated metric on each circuit entry.
/// Returns (bench, circuits).
fn check_run_record(text: &str) -> Result<(String, usize), String> {
    let v = parse_json(text)?;
    check_provenance(&v)?;
    let circuits = v
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("run record has no circuits array")?;
    for c in circuits {
        let name = c
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or("circuit entry without a name")?;
        let q = c
            .get("quality")
            .ok_or(format!("{name}: circuit entry without a quality block"))?;
        for &metric in REQUIRED_RUN_METRICS {
            q.get(metric)
                .and_then(Json::as_num)
                .ok_or(format!("{name}: quality block missing {metric}"))?;
        }
        q.get("n_foa_trajectory")
            .and_then(Json::as_arr)
            .filter(|t| !t.is_empty())
            .ok_or(format!("{name}: quality block missing n_foa_trajectory"))?;
    }
    Ok((
        v.get("bench")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        circuits.len(),
    ))
}

/// Validates a transcript of `lacr serve` response lines: every line is
/// one JSON object with an `id` (string, or null for requests whose id
/// was unrecoverable — malformed or oversized lines) and a `status`
/// from the response taxonomy. Each status implies its payload:
/// `ok`/`degraded` carry a `plan` block with a non-empty `text` array
/// (and `degraded` a non-empty `degradations` array), `error` carries
/// `error.kind`/`error.message`, `rejected` carries a `reason`, and
/// `stats` carries a `schema_version` and the snapshot blocks
/// (`requests`/`pool`/`latency`/`cache`/`connections`/`flight`).
/// Returns (responses, per-status counts in taxonomy order).
fn check_serve_transcript(text: &str) -> Result<(usize, [usize; 5]), String> {
    const STATUSES: [&str; 5] = ["ok", "degraded", "error", "rejected", "stats"];
    const ERROR_KINDS: [&str; 3] = ["bad-request", "plan", "panic"];
    const REJECT_REASONS: [&str; 4] = [
        "overloaded",
        "oversized",
        "shutting-down",
        "connection-limit",
    ];
    let mut counts = [0usize; 5];
    let mut responses = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        responses += 1;
        match v.get("id") {
            Some(Json::Str(_)) | Some(Json::Null) => {}
            other => {
                return Err(format!(
                    "line {ln}: id must be a string or null, got {other:?}"
                ))
            }
        }
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: response without status"))?;
        let slot = STATUSES
            .iter()
            .position(|s| *s == status)
            .ok_or(format!("line {ln}: unknown status {status:?}"))?;
        counts[slot] += 1;
        match status {
            "ok" | "degraded" => {
                let plan = v
                    .get("plan")
                    .ok_or(format!("line {ln}: {status} response without a plan block"))?;
                plan.get("text")
                    .and_then(Json::as_arr)
                    .filter(|t| !t.is_empty())
                    .ok_or(format!("line {ln}: plan block without text lines"))?;
                if status == "degraded" {
                    v.get("degradations")
                        .and_then(Json::as_arr)
                        .filter(|d| !d.is_empty())
                        .ok_or(format!("line {ln}: degraded response without reasons"))?;
                }
            }
            "error" => {
                let e = v
                    .get("error")
                    .ok_or(format!("line {ln}: error response without error block"))?;
                let kind = e
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: error block without kind"))?;
                if !ERROR_KINDS.contains(&kind) {
                    return Err(format!("line {ln}: unknown error kind {kind:?}"));
                }
                e.get("message")
                    .and_then(Json::as_str)
                    .filter(|m| !m.is_empty())
                    .ok_or(format!("line {ln}: error block without message"))?;
            }
            "rejected" => {
                let reason = v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: rejected response without reason"))?;
                if !REJECT_REASONS.contains(&reason) {
                    return Err(format!("line {ln}: unknown rejection reason {reason:?}"));
                }
            }
            _ => {
                check_schema_version(&v).map_err(|e| format!("line {ln}: stats {e}"))?;
                for block in [
                    "requests",
                    "pool",
                    "latency",
                    "cache",
                    "connections",
                    "flight",
                ] {
                    v.get(block)
                        .ok_or(format!("line {ln}: stats response without {block} block"))?;
                }
            }
        }
    }
    if responses == 0 {
        return Err("no response lines (daemon produced no output?)".to_string());
    }
    Ok((responses, counts))
}

/// Validates a flight-recorder postmortem dump: a versioned header line
/// with a `reason` and an `events` count that matches the number of
/// body lines; every body line a known record type. Returns (reason,
/// events).
fn check_flight_dump(text: &str) -> Result<(String, usize), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty flight dump")?;
    let h = parse_json(header).map_err(|e| format!("header: {e}"))?;
    if h.get("t").and_then(Json::as_str) != Some("flight") {
        return Err("header is not a {\"t\":\"flight\"} record".to_string());
    }
    check_schema_version(&h).map_err(|e| format!("header {e}"))?;
    let reason = h
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("header has no reason")?
        .to_string();
    let declared = h
        .get("events")
        .and_then(Json::as_num)
        .ok_or("header has no events count")? as usize;
    let mut body = 0usize;
    for (ln, line) in lines.enumerate() {
        let ln = ln + 2;
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: missing \"t\" tag"))?;
        // A dump is a raw ring snapshot: any record type except the
        // stream-final summary may appear, in any order.
        if !KNOWN_TYPES.contains(&t) || t == "summary" {
            return Err(format!("line {ln}: unknown record type {t:?}"));
        }
        body += 1;
    }
    if body != declared {
        return Err(format!(
            "header declares {declared} events but the body has {body}"
        ));
    }
    Ok((reason, body))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [path] => ("--stream", path.as_str()),
        [mode, path] if matches!(mode.as_str(), "--run" | "--bench" | "--flight" | "--serve") => {
            (mode.as_str(), path.as_str())
        }
        _ => {
            eprintln!(
                "usage: check_metrics \
                 [--run|--bench|--flight|--serve] <file>"
            );
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match mode {
        "--run" => check_run_record(&text).map(|(bench, circuits)| {
            format!("run record for {bench:?}: {circuits} circuit(s) with quality blocks")
        }),
        "--bench" => check_bench_record(&text).map(|bench| format!("bench record for {bench:?}")),
        "--flight" => check_flight_dump(&text)
            .map(|(reason, events)| format!("flight dump ({reason:?}): {events} record(s)")),
        "--serve" => {
            check_serve_transcript(&text).map(|(responses, [ok, deg, err, rej, stats])| {
                format!(
                    "serve transcript: {responses} response(s) \
                     ({ok} ok, {deg} degraded, {err} error, {rej} rejected, {stats} stats)"
                )
            })
        }
        _ => check_stream(&text).map(|(records, spans, par_regions)| {
            format!(
                "{records} records, {spans} spans, \
                 {par_regions} parallel regions, summary present"
            )
        }),
    };
    match outcome {
        Ok(msg) => {
            println!("{path}: ok — {msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_stream() {
        let stream = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"c\",\"delta\":1,\"total\":1}
{\"t\":\"span_close\",\"us\":3,\"name\":\"a\",\"depth\":0,\"incl_us\":2,\"excl_us\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert_eq!(check_stream(stream).unwrap(), (4, 1, 0));
    }

    #[test]
    fn hist_counts_are_positive_integers() {
        let stream = |count: &str| {
            format!(
                "{{\"t\":\"hist\",\"us\":1,\"name\":\"h\",\"value\":2{count}}}\n\
                 {{\"t\":\"summary\",\"schema_version\":1}}\n"
            )
        };
        for good in ["", ",\"count\":1", ",\"count\":300"] {
            assert!(check_stream(&stream(good)).is_ok(), "{good}");
        }
        for bad in [
            ",\"count\":0",
            ",\"count\":-2",
            ",\"count\":1.5",
            ",\"count\":\"3\"",
        ] {
            let err = check_stream(&stream(bad)).unwrap_err();
            assert!(err.contains("hist count"), "{bad}: {err}");
        }
    }

    #[test]
    fn enforces_the_par_counter_contract() {
        // Well-formed region: items == summed par.tasks deltas, counters
        // inside the span, no par.steal at one thread.
        let good = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"par.region\",\"depth\":0,\"attrs\":{\"region\":\"r\",\"items\":3,\"threads\":2}}
{\"t\":\"counter\",\"us\":2,\"name\":\"par.tasks\",\"delta\":3,\"total\":3}
{\"t\":\"counter\",\"us\":3,\"name\":\"par.steal\",\"delta\":1,\"total\":1}
{\"t\":\"span_close\",\"us\":4,\"name\":\"par.region\",\"depth\":0,\"incl_us\":3,\"excl_us\":3}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert_eq!(check_stream(good).unwrap(), (5, 1, 1));

        let short = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"par.region\",\"depth\":0,\"attrs\":{\"region\":\"r\",\"items\":3,\"threads\":1}}
{\"t\":\"counter\",\"us\":2,\"name\":\"par.tasks\",\"delta\":2,\"total\":2}
{\"t\":\"span_close\",\"us\":3,\"name\":\"par.region\",\"depth\":0,\"incl_us\":2,\"excl_us\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(short).unwrap_err().contains("does not match"));

        let orphan_counter = "\
{\"t\":\"counter\",\"us\":1,\"name\":\"par.tasks\",\"delta\":1,\"total\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(orphan_counter)
            .unwrap_err()
            .contains("outside any par.region"));

        let no_items = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"par.region\",\"depth\":0,\"attrs\":{\"region\":\"r\",\"threads\":2}}
{\"t\":\"span_close\",\"us\":2,\"name\":\"par.region\",\"depth\":0,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(no_items)
            .unwrap_err()
            .contains("without numeric items"));
    }

    #[test]
    fn enforces_the_min_period_contract() {
        // Two probes inside the search; the W/D build at the planned
        // target follows the search.
        let good = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"retime.min_period\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"retime.probe\",\"delta\":1,\"total\":1}
{\"t\":\"counter\",\"us\":3,\"name\":\"retime.probe\",\"delta\":1,\"total\":2}
{\"t\":\"span_close\",\"us\":4,\"name\":\"retime.min_period\",\"depth\":0,\"incl_us\":3,\"excl_us\":3}
{\"t\":\"span_open\",\"us\":5,\"name\":\"retime.wd_build\",\"depth\":0,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":6,\"name\":\"retime.wd_build\",\"depth\":0,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert_eq!(check_stream(good).unwrap(), (7, 2, 0));

        // A search that builds W/D breaks the contract.
        let band = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"retime.min_period\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"retime.probe\",\"delta\":1,\"total\":1}
{\"t\":\"span_open\",\"us\":3,\"name\":\"retime.wd_build\",\"depth\":1,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":4,\"name\":\"retime.wd_build\",\"depth\":1,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"span_close\",\"us\":5,\"name\":\"retime.min_period\",\"depth\":0,\"incl_us\":4,\"excl_us\":3}
{\"t\":\"summary\",\"schema_version\":1}
";
        let err = check_stream(band).unwrap_err();
        assert!(
            err.contains("line 3: retime.wd_build opened inside"),
            "{err}"
        );

        // So does a probe outside any search.
        let stray = "\
{\"t\":\"counter\",\"us\":1,\"name\":\"retime.probe\",\"delta\":1,\"total\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(stray)
            .unwrap_err()
            .contains("outside any retime.min_period"));

        // A search whose floor is the unretimed period probes nothing.
        let no_probe = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"retime.min_period\",\"depth\":0,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":3,\"name\":\"retime.min_period\",\"depth\":0,\"incl_us\":2,\"excl_us\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(no_probe).is_ok());
    }

    #[test]
    fn rejects_orphaned_open_and_mismatched_close() {
        let orphan = "{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}\n{\"t\":\"summary\",\"schema_version\":1}\n";
        assert!(check_stream(orphan).unwrap_err().contains("still open"));
        let mismatch = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":2,\"name\":\"b\",\"depth\":0,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(mismatch)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn requires_summary_last() {
        assert!(check_stream("").unwrap_err().contains("no summary"));
        let after = "{\"t\":\"summary\",\"schema_version\":1}\n{\"t\":\"event\",\"us\":1,\"name\":\"x\",\"attrs\":{}}\n";
        assert!(check_stream(after)
            .unwrap_err()
            .contains("after the summary"));
    }

    #[test]
    fn rejects_unversioned_summaries() {
        let legacy = "{\"t\":\"summary\"}\n";
        assert!(check_stream(legacy).unwrap_err().contains("schema_version"));
        let future = "{\"t\":\"summary\",\"schema_version\":999}\n";
        assert!(check_stream(future).unwrap_err().contains("newer"));
    }

    #[test]
    fn validates_run_and_bench_records() {
        let run = include_str!("../../tests/fixtures/run_base.json");
        assert_eq!(check_run_record(run).unwrap(), ("table1".into(), 3));
        assert_eq!(check_bench_record(run).unwrap(), "table1");
        let unversioned = "{\"bench\":\"table1\",\"threads\":4,\"git_rev\":\"ab\",\"circuits\":[]}";
        assert!(check_run_record(unversioned)
            .unwrap_err()
            .contains("schema_version"));
        let no_quality = "{\"schema_version\":1,\"bench\":\"t\",\"threads\":1,\
                          \"git_rev\":\"ab\",\"circuits\":[{\"circuit\":\"s344\"}]}";
        assert!(check_run_record(no_quality)
            .unwrap_err()
            .contains("quality block"));
        let no_rev = "{\"schema_version\":1,\"bench\":\"t\",\"threads\":1,\"circuits\":[]}";
        assert!(check_bench_record(no_rev).unwrap_err().contains("git_rev"));
    }

    #[test]
    fn validates_serve_transcripts() {
        let good = "\
{\"id\":\"a\",\"status\":\"ok\",\"plan\":{\"text\":[\"s: T_init 1.00 ns\"]},\"queue_ms\":0,\"plan_ms\":3}
{\"id\":\"b\",\"status\":\"degraded\",\"plan\":{\"text\":[\"s: T_init 1.00 ns\"]},\"degradations\":[\"[lac] over budget\"]}
{\"id\":null,\"status\":\"error\",\"error\":{\"kind\":\"bad-request\",\"message\":\"no spec\"}}
{\"id\":\"c\",\"status\":\"error\",\"error\":{\"kind\":\"panic\",\"message\":\"boom\",\"flight\":\"req-c.jsonl\"}}
{\"id\":\"d\",\"status\":\"rejected\",\"reason\":\"overloaded\",\"queued\":4,\"capacity\":4}
{\"id\":null,\"status\":\"rejected\",\"reason\":\"connection-limit\",\"active\":64,\"max\":64}
";
        assert_eq!(check_serve_transcript(good).unwrap(), (6, [1, 1, 2, 2, 0]));

        // Each status must carry the payload it promises.
        let bare_ok = "{\"id\":\"a\",\"status\":\"ok\"}\n";
        assert!(check_serve_transcript(bare_ok)
            .unwrap_err()
            .contains("plan block"));
        let silent_degrade = "{\"id\":\"a\",\"status\":\"degraded\",\"plan\":{\"text\":[\"x\"]}}\n";
        assert!(check_serve_transcript(silent_degrade)
            .unwrap_err()
            .contains("without reasons"));
        let kindless = "{\"id\":\"a\",\"status\":\"error\",\"error\":{\"message\":\"m\"}}\n";
        assert!(check_serve_transcript(kindless)
            .unwrap_err()
            .contains("without kind"));
        let odd_reason = "{\"id\":\"a\",\"status\":\"rejected\",\"reason\":\"tuesday\"}\n";
        assert!(check_serve_transcript(odd_reason)
            .unwrap_err()
            .contains("unknown rejection reason"));
        let numeric_id = "{\"id\":7,\"status\":\"ok\",\"plan\":{\"text\":[\"x\"]}}\n";
        assert!(check_serve_transcript(numeric_id)
            .unwrap_err()
            .contains("string or null"));
        assert!(check_serve_transcript("")
            .unwrap_err()
            .contains("no response"));

        // A stats response is part of the taxonomy and must carry its
        // snapshot blocks.
        let with_stats = format!("{}{}", good, stats_snapshot(1, 1, 0, 0, 0));
        assert_eq!(
            check_serve_transcript(&with_stats).unwrap(),
            (7, [1, 1, 2, 2, 1])
        );
        // The snapshot must carry the cache and connection blocks too.
        let no_cache = stats_snapshot(1, 1, 0, 0, 0).replace("\"cache\"", "\"cachette\"");
        assert!(check_serve_transcript(&no_cache)
            .unwrap_err()
            .contains("without cache block"));
        let bare_stats = "{\"id\":null,\"status\":\"stats\",\"schema_version\":1}\n";
        assert!(check_serve_transcript(bare_stats)
            .unwrap_err()
            .contains("without requests block"));
    }

    /// One schema-valid stats snapshot line with the given request
    /// counts (received, ok, degraded, error, rejected).
    fn stats_snapshot(received: u64, ok: u64, degraded: u64, error: u64, rejected: u64) -> String {
        let completed = ok + degraded + error;
        format!(
            "{{\"id\":null,\"status\":\"stats\",\"schema_version\":1,\"uptime_us\":{},\
             \"requests\":{{\"received\":{received},\"ok\":{ok},\"degraded\":{degraded},\
             \"error\":{error},\"rejected\":{rejected},\"completed\":{completed}}},\
             \"pool\":{{\"workers\":2,\"capacity\":8,\"queued\":0,\"inflight\":0,\
             \"shed_total\":{rejected},\"completed_total\":{completed},\"panics\":0}},\
             \"latency\":{{\"window_us\":60000000,\
             \"queue_wait_us\":{{\"count\":{completed},\"rate_per_sec\":0.5,\"mean_us\":10,\
             \"p50\":8,\"p95\":16,\"p99\":16,\"max\":12}},\
             \"service_us\":{{\"count\":{completed},\"rate_per_sec\":0.5,\"mean_us\":900,\
             \"p50\":1024,\"p95\":1024,\"p99\":2048,\"max\":1400}}}},\
             \"cache\":{{\"entries\":1,\"bytes\":512,\"max_entries\":128,\
             \"max_bytes\":16777216,\"hits\":{degraded},\"misses\":{completed},\
             \"evictions\":0}},\
             \"connections\":{{\"active\":1,\"accepted_total\":{received},\
             \"shed_total\":0,\"max\":64}},\
             \"flight\":{{\"dumps\":0,\"capacity\":4096}}}}\n",
            1000 + received * 100
        )
    }

    #[test]
    fn validates_flight_dumps() {
        let good = "\
{\"t\":\"flight\",\"schema_version\":1,\"reason\":\"panic: boom\",\"events\":2,\"dropped\":0}
{\"t\":\"event\",\"us\":1,\"name\":\"route.pass\",\"attrs\":{}}
{\"t\":\"gauge\",\"us\":2,\"name\":\"quality.repeaters\",\"value\":3}
";
        assert_eq!(check_flight_dump(good).unwrap(), ("panic: boom".into(), 2));
        // Count mismatch between header and body.
        let short = "\
{\"t\":\"flight\",\"schema_version\":1,\"reason\":\"r\",\"events\":2,\"dropped\":0}
{\"t\":\"event\",\"us\":1,\"name\":\"x\",\"attrs\":{}}
";
        assert!(check_flight_dump(short).unwrap_err().contains("declares 2"));
        // A dump never contains a summary record.
        let with_summary = "\
{\"t\":\"flight\",\"schema_version\":1,\"reason\":\"r\",\"events\":1,\"dropped\":0}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_flight_dump(with_summary)
            .unwrap_err()
            .contains("unknown record type"));
        // Header must be versioned.
        let legacy = "{\"t\":\"flight\",\"reason\":\"r\",\"events\":0,\"dropped\":0}\n";
        assert!(check_flight_dump(legacy)
            .unwrap_err()
            .contains("schema_version"));
        assert!(check_flight_dump("").unwrap_err().contains("empty"));
    }
}
