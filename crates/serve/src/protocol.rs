//! The serve wire protocol: line-delimited JSON, one request per line
//! in, one response per line out.
//!
//! # Requests
//!
//! ```json
//! {"id":"r1","circuit":"s344","budget_ms":2000}
//! {"id":"r2","bench_path":"tests/data/counter3.bench"}
//! {"id":"r3","bench":"INPUT(a)\nOUTPUT(b)\nb = DFF(a)\n","name":"tiny"}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Exactly one of `circuit` (generated ISCAS89-class name),
//! `bench_path` (a `.bench` file on the daemon's filesystem) or `bench`
//! (inline `.bench` text, optional `name`) selects the netlist.
//! Optional fields: `budget_ms` (wall-clock budget, counted from
//! admission so queue wait is included), `seed` (planner master seed),
//! and `fault` — testing hooks `{"panic":true}` (panic inside the
//! worker, exercising the isolation boundary) and `{"sleep_ms":N}`
//! (hold a worker, forcing queue backlog).
//!
//! # Responses
//!
//! One JSON object per line, always with `id` (`null` when the request
//! line was unparsable) and `status`:
//!
//! * `ok` — `plan` block (periods in ps, flop counts, and `text`, the
//!   exact lines `lacr plan` would print), `quality` gauges, `cached`
//!   (`true` when the plan cache answered, with `cache_age_ms`, the
//!   entry's age), `queue_ms` and `plan_ms`;
//! * `degraded` — same as `ok` plus a non-empty `degradations` array:
//!   the plan is usable but absorbed quality losses (the one-shot
//!   CLI's exit-3 contract, per request); degraded plans are never
//!   cached, so `cached` is always `false` here;
//! * `error` — `error.kind` ∈ {`bad-request`, `plan`, `panic`} and
//!   `error.message`; panics also carry `error.flight`, the tagged
//!   flight-recorder postmortem path;
//! * `rejected` — load shedding, `reason` ∈ {`overloaded`, `oversized`,
//!   `shutting-down`, `connection-limit`}; `overloaded` carries
//!   `queued`/`capacity`; `connection-limit` (socket mode, whole
//!   connection shed at accept time) carries `active`/`max`;
//! * `stats` — the answer to `{"cmd":"stats"}` (id echoed when given):
//!   one live-telemetry snapshot with `uptime_us`, `requests` (counts
//!   by response status, `completed = ok + degraded + error` by
//!   construction), `pool` ([`lacr_par::PoolStats`] gauges/counters —
//!   **the** pool: every connection shares it), `latency` (rolling
//!   queue-wait and service-time views over the pool's one-minute
//!   window), `cache` (plan-cache occupancy/caps and hit/miss/eviction
//!   counters), `connections` (active/accepted/shed gauges and the
//!   configured cap, 0 = unlimited) and `flight` (postmortem dump
//!   count and ring capacity). `check_metrics --serve` validates the
//!   schema version and the blocks.
//!   Stats responses answer on the connection's accept thread, so they
//!   stay live even when every worker is busy.

use crate::cache::CacheCounts;
use lacr_bench::json::{parse_json, Json};
use lacr_core::summary::PlanSummary;
use lacr_obs::json_escape;
use lacr_obs::window::WindowSnapshot;
use lacr_par::PoolStats;
use std::collections::BTreeMap;
use std::io::BufRead;

/// Maximum accepted request-line length by default (1 MiB) — inline
/// netlists fit comfortably; anything larger is shed as `oversized`.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Fault-injection hooks carried by a request (testing only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fault {
    /// Panic inside the worker after admission.
    pub panic: bool,
    /// Hold the worker for this long before planning.
    pub sleep_ms: u64,
}

/// Which netlist a request plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Spec {
    /// A generated ISCAS89-class circuit by name.
    Circuit(String),
    /// A `.bench` file on the daemon's filesystem.
    BenchPath(String),
    /// Inline `.bench` text with a display name.
    BenchInline { name: String, text: String },
}

/// One parsed planning request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response and used to
    /// tag budgets, scopes and flight postmortems.
    pub id: String,
    /// The netlist to plan.
    pub spec: Spec,
    /// Wall-clock budget, ms (daemon default applies when absent).
    pub budget_ms: Option<u64>,
    /// Planner master seed override.
    pub seed: Option<u64>,
    /// Testing hooks.
    pub fault: Fault,
}

/// A request line, parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// A planning request.
    Request(Request),
    /// `{"cmd":"shutdown"}` — drain and exit.
    Shutdown,
    /// `{"cmd":"stats"}` — answer one telemetry snapshot line (the id,
    /// when given, is echoed for correlation).
    Stats { id: Option<String> },
}

/// Responses written so far, by status — the `requests` block of a
/// stats snapshot. The session updates all fields under one lock, so
/// `completed()` always equals the number of `ok`/`degraded`/`error`
/// lines actually written: the snapshot is consistent with respect to
/// in-flight requests (a request mid-plan is in none of the buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounts {
    /// Request lines received (malformed and oversized included).
    pub received: u64,
    /// `ok` responses written.
    pub ok: u64,
    /// `degraded` responses written.
    pub degraded: u64,
    /// `error` responses written (bad-request, plan, panic).
    pub error: u64,
    /// `rejected` responses written (overloaded, oversized, shutdown).
    pub rejected: u64,
}

impl StatusCounts {
    /// Requests answered with a terminal planning outcome
    /// (`ok + degraded + error`); rejections never reached a worker.
    pub fn completed(&self) -> u64 {
        self.ok + self.degraded + self.error
    }
}

/// Connection gauges for the stats snapshot's `connections` block:
/// live and lifetime connection counts for the daemon. In stdin mode
/// the front end itself is the one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnCounts {
    /// Connections currently open.
    pub active: u64,
    /// Connections accepted since start (including later-closed ones).
    pub accepted_total: u64,
    /// Connections shed at accept time by the connection cap.
    pub shed_total: u64,
    /// The configured cap (`--max-connections`; 0 = unlimited).
    pub max: u64,
}

/// A request-line parse failure: the id, when one could be recovered
/// (so the response can still correlate), and the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub id: Option<String>,
    pub message: String,
}

fn as_u64(v: &Json, what: &str) -> Result<u64, String> {
    match v.as_num() {
        Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => Ok(n as u64),
        _ => Err(format!("{what} must be a non-negative integer")),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// [`ParseError`] on malformed JSON or an invalid request shape; the
/// id is included whenever the line parsed far enough to have one.
pub fn parse_line(line: &str) -> Result<Parsed, ParseError> {
    let json = parse_json(line).map_err(|e| ParseError {
        id: None,
        message: format!("malformed JSON: {e}"),
    })?;
    if !matches!(json, Json::Obj(_)) {
        return Err(ParseError {
            id: None,
            message: "request must be a JSON object".to_string(),
        });
    }
    if let Some(cmd) = json.get("cmd").and_then(Json::as_str) {
        return match cmd {
            "shutdown" => Ok(Parsed::Shutdown),
            "stats" => Ok(Parsed::Stats {
                id: json.get("id").and_then(Json::as_str).map(str::to_string),
            }),
            other => Err(ParseError {
                id: json.get("id").and_then(Json::as_str).map(str::to_string),
                message: format!("unknown cmd {other:?} (known: shutdown, stats)"),
            }),
        };
    }
    let id = json.get("id").and_then(Json::as_str).map(str::to_string);
    let fail = |message: String| ParseError {
        id: id.clone(),
        message,
    };
    let id = id
        .clone()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| fail("request needs a non-empty string \"id\"".to_string()))?;

    let mut specs: Vec<Spec> = Vec::new();
    if let Some(name) = json.get("circuit").and_then(Json::as_str) {
        specs.push(Spec::Circuit(name.to_string()));
    }
    if let Some(path) = json.get("bench_path").and_then(Json::as_str) {
        specs.push(Spec::BenchPath(path.to_string()));
    }
    if let Some(text) = json.get("bench").and_then(Json::as_str) {
        let name = json
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("netlist")
            .to_string();
        specs.push(Spec::BenchInline {
            name,
            text: text.to_string(),
        });
    }
    let spec = match specs.len() {
        1 => specs.pop().expect("one spec"),
        0 => {
            return Err(fail(
                "request needs one of circuit|bench_path|bench".to_string(),
            ))
        }
        _ => {
            return Err(fail(
                "circuit, bench_path and bench are mutually exclusive".to_string(),
            ))
        }
    };

    let budget_ms = match json.get("budget_ms") {
        Some(v) => Some(as_u64(v, "budget_ms").map_err(&fail)?),
        None => None,
    };
    let seed = match json.get("seed") {
        Some(v) => Some(as_u64(v, "seed").map_err(&fail)?),
        None => None,
    };
    let mut fault = Fault::default();
    if let Some(f) = json.get("fault") {
        if !matches!(f, Json::Obj(_)) {
            return Err(fail("fault must be an object".to_string()));
        }
        if let Some(p) = f.get("panic") {
            match p {
                Json::Bool(b) => fault.panic = *b,
                _ => return Err(fail("fault.panic must be a boolean".to_string())),
            }
        }
        if let Some(s) = f.get("sleep_ms") {
            fault.sleep_ms = as_u64(s, "fault.sleep_ms").map_err(&fail)?;
        }
    }
    Ok(Parsed::Request(Request {
        id,
        spec,
        budget_ms,
        seed,
        fault,
    }))
}

/// Incremental JSON-object builder for response lines.
struct Obj {
    buf: String,
}

impl Obj {
    fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    fn raw(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    fn str(self, k: &str, v: &str) -> Self {
        let quoted = format!("\"{}\"", json_escape(v));
        self.raw(k, &quoted)
    }

    fn opt_str(self, k: &str, v: Option<&str>) -> Self {
        match v {
            Some(v) => self.str(k, v),
            None => self.raw(k, "null"),
        }
    }

    fn u64(self, k: &str, v: u64) -> Self {
        self.raw(k, &v.to_string())
    }

    fn i64(self, k: &str, v: i64) -> Self {
        self.raw(k, &v.to_string())
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn str_array(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let body: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", json_escape(s.as_ref())))
        .collect();
    format!("[{}]", body.join(","))
}

fn plan_block(summary: &PlanSummary) -> String {
    let min_area = Obj::new()
        .i64("n_foa", summary.min_area_n_foa)
        .i64("n_f", summary.min_area_n_f)
        .i64("n_fn", summary.min_area_n_fn)
        .finish();
    let lac = Obj::new()
        .i64("n_foa", summary.lac_n_foa)
        .i64("n_f", summary.lac_n_f)
        .i64("n_fn", summary.lac_n_fn)
        .u64("rounds", summary.lac_rounds as u64)
        .finish();
    Obj::new()
        .str("circuit", &summary.circuit)
        .u64("t_init_ps", summary.t_init)
        .u64("t_min_ps", summary.t_min)
        .u64("t_clk_ps", summary.t_clk)
        .raw("min_area", &min_area)
        .raw("lac", &lac)
        .raw("text", &str_array(summary.text_lines()))
        .finish()
}

fn quality_block(gauges: &BTreeMap<String, f64>) -> String {
    let mut obj = Obj::new();
    for (name, value) in gauges {
        if value.is_finite() {
            obj = obj.raw(name, &format!("{value}"));
        }
    }
    obj.finish()
}

/// An `ok` / `degraded` response line: the plan summary, the request's
/// `quality.*` gauges, the cache verdict (`cached: true` with the
/// entry's age when the plan cache answered), the queue/plan timings,
/// and `mem_bytes` — the request's gross allocation volume from the
/// worker's scoped allocator delta (0 for cache hits: no planning ran).
#[allow(clippy::too_many_arguments)]
pub fn result_line(
    id: &str,
    summary: &PlanSummary,
    quality: &BTreeMap<String, f64>,
    queue_ms: u64,
    plan_ms: u64,
    mem_bytes: u64,
    cache_age_ms: Option<u64>,
) -> String {
    let status = if summary.is_degraded() {
        "degraded"
    } else {
        "ok"
    };
    let mut obj = Obj::new()
        .str("id", id)
        .str("status", status)
        .raw("plan", &plan_block(summary))
        .raw("quality", &quality_block(quality));
    if summary.is_degraded() {
        let notes: Vec<String> = summary.degradations.iter().map(|d| d.to_string()).collect();
        obj = obj.raw("degradations", &str_array(notes));
    }
    // `cached` is explicit in both directions so transcripts can be
    // grepped for hit/miss without schema knowledge.
    obj = match cache_age_ms {
        Some(age) => obj.raw("cached", "true").u64("cache_age_ms", age),
        None => obj.raw("cached", "false"),
    };
    obj.u64("queue_ms", queue_ms)
        .u64("plan_ms", plan_ms)
        .u64("mem_bytes", mem_bytes)
        .finish()
}

/// An `error` response line. `kind` is `bad-request`, `plan` or
/// `panic`; `flight` is the tagged postmortem path when one was dumped.
pub fn error_line(id: Option<&str>, kind: &str, message: &str, flight: Option<&str>) -> String {
    let mut err = Obj::new().str("kind", kind).str("message", message);
    if let Some(path) = flight {
        err = err.str("flight", path);
    }
    Obj::new()
        .opt_str("id", id)
        .str("status", "error")
        .raw("error", &err.finish())
        .finish()
}

/// A `rejected: overloaded` response line (admission control shed).
pub fn rejected_overloaded_line(id: &str, queued: usize, capacity: usize) -> String {
    Obj::new()
        .str("id", id)
        .str("status", "rejected")
        .str("reason", "overloaded")
        .u64("queued", queued as u64)
        .u64("capacity", capacity as u64)
        .finish()
}

/// A `rejected: oversized` response line (request line over the byte
/// bound; the line was discarded unread, so there is no id).
pub fn rejected_oversized_line(dropped: usize, max: usize) -> String {
    Obj::new()
        .opt_str("id", None)
        .str("status", "rejected")
        .str("reason", "oversized")
        .u64("bytes", dropped as u64)
        .u64("max_bytes", max as u64)
        .finish()
}

/// A `rejected: connection-limit` response line (socket mode: the
/// whole connection was shed at accept time by `--max-connections`;
/// there is no request yet, hence no id). The daemon writes this one
/// line and closes the stream.
pub fn rejected_connection_limit_line(active: u64, max: u64) -> String {
    Obj::new()
        .opt_str("id", None)
        .str("status", "rejected")
        .str("reason", "connection-limit")
        .u64("active", active)
        .u64("max", max)
        .finish()
}

/// A `rejected: shutting-down` response line (arrived after shutdown
/// began; in-flight work still drains).
pub fn rejected_shutdown_line(id: Option<&str>) -> String {
    Obj::new()
        .opt_str("id", id)
        .str("status", "rejected")
        .str("reason", "shutting-down")
        .finish()
}

/// One rolling-latency block (`count`, `rate_per_sec`, `mean_us`, and
/// the ordered `p50`/`p95`/`p99`/`max` bounds in µs).
fn latency_block(w: &WindowSnapshot) -> String {
    // Snapshot floats are always finite (the window span is positive),
    // so `{}` renders valid JSON numbers.
    Obj::new()
        .u64("count", w.count)
        .raw("rate_per_sec", &format!("{}", w.rate_per_sec))
        .raw("mean_us", &format!("{}", w.mean))
        .u64("p50", w.p50)
        .u64("p95", w.p95)
        .u64("p99", w.p99)
        .u64("max", w.max)
        .finish()
}

/// A `stats` response line: one schema-versioned telemetry snapshot.
/// Every field is an unsigned integer; `completed == ok + degraded +
/// error`, ordered percentiles and counters monotone across successive
/// snapshots hold by construction and are asserted by the serve tests.
#[allow(clippy::too_many_arguments)]
pub fn stats_line(
    id: Option<&str>,
    uptime_us: u64,
    counts: &StatusCounts,
    pool: &PoolStats,
    queue_wait: &WindowSnapshot,
    service: &WindowSnapshot,
    cache: &CacheCounts,
    conns: &ConnCounts,
    mem: &lacr_obs::MemStats,
    peak_rss_bytes: u64,
    flight_dumps: u64,
    flight_capacity: u64,
) -> String {
    let requests = Obj::new()
        .u64("received", counts.received)
        .u64("ok", counts.ok)
        .u64("degraded", counts.degraded)
        .u64("error", counts.error)
        .u64("rejected", counts.rejected)
        .u64("completed", counts.completed())
        .finish();
    let pool_block = Obj::new()
        .u64("workers", pool.workers as u64)
        .u64("capacity", pool.capacity as u64)
        .u64("queued", pool.queued as u64)
        .u64("inflight", pool.inflight as u64)
        .u64("shed_total", pool.shed_total)
        .u64("completed_total", pool.completed_total)
        .u64("panics", pool.panics)
        .finish();
    let latency = Obj::new()
        .u64("window_us", queue_wait.window_us)
        .raw("queue_wait_us", &latency_block(queue_wait))
        .raw("service_us", &latency_block(service))
        .finish();
    let cache_block = Obj::new()
        .u64("entries", cache.entries)
        .u64("bytes", cache.bytes)
        .u64("bytes_actual", cache.bytes_actual)
        .u64("max_entries", cache.max_entries)
        .u64("max_bytes", cache.max_bytes)
        .u64("hits", cache.hits)
        .u64("misses", cache.misses)
        .u64("evictions", cache.evictions)
        .finish();
    // Process-level memory: the counting allocator's view plus kernel
    // peak RSS, with the cache audit figure alongside so an operator can
    // see at a glance how much of the heap the plan cache explains.
    let mem_block = Obj::new()
        .u64("live_bytes", mem.live_bytes)
        .u64("peak_bytes", mem.peak_bytes)
        .u64("allocs", mem.allocs)
        .u64("deallocs", mem.deallocs)
        .u64("peak_rss_bytes", peak_rss_bytes)
        .u64("cache_bytes_actual", cache.bytes_actual)
        .finish();
    let conns_block = Obj::new()
        .u64("active", conns.active)
        .u64("accepted_total", conns.accepted_total)
        .u64("shed_total", conns.shed_total)
        .u64("max", conns.max)
        .finish();
    let flight = Obj::new()
        .u64("dumps", flight_dumps)
        .u64("capacity", flight_capacity)
        .finish();
    Obj::new()
        .opt_str("id", id)
        .str("status", "stats")
        .u64("schema_version", u64::from(lacr_obs::SCHEMA_VERSION))
        .u64("uptime_us", uptime_us)
        .raw("requests", &requests)
        .raw("pool", &pool_block)
        .raw("latency", &latency)
        .raw("cache", &cache_block)
        .raw("mem", &mem_block)
        .raw("connections", &conns_block)
        .raw("flight", &flight)
        .finish()
}

/// One bounded line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// The line exceeded the bound and was discarded; `dropped` is how
    /// many bytes were thrown away (including any trailing remainder).
    TooLong { dropped: usize },
    /// End of input.
    Eof,
}

/// Reads one `\n`-terminated line, never buffering more than `max`
/// bytes: an over-long line is discarded to its newline and reported as
/// [`LineRead::TooLong`], so a hostile client cannot balloon memory.
///
/// # Errors
///
/// Any I/O error from the underlying reader.
pub fn read_bounded_line(input: &mut impl BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    let mut dropped = 0_usize;
    let mut over = false;
    loop {
        let buf = input.fill_buf()?;
        if buf.is_empty() {
            // EOF. A partial unterminated line still counts as a line.
            return Ok(if over {
                LineRead::TooLong { dropped }
            } else if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i);
        if over {
            dropped += take;
        } else if line.len() + take > max {
            over = true;
            dropped = line.len() + take;
            line.clear();
        } else {
            line.extend_from_slice(&buf[..take]);
        }
        let consumed = newline.map_or(buf.len(), |i| i + 1);
        input.consume(consumed);
        if newline.is_some() {
            return Ok(if over {
                LineRead::TooLong { dropped }
            } else {
                LineRead::Line(String::from_utf8_lossy(&line).into_owned())
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_the_three_spec_shapes() {
        let r = match parse_line(r#"{"id":"a","circuit":"s344","budget_ms":50,"seed":7}"#) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(r.id, "a");
        assert_eq!(r.spec, Spec::Circuit("s344".into()));
        assert_eq!(r.budget_ms, Some(50));
        assert_eq!(r.seed, Some(7));
        assert_eq!(r.fault, Fault::default());

        let r = match parse_line(r#"{"id":"b","bench_path":"x.bench"}"#) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(r.spec, Spec::BenchPath("x.bench".into()));

        let r = match parse_line(r#"{"id":"c","bench":"INPUT(a)\n","name":"t"}"#) {
            Ok(Parsed::Request(r)) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            r.spec,
            Spec::BenchInline {
                name: "t".into(),
                text: "INPUT(a)\n".into()
            }
        );
    }

    #[test]
    fn stats_command_parses_with_and_without_an_id() {
        assert_eq!(
            parse_line(r#"{"cmd":"stats"}"#),
            Ok(Parsed::Stats { id: None })
        );
        assert_eq!(
            parse_line(r#"{"cmd":"stats","id":"probe-1"}"#),
            Ok(Parsed::Stats {
                id: Some("probe-1".into())
            })
        );
        let e = parse_line(r#"{"cmd":"nope"}"#).unwrap_err();
        assert!(e.message.contains("shutdown, stats"), "{}", e.message);
    }

    #[test]
    fn stats_line_is_valid_json_with_consistent_counts() {
        let counts = StatusCounts {
            received: 10,
            ok: 4,
            degraded: 2,
            error: 1,
            rejected: 2,
        };
        let pool = PoolStats {
            workers: 3,
            capacity: 8,
            queued: 1,
            inflight: 2,
            shed_total: 2,
            completed_total: 7,
            panics: 1,
        };
        let w = WindowSnapshot {
            window_us: 60_000_000,
            count: 7,
            rate_per_sec: 0.116,
            mean: 1500.0,
            max: 4000,
            p50: 1024,
            p95: 4096,
            p99: 4096,
        };
        let cache = CacheCounts {
            entries: 3,
            bytes: 2048,
            bytes_actual: 2048,
            max_entries: 128,
            max_bytes: 1 << 20,
            hits: 5,
            misses: 4,
            evictions: 1,
        };
        let conns = ConnCounts {
            active: 2,
            accepted_total: 6,
            shed_total: 1,
            max: 64,
        };
        let mem = lacr_obs::MemStats {
            live_bytes: 1 << 20,
            peak_bytes: 1 << 22,
            allocs: 1000,
            deallocs: 900,
        };
        let line = stats_line(
            Some("probe"),
            123_456,
            &counts,
            &pool,
            &w,
            &w,
            &cache,
            &conns,
            &mem,
            1 << 23,
            1,
            4096,
        );
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("stats"));
        assert_eq!(json.get("id").and_then(Json::as_str), Some("probe"));
        assert_eq!(
            json.get("uptime_us").and_then(Json::as_num),
            Some(123_456.0)
        );
        let req = json.get("requests").expect("requests block");
        // completed is derived under the same lock: ok+degraded+error.
        assert_eq!(req.get("completed").and_then(Json::as_num), Some(7.0));
        let pool_block = json.get("pool").expect("pool block");
        assert_eq!(
            pool_block.get("completed_total").and_then(Json::as_num),
            Some(7.0)
        );
        let lat = json.get("latency").expect("latency block");
        let qw = lat.get("queue_wait_us").expect("queue_wait block");
        let (p50, p95, p99) = (
            qw.get("p50").and_then(Json::as_num).unwrap(),
            qw.get("p95").and_then(Json::as_num).unwrap(),
            qw.get("p99").and_then(Json::as_num).unwrap(),
        );
        assert!(p50 <= p95 && p95 <= p99);
        let cache_json = json.get("cache").expect("cache block");
        assert_eq!(cache_json.get("hits").and_then(Json::as_num), Some(5.0));
        assert_eq!(
            cache_json.get("max_entries").and_then(Json::as_num),
            Some(128.0)
        );
        assert_eq!(
            cache_json.get("bytes_actual").and_then(Json::as_num),
            Some(2048.0)
        );
        let mem_json = json.get("mem").expect("mem block");
        assert_eq!(
            mem_json.get("live_bytes").and_then(Json::as_num),
            Some((1u64 << 20) as f64)
        );
        assert_eq!(
            mem_json.get("peak_bytes").and_then(Json::as_num),
            Some((1u64 << 22) as f64)
        );
        assert_eq!(
            mem_json.get("peak_rss_bytes").and_then(Json::as_num),
            Some((1u64 << 23) as f64)
        );
        assert_eq!(
            mem_json.get("cache_bytes_actual").and_then(Json::as_num),
            Some(2048.0)
        );
        let conns_json = json.get("connections").expect("connections block");
        assert_eq!(conns_json.get("active").and_then(Json::as_num), Some(2.0));
        assert_eq!(
            conns_json.get("shed_total").and_then(Json::as_num),
            Some(1.0)
        );
        assert_eq!(
            json.get("flight")
                .and_then(|f| f.get("capacity"))
                .and_then(Json::as_num),
            Some(4096.0)
        );
        // Without an id the echo is null, like other anonymous lines.
        let line = stats_line(
            None, 1, &counts, &pool, &w, &w, &cache, &conns, &mem, 0, 0, 4096,
        );
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("id"), Some(&Json::Null));
    }

    #[test]
    fn shutdown_and_faults_parse() {
        assert_eq!(parse_line(r#"{"cmd":"shutdown"}"#), Ok(Parsed::Shutdown));
        let r =
            match parse_line(r#"{"id":"f","circuit":"s27","fault":{"panic":true,"sleep_ms":9}}"#) {
                Ok(Parsed::Request(r)) => r,
                other => panic!("{other:?}"),
            };
        assert!(r.fault.panic);
        assert_eq!(r.fault.sleep_ms, 9);
    }

    #[test]
    fn bad_requests_keep_the_id_when_recoverable() {
        let e = parse_line("not json").unwrap_err();
        assert_eq!(e.id, None);
        let e = parse_line(r#"{"circuit":"s344"}"#).unwrap_err();
        assert_eq!(e.id, None);
        assert!(e.message.contains("id"), "{}", e.message);
        let e = parse_line(r#"{"id":"x"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("x"));
        let e = parse_line(r#"{"id":"y","circuit":"a","bench_path":"b"}"#).unwrap_err();
        assert_eq!(e.id.as_deref(), Some("y"));
        assert!(e.message.contains("mutually exclusive"), "{}", e.message);
        let e = parse_line(r#"{"id":"z","circuit":"a","budget_ms":-3}"#).unwrap_err();
        assert!(e.message.contains("budget_ms"), "{}", e.message);
    }

    #[test]
    fn response_lines_are_valid_json_with_the_contract_fields() {
        let summary = PlanSummary {
            circuit: "c".into(),
            t_init: 1000,
            t_min: 500,
            t_clk: 600,
            min_area_n_foa: 1,
            min_area_n_f: 2,
            min_area_n_fn: 3,
            lac_n_foa: 0,
            lac_n_f: 2,
            lac_n_fn: 3,
            lac_rounds: 2,
            degradations: Vec::new(),
        };
        let mut quality = BTreeMap::new();
        quality.insert("quality.slack_ps".to_string(), 12.5);
        let line = result_line("r1", &summary, &quality, 3, 40, 65536, None);
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(json.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(json.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(json.get("mem_bytes").and_then(Json::as_num), Some(65536.0));
        // A cache hit flips the flag, carries the entry's age, and
        // reports zero allocation (no planning ran).
        let warm = parse_json(&result_line("r1b", &summary, &quality, 3, 0, 0, Some(250)))
            .expect("valid JSON");
        assert_eq!(warm.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(warm.get("cache_age_ms").and_then(Json::as_num), Some(250.0));
        assert_eq!(warm.get("mem_bytes").and_then(Json::as_num), Some(0.0));
        assert_eq!(
            json.get("quality")
                .and_then(|q| q.get("quality.slack_ps"))
                .and_then(Json::as_num),
            Some(12.5)
        );
        let text = json
            .get("plan")
            .and_then(|p| p.get("text"))
            .and_then(Json::as_arr)
            .expect("text array");
        assert_eq!(text.len(), 3);

        let line = error_line(
            Some("r2"),
            "panic",
            "boom \"quoted\"",
            Some("target/x.jsonl"),
        );
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("error"));
        let err = json.get("error").expect("error block");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(
            err.get("flight").and_then(Json::as_str),
            Some("target/x.jsonl")
        );

        let json = parse_json(&rejected_overloaded_line("r3", 4, 4)).expect("valid JSON");
        assert_eq!(
            json.get("reason").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!(json.get("queued").and_then(Json::as_num), Some(4.0));

        let json = parse_json(&rejected_oversized_line(2048, 1024)).expect("valid JSON");
        assert_eq!(json.get("id"), Some(&Json::Null));
        assert_eq!(json.get("reason").and_then(Json::as_str), Some("oversized"));

        let json = parse_json(&rejected_shutdown_line(Some("r4"))).expect("valid JSON");
        assert_eq!(
            json.get("reason").and_then(Json::as_str),
            Some("shutting-down")
        );

        let json = parse_json(&rejected_connection_limit_line(64, 64)).expect("valid JSON");
        assert_eq!(json.get("id"), Some(&Json::Null));
        assert_eq!(
            json.get("reason").and_then(Json::as_str),
            Some("connection-limit")
        );
        assert_eq!(json.get("active").and_then(Json::as_num), Some(64.0));
        assert_eq!(json.get("max").and_then(Json::as_num), Some(64.0));
    }

    #[test]
    fn degraded_responses_carry_their_notes() {
        let summary = PlanSummary {
            circuit: "c".into(),
            t_init: 1000,
            t_min: 500,
            t_clk: 600,
            min_area_n_foa: 1,
            min_area_n_f: 2,
            min_area_n_fn: 3,
            lac_n_foa: 0,
            lac_n_f: 2,
            lac_n_fn: 3,
            lac_rounds: 2,
            degradations: vec![lacr_core::Degradation::new(
                lacr_core::Stage::Lac,
                "budget expired",
            )],
        };
        let line = result_line("d1", &summary, &BTreeMap::new(), 0, 1, 0, None);
        let json = parse_json(&line).expect("valid JSON");
        assert_eq!(json.get("status").and_then(Json::as_str), Some("degraded"));
        let notes = json
            .get("degradations")
            .and_then(Json::as_arr)
            .expect("notes");
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn bounded_reader_sheds_oversized_lines_and_recovers() {
        let data = format!("short\n{}\nafter\n", "x".repeat(100));
        let mut cur = Cursor::new(data.into_bytes());
        assert_eq!(
            read_bounded_line(&mut cur, 16).unwrap(),
            LineRead::Line("short".into())
        );
        assert_eq!(
            read_bounded_line(&mut cur, 16).unwrap(),
            LineRead::TooLong { dropped: 100 }
        );
        assert_eq!(
            read_bounded_line(&mut cur, 16).unwrap(),
            LineRead::Line("after".into())
        );
        assert_eq!(read_bounded_line(&mut cur, 16).unwrap(), LineRead::Eof);
    }

    #[test]
    fn bounded_reader_handles_unterminated_tails() {
        let mut cur = Cursor::new(b"tail-without-newline".to_vec());
        assert_eq!(
            read_bounded_line(&mut cur, 64).unwrap(),
            LineRead::Line("tail-without-newline".into())
        );
        assert_eq!(read_bounded_line(&mut cur, 64).unwrap(), LineRead::Eof);
    }
}
